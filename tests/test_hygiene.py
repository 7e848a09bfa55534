"""Source hygiene checks: unused imports, wrapped names and exports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import haina

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "haina"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """Names bound by the module's top-level import statements."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_every_module_is_checked():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_span_wrapped_name_exists():
    # perfbench/spans.py wraps haina's layer boundaries by name, so a deleted or renamed one fails here
    paths = [str(REPO / "src"), str(REPO / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import spans; spans.install(spans.Tracer(), client_side=True)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_every_exported_name_exists():
    missing = [name for name in haina.__all__ if not hasattr(haina, name)]
    assert not missing, f"haina.__all__ names what the package does not define: {', '.join(missing)}"
