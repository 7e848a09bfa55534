"""Source hygiene checks: unused and function-level imports, wrapped names and the spans they record, what a node imports, and validators."""

import ast
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from haina.errors import ParseError
from haina.experiments import ClusterSpec
from haina.metafile import MetaFile

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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # an import in a function runs on every call; a real cycle is better broken than hidden
    tree = ast.parse(path.read_text(), filename=str(path))
    inner = [
        node.lineno
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inner, f"{path.name} imports inside a function at line(s) {', '.join(map(str, inner))}"


PYTHON_FILES = sorted(p for d in ("src", "perfbench", "tests") for p in (REPO / d).rglob("*.py"))


@pytest.mark.parametrize("path", PYTHON_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_every_file_parses_as_python_3_10(path):
    # CI also runs 3.10, which may not be installed where the tests run: check its grammar here
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_3_10_grammar_check_rejects_3_11_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_span_wrapped_name_exists():
    # perfbench/spans.py wraps haina's layer boundaries by name, so a deleted or renamed one fails here
    paths = [str(REPO / "src"), str(REPO / "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import spans; spans.install(spans.Tracer(), client_side=True)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


# every span name that one SimNet upload of BLOCKS blocks and one bi download record
SIM_SPANS = [
    "blockstore.get",
    "blockstore.put",
    "chain.build",
    "chain.codec",
    "client.decision",
    "client.fetch",
    "crypto.decrypt",
    "crypto.encrypt",
    "crypto.keygen",
    "crypto.shard",
    "hashing.digest",
    "locking",
    "node.handle",
    "por.campaign",
    "por.check_store",
    "resolve",
    "simnet.request",
]
BLOCKS = 8
# the exact count of each name that several wrapped attributes share
SHARED_SPANS = {
    "chain.codec": 3 * BLOCKS,  # serialize_block on upload; deserialize_block in the client's fetch and the node's put
    "client.fetch": 1,  # bdam_fetch; unidirectional_fetch is not called
    "crypto.shard": 3,  # split_ciphertext, embed_key_shards, extract_key_shards
    "locking": 1 + BLOCKS,  # lock_chain once, unlock_block per block
}


def test_every_simulator_span_fires():
    # a refactor that calls a wrapped name directly, not through its module attribute, would zero its per-layer metric
    paths = [str(REPO / "src"), str(REPO / "perfbench")]
    code = f"""
import collections, json, sys
sys.path[:0] = {paths!r}
import spans
tracer = spans.Tracer()
spans.install(tracer, client_side=True)
from haina.client import download, upload
from haina.experiments import ClusterSpec, build_cluster
net, nf, _, cfg = build_cluster(ClusterSpec(nodes=5, latency_ms=5.0, seed=1))
report = upload(bytes(range(256)) * 4, {BLOCKS}, cfg, nf, net, seed=1)
assert download(report.meta, nf, net, mode="bi").data == bytes(range(256)) * 4
print(json.dumps(collections.Counter(span[2] for span in tracer.spans)))
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert sorted(counts) == SIM_SPANS
    assert {name: counts[name] for name in SHARED_SPANS} == SHARED_SPANS


def test_a_node_loads_no_client_code():
    # a node never encrypts: importing it in a fresh interpreter must not load the cipher stack
    code = (
        f"import sys; sys.path[:0] = {[str(REPO / 'src')]!r}; import haina.node; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'cryptography' "
        "or m in ('haina.client', 'haina.crypto')))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", f"import haina.node loaded {result.stdout.strip()}"


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps to list loaded libraries")
def test_a_node_maps_no_libgcrypt():
    # libgcrypt decrypts for the client only; a node process never loads it
    code = (
        f"import sys; sys.path[:0] = {[str(REPO / 'src')]!r}; import haina.node; "
        "print('libgcrypt' in open('/proc/self/maps').read())"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# one valid instance of each validating dataclass; a new int field is checked as soon as it exists
VALID = [MetaFile("node001:9000", bytes(32), b"\x01" * 32, 1, bytes(16), 1, bytes(32)), ClusterSpec()]
INT_FIELDS = [(valid, f.name) for valid in VALID for f in fields(valid) if f.type is int]


@pytest.mark.parametrize("valid,name", INT_FIELDS, ids=[f"{type(v).__name__}.{n}" for v, n in INT_FIELDS])
def test_validators_reject_bool_for_int_fields(valid, name):
    # JSON true is a Python bool, and so an int
    with pytest.raises(ParseError, match=f"^{name}:"):
        replace(valid, **{name: True})
