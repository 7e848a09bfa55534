"""List the statements of src/haina that the tier-1 tests never run, and fail on any not allowed.

    python tests/never_run.py [extra pytest arguments]

The tracer is the stdlib's, not the coverage package: `sys.settrace` and
`threading.settrace` record every line the package executes, in the main
thread and in each thread started after, while pytest runs the whole suite
in this process.  Child processes are not traced, and the tests on
DESELECTED are left out (their names are printed).  A statement ran if a
line of its own ran: all of a simple statement's lines, the header of a
compound one (its decorators, its `def`, `if` or `with` line), not its
body.  Docstrings are not statements here.

The run fails (exit 1) if a test fails, or if a never-run statement is not on
ALLOWED.  ALLOWED is keyed by module and statement text, not line number, so
an edit elsewhere in a module leaves it valid; each entry allows one
statement.  An entry whose statement did run is reported, not failed, since
a few of them depend on timing.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "haina"

# (module, statement text) -> why tier-1 cannot run it
ALLOWED = {
    ("cli.py", "pass"): "Ctrl-C while `node serve` serves: the tests stop a node with shutdown()",
    ("cli.py", "main()"): "the `__main__` entry runs only in child processes, which are not traced",
    ("node.py", "pass"): "server_close() after the peer closed first: timing decides, so a test could not pin it",
    (
        "experiments.py",
        'raise UsageError("recovered file does not match the uploaded file")',
    ): "download checks every block against its address and the chain root, so a wrong file raises there first",
}

# tracemalloc tests whose traced figures include the tracer's own allocations: a
# traced frame is a heap object.  The untraced tier-1 run still runs them.
DESELECTED = (
    "tests/test_client.py::TestMemory::test_loopback_download_holds_the_file_about_once",
    "tests/test_crypto.py::TestKernels::test_encrypting_leaves_nothing_allocated",
)


def statements(path: Path):
    """(first line, last line, text) of each statement of a module: a compound one by its header."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add(first)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in docstrings:
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        if body:
            text = " ".join(" ".join(lines[node.lineno - 1 : end]).split())
        else:
            text = " ".join(ast.get_source_segment(source, node).split())
        found.append((start, end, text))
    return found


def traced_run(pytest_args) -> tuple:
    """Run pytest under the line tracer: (its exit code, {module file: executed line numbers})."""
    executed = {str(p): set() for p in PACKAGE.glob("*.py")}
    by_filename = {}  # a code object's co_filename -> its module's line set, or None outside the package

    def trace_line(frame, event, arg):
        if event == "line":
            by_filename[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_line

    def trace_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = executed.get(os.path.realpath(filename))
        return None if by_filename[filename] is None else trace_line

    sys.path.insert(0, str(REPO / "src"))  # the checkout's package, whatever is installed; imported only once traced
    threading.settrace(trace_call)
    sys.settrace(trace_call)
    try:
        code = pytest.main(["-q", "--rootdir", str(REPO), str(REPO / "tests"),
                            *(f"--deselect={test}" for test in DESELECTED), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, executed


def main(argv) -> int:
    print("left out of the traced run (tracemalloc would count the tracer's allocations):", *DESELECTED, sep="\n  ")
    code, executed = traced_run(argv)
    if code != 0:
        print(f"the traced test run failed (pytest exit code {code})")
        return 1
    never = {}  # (module, statement text) -> the first line of each never-run statement with that text
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed[str(path)]
        for start, end, text in statements(path):
            total += 1
            if ran.isdisjoint(range(start, end + 1)):
                never.setdefault((path.name, text), []).append(start)
    print(f"{sum(map(len, never.values()))} of {total} statements under src/haina never ran")
    refused = 0
    for (module, text), starts in sorted(never.items(), key=lambda item: (item[0][0], item[1])):
        extra = len(starts) - ((module, text) in ALLOWED)
        refused += extra
        print(f"  {module}:{','.join(map(str, starts))}: {text}  -- {'NOT ALLOWED' if extra else ALLOWED[module, text]}")
    for module, text in sorted(set(ALLOWED) - set(never)):
        print(f"  allowed, but ran this time: {module}: {text}")
    if refused:
        print(f"{refused} never-run statement(s) not on ALLOWED: test each, or delete it")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
