"""List, per module of src/qident, the statements that a pytest run never executes.

    python3 tools/untested_lines.py                         # the Tier-1 suite
    python3 tools/untested_lines.py tests/test_io_cli.py -x  # any pytest arguments

Run it from the repository root, where pytest finds its test paths.  A
stdlib stand-in for a coverage tool: ``sys.settrace`` records the lines
run in the package's files while pytest runs in this process.  A statement
counts as run when any of its lines ran (a compound statement, when any line
of its body did); docstrings do not count.  Each module prints the first
lines of the statements that never ran.  Under the trace the Tier-1 suite
takes about 1.6 times as long (65 s against 41 s on a 2-vCPU VM).  Exits
with pytest's status.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
HITS = {str(path): set() for path in (ROOT / "src" / "qident").glob("*.py")}


def _trace(frame, event, arg):
    lines = HITS.get(frame.f_code.co_filename)
    if lines is None:
        return None  # no line events outside the package

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local(frame, event, arg)


def _missed(path: str) -> list[int]:
    ran = HITS[path]
    return sorted({
        node.lineno for node in ast.walk(ast.parse(Path(path).read_text()))
        if isinstance(node, ast.stmt)
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        and ran.isdisjoint(range(node.lineno, node.end_lineno + 1))
    })


def main(argv: list[str]) -> int:
    import pytest

    sys.settrace(_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    for path in sorted(HITS):
        missed = _missed(path)
        print(f"{Path(path).name}: {len(missed)} never run" + (f": {missed}" if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
