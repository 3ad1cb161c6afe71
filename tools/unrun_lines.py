"""List the lines of src/lreckit that a pytest run never executes.

Usage, from the repository root:

    python tools/unrun_lines.py [pytest arguments]

With no arguments it runs `tests -q -p no:cacheprovider`. It needs only
the standard library and pytest: pytest runs in this process under
`sys.settrace`, and only frames whose code lies in src/lreckit are traced
line by line. The candidate lines are those of every code object in each
module's compiled source (`co_lines()`); a line counts as run when a
`call` or `line` event reports it. Code that runs in child processes is
not seen. Prints one `path:line: source` row per unrun line, then a
summary, and exits with pytest's exit code. Tracing slows the suite
several-fold.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lreckit"


def candidate_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from `path` maps to."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    # per code object, its lines not seen yet; a finished one is not traced
    left: dict[object, set[int]] = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        rem = left.get(code)
        if rem is None:
            if not code.co_filename.startswith(prefix):
                left[code] = rem = set()
            else:
                rem = left[code] = {
                    line for _, _, line in code.co_lines() if line}
        if not rem:
            return None
        seen = ran.setdefault(code.co_filename, set())
        seen.add(frame.f_lineno)
        rem.discard(frame.f_lineno)

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                rem.discard(frame.f_lineno)
                if not rem:
                    return None
            return on_line

        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv or ["tests", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = candidate_lines(path)
        missing = sorted(lines - ran.get(str(path), set()))
        total += len(lines)
        unrun += len(missing)
        source = path.read_text().splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} traced lines never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
