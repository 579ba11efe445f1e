"""Run the tier-1 tests under a line tracer and fail if a line of src/jcaslink
never runs. Standard library only, beside pytest itself:

    python tests/line_coverage.py [pytest options]

``sys.settrace`` records each line of src/jcaslink that runs in this process;
the executable lines of each module are those that ``co_lines()`` lists for its
code objects. A line the tests cannot run in process ends in
``# untraced: <reason>``; such a line that runs after all is reported too, so
the marks stay true. Exit status: pytest's when it fails, else 1 if any line
is reported, else 0.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "jcaslink"))  # traced paths are compared resolved
MARK = "# untraced:"


def executable_lines(path: str) -> set:
    """Every line that some code object compiled from ``path`` starts an instruction on."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def marked_lines(path: str) -> dict:
    """line number -> reason, for each line that ends in ``MARK``; an empty reason is kept as ''."""
    with open(path, encoding="utf-8") as f:
        return {n: line.split(MARK, 1)[1].strip() for n, line in enumerate(f, start=1) if MARK in line}


def trace(args: list) -> tuple[int, dict]:
    """pytest's exit status over ``args`` and, per module path, the lines that ran."""
    ran, tracers = {}, {}  # tracers: co_filename -> local tracer, or None outside the package

    def local_tracer(path: str):
        lines = ran.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            path = os.path.realpath(filename)
            inside = os.path.dirname(path) == PACKAGE
            tracers[filename] = local_tracer(path) if inside else None
        local = tracers[filename]
        if local is not None:
            local(frame, "line", arg)  # a call reports no line event for its first line
        return local

    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main() -> int:
    os.chdir(ROOT)  # pytest reads its settings from pyproject.toml here
    status, ran = trace(sys.argv[1:] or ["-q"])
    if status:
        return status
    problems = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines, marks = ran.get(path, set()), marked_lines(path)
        where = os.path.relpath(path, ROOT)
        for n in sorted(executable_lines(path) - lines):
            if n not in marks:
                problems.append(f"{where}:{n}: never runs under the tests")
        for n, reason in sorted(marks.items()):
            if n in lines:
                problems.append(f"{where}:{n}: runs, but is marked '{MARK}'")
            elif not reason:
                problems.append(f"{where}:{n}: '{MARK}' gives no reason")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"line coverage: {len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
