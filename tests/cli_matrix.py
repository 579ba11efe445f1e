"""Run every case of tests/data/cli_cases.txt in fresh interpreters, under
PYTHONHASHSEED=0, PYTHONHASHSEED=1, ``python -S`` (without ``site``, whose
.pth files may preload what the lazy imports skip) and ``python -OO``
(without docstrings or asserts), each in a new empty directory. A case fails
when its exit code, stdout, stderr or output differs between the four runs
or from the table. Standard library only:

    python tests/cli_matrix.py

The table parser and checks here are shared with tests/test_cli.py, which
runs the same cases in process.
"""

import os
import subprocess
import sys
import tempfile
from collections import namedtuple

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TABLE = os.path.join(DATA, "cli_cases.txt")

# stderr is the expected error line, fixture a file under DATA, same_as an earlier case's name.
Case = namedtuple("Case", "name code argv stderr fixture same_as")
# output is the CSV a sweep wrote (None if it wrote none), or else stdout; all bytes.
# written names every file the run left in its directory.
Result = namedtuple("Result", "code stdout stderr output written")
RUNS = {
    "PYTHONHASHSEED=0": ((), "0"),
    "PYTHONHASHSEED=1": ((), "1"),
    "python -S": (("-S",), None),
    "python -OO": (("-OO",), None),
}


def read_cases() -> dict:
    """The table's cases by name, in file order; a malformed line is a ValueError."""
    cases = {}
    with open(TABLE, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            fields = [field.strip() for field in line.split("|", 3)]
            if len(fields) != 4 or not fields[0] or " " in fields[0] or fields[0] in cases or not fields[1].isdigit():
                raise ValueError(f"{TABLE} line {lineno}: expected 'name | exit code | argv | expectation', unique name")
            name, code, argv, expect = fields
            code = int(code)
            if code and not expect.startswith("error["):
                raise ValueError(f"{TABLE} line {lineno}: a nonzero exit needs its error[...] line")
            cases[name] = Case(
                name, code, argv.replace("{data}", DATA).split(),
                stderr=expect if code else None,
                fixture=expect if not code and expect and expect not in cases else None,
                same_as=expect if not code and expect in cases else None,
            )
    return cases


def result(case: Case, directory: str, code: int, stdout: bytes, stderr: bytes) -> Result:
    """The run's Result, reading the CSV, if the case names one, from its ``--out`` path under directory."""
    written = sorted(os.listdir(directory))
    if "--out" not in case.argv:
        return Result(code, stdout, stderr, stdout, written)
    path = os.path.join(directory, case.argv[case.argv.index("--out") + 1])
    if not os.path.exists(path):
        return Result(code, stdout, stderr, None, written)
    with open(path, "rb") as f:
        return Result(code, stdout, stderr, f.read(), written)


def expected_output(case: Case, output_of) -> bytes | None:
    """The bytes the case's output must equal: its fixture, ``output_of`` the
    case it names, or None when the table pins neither."""
    if case.same_as:
        return output_of(case.same_as)
    if case.fixture:
        with open(os.path.join(DATA, case.fixture), "rb") as f:
            return f.read()
    return None


def problems(case: Case, got: Result, expected: bytes | None) -> list:
    """How the run differs from the table: exit code, the whole stderr line,
    no stdout and no file written after a failure, and the expected output."""
    found = []
    if got.code != case.code:
        found.append(f"exit code {got.code}, expected {case.code}")
    stderr = f"{case.stderr}\n".encode() if case.code else b""
    if got.stderr != stderr:
        found.append(f"stderr {got.stderr!r}, expected {stderr!r}")
    if case.code and got.stdout:
        found.append(f"stdout {got.stdout[:200]!r} after a failure")
    if case.code and got.written:
        found.append(f"{', '.join(got.written)} written after a failure")
    if expected is not None and got.output != expected:
        found.append(f"output differs from {case.fixture or case.same_as}")
    return found


def run(case: Case, directory: str, flags=(), seed: str | None = None) -> Result:
    """Run the case in a new interpreter with this checkout's src on the path, in directory."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONHASHSEED"}
    env["PYTHONPATH"] = SRC
    if seed is not None:
        env["PYTHONHASHSEED"] = seed
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "jcaslink.cli", *case.argv], cwd=directory, env=env, capture_output=True
    )
    return result(case, directory, proc.returncode, proc.stdout, proc.stderr)


def main() -> int:
    cases = read_cases()
    outputs, failed = {}, 0
    with tempfile.TemporaryDirectory() as root:
        for case in cases.values():
            runs = {label: run(case, tempfile.mkdtemp(dir=root), *how) for label, how in RUNS.items()}
            (first_label, first), *rest = runs.items()
            found = []
            for label, other in rest:
                fields = [field for field in Result._fields if getattr(other, field) != getattr(first, field)]
                if fields:
                    found.append(f"{label} differs from {first_label} in {', '.join(fields)}")
            found += problems(case, first, expected_output(case, outputs.__getitem__))
            outputs[case.name] = first.output
            for problem in found:
                print(f"FAIL {case.name}: {problem}")
            failed += bool(found)
    print(f"{len(cases)} cases x {len(RUNS)} runs: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
