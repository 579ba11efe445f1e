"""Fresh-process probes started by run.py; not meant to be run by hand.

    child.py setup WORKLOAD
        Prints the seconds spent importing jcaslink plus one warm-up
        operation of WORKLOAD, measured inside a fresh interpreter.
    child.py trace OUT_JSON ARG...
        Runs ``jcaslink.cli.main(ARG...)`` with every layer traced and writes
        the exit code, output and spans to OUT_JSON.

Only ``sys`` and ``time`` are imported before the timed import, so the
standard-library modules jcaslink needs are charged to jcaslink.
"""

import sys
import time


def setup(workload: str) -> None:
    start = time.perf_counter()
    import jcaslink  # noqa: F401

    if workload == "cli_cold":
        from jcaslink import cli
    else:
        from jcaslink import config  # noqa: F401
    imported = time.perf_counter()

    import contextlib
    import io
    import os
    import tempfile

    import workloads

    op = workloads.warmup_op(workload)
    with tempfile.TemporaryDirectory(dir=os.environ["BENCH_WORK_DIR"]) as tmp:
        csv_path = os.path.join(tmp, "warmup.csv")
        sink = io.StringIO()
        begin = time.perf_counter()
        if workload == "cli_cold":
            with contextlib.redirect_stdout(sink):
                code = cli.main(list(op.argv))
            if code != 0:
                raise SystemExit(f"warm-up exited {code}")
        else:
            workloads.run_document(op, csv_path)
        end = time.perf_counter()
    print(repr((imported - start) + (end - begin)))


def trace(out_path: str, argv: list) -> None:
    import contextlib
    import io
    import json

    import tracing

    tracer = tracing.Tracer()
    from jcaslink import cli

    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    tracer.uninstall()
    record = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "spans": tracer.spans,
        "distinct": {k: sorted(v) for k, v in tracer.distinct.items()},
        "tones": tracer.tones,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    else:
        trace(sys.argv[2], sys.argv[3:])
