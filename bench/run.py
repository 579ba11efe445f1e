"""jcaslink benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload grid_dense --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --write-golden

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy. A run warms up, measures set-up
time in fresh processes, then runs the workload's operations in a closed
loop with one client for ``--seconds`` (in whole operation cycles, and at
least MIN_OPS operations). ``--trace 1`` makes a separate traced run that
reports per-layer metrics instead (see README.md).

Every operation's output is checked. The report goes to stdout; its last
line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 1 when an output check fails and 2 when the
package source is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"

MIN_OPS = 100  # the 90th percentile needs ten samples above it
HARD_LIMIT_S = 150.0
SETUP_RUNS = 15
CHILD_TIMEOUT_S = 60
GOLDEN_OPS = {"grid_dense": 120, "scenario_scan": 540, "cli_cold": 48}
# Traced runs evaluate a fixed list of operations, so counts repeat exactly.
TRACE_OPS = {"grid_dense": 3, "scenario_scan": 180, "cli_cold": 12}

END_TO_END = {
    "points_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

IMPORT_MODULES = (
    "jcaslink",
    "jcaslink._version",
    "jcaslink.errors",
    "jcaslink.constants",
    "jcaslink.geometry",
    "jcaslink.waveform",
    "jcaslink.linkbudget",
    "jcaslink.performance",
    "jcaslink.spectrum",
    "jcaslink.sweep",
    "jcaslink.config",
    "jcaslink.cli",
)
CLI_COMMANDS = ("simulate", "sweep", "bands")
PARSE_SPANS = ("config.parse_config_text", "config.parse_config_file", "config.parse_overrides")
BUILD_SPANS = ("config.scenario_from_values", "config.sweep_spec_from_values")


def _import_metric(module: str) -> str:
    return f"cli.import.{module.rpartition('.')[2]}_ms"


PER_LAYER = {
    "waveform.sensing_rms_bandwidth.calls_per_point": "count",
    "waveform.sensing_rms_bandwidth.distinct_ratio": "ratio",
    "waveform.tones_per_point": "count",
    "waveform.self_us_per_point": "us",
    "linkbudget.scenario_inits_per_point": "count",
    "linkbudget.scenario_init.self_us": "us",
    "linkbudget.fspl_db.calls_per_point": "count",
    "linkbudget.noise_power_dbw.calls_per_point": "count",
    "linkbudget.integration_gain_db.calls_per_point": "count",
    "linkbudget.self_us_per_point": "us",
    "geometry.implied_altitude.calls_per_point": "count",
    "geometry.self_us_per_point": "us",
    "performance.self_us_per_point": "us",
    "performance.ici_effective_snr_db.calls_per_point": "count",
    "sweep.run_point.calls": "count",
    "sweep.run_point.self_us": "us",
    "sweep.run_sweep.self_ms": "ms",
    "sweep.emit_csv.ms": "ms",
    "sweep.emit_csv.bytes": "bytes",
    "sweep.scenario_fingerprint.us": "us",
    "config.parse_us_per_op": "us",
    "config.spec_build_us_per_op": "us",
    "cli.interp_floor_ms": "ms",
    "cli.import_ms": "ms",
    **{_import_metric(m): "ms" for m in IMPORT_MODULES},
    "cli.main_ms": "ms",
    **{f"cli.main.{c}_ms": "ms" for c in CLI_COMMANDS},
    "spectrum.load_registry_ms": "ms",
    "spectrum.lookups_per_op": "count",
    "trace.overhead.points_per_s_pct": "%",
    "trace.overhead.op_p50_ms_pct": "%",
}


class Tally:
    """Outcomes of the operations of one pass or run."""

    def __init__(self):
        self.latencies = []  # seconds, one per attempted operation
        self.points = 0  # grid points evaluated and written to CSV
        self.evaluated = 0  # grid points evaluated, CSV or not
        self.csv_bytes = 0
        self.failed = 0
        self.failures = {}  # kind of failed operation -> count
        self.problems = []  # output-check failures: the run is not correct
        self.last_digest = None  # output digest of the last operation

    def record(self, op, elapsed, digest=None, failure=None, problem=None, csv_bytes=0):
        self.latencies.append(elapsed)
        self.last_digest = digest
        if failure is None:
            self.points += op.points
            self.evaluated += op.evaluated
            self.csv_bytes += csv_bytes
        else:
            self.failed += 1
            self.failures[failure] = self.failures.get(failure, 0) + 1
        if problem is not None:
            self.problems.append(f"op {op.index}: {problem}")

    def absorb(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.failed += other.failed
        self.problems += other.problems
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n

    def points_per_s(self) -> float:
        return self.points / sum(self.latencies)

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1000.0


class Bench:
    """Runs and checks the operations of one workload and seed."""

    def __init__(self, workload: str, seed: int, work_dir: Path, golden: dict):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.golden = golden
        # Children keep bytecode caches, as an installed package does.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), BENCH_WORK_DIR=str(work_dir))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.csv_path = work_dir / "op.csv"

    def op(self, index: int):
        return workloads.make_op(self.workload, self.seed, index)

    def run_op(self, op, tally: Tally, trace_record: Path | None = None) -> None:
        if self.workload == "cli_cold":
            self._run_cli(op, tally, trace_record)
        else:
            self._run_document(op, tally)

    def _run_document(self, op, tally: Tally) -> None:
        from jcaslink.errors import ConfigError, DomainError

        # A fresh file each time: overwriting one makes ext4 flush it on
        # close, which ties the latency to the disk.
        self.csv_path.unlink(missing_ok=True)
        start = perf_counter()
        try:
            spec, table = workloads.run_document(op, str(self.csv_path))
            outcome = None
        except (DomainError, ConfigError):
            outcome = "error"
        except Exception as exc:  # recorded as a failed operation; the run goes on
            outcome = f"raised {type(exc).__name__}"
        elapsed = perf_counter() - start

        if outcome is None:
            csv_bytes = self.csv_path.read_bytes()
            digest = hashlib.sha256(csv_bytes).hexdigest()
            if op.invalid:
                problem = f"invalid input ({op.invalid}) evaluated"
            else:
                problem = workloads.check_table(spec, table, csv_bytes) or self._pinned(op, digest)
            tally.record(op, elapsed, digest, problem, problem, len(csv_bytes))
        elif op.invalid is None:
            problem = f"valid input failed: {outcome}"
            tally.record(op, elapsed, failure=problem, problem=problem)
        elif outcome == "error":
            tally.record(op, elapsed, digest="error")
        else:
            # An invalid input that escapes the error contract (ROADMAP 3b)
            # counts as failed; it produced no output, so no check failed.
            tally.record(op, elapsed, failure=f"{op.invalid}: {outcome}")

    def _run_cli(self, op, tally: Tally, trace_record: Path | None) -> None:
        csv_file = self.work_dir / workloads.CLI_SWEEP_CSV
        csv_file.unlink(missing_ok=True)
        if trace_record is None:
            cmd = [sys.executable, "-m", "jcaslink.cli", *op.argv]
        else:
            cmd = [sys.executable, str(BENCH / "child.py"), "trace", str(trace_record), *op.argv]
        start = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work_dir, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            tally.record(op, perf_counter() - start, failure="timeout", problem="CLI process timed out")
            return
        elapsed = perf_counter() - start
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if trace_record is not None:
            if code != 0:
                problem = f"trace child failed: {stderr.decode()[-300:]}"
                tally.record(op, elapsed, failure=problem, problem=problem)
                return
            record = json.loads(trace_record.read_text(encoding="utf-8"))
            code, stdout, stderr = record["code"], record["stdout"].encode(), record["stderr"].encode()
        csv_bytes = csv_file.read_bytes() if op.argv[0] == "sweep" and csv_file.exists() else None
        problem = workloads.check_cli(op, code, stdout, stderr, csv_bytes)
        digest = "error" if op.invalid else workloads.cli_digest(stdout, csv_bytes)
        if problem is None and not op.invalid:
            problem = self._pinned(op, digest)
        tally.record(op, elapsed, digest, problem, problem, len(csv_bytes or b""))

    def _pinned(self, op, digest: str) -> str | None:
        expected = self.golden.get(op.key)
        if expected is not None and expected != digest:
            return f"output differs from the pinned digest (input {op.key})"
        return None

    def child(self, args: list, want_stderr: bool = False) -> str:
        """Run a fresh interpreter in the work directory; its stdout (or stderr)."""
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.work_dir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr[-300:]}")
        return proc.stderr if want_stderr else proc.stdout

    def warm_up(self) -> None:
        """One untimed operation, after a child has written the bytecode caches."""
        self.child(["-c", "import jcaslink.cli"])
        self.child([str(BENCH / "child.py"), "setup", self.workload])
        tally = Tally()
        self.run_op(workloads.warmup_op(self.workload), tally)
        if tally.failed:
            raise RuntimeError(f"warm-up failed: {tally.failures}")

    def setup_once(self) -> float:
        return float(self.child([str(BENCH / "child.py"), "setup", self.workload]))

    def timed_loop(self, seconds: float) -> tuple[Tally, list, float]:
        """Closed loop over whole cycles; returns the tally, the set-up times
        and the peak RSS in MiB.

        The set-up probes run between cycles, spread evenly over the run, so
        they see the same machine conditions as the operations. The peak RSS
        is read at the first cycle boundary at or after MIN_OPS operations,
        which every run reaches: a fixed amount of work keeps a faster
        program from reading as a bigger one, and memory that grows from one
        operation to the next still shows.
        """
        tally, setups, rss_mib = Tally(), [], None
        cycle = workloads.CYCLE[self.workload]
        rss_at = -(-MIN_OPS // cycle) * cycle  # MIN_OPS rounded up to whole cycles
        who = resource.RUSAGE_CHILDREN if self.workload == "cli_cold" else resource.RUSAGE_SELF
        start = perf_counter()
        index, first_digest = 0, None
        while True:
            if index % cycle == 0:
                if index == rss_at:
                    rss_mib = resource.getrusage(who).ru_maxrss / 1024.0
                elapsed = perf_counter() - start
                if len(setups) < SETUP_RUNS and elapsed >= len(setups) * seconds / SETUP_RUNS:
                    setups.append(self.setup_once())
                elif (elapsed >= seconds and index >= MIN_OPS) or elapsed >= HARD_LIMIT_S:
                    break
            self.run_op(self.op(index), tally)
            if index == 0:
                first_digest = tally.last_digest
            index += 1
        # Operation 0 once more: its output must be byte-identical.
        again = Tally()
        self.run_op(self.op(0), again)
        if again.last_digest != first_digest:
            tally.problems.append("op 0: re-evaluation gave different bytes")
        return tally, setups, rss_mib


# --- untraced run --------------------------------------------------------------


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, Tally, dict]:
    bench.warm_up()
    tally, setups, peak_rss_mib = bench.timed_loop(seconds)
    lat_ms = [t * 1000.0 for t in tally.latencies]
    values = {
        "points_per_s": tally.points_per_s(),
        "ops_per_s": len(lat_ms) / sum(tally.latencies),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib,
    }
    extra = {
        "error_ratio": tally.failed / len(lat_ms),
        "latency_samples": len(lat_ms),
        "setup_samples": len(setups),
        "failures": tally.failures,
    }
    return {k: (values[k], END_TO_END[k]) for k in END_TO_END}, tally, extra


# --- traced run ------------------------------------------------------------------


class Trace:
    """Span summary of one traced pass, possibly spread over processes."""

    def __init__(self):
        self.summary = {}  # span name -> calls, total_s, self_s
        self.parse_s = 0.0
        self.build_s = 0.0
        self.distinct = set()
        self.tones = 0
        self.main_ms = {c: [] for c in CLI_COMMANDS}
        self.bands_ops = 0

    def add(self, spans, distinct, tones) -> None:
        for name, v in tracing.summarize(spans).items():
            acc = self.summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += v[key]
        self.parse_s += tracing.outermost_total(spans, PARSE_SPANS)
        self.build_s += tracing.outermost_total(spans, BUILD_SPANS)
        self.distinct |= set(distinct)
        self.tones += tones

    def calls(self, name: str) -> int:
        return self.summary.get(name, {}).get("calls", 0)

    def per_call(self, name: str, key: str, scale: float) -> float:
        calls = self.calls(name)
        return self.summary[name][key] / calls * scale if calls else 0.0

    def counts(self) -> tuple:
        return sorted((n, v["calls"]) for n, v in self.summary.items()), len(self.distinct), self.tones


def layer_metrics(t: Trace, tally: Tally, n_ops: int) -> dict:
    """Per-layer metrics of the compute and config layers for one pass."""
    pts = max(tally.evaluated, 1)
    rms = "waveform.sensing_rms_bandwidth"
    emits = t.calls("sweep.emit_csv")
    m = {
        f"{rms}.calls_per_point": t.calls(rms) / pts,
        f"{rms}.distinct_ratio": len(t.distinct) / t.calls(rms) if t.calls(rms) else 0.0,
        "waveform.tones_per_point": t.tones / pts,
        "linkbudget.scenario_inits_per_point": t.calls(tracing.SCENARIO_INIT) / pts,
        "linkbudget.scenario_init.self_us": t.per_call(tracing.SCENARIO_INIT, "self_s", 1e6),
        "geometry.implied_altitude.calls_per_point": t.calls("geometry.implied_altitude") / pts,
        "performance.ici_effective_snr_db.calls_per_point": t.calls("performance.ici_effective_snr_db") / pts,
        "sweep.run_point.calls": t.calls("sweep.run_point"),
        "sweep.run_point.self_us": t.per_call("sweep.run_point", "self_s", 1e6),
        "sweep.run_sweep.self_ms": t.per_call("sweep.run_sweep", "self_s", 1e3),
        "sweep.emit_csv.ms": t.per_call("sweep.emit_csv", "total_s", 1e3),
        "sweep.emit_csv.bytes": tally.csv_bytes / emits if emits else 0.0,
        "sweep.scenario_fingerprint.us": t.per_call("sweep.scenario_fingerprint", "total_s", 1e6),
        "config.parse_us_per_op": t.parse_s / n_ops * 1e6,
        "config.spec_build_us_per_op": t.build_s / n_ops * 1e6,
    }
    for fn in ("fspl_db", "noise_power_dbw", "integration_gain_db"):
        m[f"linkbudget.{fn}.calls_per_point"] = t.calls(f"linkbudget.{fn}") / pts
    for layer in ("waveform", "linkbudget", "geometry", "performance"):
        m[f"{layer}.self_us_per_point"] = tracing.layer_self_s(t.summary, layer) / pts * 1e6
    return m


def cli_metrics(t: Trace) -> dict:
    m = {"cli.main_ms": statistics.median(ms for per in t.main_ms.values() for ms in per)}
    for command, values in t.main_ms.items():
        m[f"cli.main.{command}_ms"] = statistics.median(values)
    m["spectrum.load_registry_ms"] = t.per_call("spectrum.load_registry", "total_s", 1e3)
    lookups = t.calls("spectrum.lookup_comm_band") + t.calls("spectrum.lookup_radar_allocations")
    m["spectrum.lookups_per_op"] = lookups / max(t.bands_ops, 1)
    return m


def process_metrics(bench: Bench) -> dict:
    """Bare-interpreter floor (median) and per-module import cost over fresh
    runs. ``-X importtime`` reports whole microseconds, so import costs are
    means, which resolve finer than that."""
    floors, imports = [], []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        bench.child(["-c", "pass"])
        floors.append((perf_counter() - start) * 1000.0)
        stderr = bench.child(["-X", "importtime", "-c", "import jcaslink.cli"], want_stderr=True)
        imports.append(tracing.parse_importtime(stderr))
    m = {"cli.interp_floor_ms": statistics.median(floors)}
    m["cli.import_ms"] = statistics.fmean(i["total"] for i in imports)
    for module in IMPORT_MODULES:
        m[_import_metric(module)] = statistics.fmean(i.get(module, 0.0) for i in imports)
    return m


def cli_traced_pass(bench: Bench, ops, tally: Tally, spans_out: list | None) -> Trace:
    """Each operation in a fresh traced process (child.py trace)."""
    t = Trace()
    for op in ops:
        record_path = bench.work_dir / f"trace-{op.index}.json"
        before = tally.failed
        bench.run_op(op, tally, trace_record=record_path)
        if tally.failed > before:
            continue
        record = json.loads(record_path.read_text(encoding="utf-8"))
        spans = [tuple(s) for s in record["spans"]]
        t.add(spans, record["distinct"].get("waveform.sensing_rms_bandwidth", ()), record["tones"])
        t.main_ms[op.argv[0]] += [(end - start) * 1000.0 for _, _, name, start, end in spans if name == "cli.main"]
        t.bands_ops += op.argv[0] == "bands"
        if spans_out is not None:
            spans_out += [(f"cli_op{op.index}", *s) for s in spans]
    return t


def inprocess_traced_pass(bench: Bench, ops, tally: Tally, spans_out: list | None) -> Trace:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            bench.run_op(op, tally)
    finally:
        tracer.uninstall()
    t = Trace()
    t.add(tracer.spans, tracer.distinct["waveform.sensing_rms_bandwidth"], tracer.tones)
    if spans_out is not None:
        spans_out += [("in_process", *s) for s in tracer.spans]
    return t


def traced_run(bench: Bench, seconds: float) -> tuple[dict, Tally]:
    """Alternate untraced and traced passes over a fixed list of operations;
    per-layer times are medians over traced passes, counts come from the
    first traced pass and must repeat exactly in every other one."""
    cli = bench.workload == "cli_cold"
    traced_pass = cli_traced_pass if cli else inprocess_traced_pass
    bench.warm_up()
    ops = [bench.op(i) for i in range(TRACE_OPS[bench.workload])]
    checks, spans_out, pairs, layer_runs, first = Tally(), [], [], [], None
    start = perf_counter()
    while len(pairs) < 2 or perf_counter() - start < min(seconds, HARD_LIMIT_S):
        plain, marked = Tally(), Tally()
        for op in ops:
            bench.run_op(op, plain)
        t = traced_pass(bench, ops, marked, spans_out if first is None else None)
        if first is None:
            first = t
        elif t.counts() != first.counts():
            checks.problems.append("span counts differ between traced passes")
        pairs.append((plain, marked))
        layer_runs.append({**layer_metrics(t, marked, len(ops)), **(cli_metrics(t) if cli else {})})
        checks.absorb(plain)
        checks.absorb(marked)

    metrics = {name: float(statistics.median(run[name] for run in layer_runs)) for name in layer_runs[0]}
    if not cli:
        cli_bench = Bench("cli_cold", bench.seed, bench.work_dir, {})
        cli_ops = [cli_bench.op(i) for i in range(TRACE_OPS["cli_cold"])]
        probe_tally = Tally()
        metrics.update(cli_metrics(cli_traced_pass(cli_bench, cli_ops, probe_tally, spans_out)))
        checks.absorb(probe_tally)
    metrics.update(process_metrics(bench))
    metrics["trace.overhead.points_per_s_pct"] = statistics.median(
        (u.points_per_s() / m.points_per_s() - 1.0) * 100.0 for u, m in pairs
    )
    metrics["trace.overhead.op_p50_ms_pct"] = statistics.median((m.p50_ms() / u.p50_ms() - 1.0) * 100.0 for u, m in pairs)
    write_spans(bench, spans_out)
    return {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER}, checks


def write_spans(bench: Bench, spans) -> None:
    """Spans of the first traced pass, one tab-separated line each."""
    path = OUT / f"spans-{bench.workload}-seed{bench.seed}.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("process\tspan\tparent\tname\tstart_us\tend_us\n")
        for proc, sid, parent, name, start, end in spans:
            fh.write(f"{proc}\t{sid}\t{parent or ''}\t{name}\t{start * 1e6:.1f}\t{end * 1e6:.1f}\n")


# --- provenance, golden digests, entry point ---------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout; None when it is not a git repository (git is
    kept from finding a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def write_golden(work_dir: Path) -> None:
    """Pin the output digest of the first GOLDEN_OPS operations of each
    workload at DEFAULT_SEED, keyed by a digest of the input."""
    golden = {}
    for workload in workloads.WORKLOADS:
        bench = Bench(workload, workloads.DEFAULT_SEED, work_dir, {})
        tally = Tally()
        pins = {}
        for index in range(GOLDEN_OPS[workload]):
            op = bench.op(index)
            bench.run_op(op, tally)
            if not op.invalid:
                pins[op.key] = tally.last_digest
        if tally.problems:
            raise RuntimeError(f"{workload}: {tally.problems[:3]}")
        golden[workload] = pins
        print(f"{workload}: {len(pins)} digests, {tally.failed} failed operations")
    GOLDEN.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, **golden}, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="regenerate golden.json")
    args = parser.parse_args()
    if not (SRC / "jcaslink" / "__init__.py").is_file():
        print(f"error: no jcaslink source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")
    sys.path.insert(0, str(SRC))
    import jcaslink

    if Path(jcaslink.__file__).resolve().parent != SRC / "jcaslink":
        print(f"error: imported jcaslink from {jcaslink.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.write_golden:
            write_golden(work_dir)
            return 0
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        pins = golden.get(args.workload, {}) if args.seed == golden["seed"] else {}
        bench = Bench(args.workload, args.seed, work_dir, pins)
        info = provenance()
        if args.trace:
            metrics, tally = traced_run(bench, args.seconds)
            extra = {}
        else:
            metrics, tally, extra = end_to_end(bench, args.seconds)
        info["loadavg_1m_end"] = os.getloadavg()[0]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    correct = not tally.problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": info,
        **extra,
        "problems": tally.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("provenance " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for key, value in extra.items():
        print(f"{key} = {value}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
