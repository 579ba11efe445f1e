"""Seeded inputs, operations and output checks for the three workloads.

Every input is a function of (workload, seed, operation index) only, so a
seed reproduces its inputs exactly and no two operations of a run share an
input. Nothing here imports jcaslink at module level: child.py times the
first import of the package, and the generator must not pull it in earlier.
"""

import hashlib
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
WORKLOADS = ("grid_dense", "scenario_scan", "cli_cold")

# Operations run in whole cycles, so a run's mix of operation kinds (and
# with it the expected failure share) is fixed by the generator, not by
# how many operations fit in the time.
CYCLE = {"grid_dense": 3, "scenario_scan": 180, "cli_cold": 12}

# grid_dense runs workers=1 twice for each workers=2. The two kinds differ
# about twofold in latency; a 1:1 mix puts the median in the gap between
# them, where it jumps from run to run. With 2:1 the median is a serial
# operation and the 90th percentile a pooled one.
GRID_WORKERS = (1, 1, 2)

GRID_POWERS = tuple(-5.0 + 0.5 * k for k in range(50))
GRID_ELEMENTS = tuple(range(1, 41))

MODES = ("comm", "radar_bistatic", "radar_monostatic", "all")
GAIN_MODELS = ("fixed_total_power", "per_element_power")
PLACEMENTS = ("comb_uniform", "block_edge")

# scenario_scan: one invalid document in every block of 20. Block b carries
# INVALID_KINDS[b % 9], so 180 operations hold each kind once. The last four
# are the ROADMAP 3b inputs, which today escape the error contract.
SCAN_BLOCK = 20
INVALID_KINDS = (
    ("negative_distance", "d_target_rx_km = -{km}"),
    ("partition_overflow", "n_data = {n_sub}"),
    ("zero_symbol_window", "t_integration_s = 1e-9"),
    ("n_sense_zero", "n_sense = 0"),
    ("unknown_key", "sense_tones = 12"),
    ("t_integration_nan", "t_integration_s = nan"),
    ("t_integration_inf", "t_integration_s = inf"),
    ("carrier_inf", "carrier_hz = inf"),
    ("power_1e308", "power_axis_dbw = 1, 1e308"),
)

# cli_cold: a 6-command cycle; every second cycle the --set overrides of
# command 1 carry one invalid assignment, whose expected exit code is given.
CLI_SWEEP_CSV = "sweep.csv"
CLI_FIXED = {
    0: ("simulate",),
    2: ("simulate", "--mode", "radar_monostatic"),
    3: ("sweep", "--out", CLI_SWEEP_CSV),
    4: ("bands", "4.2"),
    5: ("bands", "C"),
}
CLI_INVALID = (
    ("d_sat_user_km=-{km}", 1),
    ("foo_bar=1", 2),
    ("n_elements=abc", 2),
)


@dataclass(frozen=True)
class Op:
    """One operation: a config document (in-process workloads) or a CLI
    argument list (cli_cold), with its expected outcome."""

    index: int
    text: str = ""
    argv: tuple[str, ...] = ()
    workers: int = 1
    points: int = 0  # grid points the operation writes to CSV
    invalid: str | None = None  # kind of invalid input, None when valid
    exit_code: int = 0  # cli_cold only
    overrides: tuple[tuple[str, str], ...] = ()  # cli_cold --set echo check

    @property
    def evaluated(self) -> int:
        """Grid points the operation evaluates: a valid simulate command
        evaluates one point and writes no CSV."""
        if self.argv[:1] == ("simulate",) and not self.invalid:
            return 1
        return self.points

    @property
    def key(self) -> str:
        """Digest of the input, used to look up pinned outputs."""
        blob = self.text if not self.argv else "\0".join(self.argv)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"jcaslink-bench/{workload}/{seed}/{tag}")


def _axes(powers, elements) -> list[str]:
    return [
        "power_axis_dbw = " + ", ".join(f"{p:g}" for p in powers),
        "element_axis = " + ", ".join(str(n) for n in elements),
    ]


def _geometry(r: random.Random) -> list[str]:
    return [
        f"d_sat_user_km = {r.uniform(400.0, 1500.0):.3f}",
        f"elevation_user_deg = {r.uniform(10.0, 80.0):.2f}",
        f"d_sat_target_km = {r.uniform(400.0, 1500.0):.3f}",
        f"d_target_rx_km = {r.uniform(2.0, 50.0):.3f}",
        f"elevation_target_deg = {r.uniform(10.0, 80.0):.2f}",
        f"rcs_m2 = {10.0 ** r.uniform(0.0, 3.0):.4g}",
        f"detection_threshold_db = {r.uniform(0.0, 20.0):.2f}",
        f"array_gain_model = {r.choice(GAIN_MODELS)}",
    ]


def _grid_dense(seed: int, index: int) -> Op:
    r = _rng("grid_dense", seed, index)
    lines = ["# grid_dense: reference waveform, seeded geometry"]
    lines += _geometry(r) + _axes(GRID_POWERS, GRID_ELEMENTS)
    return Op(
        index=index,
        text="\n".join(lines) + "\n",
        workers=GRID_WORKERS[index % len(GRID_WORKERS)],
        points=len(GRID_POWERS) * len(GRID_ELEMENTS),
    )


def _scan_waveform(r: random.Random) -> tuple[int, list[str]]:
    n_sub = round(2.0 ** r.uniform(6.0, 12.0))
    n_sense = r.randint(2, n_sub // 2)
    n_data = r.randint(0, n_sub - n_sense)
    lines = [
        f"n_subcarriers = {n_sub}",
        f"n_sense = {n_sense}",
        f"n_data = {n_data}",
        f"n_cp = {r.randint(0, n_sub // 4)}",
        f"tone_placement = {r.choice(PLACEMENTS)}",
        f"t_integration_s = {r.uniform(0.01, 1.0):.4f}",
        f"doppler_precompensated = {r.choice(('true', 'false'))}",
        f"mode = {r.choice(MODES)}",
    ]
    for key in ("rx_gain_comm_dbi", "rx_gain_sense_dbi"):
        if r.random() < 0.5:
            lines.append(f"{key} = {r.uniform(20.0, 40.0):.2f}")
    return n_sub, lines


def _scenario_scan(seed: int, index: int) -> Op:
    block, position = divmod(index, SCAN_BLOCK)
    r = _rng("scenario_scan", seed, index)
    n_sub, waveform = _scan_waveform(r)
    powers = sorted(v / 2.0 for v in r.sample(range(-20, 41), 3))
    elements = sorted(r.sample(range(1, 65), 2))
    lines = ["# scenario_scan: seeded waveform, geometry and grid"]
    lines += waveform + _geometry(r) + _axes(powers, elements)
    invalid = None
    if position == _rng("scenario_scan", seed, f"block{block}").randrange(SCAN_BLOCK):
        invalid, line = INVALID_KINDS[block % len(INVALID_KINDS)]
        lines.append(line.format(km=f"{r.uniform(1.0, 50.0):.3f}", n_sub=n_sub))
    return Op(
        index=index,
        text="\n".join(lines) + "\n",
        points=0 if invalid else len(powers) * len(elements),
        invalid=invalid,
    )


def _valid_overrides(r: random.Random) -> list[tuple[str, str]]:
    choices = {
        "tx_power_dbw": lambda: f"{r.uniform(-5.0, 15.0):.4g}",
        "n_elements": lambda: str(r.randint(1, 32)),
        "d_sat_user_km": lambda: f"{r.uniform(400.0, 1500.0):.6g}",
        "rcs_m2": lambda: f"{10.0 ** r.uniform(0.0, 3.0):.4g}",
        "detection_threshold_db": lambda: f"{r.uniform(0.0, 20.0):.4g}",
        "doppler_precompensated": lambda: r.choice(("true", "false")),
        "tone_placement": lambda: r.choice(PLACEMENTS),
    }
    keys = r.sample(sorted(choices), r.randint(2, 3))
    return [(key, choices[key]()) for key in keys]


def _cli_cold(seed: int, index: int) -> Op:
    cycle, command = divmod(index, 6)
    if command in CLI_FIXED:
        argv = CLI_FIXED[command]
        points = 45 if argv[0] == "sweep" else 0
        return Op(index=index, argv=argv, points=points)
    r = _rng("cli_cold", seed, index)
    overrides = _valid_overrides(r)
    exit_code, invalid = 0, None
    if cycle % 2:
        template, exit_code = CLI_INVALID[(cycle // 2) % len(CLI_INVALID)]
        invalid = template.split("=")[0]
        overrides.append(tuple(template.format(km=f"{r.uniform(1.0, 50.0):.3f}").split("=")))
    argv = ["simulate"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    return Op(
        index=index,
        argv=tuple(argv),
        invalid=invalid,
        exit_code=exit_code,
        overrides=() if invalid else tuple(overrides),
    )


_MAKERS = {"grid_dense": _grid_dense, "scenario_scan": _scenario_scan, "cli_cold": _cli_cold}


def make_op(workload: str, seed: int, index: int) -> Op:
    return _MAKERS[workload](seed, index)


def warmup_op(workload: str) -> Op:
    """The untimed warm-up operation: the reference scenario over a 3 x 2
    grid (the default simulate command for cli_cold). It is small, so
    set-up time is dominated by import and first-call cost rather than by
    the operation, and it does not depend on the seed."""
    if workload == "cli_cold":
        return Op(index=-1, argv=("simulate",))
    return Op(index=-1, text="\n".join(_axes((1.0, 5.0, 9.0), (1, 4))) + "\n", points=6)


# --- running an in-process operation ---------------------------------------


def run_document(op: Op, csv_path: str):
    """Parse, build, evaluate and emit one document; returns (spec, table).

    Imports are local so that this module stays free of jcaslink until an
    operation runs.
    """
    from jcaslink import config, sweep

    values = config.parse_config_text(op.text)
    spec = config.sweep_spec_from_values(values)
    table = sweep.run_sweep(spec, workers=op.workers)
    sweep.emit_csv(table, csv_path)
    return spec, table


def check_table(spec, table, csv_bytes: bytes) -> str | None:
    """Structural checks that hold for any seed; a message on failure."""
    expected = sorted((n, p) for n in spec.element_axis for p in spec.power_axis_dbw)
    order = [(row.n_elements, row.tx_power_dbw) for row in table.rows]
    if order != expected:
        return f"rows out of (n_elements, tx_power) order or wrong count ({len(order)})"
    for row in table.rows:
        link = row.link
        if link.radar_snr_integrated_db != link.radar_snr_single_db + link.integration_gain_db:
            return f"integration identity broken at {(row.n_elements, row.tx_power_dbw)}"
    data_lines = [line for line in csv_bytes.decode("utf-8").splitlines() if not line.startswith("#")]
    if len(data_lines) != len(expected) + 1:
        return f"CSV holds {len(data_lines) - 1} rows, expected {len(expected)}"
    return None


# --- checking a cli_cold operation -----------------------------------------


def check_cli(op: Op, code: int, stdout: bytes, stderr: bytes, csv_bytes: bytes | None) -> str | None:
    """Checks on one CLI run that hold for any seed; a message on failure."""
    if op.invalid:
        lines = stderr.decode("utf-8", "replace").splitlines()
        if code != op.exit_code or len(lines) != 1 or not lines[0].startswith("error["):
            return f"expected exit {op.exit_code} and one error[...] line, got {code}: {lines[:3]}"
        return None
    if code != 0 or stderr:
        return f"exit {code}, stderr {stderr[:200]!r}"
    text = stdout.decode("utf-8")
    command = op.argv[0]
    if command == "simulate":
        for section in ("# effective configuration", "# link budget", "# performance"):
            if section not in text:
                return f"simulate output lacks {section!r}"
        # Override values are generated in the form the echo prints them.
        echoed = set(text.splitlines())
        for key, value in op.overrides:
            if f"{key} = {value}" not in echoed:
                return f"override {key}={value} not echoed"
    elif command == "sweep":
        if csv_bytes is None:
            return "sweep wrote no CSV"
        rows = [line for line in csv_bytes.decode("utf-8").splitlines() if not line.startswith("#")][1:]
        order = [(int(cells[0]), float(cells[1])) for cells in (row.split(",") for row in rows)]
        if order != sorted(order) or len(order) != op.points:
            return f"sweep CSV has {len(order)} rows or is out of order"
        if not text.startswith(f"wrote {op.points} rows to {CLI_SWEEP_CSV}"):
            return f"unexpected sweep summary {text[:80]!r}"
    elif not text.strip():
        return "bands printed nothing"
    return None


def cli_digest(stdout: bytes, csv_bytes: bytes | None) -> str:
    h = hashlib.sha256(stdout)
    if csv_bytes is not None:
        h.update(b"\0csv\0")
        h.update(csv_bytes)
    return h.hexdigest()
