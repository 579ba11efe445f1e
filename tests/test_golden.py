"""Pinned sweep, simulate and bands outputs, so a refactor that shifts every number
consistently still fails. The cases of tests/data/cli_cases.txt that name a
fixture pin each sweep CSV and simulate ledger byte for byte (tests/test_cli.py
runs them); here the `bands` stdout for every band letter and a set of
carriers must match its file, and every row of those sweeps and of seeded
varied scenarios must match its link and performance figures at full
precision (the CSV keeps 9 significant digits, which hides a change in the
last bits).

The sweep files in tests/data/ were written by the code as it stood before
the staged evaluator, the simulate files by the code before the ledger was
rendered from the result types, the bands file by the code before band
records stored their notes verbatim. Regenerate them, from the table's
cases, only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from cli_matrix import read_cases, run
from jcaslink.cli import main
from jcaslink.config import parse_overrides, sweep_spec_from_values
from jcaslink.errors import DomainError
from jcaslink.records import asdict
from jcaslink.spectrum import BAND_LETTERS
from jcaslink.sweep import run_sweep

DATA = Path(__file__).resolve().parent / "data"
FULL_PRECISION = DATA / "golden_full_precision.json"
BANDS = DATA / "bands_queries.txt"
VARIED = 40

PINNED = [case for case in read_cases().values() if case.fixture]
# The --set assignments of each pinned sweep, which golden_full_precision.json also pins.
SWEEP_OVERRIDES = [
    [value for flag, value in zip(case.argv, case.argv[1:]) if flag == "--set"]
    for case in PINNED
    if case.argv[0] == "sweep"
]
SIMULATE_CASES = [case for case in PINNED if case.argv[0] == "simulate"]

# Every band letter (sorted, since BAND_LETTERS is a frozenset), a lower-case
# letter, and carriers that are comm_only, jcas_colocated and unallocated.
BANDS_QUERIES = (*sorted(BAND_LETTERS), "ku", "4.2", "5.41", "0.5", "3.0", "12")


def bands_stdout() -> str:
    """The stdout of `bands` for each of BANDS_QUERIES, each under a
    `$ jcaslink bands <query>` line."""
    chunks = []
    for query in BANDS_QUERIES:
        with contextlib.redirect_stdout(io.StringIO()) as buffer:
            if main(["bands", query]) != 0:
                raise RuntimeError(f"bands query {query!r} failed")
        chunks.append(f"$ jcaslink bands {query}\n{buffer.getvalue()}")
    return "".join(chunks)


def varied_overrides(count: int) -> list:
    """Seeded scenarios away from the reference geometry, where reordering
    a dB sum changes the last bits of some results."""
    r = random.Random(20250109)
    cases = []
    while len(cases) < count:
        n_sub = r.randint(16, 2048)
        n_sense = r.randint(2, n_sub // 2)
        case = [
            f"n_subcarriers={n_sub}",
            f"n_sense={n_sense}",
            f"n_data={r.randint(0, n_sub - n_sense)}",
            f"n_cp={r.randint(0, n_sub // 4)}",
            f"bandwidth_hz={10 ** r.uniform(6.5, 8.6):.6g}",
            f"carrier_hz={10 ** r.uniform(9.0, 10.4):.6g}",
            f"d_sat_user_km={r.uniform(300.0, 2000.0):.3f}",
            f"elevation_user_deg={r.uniform(0.0, 90.0):.2f}",
            f"d_sat_target_km={r.uniform(300.0, 2000.0):.3f}",
            f"d_target_rx_km={r.uniform(1.0, 60.0):.3f}",
            f"rcs_m2={10 ** r.uniform(-1.0, 3.0):.4g}",
            f"tx_gain_ref_dbi={r.uniform(0.0, 40.0):.3f}",
            f"rx_gain_comm_dbi={r.uniform(0.0, 45.0):.3f}",
            f"rx_gain_sense_dbi={r.uniform(0.0, 45.0):.3f}",
            f"noise_temp_k={r.uniform(50.0, 1000.0):.2f}",
            f"t_integration_s={r.uniform(0.01, 1.0):.4f}",
            f"doppler_precompensated={r.choice(('true', 'false'))}",
            f"tone_placement={r.choice(('comb_uniform', 'block_edge'))}",
            f"array_gain_model={r.choice(('fixed_total_power', 'per_element_power'))}",
            f"mode={r.choice(('radar_bistatic', 'radar_monostatic'))}",
            "power_axis_dbw=" + ",".join(f"{v / 4}" for v in sorted(r.sample(range(-80, 160), 3))),
            "element_axis=" + ",".join(str(v) for v in sorted(r.sample(range(1, 65), 2))),
        ]
        try:
            full_precision_rows(case)
        except DomainError:
            continue
        cases.append(case)
    return cases


def full_precision_rows(overrides) -> list:
    table = run_sweep(sweep_spec_from_values(parse_overrides(list(overrides))))
    return [[row.n_elements, row.tx_power_dbw, *asdict(row.link).values(), *asdict(row.perf).values()] for row in table.rows]


@pytest.mark.parametrize("case", SIMULATE_CASES, ids=[case.name for case in SIMULATE_CASES])
def test_simulate_configuration_echo_reads_back(case, capsys, tmp_path):
    """The effective-configuration section of the ledger is itself a config
    document that reproduces the ledger."""
    assert main(list(case.argv)) == 0
    echo = capsys.readouterr().out.split("# geometry diagnostics")[0]
    config = tmp_path / "echo.cfg"
    config.write_text(echo, encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (DATA / case.fixture).read_bytes()


def test_bands_stdout_matches_golden():
    assert bands_stdout().encode("utf-8") == BANDS.read_bytes()


def test_sweep_values_match_golden_at_full_precision():
    golden = json.loads(FULL_PRECISION.read_text(encoding="utf-8"))
    assert [entry["overrides"] for entry in golden[: len(SWEEP_OVERRIDES)]] == SWEEP_OVERRIDES
    assert len(golden) == len(SWEEP_OVERRIDES) + VARIED
    for entry in golden:
        assert full_precision_rows(entry["overrides"]) == entry["rows"], entry["overrides"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        for case in PINNED:
            got = run(case, directory)
            if got.code:
                raise RuntimeError(f"case {case.name!r} exited {got.code}: {got.stderr!r}")
            (DATA / case.fixture).write_bytes(got.output)
    golden = [{"overrides": o, "rows": full_precision_rows(o)} for o in SWEEP_OVERRIDES + varied_overrides(VARIED)]
    FULL_PRECISION.write_text(json.dumps(golden, separators=(",", ":")) + "\n", encoding="utf-8")
    BANDS.write_text(bands_stdout(), encoding="utf-8")
    sys.exit(0)
