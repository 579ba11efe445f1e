"""Pinned sweep outputs, so a refactor that shifts every number consistently
still fails: each case's CSV must match its committed file byte for byte,
and every row's link and performance figures must match at full precision
(the CSV keeps 9 significant digits, which hides a change in the last bits).

The files in tests/data/ were written by the code as it stood before the
staged evaluator. Regenerate them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import random
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

from jcaslink.cli import main
from jcaslink.config import parse_overrides, sweep_spec_from_values
from jcaslink.errors import DomainError
from jcaslink.sweep import run_sweep

DATA = Path(__file__).resolve().parent / "data"
FULL_PRECISION = DATA / "golden_full_precision.json"
VARIED = 40

CASES = {
    "default": (),
    "radar_monostatic": ("mode=radar_monostatic",),
    "block_edge": ("tone_placement=block_edge",),
    "doppler_uncompensated": ("doppler_precompensated=false",),
    "per_element_power": ("array_gain_model=per_element_power",),
    "per_leg_gains_doppler": (
        "rx_gain_comm_dbi=30.5",
        "rx_gain_sense_dbi=35.25",
        "doppler_precompensated=false",
        "tone_placement=block_edge",
    ),
}


def write_csv(case: str, out: Path) -> None:
    argv = ["sweep", "--out", str(out)]
    for assignment in CASES[case]:
        argv += ["--set", assignment]
    if main(argv) != 0:
        raise RuntimeError(f"golden case {case!r} failed")


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
    return [[row.n_elements, row.tx_power_dbw, *astuple(row.link), *astuple(row.perf)] for row in table.rows]


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_csv_matches_golden(case, tmp_path, capsys):
    out = tmp_path / f"{case}.csv"
    write_csv(case, out)
    capsys.readouterr()
    assert out.read_bytes() == (DATA / f"golden_{case}.csv").read_bytes()


def test_sweep_values_match_golden_at_full_precision():
    golden = json.loads(FULL_PRECISION.read_text(encoding="utf-8"))
    assert len(golden) == len(CASES) + VARIED
    for entry in golden:
        assert full_precision_rows(entry["overrides"]) == entry["rows"], entry["overrides"]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in CASES:
        write_csv(name, DATA / f"golden_{name}.csv")
    overrides = [list(assignments) for assignments in CASES.values()] + varied_overrides(VARIED)
    golden = [{"overrides": o, "rows": full_precision_rows(o)} for o in overrides]
    FULL_PRECISION.write_text(json.dumps(golden, separators=(",", ":")) + "\n", encoding="utf-8")
    sys.exit(0)
