"""Golden report.json fixtures for the solver-backed CLI subcommands.

Each case runs one subcommand on a fixed scenario and compares the
report.json it writes, byte for byte, with the committed fixture in
tests/golden/.  A change that is meant to move the numbers regenerates the
fixtures with

    PYTHONPATH=src python tests/test_golden.py

and records why they moved.
"""

import json
import sys
from pathlib import Path

import pytest

from viscompare.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"


def _grid(center, half_width, h):
    return {"box": {"center": list(center), "half_width": list(half_width)}, "h": h}


def _compare(builtin):
    return {"problem": {"builtin": builtin, "lambda": 1.0},
            "grid": _grid([0.0], [2.0], 0.05),
            "f_low": {"name": "zero"}, "f_high": {"poly": {"0": 0.5, "2": 0.1}},
            "boundary_low": 0.0, "boundary_high": 0.25}


# (fixture name, subcommand, scenario)
CASES = [
    ("solve_eq12_u2", "solve",
     {"problem": {"builtin": "eq12", "lambda": 1.0},
      "grid": _grid([0.0], [5.0], 0.05), "boundary": {"trace": "u2"}}),
    ("compare_eq13", "compare", _compare("eq13")),
    ("compare_minconvex", "compare", _compare("minconvex")),
    ("compare_game", "compare", _compare("game")),
    ("gamma_pin_signswitch", "gamma-pin",
     {"problem": {"builtin": "signswitch", "lambda": 1.0},
      "grid": _grid([0.0], [1.0], 0.05)}),
    ("nonuniqueness_ex2", "nonuniqueness",
     {"problem": {"builtin": "ex2"}, "grid": _grid([0.0], [5.0], 0.05)}),
    ("system_solve_mean", "system-solve",
     {"system": {"builtin": "system2", "coupling": "mean", "c": 0.5},
      "grid": _grid([0.0], [2.0], 0.1)}),
    ("solve_custom_power_2d", "solve",
     {"problem": {
         "N": 2, "lambda": 1.0, "q": 2.0,
         "sigma": [[{"poly": {"0,0": 0.9, "2,0": 0.05}}, 0.0],
                   [0.0, {"poly": {"0,0": 0.8, "0,2": 0.1}}]],
         "b": [{"poly": {"0,0": 0.2, "1,0": -0.1}}, {"poly": {"0,1": 0.25}}],
         "hamiltonian": {"type": "power",
                         "A": [[{"poly": {"0,0": 0.6, "0,2": 0.05}}, 0.0],
                               [0.0, {"poly": {"0,0": 0.5, "2,0": 0.1}}]]},
         "f": {"poly": {"0,0": 0.5, "1,1": 0.3, "2,0": -0.2}}},
      "grid": _grid([0.0, 0.0], [1.0, 1.0], 0.1),
      "boundary": {"field": {"poly": {"1,0": 0.1, "0,2": 0.05}}}}),
    ("solve_eq13_q1p5", "solve",
     {"problem": {"builtin": "eq13", "lambda": 1.0, "q": 1.5,
                  "f": {"name": "bracket"}},
      "grid": _grid([0.0], [3.0], 0.05), "boundary": 0.5}),
]


def run_case(name, cmd, scenario, workdir: Path) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"id": name, **scenario}, sort_keys=True))
    outdir = workdir / name
    code = main([cmd, str(path), "--out", str(outdir)])
    if code != EXIT_OK:
        raise AssertionError(f"{cmd} {name} exited with {code}")
    return outdir / "report.json"


@pytest.mark.parametrize("name,cmd,scenario", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, cmd, scenario, tmp_path):
    got = run_case(name, cmd, scenario, tmp_path).read_bytes()
    want = (GOLDEN_DIR / f"{name}.report.json").read_bytes()
    assert got == want


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd, scenario in CASES:
            report = run_case(name, cmd, scenario, Path(tmp))
            (GOLDEN_DIR / f"{name}.report.json").write_bytes(report.read_bytes())
            print(f"wrote {name}.report.json", file=sys.stderr)
