"""Golden fixtures for the CLI subcommands.

Each case runs one subcommand on a fixed scenario and compares, byte for
byte, the report.json and every residual_*.csv it writes with the committed
fixtures in tests/golden/ (`<case>.report.json`, `<case>.<csv name>`).  The
refusal cases pin the exit code of scenarios the CLI must reject as parse
errors, and the library refusals and failed predicates also their stderr
line (`<case>.stderr`).  A change that is meant to move the numbers regenerates the
fixtures with

    PYTHONPATH=src python tests/test_golden.py

and records why they moved.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from viscompare.cli import EXIT_OK, EXIT_PARSE, EXIT_PREDICATE, EXIT_SOLVER, main

GOLDEN_DIR = Path(__file__).parent / "golden"
WINDOW = [10.0, 100.0, 1000.0]


def _grid(center, half_width, h):
    return {"box": {"center": list(center), "half_width": list(half_width)}, "h": h}


def _compare(builtin):
    return {"problem": {"builtin": builtin, "lambda": 1.0},
            "grid": _grid([0.0], [2.0], 0.05),
            "f_low": {"name": "zero"}, "f_high": {"poly": {"0": 0.5, "2": 0.1}},
            "boundary_low": 0.0, "boundary_high": 0.25}


def _hypotheses(name, problem):
    return (f"check_hypotheses_{name}", "check-hypotheses", {"problem": problem})


# (fixture name, subcommand, scenario)
SOLVER_CASES = [
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
    # nonzero boundaries: eleven coupled Gauss-Seidel sweeps
    ("system_solve_mean_boundaries", "system-solve",
     {"system": {"builtin": "system2", "coupling": "mean", "c": 0.5},
      "grid": _grid([0.0], [2.0], 0.1), "boundaries": [0.2, -0.3]}),
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

SOLVER_FREE_CASES = [
    _hypotheses("eq12", {"builtin": "eq12", "lambda": 1.0}),
    _hypotheses("eq13", {"builtin": "eq13", "lambda": 1.0, "f": {"name": "bracket"}}),
    _hypotheses("eq13_2d", {"builtin": "eq13", "lambda": 1.0, "N": 2}),
    _hypotheses("hje3", {"builtin": "hje3", "lambda": 1.0, "t": 1.0}),
    # ex2 has lambda = 1 built in and ignores the scenario's lambda
    _hypotheses("ex2_lambda3", {"builtin": "ex2", "lambda": 3.0}),
    # example1 without f solves with f = 0
    _hypotheses("example1_no_f", {"builtin": "example1", "N": 1, "sigma": [[1.0]],
                                  "b": [0.0], "A": [[1.0]]}),
    _hypotheses("signswitch", {"builtin": "signswitch", "lambda": 1.0}),
    _hypotheses("minconvex", {"builtin": "minconvex", "lambda": 1.0}),
    _hypotheses("game", {"builtin": "game", "lambda": 1.0}),
    ("check_hypotheses_system2", "check-hypotheses",
     {"system": {"builtin": "system2", "coupling": "mean", "c": 0.5}}),
    ("classify_growth_ex2", "classify-growth", {"problem": {"builtin": "ex2"}}),
    ("verify_classical_eq12", "verify-classical",
     {"problem": {"builtin": "eq12", "lambda": 1.0}}),
    ("verify_classical_hje3", "verify-classical",
     {"problem": {"builtin": "hje3", "lambda": 1.0, "t": 1.0}}),
    ("verify_classical_ex2", "verify-classical", {"problem": {"builtin": "ex2"}}),
    ("barrier_strict_eq13", "barrier",
     {"problem": {"builtin": "eq13", "lambda": 1.0}, "window": WINDOW, "mu": [0.5, 0.9]}),
    # hje3's drift grows linearly: the strict construction refuses and the
    # lambda0 ladder runs
    ("barrier_relaxed_hje3", "barrier",
     {"problem": {"builtin": "hje3", "lambda": 1.0, "t": 1.0}, "window": WINDOW,
      "mu": [0.9]}),
]

CASES = SOLVER_CASES + SOLVER_FREE_CASES

# (case name, subcommand, scenario) that must exit with EXIT_PARSE
REFUSALS = [
    ("unknown_builtin", "check-hypotheses", {"problem": {"builtin": "eq99"}}),
    ("trace_on_eq13", "solve",
     {"problem": {"builtin": "eq13"}, "grid": _grid([0.0], [1.0], 0.1),
      "boundary": {"trace": "u2"}}),
    ("unknown_trace_label", "solve",
     {"problem": {"builtin": "eq12"}, "grid": _grid([0.0], [1.0], 0.1),
      "boundary": {"trace": "u3"}}),
    ("verify_classical_eq13", "verify-classical", {"problem": {"builtin": "eq13"}}),
    ("nonuniqueness_eq13", "nonuniqueness",
     {"problem": {"builtin": "eq13"}, "grid": _grid([0.0], [1.0], 0.1)}),
]

# (case name, subcommand, scenario) that must exit with EXIT_SOLVER, print
# the committed stderr and write no report
SOLVER_REFUSALS = [
    # the first mu passes; the second is outside (0, 1)
    ("barrier_mu_out_of_range", "barrier",
     {"problem": {"builtin": "eq13", "lambda": 1.0}, "window": WINDOW, "mu": [0.9, 1.5]}),
]


def _custom(sigma, hamiltonian=None, f=0.0):
    """A custom 1-d problem with lambda = 1, q = 2 and b = 0."""
    problem = {"N": 1, "lambda": 1.0, "q": 2.0, "sigma": [[sigma]], "b": [0.0], "f": f}
    if hamiltonian is not None:
        problem["hamiltonian"] = hamiltonian
    return {"problem": problem}


def _power(A):
    return {"type": "power", "A": [[A]]}


def _signed(a):
    return {"type": "signed", "a": a}


QUADRATIC = {"poly": {"2": 1.0}}

# (case name, subcommand, scenario) that must exit with EXIT_PREDICATE, print
# the committed FAILED line and write no report: failed check-hypotheses
# routes, one scenario per FAILED line
PREDICATE_FAILURES = [
    # sigma = x^2 grows faster than order 1, f = 0 is in every class
    ("hypotheses_sigma_quadratic_power", "check-hypotheses",
     _custom(QUADRATIC, _power(1.0))),
    ("hypotheses_sigma_quadratic_no_h", "check-hypotheses", _custom(QUADRATIC)),
    ("hypotheses_signed_a1", "check-hypotheses",
     _custom(1.0, _signed({"poly": {"1": 1.0}}))),
    ("hypotheses_signed_a4", "check-hypotheses",
     _custom(0.0, _signed({"poly": {"1": 1.0}}))),
    ("hypotheses_signed_growth", "check-hypotheses",
     _custom(0.0, _signed({"poly": {"3": 1.0}}), f={"poly": {"4": -1.0}})),
    ("hypotheses_power_h1", "check-hypotheses", _custom(1.0, _power(-1.0))),
    ("hypotheses_power_h2", "check-hypotheses", _custom(1.0, _power(QUADRATIC))),
    ("hypotheses_eq13_f_quartic", "check-hypotheses",
     {"problem": {"builtin": "eq13", "lambda": 1.0, "f": {"poly": {"4": -1.0}}}}),
    ("hypotheses_system2_minus2lam", "check-hypotheses",
     {"system": {"builtin": "system2", "coupling": "minus2lam"}}),
]


def run_case(name, cmd, scenario, workdir: Path):
    path = workdir / f"{name}.json"
    path.write_text(json.dumps({"id": name, **scenario}, sort_keys=True))
    outdir = workdir / name
    return main([cmd, str(path), "--out", str(outdir)]), outdir


def written_files(name, outdir: Path) -> dict:
    """Fixture name -> output file, for report.json and every residual CSV."""
    files = {f"{name}.report.json": outdir / "report.json"}
    for csv in sorted(outdir.glob("residual_*.csv")):
        files[f"{name}.{csv.name}"] = csv
    return files


@pytest.mark.parametrize("name,cmd,scenario", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, cmd, scenario, tmp_path):
    code, outdir = run_case(name, cmd, scenario, tmp_path)
    assert code == EXIT_OK
    got = written_files(name, outdir)
    want = sorted(p.name for p in GOLDEN_DIR.glob(f"{name}.*")
                  if p.name.endswith(".report.json") or ".residual_" in p.name)
    assert sorted(got) == want
    for fixture, path in got.items():
        assert path.read_bytes() == (GOLDEN_DIR / fixture).read_bytes(), fixture


@pytest.mark.parametrize("name,cmd,scenario", REFUSALS, ids=[c[0] for c in REFUSALS])
def test_refusal_exit_code(name, cmd, scenario, tmp_path, capsys):
    code, outdir = run_case(name, cmd, scenario, tmp_path)
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.count("PARSE_ERROR:") == 1
    assert not (outdir / "report.json").exists()


@pytest.mark.parametrize("name,cmd,scenario", SOLVER_REFUSALS,
                         ids=[c[0] for c in SOLVER_REFUSALS])
def test_solver_refusal_matches_golden(name, cmd, scenario, tmp_path, capsys):
    code, outdir = run_case(name, cmd, scenario, tmp_path)
    assert code == EXIT_SOLVER
    assert capsys.readouterr().err == (GOLDEN_DIR / f"{name}.stderr").read_text()
    assert not (outdir / "report.json").exists()


@pytest.mark.parametrize("name,cmd,scenario", PREDICATE_FAILURES,
                         ids=[c[0] for c in PREDICATE_FAILURES])
def test_predicate_failure_matches_golden(name, cmd, scenario, tmp_path, capsys):
    code, outdir = run_case(name, cmd, scenario, tmp_path)
    assert code == EXIT_PREDICATE
    assert capsys.readouterr().err == (GOLDEN_DIR / f"{name}.stderr").read_text()
    assert not (outdir / "report.json").exists()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd, scenario in CASES:
            code, outdir = run_case(name, cmd, scenario, Path(tmp))
            if code != EXIT_OK:
                raise SystemExit(f"{cmd} {name} exited with {code}")
            for fixture, path in written_files(name, outdir).items():
                (GOLDEN_DIR / fixture).write_bytes(path.read_bytes())
                print(f"wrote {fixture}", file=sys.stderr)
        for cases, exit_code in ((SOLVER_REFUSALS, EXIT_SOLVER),
                                 (PREDICATE_FAILURES, EXIT_PREDICATE)):
            for name, cmd, scenario in cases:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, _ = run_case(name, cmd, scenario, Path(tmp))
                if code != exit_code:
                    raise SystemExit(f"{cmd} {name} exited with {code}")
                (GOLDEN_DIR / f"{name}.stderr").write_text(err.getvalue())
                print(f"wrote {name}.stderr", file=sys.stderr)
