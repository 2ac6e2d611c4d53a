"""The three seeded workloads of the viscompare benchmark.

Each workload turns a seed into a list of op inputs before any timing
starts (parameters for `viscompare.solve`, scenarios for
`viscompare.cli.main`), runs one op at a time, and checks each op's outputs
afterwards.  Scenario files are written just before their op, outside the
op's timer, so that set-up time does not grow with the number of ops.
Op i draws its inputs from `numpy.random.default_rng([seed, i])`, so no two
ops of a run repeat and one seed always gives the same ops.

The library is reached through its module attributes at call time
(`vc.solve`, `cli.main`), never through names bound at import, so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# Inputs are kept well inside the region where every op succeeds at the
# commit that introduced the benchmark; the ranges are listed in record.json.
SOLVE2D_H = 0.05
SOLVE2D_SUP_ERR_TOL = 0.02
CLASSICAL_RESIDUAL_TOL = 1e-10

# check-hypotheses verdicts recorded at the commit that introduced the
# benchmark; a changed verdict is a failed op.
EXPECTED_VERDICTS = {
    "eq13_1d": "Theorem 3.1 applies",
    "eq13_2d": "Theorem 3.1 applies",
    "hje3": "Theorem 3.2 applies (lambda >= lambda0)",
    "signswitch": "Theorem 4.1 applies",
    "minconvex": "Theorem 4.2 applies",
    "game": "Corollary 4.4 applies",
    "system2": "Theorem 5.2 applies",
    "custom": "Theorem 3.1 applies",
}
HJE3_LAMBDA0 = 4.0


def _grid(center, half_width, h):
    return {"box": {"center": list(center), "half_width": list(half_width)}, "h": h}


def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


class OpResult:
    """Outcome of one op: failure reasons (empty when every check passed)
    and the op's sup-norm error against an exact solution, if it has one."""

    def __init__(self):
        self.errors: list[str] = []
        self.sup_err: float | None = None

    def require(self, cond, what: str):
        if not cond:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# solve2d: one 2-d manufactured solve through viscompare.solve


class Solve2D:
    name = "solve2d"

    def __init__(self, vc, workdir: Path):
        self.vc = vc

    def generate(self, seed: int, index: int) -> dict:
        rng = np.random.default_rng([seed, index])
        return {
            # diagonal sigma_ii = s0 + s2 x_i^2
            "sigma": [[{"poly": {"0,0": _u(rng, 0.8, 1.0), "2,0": _u(rng, 0.0, 0.1)}}, 0.0],
                      [0.0, {"poly": {"0,0": _u(rng, 0.8, 1.0), "0,2": _u(rng, 0.0, 0.1)}}]],
            # linear drift b_i = c_i + d_i x_i
            "b": [{"poly": {"0,0": _u(rng, -0.3, 0.3), "1,0": _u(rng, -0.3, 0.3)}},
                  {"poly": {"0,0": _u(rng, -0.3, 0.3), "0,1": _u(rng, -0.3, 0.3)}}],
            # diagonal A(x) >= a0 > 0
            "A": [[{"poly": {"0,0": _u(rng, 0.5, 0.7), "0,2": _u(rng, 0.0, 0.1)}}, 0.0],
                  [0.0, {"poly": {"0,0": _u(rng, 0.5, 0.7), "2,0": _u(rng, 0.0, 0.1)}}]],
            "a": _u(rng, 0.9, 1.1), "b_freq": _u(rng, 0.9, 1.1),
            "phi": _u(rng, -0.2, 0.2), "psi": _u(rng, -0.2, 0.2),
        }

    def prepare(self, inp: dict, tag: str) -> dict:
        return inp

    def run(self, inp: dict, tag: str):
        vc = self.vc
        fields = vc.fields
        a, bf, phi, psi = inp["a"], inp["b_freq"], inp["phi"], inp["psi"]

        def val(x):
            return math.sin(a * x[0] + phi) * math.cos(bf * x[1] + psi)

        def grad(x):
            s, c = math.sin(a * x[0] + phi), math.cos(a * x[0] + phi)
            sb, cb = math.sin(bf * x[1] + psi), math.cos(bf * x[1] + psi)
            return np.array([a * c * cb, -bf * s * sb])

        def hess(x):
            s, c = math.sin(a * x[0] + phi), math.cos(a * x[0] + phi)
            sb, cb = math.sin(bf * x[1] + psi), math.cos(bf * x[1] + psi)
            return np.array([[-a * a * s * cb, -a * bf * c * sb],
                             [-a * bf * c * sb, -bf * bf * s * cb]])

        u_star = vc.SmoothCandidate(value=val, gradient=grad, hessian=hess, label="u*")
        base = vc.problems.example1(
            sigma=fields.parse_matrix_field(inp["sigma"], 2),
            b=fields.parse_vector_field(inp["b"], 2),
            A=fields.parse_matrix_field(inp["A"], 2),
            q=2.0, f=0.0, N=2, lam=1.0,
        )
        problem = base.with_f(lambda x: vc.manufactured_rhs(base, u_star, x))
        box = vc.Box(center=(0.0, 0.0), half_width=(1.0, 1.0))
        sol, rep = vc.solve(problem, box, SOLVE2D_H, u_star.val)
        return sol, rep, u_star

    def check(self, out) -> OpResult:
        sol, rep, u_star = out
        res = OpResult()
        exact = np.array([u_star.val(x) for x in sol.points()]).reshape(sol.values.shape)
        res.sup_err = float(np.abs(sol.values - exact).max())
        res.require(rep.converged, "solve did not converge")
        res.require(rep.monotonicity_certificate, "monotonicity certificate false")
        res.require(res.sup_err <= SOLVE2D_SUP_ERR_TOL,
                    f"sup error {res.sup_err:.3g} > {SOLVE2D_SUP_ERR_TOL}")
        return res


# ---------------------------------------------------------------------------
# CLI workloads: each op is a list of (subcommand, scenario) run through main


class _CliWorkload:
    def __init__(self, vc, workdir: Path):
        self.vc = vc
        self.workdir = workdir

    def generate(self, seed: int, index: int) -> list:
        return list(self.scenarios(np.random.default_rng([seed, index])))

    def prepare(self, scenarios: list, tag: str) -> list:
        """Write the op's scenario files; returns the CLI calls to make."""
        opdir = self.workdir / f"in-{tag}"
        opdir.mkdir(parents=True, exist_ok=True)
        calls = []
        for key, cmd, scn in scenarios:
            path = opdir / f"{key}.json"
            path.write_text(json.dumps({"id": key, **scn}, sort_keys=True))
            calls.append((key, cmd, str(path)))
        return calls

    def run(self, calls: list, tag: str):
        outroot = self.workdir / f"out-{tag}"
        codes = {}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for key, cmd, path in calls:
                codes[key] = self.vc.cli.main([cmd, path, "--out", str(outroot / key)])
        return outroot, codes, err.getvalue(), calls

    def check(self, out) -> OpResult:
        outroot, codes, err, calls = out
        res = OpResult()
        for key, code in codes.items():
            res.require(code == 0, f"{key}: exit code {code}: {err.strip()[-200:]}")
        if not res.errors:
            self.check_reports(outroot, res, {key: path for key, _, path in calls})
        shutil.rmtree(outroot, ignore_errors=True)
        shutil.rmtree(Path(calls[0][2]).parent, ignore_errors=True)
        return res

    @staticmethod
    def report(outroot: Path, key: str) -> dict:
        with open(outroot / key / "report.json") as fh:
            return json.load(fh)


class Sweep1D(_CliWorkload):
    name = "sweep1d"

    def scenarios(self, rng):
        def ordered_pair():
            lo = {"0": _u(rng, -0.3, 0.3), "2": _u(rng, 0.0, 0.05)}
            hi = {"0": lo["0"] + _u(rng, 0.1, 0.3), "2": lo["2"] + _u(rng, 0.0, 0.05)}
            return {"f_low": {"poly": lo}, "f_high": {"poly": hi},
                    "boundary_low": 0.0, "boundary_high": _u(rng, 0.0, 0.2)}

        return [
            ("cmp_eq13", "compare", {"problem": {"builtin": "eq13", "lambda": _u(rng, 0.9, 1.1)},
                                     "grid": _grid([0.0], [5.0], 0.02), **ordered_pair()}),
            ("cmp_minconvex", "compare", {"problem": {"builtin": "minconvex",
                                                      "lambda": _u(rng, 0.9, 1.1)},
                                          "grid": _grid([0.0], [5.0], 0.05), **ordered_pair()}),
            ("cmp_game", "compare", {"problem": {"builtin": "game", "lambda": _u(rng, 0.9, 1.1)},
                                     "grid": _grid([0.0], [2.0], 0.05), **ordered_pair()}),
            ("pin_signswitch", "gamma-pin", {"problem": {"builtin": "signswitch",
                                                         "lambda": _u(rng, 0.9, 1.1)},
                                             "grid": _grid([0.0], [1.0], 0.05)}),
            ("nonuniq_ex2", "nonuniqueness", {"problem": {"builtin": "ex2"},
                                              "grid": _grid([_u(rng, -0.25, 0.25)], [5.0], 0.05)}),
            ("system2", "system-solve", {"system": {"builtin": "system2", "coupling": "mean",
                                                    "c": 0.5, "lambda": _u(rng, 0.9, 1.1)},
                                         "grid": _grid([0.0], [2.0], 0.1),
                                         "boundaries": [_u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)]}),
            ("solve_eq12", "solve", {"problem": {"builtin": "eq12", "lambda": _u(rng, 0.9, 1.1)},
                                     "grid": _grid([0.0], [5.0], 0.05),
                                     "boundary": {"trace": "u2"}}),
        ]

    def check_reports(self, outroot: Path, res: OpResult, scenarios: dict):
        vc = self.vc
        for key in ("cmp_eq13", "cmp_minconvex", "cmp_game"):
            rep = self.report(outroot, key)
            res.require(rep["ordered"], f"{key}: not ordered")
            res.require(rep["report_low"]["monotonicity_certificate"]
                        and rep["report_high"]["monotonicity_certificate"],
                        f"{key}: monotonicity certificate false")
        res.require(self.report(outroot, "pin_signswitch")["decreasing"],
                    "gamma-pin: deviations not decreasing")
        nonuniq = self.report(outroot, "nonuniq_ex2")
        flags = {b["label"]: b["in_uniqueness_class"] for b in nonuniq["branches"]}
        res.require(flags == {"v1": True, "v2": False}, f"nonuniqueness flags {flags}")
        res.require(self.report(outroot, "system2")["converged"], "system-solve not converged")
        solve_rep = self.report(outroot, "solve_eq12")
        res.require(solve_rep["solve"]["converged"], "eq12 solve not converged")
        # eq12 solution against the closed-form u2 it was given as trace
        with open(outroot / "solve_eq12" / "field_solution.csv") as fh:
            rows = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        lam = json.loads(Path(scenarios["solve_eq12"]).read_text())["problem"]["lambda"]
        u2 = {c.label: c for c in vc.problems.eq12_solutions(lam)}["u2"]
        eq12_err = float(max(abs(u2.val(x) - v) for x, v in zip(rows[:, :1], rows[:, 1])))
        res.sup_err = max([eq12_err] + [b["sup_distance_to_trace"] for b in nonuniq["branches"]])


class Certify(_CliWorkload):
    name = "certify"

    def scenarios(self, rng):
        window = [10.0, 100.0, 1000.0]
        custom = {"N": 1, "lambda": _u(rng, 0.9, 1.1), "q": 2.0, "C0": 1.0,
                  "sigma": [[_u(rng, 0.8, 1.2)]], "b": [_u(rng, -0.5, 0.5)],
                  "hamiltonian": {"type": "power", "A": [[1.0]]},
                  "f": {"poly": {"0": _u(rng, 0.0, 1.0), "2": _u(rng, 0.0, 0.3)}}}
        mus = sorted(_u(rng, 0.5, 0.99) for _ in range(3))
        hyp = [
            ("eq13_1d", {"problem": {"builtin": "eq13", "lambda": _u(rng, 0.9, 1.1)}}),
            ("eq13_2d", {"problem": {"builtin": "eq13", "lambda": _u(rng, 0.9, 1.1), "N": 2}}),
            ("hje3", {"problem": {"builtin": "hje3", "lambda": _u(rng, 0.9, 1.1), "t": 1.0}}),
            ("signswitch", {"problem": {"builtin": "signswitch", "lambda": _u(rng, 0.9, 1.1)}}),
            ("minconvex", {"problem": {"builtin": "minconvex", "lambda": _u(rng, 0.9, 1.1)}}),
            ("game", {"problem": {"builtin": "game", "lambda": _u(rng, 0.9, 1.1)}}),
            ("system2", {"system": {"builtin": "system2", "coupling": "mean", "c": 0.5,
                                    "lambda": _u(rng, 0.9, 1.1)}}),
            ("custom", {"problem": custom}),
        ]
        calls = [(f"hyp_{key}", "check-hypotheses", scn) for key, scn in hyp]
        calls += [
            ("growth_ex2", "classify-growth", {"problem": {"builtin": "ex2"},
                                               "window": [10.0, 100.0, _u(rng, 900.0, 1100.0)]}),
            ("classical_eq12", "verify-classical",
             {"problem": {"builtin": "eq12", "lambda": _u(rng, 0.9, 1.1)}}),
            ("classical_hje3", "verify-classical",
             {"problem": {"builtin": "hje3", "lambda": _u(rng, 0.9, 1.1), "t": 1.0}}),
            ("classical_ex2", "verify-classical", {"problem": {"builtin": "ex2"}}),
            ("barrier_eq13", "barrier",
             {"problem": {"builtin": "eq13", "lambda": 1.0,
                          "f": {"name": "const", "scale": _u(rng, 0.5, 2.0)}},
              "window": window, "mu": mus}),
            ("barrier_hje3", "barrier",
             {"problem": {"builtin": "hje3", "lambda": 1.0, "t": 1.0},
              "window": window, "mu": [_u(rng, 0.8, 0.95)]}),
        ]
        return calls

    def check_reports(self, outroot: Path, res: OpResult, scenarios: dict):
        for key, want in EXPECTED_VERDICTS.items():
            got = self.report(outroot, f"hyp_{key}")["verdict"]
            res.require(got == want, f"hyp_{key}: verdict {got!r}, expected {want!r}")
        for key in ("classical_eq12", "classical_hje3", "classical_ex2"):
            worst = self.report(outroot, key)["max_abs_residual"]
            res.require(worst <= CLASSICAL_RESIDUAL_TOL, f"{key}: max residual {worst:.3g}")
        for entry in self.report(outroot, "barrier_eq13")["per_mu"]:
            res.require(entry["mode"] == "strict" and entry["strictness"]["passed"],
                        f"barrier_eq13: mu {entry['mu']} not a passed strict barrier")
        for entry in self.report(outroot, "barrier_hje3")["per_mu"]:
            lam0 = entry.get("lambda0", {}).get("lambda0")
            res.require(entry["mode"] == "relaxed" and lam0 == HJE3_LAMBDA0,
                        f"barrier_hje3: lambda0 {lam0}, expected {HJE3_LAMBDA0}")
        growth = self.report(outroot, "growth_ex2")
        res.require(growth["sigma0_order_1"]["in_SG_plus"], "classify-growth: sigma0 not in SG+")


WORKLOADS = {w.name: w for w in (Solve2D, Sweep1D, Certify)}
