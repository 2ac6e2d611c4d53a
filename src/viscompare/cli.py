"""Scenario runner: viscompare <subcommand> <scenario.json> [flags].

Subcommands: check-hypotheses, classify-growth, barrier, verify-classical,
solve, compare, gamma-pin, nonuniqueness, system-solve.  Scenarios are JSON
with coefficient fields as polynomial tables or named built-ins; outputs are
report.json (sorted keys, canonical floats, byte-identical across runs) and
field_*.csv / residual_*.csv.  Every nonzero exit prints exactly one failed
predicate or solver diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import barrier as barrier_mod
from . import growth as growth_mod
from . import problems as prob_mod
from . import solver as solver_mod
from . import systems as sys_mod
from .fields import parse_matrix_field, parse_scalar_field, parse_vector_field
from .hamiltonians import PowerHamiltonian, SignedScalarHamiltonian
from .operators import DriftDiffusionOperator, check_F3_F4_growth
from .residual import verify_solution
from .theorems import PredicateFailure, check_hypotheses

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PREDICATE = 3
EXIT_SOLVER = 4


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scenario parsing


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario JSON parse error at line {exc.lineno}: {exc.msg}") from exc


def _number(value, key: str, cast=float):
    """A scenario number; one that cast cannot convert is a parse error."""
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{key!r} must be a number, got {value!r}") from exc


def _numbers(values, key: str) -> list:
    """A scenario list of numbers, each through _number."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{key!r} must be a list of numbers, got {values!r}")
    return [_number(v, key) for v in values]


def _required(scn: dict, key: str):
    """The scenario's top-level entry key; an absent one is a parse error."""
    if key not in scn:
        raise ScenarioError(f"scenario missing field {key!r}")
    return scn[key]


def _window(scn: dict, default=None):
    """The scenario's growth radii as floats, else default."""
    radii = scn.get("window", default)
    return None if radii is None else _numbers(radii, "window")


def _parse_field(parser, spec, dim, what):
    try:
        return parser(spec, dim)
    except ValueError as exc:
        raise ScenarioError(f"field {what!r}: {exc}") from exc


def _builder(name):
    """The catalogue builder called `name` and its parameters, or (None, {})."""
    builder = prob_mod.BUILTIN_PROBLEMS.get(name) if isinstance(name, str) else None
    return builder, inspect.signature(builder).parameters if builder else {}


def _build_builtin(spec: dict) -> prob_mod.ProblemSpec:
    """Call the catalogue builder with the scenario values it takes.  lambda
    is parsed even for ex2, which fixes it; an absent value takes the
    builder's default (eq13: f = 0), else lambda 1, N 1, q 2, t -1, f = 0."""
    builder, takes = _builder(spec["builtin"])
    if builder is None:
        raise ScenarioError(f"unknown builtin problem {spec['builtin']!r}")
    N = _number(spec.get("N", 1), "N", int) if "N" in takes else 1
    args = {"lam": _number(spec.get("lambda", 1.0), "lambda"), "N": N}
    parsers = {"sigma": parse_matrix_field, "b": parse_vector_field,
               "A": parse_matrix_field, "f": parse_scalar_field}
    for key, parser in parsers.items():
        param = takes.get(key)
        if param is None or (key not in spec and param.default is not param.empty):
            continue
        if key not in spec and key != "f":
            raise ScenarioError(f"problem spec missing field {key!r}")
        args[key] = _parse_field(parser, spec.get(key, 0.0), N, key)
    for key, default in (("q", 2.0), ("t", -1.0)):
        if key in takes:
            args[key] = _number(spec.get(key, default), key)
    return builder(**{k: v for k, v in args.items() if k in takes})


def build_problem(spec: dict) -> prob_mod.ProblemSpec:
    if not isinstance(spec, dict):
        raise ScenarioError("problem spec must be an object")
    if "builtin" in spec:
        return _build_builtin(spec)
    try:
        N = _number(spec["N"], "N", int)
        lam = _number(spec["lambda"], "lambda")
        sigma = _parse_field(parse_matrix_field, spec["sigma"], N, "sigma")
        b = _parse_field(parse_vector_field, spec["b"], N, "b")
        f = _parse_field(parse_scalar_field, spec.get("f", 0.0), N, "f")
        q = _number(spec.get("q", 2.0), "q")
    except KeyError as exc:
        raise ScenarioError(f"problem spec missing field {exc.args[0]!r}") from exc
    ham_spec = spec.get("hamiltonian")
    ham = None
    if ham_spec is not None:
        kind = ham_spec.get("type")
        if kind == "power":
            ham = PowerHamiltonian(A=_parse_field(parse_matrix_field, ham_spec["A"], N, "A"), q=q)
        elif kind == "signed":
            ham = SignedScalarHamiltonian(a=_parse_field(parse_scalar_field, ham_spec["a"], N, "a"), q=q)
        else:
            raise ScenarioError(f"unknown hamiltonian type {kind!r} in custom problem")
    op = DriftDiffusionOperator(sigma=sigma, b=b, N=N)
    C0 = None if spec.get("C0") is None else _number(spec["C0"], "C0")
    return prob_mod.ProblemSpec(N=N, lam=lam, operator=op, hamiltonian=ham, q=q, f=f,
                                C0=C0, name=spec.get("id", "custom"))


def build_system(spec: dict) -> sys_mod.MonotoneSystem:
    if "builtin" in spec:
        if spec["builtin"] != "system2":
            raise ScenarioError(f"unknown builtin system {spec['builtin']!r}")
        return sys_mod.system2(
            coupling=spec.get("coupling", "none"),
            c=_number(spec.get("c", 0.5), "c"),
            lam=_number(spec.get("lambda", 1.0), "lambda"),
        )
    raise ScenarioError("custom system scenarios are not supported; use builtin system2")


def parse_grid(scn: dict, h_flag: float | None):
    grid = scn.get("grid")
    if grid is None:
        raise ScenarioError("scenario has no grid spec")
    try:
        box = solver_mod.Box(*([_number(v, key) for v in np.atleast_1d(grid["box"][key]).tolist()]
                               for key in ("center", "half_width")))
        h = h_flag if h_flag is not None else _number(grid["h"], "h")
    except KeyError as exc:
        raise ScenarioError(f"grid spec missing field {exc.args[0]!r}") from exc
    return box, h


def closed_forms(spec: dict, lam: float = 1.0):
    """(problem, closed-form solutions) of the scenario's non-uniqueness
    example; any other problem is a parse error.  t is read only for hje3."""
    name = spec.get("builtin")
    t = _number(spec.get("t", -1.0), "t") if "t" in _builder(name)[1] else -1.0
    try:
        return prob_mod.closed_forms(name, lam, t)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def parse_boundary(spec, problem, scn):
    if spec is None:
        return 0.0
    if isinstance(spec, (int, float)):
        return float(spec)
    if "value" in spec:
        return _number(spec["value"], "value")
    if "field" in spec:
        return parse_scalar_field(spec["field"], problem.N)
    if "trace" in spec:
        if "problem" not in scn:
            raise ScenarioError("a trace boundary needs a scalar 'problem' with closed forms")
        by_label = {c.label: c for c in closed_forms(scn["problem"], problem.lam)[1]}
        try:
            cand = by_label[spec["trace"]]
        except KeyError:
            raise ScenarioError(f"unknown trace {spec['trace']!r}; have {sorted(by_label)}")
        return lambda x, c=cand: c.val(x)
    raise ScenarioError(f"cannot parse boundary spec {spec!r}")


# ---------------------------------------------------------------------------
# reporting


def _sanitize(obj):
    if hasattr(obj, "to_json_dict"):
        return _sanitize(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def write_report(outdir: Path, report: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "report.json"
    with open(path, "w") as fh:
        json.dump(_sanitize(report), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_field_csv(outdir: Path, name: str, points: np.ndarray, values: np.ndarray):
    outdir.mkdir(parents=True, exist_ok=True)
    points = np.atleast_2d(points)
    values = np.asarray(values).ravel()
    dim = points.shape[1]
    with open(outdir / name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["value"])
        for p, v in zip(points, values):
            writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])


# ---------------------------------------------------------------------------
# subcommands


def cmd_check_hypotheses(scn, args, outdir):
    target = (build_system(scn["system"]) if "system" in scn
              else build_problem(_required(scn, "problem")))
    report = check_hypotheses(target, _window(scn))
    write_report(outdir, {"id": scn.get("id", ""), **report})
    print(report["verdict"])
    return EXIT_OK, []


def cmd_classify_growth(scn, args, outdir):
    problem = build_problem(_required(scn, "problem"))
    radii = _window(scn)
    f_rep = growth_mod.classify_growth(problem.f_at, problem.q_prime,
                                       radii=radii, dim=problem.N)
    coeffs = check_F3_F4_growth(problem.extremal, radii=radii)

    def g(rep):
        return {
            "in_S_plus": rep.in_S_plus, "in_S_minus": rep.in_S_minus,
            "in_SG_plus": rep.in_SG_plus, "in_SG_minus": rep.in_SG_minus,
            "liminf_plus": rep.liminf_plus, "liminf_minus": rep.liminf_minus,
            "radii": list(rep.radii_used), "note": rep.verdict_note,
        }

    write_report(outdir, {
        "id": scn.get("id", ""),
        "f_order_qprime": g(f_rep),
        "sigma0_order_1": g(coeffs.sigma0_report),
        "b0_order_1": g(coeffs.b0_report),
    })
    return EXIT_OK, []


def cmd_barrier(scn, args, outdir):
    problem = build_problem(_required(scn, "problem"))
    window = barrier_mod.Window(radius=max(_window(scn, growth_mod.DEFAULT_RADII)), nodes=4001)
    mus = args.mu or _numbers(scn.get("mu", [0.5, 0.9, 0.99]), "mu")
    per_mu = []
    csvs = []
    # the growth precondition and the window sample do not depend on mu: the
    # first mu constructs, the others only change mu and beta_mu
    params = refusal = None
    for mu in mus:
        entry = {"mu": mu}
        if refusal is None:
            try:
                params = (barrier_mod.construct_barrier(problem, mu, window) if params is None
                          else params.with_mu(mu))
            except barrier_mod.BarrierPreconditionError as exc:
                refusal = exc
        if refusal is None:
            rep = barrier_mod.verify_strict(problem, params)
            entry["mode"] = "strict"
            entry["params"] = params.to_json_dict()
            entry["strictness"] = rep.to_json_dict()
            entry["gap_bound"] = f"w <= (1-mu)(C1 + alpha<x>^q') with C1={params.C1:.6g}, alpha={params.alpha:.6g}"
            if not rep.passed:
                raise PredicateFailure("barrier strictness (min grid residual > 0)", entry)
            if not csvs:
                csvs.append(("residual_barrier.csv", params.sample.pts, rep.residuals))
        else:
            lrep = barrier_mod.lambda0_for_SG(problem, mu, window)
            entry["mode"] = "relaxed"
            entry["refusal"] = str(refusal)
            entry["lambda0"] = lrep.to_json_dict()
            if lrep.lambda0 is None:
                raise PredicateFailure("lambda0 ladder exhausted", entry) from refusal
        per_mu.append(entry)
    write_report(outdir, {"id": scn.get("id", ""), "per_mu": per_mu})
    return EXIT_OK, csvs


def cmd_verify_classical(scn, args, outdir):
    problem = build_problem(_required(scn, "problem"))
    cands = closed_forms(scn["problem"], problem.lam)[1]
    grid = np.linspace(-10.0, 10.0, 801).reshape(-1, 1)
    entries, csvs = [], []
    worst = 0.0
    for cand in cands:
        rep = verify_solution(problem, cand, grid)
        worst = max(worst, rep.max_abs_residual)
        entries.append({"label": cand.label, **rep.to_json_dict()})
        csvs.append((f"residual_{cand.label}.csv", grid, rep.residuals))
        if rep.sign_classification != "solution":
            raise PredicateFailure(
                f"classical certification of {cand.label} (classified {rep.sign_classification})",
                {"candidates": entries})
    write_report(outdir, {"id": scn.get("id", ""), "candidates": entries,
                          "max_abs_residual": worst})
    print(f"max |residual| over candidates: {worst:.3e}")
    return EXIT_OK, csvs


def cmd_solve(scn, args, outdir):
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
        raise ScenarioError(f"--tol must be a finite number > 0, got {args.tol!r}")
    config = solver_mod.SchemeConfig() if args.tol is None else solver_mod.SchemeConfig(tol_residual=args.tol)
    problem = build_problem(_required(scn, "problem"))
    box, h = parse_grid(scn, args.h)
    boundary = parse_boundary(scn.get("boundary"), problem, scn)
    sol, rep = solver_mod.solve(problem, box, h, boundary, config)
    if not rep.converged:
        raise PredicateFailure(
            f"solver non-convergence (residual {rep.final_residual_norm:.3e} "
            f"after {rep.iterations} iterations)", rep.to_json_dict())
    write_report(outdir, {"id": scn.get("id", ""), "solve": rep.to_json_dict()})
    return EXIT_OK, [("field_solution.csv", sol.points(), sol.values.ravel()),
                     ("residual_history.csv",
                      np.arange(len(rep.residual_history), dtype=float).reshape(-1, 1),
                      np.asarray(rep.residual_history))]


def cmd_compare(scn, args, outdir):
    problem = build_problem(_required(scn, "problem"))
    box, h = parse_grid(scn, args.h)
    f_low = _parse_field(parse_scalar_field, _required(scn, "f_low"), problem.N, "f_low")
    f_high = _parse_field(parse_scalar_field, _required(scn, "f_high"), problem.N, "f_high")
    b_low = parse_boundary(scn.get("boundary_low", 0.0), problem, scn)
    b_high = parse_boundary(scn.get("boundary_high", 0.0), problem, scn)
    rep = solver_mod.comparison_check(problem, box, h, f_low, f_high, b_low, b_high)
    write_report(outdir, {"id": scn.get("id", ""), **rep.to_json_dict()})
    if not rep.ordered:
        raise PredicateFailure("discrete comparison (nodewise ordering)", rep.to_json_dict())
    print(f"ordered with min gap {rep.min_gap:.3e}")
    return EXIT_OK, []


def cmd_gamma_pin(scn, args, outdir):
    problem = build_problem(_required(scn, "problem"))
    box, h = parse_grid(scn, args.h)
    rep = solver_mod.gamma_pinning_check(problem, box, h)
    write_report(outdir, {"id": scn.get("id", ""), **rep.to_json_dict()})
    if not rep.decreasing:
        raise PredicateFailure("Gamma-pinning deviation not decreasing under refinement",
                               rep.to_json_dict())
    print(f"pinning deviations {[f'{d:.3e}' for d in rep.deviations]}")
    return EXIT_OK, []


def cmd_nonuniqueness(scn, args, outdir):
    closed_forms(_required(scn, "problem"))  # refuse other problems before reading the grid
    box, h = parse_grid(scn, args.h)
    rep = solver_mod.nonuniqueness_demo(
        scn["problem"]["builtin"], box, h,
        lam=_number(scn["problem"].get("lambda", 1.0), "lambda"),
        t=_number(scn["problem"].get("t", -1.0), "t"),
    )
    write_report(outdir, {"id": scn.get("id", ""), **rep.to_json_dict()})
    csvs = [(f"field_{b.label}.csv", b.solution.points(), b.solution.values.ravel())
            for b in rep.branches]
    uniq = [b.label for b in rep.branches if b.in_uniqueness_class]
    print(f"branches in the uniqueness class: {uniq}")
    return EXIT_OK, csvs


def cmd_system_solve(scn, args, outdir):
    system = build_system(_required(scn, "system"))
    box, h = parse_grid(scn, args.h)
    specs = scn.get("boundaries", [0.0] * system.m)
    if not isinstance(specs, list) or len(specs) != system.m:
        raise ScenarioError(f"'boundaries' must list {system.m} entries, one per "
                            f"component, got {specs!r}")
    boundaries = [parse_boundary(b, system.scalar_problem(k), scn)
                  for k, b in enumerate(specs)]
    fields, rep = sys_mod.solve_system(system, box, h, boundaries)
    if not rep.converged:
        raise PredicateFailure(
            f"system sweep non-convergence (residual {rep.final_residual_norm:.3e})",
            rep.to_json_dict())
    write_report(outdir, {"id": scn.get("id", ""), **rep.to_json_dict()})
    csvs = [(f"field_component_{k}.csv", fields[k].points(), fields[k].values.ravel())
            for k in range(system.m)]
    return EXIT_OK, csvs


COMMANDS = {
    "check-hypotheses": cmd_check_hypotheses,
    "classify-growth": cmd_classify_growth,
    "barrier": cmd_barrier,
    "verify-classical": cmd_verify_classical,
    "solve": cmd_solve,
    "compare": cmd_compare,
    "gamma-pin": cmd_gamma_pin,
    "nonuniqueness": cmd_nonuniqueness,
    "system-solve": cmd_system_solve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscompare",
        description="comparison-principle scenario runner",
    )
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("scenario", help="scenario JSON file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--h", type=float, default=None, help="grid spacing override")
    parser.add_argument("--mu", type=lambda s: [float(v) for v in s.split(",")],
                        default=None, help="comma-separated list of mu values")
    parser.add_argument("--window", type=lambda s: [float(v) for v in s.split(",")],
                        default=None, help="comma-separated growth radii")
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        scn = load_scenario(args.scenario)
        if args.window is not None:
            scn["window"] = args.window
        outdir = Path(args.out or scn.get("out") or f"out_{scn.get('id', 'scenario')}")
        code, csvs = COMMANDS[args.subcommand](scn, args, outdir)
        for name, points, values in csvs:
            write_field_csv(outdir, name, points, values)
        return code
    except ScenarioError as exc:
        print(f"PARSE_ERROR: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PredicateFailure as exc:
        print(f"FAILED: {exc.predicate}", file=sys.stderr)
        return EXIT_PREDICATE
    except ValueError as exc:
        # grid/problem refusals from the library (e.g. non-diagonal 2-d
        # diffusion, wrong Hamiltonian shape for a demo)
        print(f"SOLVER: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
