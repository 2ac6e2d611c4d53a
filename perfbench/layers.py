"""Layer tracing for the traced benchmark run, installed from outside the
library.

Each target below is a public function or method of one viscompare module.
The tracer replaces it where callers look it up: class attributes for
methods, and every `viscompare.*` module global that holds the original
function for functions (so `cli.check_F3_F4_growth`, `barrier.check_F3_F4_growth`
and `operators.check_F3_F4_growth` are all wrapped).  SuperLU is reached
through `scipy.sparse.linalg.spsolve`, which the solver looks up as
`spla.spsolve` on every call.

Coarse boundaries ("span" targets) record one span each: op id, span id,
parent span id, name, start and end.  Per-point evaluators ("count"
targets) only add to aggregated counters, so that millions of calls do not
become millions of records.  Every wrapper tracks self time: its duration
minus the time covered by wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import itertools
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, key, span?).  The key names the layer bucket that
# per-layer metrics are summed from.
TARGETS = [
    ("viscompare.fields", "Polynomial.__call__", "fields.eval", False),
    ("viscompare.fields", "parse_scalar_field", "cli.parse", True),
    ("viscompare.fields", "parse_vector_field", "cli.parse", True),
    ("viscompare.fields", "parse_matrix_field", "cli.parse", True),
    ("viscompare.operators", "DriftDiffusionOperator.sigma_at", "operators.coeff", False),
    ("viscompare.operators", "DriftDiffusionOperator.b_at", "operators.coeff", False),
    ("viscompare.operators", "DriftDiffusionOperator.diffusion", "operators.coeff", False),
    ("viscompare.operators", "DriftDiffusionOperator.__call__", "operators.coeff", False),
    ("viscompare.operators", "ExtremalOperator.sigma0_norm", "operators.coeff", False),
    ("viscompare.operators", "ExtremalOperator.b0_at", "operators.coeff", False),
    ("viscompare.operators", "ExtremalOperator.P", "operators.coeff", False),
    ("viscompare.operators", "check_F2_homogeneity", "operators.check", True),
    ("viscompare.operators", "check_degenerate_ellipticity", "operators.check", True),
    ("viscompare.operators", "check_F3_F4_growth", "operators.check", True),
    ("viscompare.operators", "check_A1_A3", "operators.check", True),
    ("viscompare.operators", "check_F1_standard_form", "operators.check", True),
    ("viscompare.hamiltonians", "PowerHamiltonian.__call__", "hamiltonians.value", False),
    ("viscompare.hamiltonians", "SignedScalarHamiltonian.__call__", "hamiltonians.value", False),
    ("viscompare.hamiltonians", "MinConvexHamiltonian.__call__", "hamiltonians.value", False),
    ("viscompare.hamiltonians", "GameHamiltonian.__call__", "hamiltonians.value", False),
    ("viscompare.hamiltonians", "PowerHamiltonian.slope", "hamiltonians.slope", False),
    ("viscompare.hamiltonians", "SignedScalarHamiltonian.slope", "hamiltonians.slope", False),
    ("viscompare.hamiltonians", "MinConvexHamiltonian.slope", "hamiltonians.slope", False),
    ("viscompare.hamiltonians", "GameHamiltonian.slope", "hamiltonians.slope", False),
    ("viscompare.hamiltonians", "hamiltonian_slope", "hamiltonians.slope_fn", False),
    ("viscompare.hamiltonians", "check_H1_convexity", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "check_H2_bounds", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "check_H3_homogeneity", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "check_H4_modulus", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "check_H2prime", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "check_A4", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "compute_gamma", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "estimate_delta", "hamiltonians.check", True),
    ("viscompare.hamiltonians", "estimate_C0", "hamiltonians.check", True),
    ("viscompare.problems", "ProblemSpec.f_at", "problems.f", False),
    ("viscompare.problems", "ProblemSpec.Hval", "problems.hval", False),
    ("viscompare.solver", "solve", "solver.solve", True),
    ("viscompare.solver", "comparison_check", "solver.demo", True),
    ("viscompare.solver", "gamma_pinning_check", "solver.demo", True),
    ("viscompare.solver", "nonuniqueness_demo", "solver.demo", True),
    ("viscompare.solver", "DiscreteOperator.__init__", "solver.grid", True),
    ("viscompare.solver", "DiscreteOperator.residual", "solver.residual", True),
    ("viscompare.solver", "DiscreteOperator.linear_residual", "solver.residual", True),
    ("viscompare.solver", "DiscreteOperator.assemble", "solver.assemble", True),
    ("scipy.sparse.linalg", "spsolve", "solver.superlu", True),
    ("viscompare.systems", "solve_system", "systems.sweep", True),
    ("viscompare.barrier", "construct_barrier", "barrier.construct", True),
    ("viscompare.barrier", "linear_case_barrier", "barrier.construct", True),
    ("viscompare.barrier", "lambda0_for_SG", "barrier.ladder", True),
    ("viscompare.barrier", "verify_strict", "barrier.verify", True),
    ("viscompare.barrier", "eval_barrier", "barrier.eval", False),
    ("viscompare.barrier", "extremal_residual", "barrier.eval", False),
    ("viscompare.growth", "classify_growth", "growth.classify", True),
    ("viscompare.residual", "verify_solution", "residual.verify", True),
    ("viscompare.residual", "pde_residual", "residual.point", False),
    ("viscompare.cli", "load_scenario", "cli.parse", True),
    ("viscompare.cli", "build_problem", "cli.parse", True),
    ("viscompare.cli", "build_system", "cli.parse", True),
    ("viscompare.cli", "parse_grid", "cli.parse", True),
    ("viscompare.cli", "parse_boundary", "cli.parse", True),
    ("viscompare.cli", "check_hypotheses", "cli.dispatch", True),
    ("viscompare.cli", "write_report", "cli.write", True),
    ("viscompare.cli", "write_field_csv", "cli.write", True),
]


def _after_parse(tracer, out, args, kwargs):
    # products of parse_* are coefficient evaluators; Polynomials are
    # already counted through Polynomial.__call__
    if type(out).__name__ == "Polynomial" or not callable(out):
        return out
    return tracer.wrap(out, "fields.eval", span=False)


def _after_solve(tracer, out, args, kwargs):
    sol, rep = out
    interior = 1
    for n in sol.values.shape:
        interior *= n - 2
    tracer.counts["solver.newton_iters"] += rep.iterations
    tracer.counts["solver.node_updates"] += rep.iterations * interior
    tracer.counts["solver.monotone"] += bool(rep.monotonicity_certificate)
    return out


def _after_spsolve(tracer, out, args, kwargs):
    tracer.counts["solver.superlu_nnz"] += args[0].nnz
    return out


def _after_solve_system(tracer, out, args, kwargs):
    tracer.counts["systems.sweeps"] += out[1].sweeps
    return out


def _after_verify_strict(tracer, out, args, kwargs):
    tracer.counts["barrier.verify_points"] += out.grid_size
    return out


def _after_ladder(tracer, out, args, kwargs):
    tracer.counts["barrier.ladder_rungs"] += len(out.rungs)
    tracer.counts["barrier.rungs_passed"] += sum(1 for rung in out.rungs if rung[1])
    return out


def _after_classify(tracer, out, args, kwargs):
    per_radius = args[3] if len(args) > 3 else kwargs.get("samples_per_radius", 64)
    tracer.counts["growth.shell_samples"] += len(out.radii_used) * per_radius
    return out


def _after_write_report(tracer, out, args, kwargs):
    tracer.counts["cli.bytes_written"] += os.path.getsize(out)
    return out


def _after_write_csv(tracer, out, args, kwargs):
    outdir, name = args[0], args[1]
    tracer.counts["cli.bytes_written"] += os.path.getsize(os.path.join(outdir, name))
    return out


AFTER = {
    "parse_scalar_field": _after_parse,
    "parse_vector_field": _after_parse,
    "parse_matrix_field": _after_parse,
    "solve": _after_solve,
    "spsolve": _after_spsolve,
    "solve_system": _after_solve_system,
    "verify_strict": _after_verify_strict,
    "lambda0_for_SG": _after_ladder,
    "classify_growth": _after_classify,
    "write_report": _after_write_report,
    "write_field_csv": _after_write_csv,
}


class Tracer:
    """Spans and counters for one traced pass; `install` patches the
    targets, `uninstall` restores the originals."""

    def __init__(self):
        self.op = None
        self.reset()
        self._patches = []

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # key -> [calls, self seconds]
        self.counts = Counter()                       # exact counts from return values
        self.spans = []    # (op, span id, parent id, name, start, end)
        self._child = []   # per open wrapped call: time covered by wrapped children
        self._open = []    # ids of open spans
        self._ids = itertools.count(1)

    def wrap(self, fn, key: str, span: bool, after=None):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            child = tracer._child
            child.append(0.0)
            if span:
                sid = next(tracer._ids)
                parent = tracer._open[-1] if tracer._open else None
                tracer._open.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stat = tracer.stats[key]
                stat[0] += 1
                stat[1] += dt - child.pop()
                if child:
                    child[-1] += dt
                if span:
                    tracer._open.pop()
                    tracer.spans.append((tracer.op, sid, parent, key, t0, t1))
            if after is not None:
                out = after(tracer, out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "viscompare" or name.startswith("viscompare.")]
        for modname, attr, key, span in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            wrapper = self.wrap(original, key, span, AFTER.get(name))
            self._patch(owner, name, original, wrapper)
            if not cls_path:
                for mod in modules:
                    for gname, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, gname, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def op_span(self, op_id, fn, *args):
        """Run one op under a root span named "op"."""
        self.op = op_id
        try:
            return self.wrap(fn, "op", span=True)(*args)
        finally:
            self.op = None

    # -- layer metrics -------------------------------------------------------

    def exact_counts(self) -> dict:
        """Every count the tracer keeps that must repeat exactly for one seed."""
        out = {f"{key}.calls": stat[0] for key, stat in self.stats.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics (see PER_LAYER in BENCHMARK.json)."""
        calls = lambda *keys: sum(self.stats[k][0] for k in keys if k in self.stats)
        self_s = lambda *keys: sum(self.stats[k][1] for k in keys if k in self.stats)
        c = self.counts
        solves = calls("solver.solve")
        rungs = c["barrier.ladder_rungs"]
        totals = {
            "fields.eval_calls": calls("fields.eval"),
            "fields.eval_s": self_s("fields.eval"),
            "operators.coeff_calls": calls("operators.coeff"),
            "operators.coeff_s": self_s("operators.coeff"),
            "operators.check_s": self_s("operators.check"),
            "hamiltonians.value_calls": calls("hamiltonians.value"),
            "hamiltonians.slope_calls": calls("hamiltonians.slope"),
            "hamiltonians.eval_s": self_s("hamiltonians.value", "hamiltonians.slope",
                                          "hamiltonians.slope_fn"),
            "hamiltonians.check_calls": calls("hamiltonians.check"),
            "hamiltonians.check_s": self_s("hamiltonians.check"),
            "problems.f_calls": calls("problems.f"),
            "problems.eval_s": self_s("problems.f", "problems.hval"),
            "solver.solves": solves,
            "solver.newton_iters": c["solver.newton_iters"],
            "solver.node_updates": c["solver.node_updates"],
            "solver.grid_s": self_s("solver.grid"),
            "solver.residual_s": self_s("solver.residual"),
            "solver.assemble_calls": calls("solver.assemble"),
            "solver.assemble_s": self_s("solver.assemble"),
            "solver.superlu_calls": calls("solver.superlu"),
            "solver.superlu_nnz": c["solver.superlu_nnz"],
            "solver.superlu_s": self_s("solver.superlu"),
            "solver.self_s": self_s("solver.solve", "solver.demo"),
            "systems.sweeps": c["systems.sweeps"],
            "systems.self_s": self_s("systems.sweep"),
            "barrier.construct_calls": calls("barrier.construct"),
            "barrier.construct_s": self_s("barrier.construct", "barrier.ladder"),
            "barrier.verify_calls": calls("barrier.verify"),
            "barrier.verify_points": c["barrier.verify_points"],
            "barrier.verify_s": self_s("barrier.verify", "barrier.eval"),
            "barrier.ladder_rungs": rungs,
            "growth.classify_calls": calls("growth.classify"),
            "growth.shell_samples": c["growth.shell_samples"],
            "growth.classify_s": self_s("growth.classify"),
            "residual.verify_calls": calls("residual.verify"),
            "residual.points": calls("residual.point"),
            "residual.verify_s": self_s("residual.verify", "residual.point"),
            "cli.parse_s": self_s("cli.parse"),
            "cli.dispatch_s": self_s("cli.dispatch"),
            "cli.write_s": self_s("cli.write"),
            "cli.bytes_written": c["cli.bytes_written"],
            "op.unattributed_s": self_s("op"),
        }
        out = {name: value / n_ops for name, value in totals.items()}
        # ratios are already per op
        out["solver.monotone_frac"] = c["solver.monotone"] / solves if solves else 0.0
        out["barrier.rung_pass_frac"] = c["barrier.rungs_passed"] / rungs if rungs else 0.0
        return out

    def span_records(self):
        for op, sid, parent, name, start, end in self.spans:
            yield {"op": op, "id": sid, "parent": parent, "name": name,
                   "start": start, "end": end}
