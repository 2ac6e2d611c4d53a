"""Property tests for the discrete comparison principle.

A monotone scheme with lambda > 0 orders its solutions like its data, and
is a sup-norm contraction: with equal boundary data,
|u1 - u2|_inf <= |f1 - f2|_inf / lambda.  Both are checked on the power,
signed, min-convex and game forms in 1-d and on the power form with
diagonal diffusion in 2-d, at h = 0.1 with fixed hypothesis seeds.  A
failing example is reported as generated, without shrinking.

The signed form does not order its solutions: the local Lax-Friedrichs
dissipation is tuned from each solution's own gradients, so two solves run
two different schemes.  With f = x^2, lambda = 1 and boundaries 0 <= 0.5 on
[-1, 1], both solves converge with a true monotone certificate and the
solutions cross by 2.2e-3; with f = x^2 / 2, lambda = 0.75 and boundary
0.47 the solve stops at the iteration cap.  The case is an expected
failure until the scheme orders them.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from viscompare.problems import eq13, game_problem, minconvex_problem, signswitch
from viscompare.solver import Box, DiscreteOperator, comparison_check, solve

H = 0.1
TOL = 1e-9  # the solver's default residual tolerance

LINE = Box((0.0,), (1.0,))
FORMS = {
    "power": (eq13, LINE),
    "signed": (signswitch, LINE),
    "minconvex": (minconvex_problem, LINE),
    "game": (game_problem, LINE),
    "power_2d": (lambda lam: eq13(lam, N=2), Box((0.0, 0.0), (1.0, 1.0))),
}

coeff = st.floats(-1.0, 1.0)
increment = st.floats(0.0, 0.5)
lam = st.floats(0.5, 2.0)
PROPERTY = settings(max_examples=10, derandomize=True, deadline=None,
                    phases=(Phase.explicit, Phase.generate))


def quadratic(c0, c1, c2):
    """f(x) = c0 + c1 x_0 + c2 |x|^2."""
    return lambda x: c0 + c1 * float(x[0]) + c2 * float(np.dot(x, x))


@pytest.mark.parametrize("form", [
    pytest.param(form, marks=pytest.mark.xfail(
        strict=True, reason="signed-form solves cross or stop at the iteration cap"))
    if form == "signed" else form
    for form in sorted(FORMS)
])
@PROPERTY
@given(lam=lam, f=st.tuples(coeff, coeff, coeff), df=st.tuples(increment, increment),
       b=st.floats(-0.5, 0.5), db=increment)
def test_ordered_data_give_ordered_solutions(form, lam, f, df, b, db):
    build, box = FORMS[form]
    f_low = quadratic(*f)
    f_high = quadratic(f[0] + df[0], f[1], f[2] + df[1])
    rep = comparison_check(build(lam), box, H, f_low, f_high, b, b + db)
    assert rep.ordered, rep.witness
    for side in (rep.report_low, rep.report_high):
        assert side.converged and side.monotonicity_certificate


@pytest.mark.parametrize("form", sorted(FORMS))
@PROPERTY
@given(lam=lam, f1=st.tuples(coeff, coeff, coeff), f2=st.tuples(coeff, coeff, coeff),
       b=st.floats(-0.5, 0.5))
def test_solutions_contract_in_the_sup_norm(form, lam, f1, f2, b):
    build, box = FORMS[form]
    problem = build(lam)
    sols = [solve(problem.with_f(quadratic(*c)), box, H, b) for c in (f1, f2)]
    for _, rep in sols:
        assert rep.converged and rep.monotonicity_certificate
    interior = DiscreteOperator(problem, box, H).points_int
    f_gap = max(abs(quadratic(*f1)(x) - quadratic(*f2)(x)) for x in interior)
    u_gap = float(np.abs(sols[0][0].values - sols[1][0].values).max())
    assert u_gap <= f_gap / lam + 2.0 * TOL / lam
