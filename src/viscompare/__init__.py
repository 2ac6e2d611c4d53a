"""Comparison-principle machinery for degenerate elliptic PDEs with
superlinear gradient terms.

Library layout: growth (growth-class arithmetic and sampled classification),
hamiltonians (the four gradient-term forms and hypothesis checkers),
operators (drift-diffusion F, extremal P, structure checks), problems
(ProblemSpec and the closed-form example catalogue), residual (classical
certification), barrier (strict supersolutions of the extremal inequality),
solver (monotone finite differences on truncated boxes), systems (weakly
coupled monotone systems), theorems (the theorem map: which result a
problem or system meets), cli (scenario runner).
"""

from .barrier import (
    BarrierParams,
    Lambda0Report,
    Window,
    beta_mu,
    construct_barrier,
    eval_barrier,
    extremal_residual,
    lambda0_for_SG,
    linear_case_barrier,
    system_extremal_residual,
    verify_strict,
)
from .growth import (
    GrowthExponent,
    GrowthReport,
    bracket,
    bracket_power_derivatives,
    classify_growth,
    conjugate,
)
from .hamiltonians import (
    GameHamiltonian,
    MinConvexHamiltonian,
    PowerHamiltonian,
    SignedScalarHamiltonian,
    compute_gamma,
)
from .operators import (
    DriftDiffusionOperator,
    ExtremalOperator,
    canonical_extremal,
)
from .problems import ProblemSpec, eq12, eq13, ex2, hje3, signswitch
from .residual import (SmoothCandidate, manufactured_rhs, mu_subsolution_residual,
                       pde_residual, verify_solution)
from .solver import (
    Box,
    DiscreteField,
    SchemeConfig,
    SolveReport,
    comparison_check,
    gamma_pinning_check,
    nonuniqueness_demo,
    solve,
)
from .systems import MonotoneSystem, SystemComponent, check_M, max_component_gap, solve_system

__version__ = "0.1.0"
