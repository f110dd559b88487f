"""Curve systems on the torus with prescribed pairwise intersections.

Decides whether an n-scheme of algebraic intersection numbers is realized
by simple closed curves on a torus, constructs and enumerates witness
systems, splits 3-schemes onto genus-2 surfaces, generates endemic
4-schemes, and searches maximal packings of classes with bounded pairwise
intersection.
"""

__version__ = "0.1.0"

from .conditions import (
    FailedPluecker,
    FailedToz,
    FailedTriangle,
    TozReport,
    UnresolvableZero,
    Verdict,
    check_circledast,
    check_pluecker_full,
    check_triangle,
    decide_torus,
    pluecker_mu,
    toz_report,
)
from .errors import (
    ConstraintViolation,
    DomainError,
    InvalidModuli,
    InvalidPermutation,
    InvalidShape,
    PreconditionViolated,
    TorusCurvesError,
)
from .farey import CliqueResult, candidate_vertices, max_clique, max_packing
from .genus import (
    AlreadyTorus,
    Decomposition,
    bounded_decomposition_search,
    coprime_shift,
    decompose_3scheme,
    endemic_family,
    genus_upper_bound,
)
from .intarith import (
    Factorization,
    ResidueClass,
    crt,
    factorize,
    is_probable_prime,
    valuation,
    xgcd,
)
from .oracle import OracleResult, oracle_realizable
from .render import render_svg
from .scheme import (
    EMPTY_CURVE,
    CurveClass,
    ReductionLog,
    ReductionStep,
    Scheme,
    Unresolvable,
    curve,
    get,
    lift_system,
    new_scheme,
    permute,
    reduce_zeros,
    scheme_sum,
)
from .solver import (
    KappaConstraintSet,
    NormalizedWitness,
    XYWitness,
    construct_witness,
    enumerate_orbits,
    forbidden_count,
    kappa_constraints,
    solve_pair_orbits,
    solve_xy,
    verify_system,
)
