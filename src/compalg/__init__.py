"""Exact arithmetic and constructive conjugacy for the six rational
composition algebras: the quaternions, split quaternions, octonions and
split octonions over the rationals, plus the two complexifications over the
Gaussian rationals.
"""

from .commutant import (
    CommutantReport,
    nullspace,
    single_conjugator_search,
    span_contains,
    twisted_commutant_matrix,
)
from .core import (
    ALGEBRAS,
    Algebra,
    Element,
    H,
    Hc,
    Hs,
    O,
    Oc,
    Os,
    sandwich,
)
from .errors import (
    AlgebraMismatch,
    CompalgError,
    ConsistencyError,
    NormMismatch,
    NotInvertible,
    NotPure,
    PreconditionViolation,
    ZeroElement,
)
from .parsing import (
    ImaginaryScalarInRealAlgebra,
    IndexOutOfRange,
    ParseError,
    PrimeMismatch,
    format_element,
    format_scalar,
    parse_element,
)
from .scalars import GaussRational, I, exact_div
from .selftest import (
    check_counterexample,
    counterexample_instances,
    run_selftest,
    verify_remark,
)
from .witnesses import (
    Branch,
    CheckReport,
    ConjugacyWitness,
    collapse_quaternion,
    conjugacy_witness,
    negator,
    negator_candidates,
    separator,
    verify_negator,
    verify_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAS",
    "Algebra",
    "AlgebraMismatch",
    "Branch",
    "CheckReport",
    "CommutantReport",
    "CompalgError",
    "ConjugacyWitness",
    "ConsistencyError",
    "Element",
    "GaussRational",
    "H",
    "Hc",
    "Hs",
    "I",
    "ImaginaryScalarInRealAlgebra",
    "IndexOutOfRange",
    "NormMismatch",
    "NotInvertible",
    "NotPure",
    "O",
    "Oc",
    "Os",
    "ParseError",
    "PreconditionViolation",
    "PrimeMismatch",
    "ZeroElement",
    "check_counterexample",
    "collapse_quaternion",
    "conjugacy_witness",
    "counterexample_instances",
    "exact_div",
    "format_element",
    "format_scalar",
    "negator",
    "negator_candidates",
    "nullspace",
    "parse_element",
    "run_selftest",
    "sandwich",
    "separator",
    "single_conjugator_search",
    "span_contains",
    "twisted_commutant_matrix",
    "verify_negator",
    "verify_remark",
    "verify_witness",
]
