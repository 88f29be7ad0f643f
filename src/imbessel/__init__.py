"""Real-valued Bessel-type basis functions of pure imaginary order.

Fast double-precision evaluation with guaranteed a-priori truncation
bounds, an independent extended-precision oracle for validation, a
classifier for generalized Bessel-form equations, and a CLI.
"""

from .errors import DomainError, ToleranceError
from .error_bounds import (
    MAX_TERMS,
    derivative_tail_bound,
    factor_F,
    m_of_nu,
    majorant_bound,
    required_terms,
    tail_bound,
)
from .series_core import (
    Kind,
    PairResult,
    eval_pair,
    gamma_modulus_imag,
    wronskian_residual,
)
from .lommel import ImaginaryOrder, LommelSolution, RealOrder, classify

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "ImaginaryOrder",
    "Kind",
    "LommelSolution",
    "MAX_TERMS",
    "OracleValue",
    "PairResult",
    "RealOrder",
    "ToleranceError",
    "classify",
    "derivative_tail_bound",
    "eval_pair",
    "factor_F",
    "gamma_modulus_imag",
    "hp_bessel_imag",
    "hp_bessel_j_int",
    "hp_gamma",
    "kl_macdonald",
    "m_of_nu",
    "majorant_bound",
    "oracle_pair",
    "oracle_pair_derivs_hp",
    "oracle_pair_hp",
    "required_terms",
    "tail_bound",
    "truncated_pair_hp",
    "wronskian_residual",
    "__version__",
]

# The oracle needs mpmath, which costs more to import than the rest of
# the package; its names are resolved on first access (PEP 562).
_ORACLE_NAMES = frozenset({
    "OracleValue",
    "hp_bessel_imag",
    "hp_bessel_j_int",
    "hp_gamma",
    "kl_macdonald",
    "oracle_pair",
    "oracle_pair_derivs_hp",
    "oracle_pair_hp",
    "truncated_pair_hp",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _ORACLE_NAMES)
