"""Real-valued Bessel-type basis functions of pure imaginary order.

Fast double-precision evaluation with guaranteed a-priori truncation
bounds, an independent extended-precision oracle for validation, a
classifier for generalized Bessel-form equations, and a CLI.
"""

import importlib

from ._backend import MAX_TERMS
from .errors import DomainError, ToleranceError
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
    "m_of_nu",
    "majorant_bound",
    "oracle_pair",
    "oracle_pair_derivs_hp",
    "oracle_pair_hp",
    "required_terms",
    "tail_bound",
    "wronskian_residual",
    "__version__",
]

# Names resolved on first access (PEP 562), with the module that defines
# them: the oracle needs mpmath, which costs more to import than the rest
# of the package, and no evaluation path uses the a-priori bounds.
_LAZY = {
    **dict.fromkeys(("derivative_tail_bound", "factor_F", "m_of_nu", "majorant_bound",
                     "required_terms", "tail_bound"), "error_bounds"),
    **dict.fromkeys(("OracleValue", "oracle_pair", "oracle_pair_derivs_hp", "oracle_pair_hp"),
                    "oracle"),
}


def __getattr__(name):
    if name in _LAZY:
        module = importlib.import_module("." + _LAZY[name], __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
