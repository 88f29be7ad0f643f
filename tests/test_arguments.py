"""The package-wide argument rule.

Every public function answers, with no NaN among its returned numbers,
or raises DomainError or ToleranceError: whatever it is handed in a
numeric argument position, and within a time limit.
"""

import math
import signal

import mpmath
import pytest

import imbessel
from imbessel import (
    DomainError,
    Kind,
    ToleranceError,
    classify,
    derivative_tail_bound,
    eval_pair,
    gamma_modulus_imag,
    m_of_nu,
    majorant_bound,
    oracle_pair,
    required_terms,
    tail_bound,
)
from imbessel.oracle import MAX_DIGITS
from imbessel._rows import _eval_row
import references
from references import KL_MAX_DIGITS, hp_bessel_imag, hp_gamma, kl_macdonald

OSC = Kind.OSCILLATORY

# Each public function with a valid call and the names of its numeric
# arguments.
CALLS = {
    "classify": (dict(a=1.0, b=1.0, c=1.0, beta=1.0), ("a", "b", "c", "beta")),
    "derivative_tail_bound": (dict(nu=1.0, x=1.0, N=4), ("nu", "x", "N")),
    "eval_pair": (dict(kind=OSC, nu=1.0, x=1.0, tol=1e-12, terms=None),
                  ("nu", "x", "tol", "terms")),
    "factor_F": (dict(nu=1.0), ("nu",)),
    "gamma_modulus_imag": (dict(nu=1.0), ("nu",)),
    "m_of_nu": (dict(nu=1.0), ("nu",)),
    "majorant_bound": (dict(nu=1.0, n=3), ("nu", "n")),
    "oracle_pair": (dict(kind=OSC, nu=1.0, x=1.0), ("nu", "x", "digits")),
    "oracle_pair_derivs_hp": (dict(kind=OSC, nu=1.0, x=1.0), ("nu", "x", "digits")),
    "oracle_pair_hp": (dict(kind=OSC, nu=1.0, x=1.0), ("nu", "x", "digits")),
    "required_terms": (dict(nu=1.0, x=1.0, tol=1e-8), ("nu", "x", "tol")),
    "tail_bound": (dict(nu=1.0, x=1.0, N=4), ("nu", "x", "N")),
    "wronskian_residual": (dict(kind=OSC, nu=1.0, x=1.0, tol=1e-12), ("nu", "x", "tol")),
}
# The same for the hand-written references the tests compare against
# (tests/references.py), which keep the rule though they are not public.
REFERENCE_CALLS = {
    "hp_bessel_imag": (dict(nu=1.0, x=1.0, kind=OSC), ("nu", "x", "digits")),
    "hp_gamma": (dict(z_re=1.5, z_im=0.5), ("z_re", "z_im", "digits")),
    "kl_macdonald": (dict(tau=1.0, x=1.0), ("tau", "x", "digits")),
    "truncated_pair_hp": (dict(kind=OSC, nu=1.0, x=1.0, n_terms=4),
                          ("nu", "x", "n_terms", "digits")),
}

PROBES = ("1", None, 1j, math.nan, math.inf, 10 ** 400, -1.0, 2.5)
#: seconds per call; every valid probe answers in well under one
LIMIT = 5.0


def _numbers(value):
    # the numbers in a result: floats, mpmath values and ints, through
    # tuples and named tuples
    if isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float, mpmath.mpf)):
        yield value


def test_every_public_function_answers_or_raises_a_library_error():
    public = {name: getattr(imbessel, name) for name in imbessel.__all__}
    functions = {name for name, obj in public.items()
                 if callable(obj) and not isinstance(obj, type)}
    assert functions == set(CALLS)
    targets = {**public, **{name: getattr(references, name) for name in REFERENCE_CALLS}}
    leaks = []
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    try:
        for name, (base, numeric) in {**CALLS, **REFERENCE_CALLS}.items():
            for arg in numeric:
                for probe in PROBES:
                    outcome = _outcome(targets[name], dict(base, **{arg: probe}))
                    if outcome is not None:
                        leaks.append((name, arg, probe, outcome))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not leaks


def _out_of_time(signum, frame):
    raise TimeoutError


def _outcome(fn, kwargs):
    # None for an answer without NaN or a library error, else what leaked
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        result = fn(**kwargs)
    except (DomainError, ToleranceError):
        return None
    except Exception as exc:  # noqa: BLE001 - a leak is what is looked for
        return type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    return "NaN" if any(v != v for v in _numbers(result)) else None


def test_each_refusal_names_its_argument():
    big = 10 ** 400
    past = "must be finite, got an int of 1329 bits"
    cases = (
        # ints beyond the double range
        (eval_pair, (OSC, big, 1.0), "nu " + past),
        (eval_pair, (OSC, 1.0, big), "x " + past),
        (_eval_row, (OSC, 1.0, [1.0, big]), "x " + past),
        (classify, (big, 1, 1, 1), "a " + past),
        (m_of_nu, (big,), "nu " + past),
        (gamma_modulus_imag, (big,), "nu " + past),
        (tail_bound, (1.0, 1.0, big), "N " + past),
        # counts and tolerances of the a-priori chain
        (tail_bound, (1.0, 1.0, "3"), "N must be an int, got '3'"),
        (tail_bound, (1.0, 1.0, 2.5), "N must be an int, got 2.5"),
        (derivative_tail_bound, (1.0, 1.0, None), "N must be an int, got None"),
        (majorant_bound, (1.0, "3"), "n must be an int, got '3'"),
        (majorant_bound, (1.0, 2.5), "n must be an int, got 2.5"),
        (required_terms, (1.0, 1.0, "x"), "tol must be a real number, got 'x'"),
        # the entry points of the oracle and of the references
        (oracle_pair, (OSC, 1.0, math.nan), "x must be finite, got nan"),
        (oracle_pair, (OSC, 1.0, "a"), "x must be a real number, got 'a'"),
        (oracle_pair, (OSC, 1.0, -1.0), "x must be > 0"),
        (kl_macdonald, (1.0, math.nan), "x must be finite, got nan"),
        (hp_gamma, ("a", 1.0), "z_re must be a real number, got 'a'"),
        # their working precision
        (oracle_pair, (OSC, 1.0, 1.0, "1"), "digits must be an int, got '1'"),
        (oracle_pair, (OSC, 1.0, 1.0, None), "digits must be an int, got None"),
        (hp_gamma, (1.0, 1.0, 2.5), "digits must be an int, got 2.5"),
        (hp_gamma, (1.0, 1.0, True), "digits must be an int, got True"),
        (kl_macdonald, (1.0, 1.0, MAX_DIGITS + 1), f"digits must be in 1..{MAX_DIGITS}, got 201"),
    )
    for fn, args, message in cases:
        with pytest.raises(DomainError) as exc:
            fn(*args)
        assert str(exc.value) == message, (fn.__name__, args)
    # an int whose square leaves the double range is refused as a float is
    with pytest.raises(ToleranceError):
        eval_pair(OSC, 10 ** 200, 1.0)


def test_oracle_refuses_work_past_its_cost_caps():
    # a million-step argument shift, ~1e300 quadrature panels and a
    # series of ~1e300 terms: each is refused before the work starts
    cases = (
        (hp_gamma, dict(z_re=-1e6 + 0.5, z_im=0.0)),
        (kl_macdonald, dict(tau=1e300, x=1.0)),
        (hp_bessel_imag, dict(nu=1.0, x=1e300, kind=OSC)),
    )
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    try:
        for fn, kwargs in cases:
            signal.setitimer(signal.ITIMER_REAL, LIMIT)
            try:
                with pytest.raises(ToleranceError):
                    fn(**kwargs)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_kl_macdonald_refuses_digits_past_its_quadrature():
    # past KL_MAX_DIGITS the quadrature is refused up front, not after
    # it has run for seconds and failed to converge
    assert KL_MAX_DIGITS < MAX_DIGITS
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 0.5)
    try:
        for digits in (KL_MAX_DIGITS + 1, 100, MAX_DIGITS):
            with pytest.raises(ToleranceError, match=f"at most {KL_MAX_DIGITS} digits"):
                kl_macdonald(1.0, 1.0, digits=digits)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_an_internal_type_error_with_valid_arguments_is_raised_as_it_is(monkeypatch):
    # `refuse` turns a TypeError into DomainError only for an argument that
    # caused it; with every argument valid, a fault inside is not hidden
    def broken(*args, **kwargs):
        raise TypeError("internal")

    from imbessel import _backend, _rows

    monkeypatch.setattr(_backend, "series_sums", broken)
    with pytest.raises(TypeError, match="internal"):
        eval_pair(OSC, 1.0, 2.0)
    monkeypatch.setattr(_rows, "row_sums", broken)
    with pytest.raises(TypeError, match="internal"):
        _eval_row(OSC, 1.0, [1.0, 2.0], 1e-12)
