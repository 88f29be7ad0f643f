"""Tests for the generalized-equation classifier and its round trips."""

import io
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbessel import (
    DomainError,
    ImaginaryOrder,
    Kind,
    LommelSolution,
    RealOrder,
    ToleranceError,
    classify,
    eval_pair,
)
from imbessel.cli import main as cli_main


def test_classify_recovers_imaginary_unit_case():
    # a=1, b=nu0^2, c=1, beta=1 is the oscillatory equation itself
    sol = classify(1.0, 2.25, 1.0, 1.0)
    assert sol.prefactor_exponent == 0.0
    assert sol.gamma == 1.0
    assert isinstance(sol.order, ImaginaryOrder)
    assert sol.order.nu == pytest.approx(1.5, rel=1e-15)


def test_classify_recovers_classical_case():
    sol = classify(1.0, -2.25, 1.0, 1.0)
    assert isinstance(sol.order, RealOrder)
    assert sol.order.nu == pytest.approx(1.5, rel=1e-15)


def test_classify_hand_example():
    sol = classify(2.0, 1.0, 4.0, 1.0)
    assert sol.prefactor_exponent == pytest.approx(-0.5)
    assert sol.gamma == pytest.approx(2.0)
    assert isinstance(sol.order, ImaginaryOrder)
    assert sol.order.nu == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)


def test_classify_zero_discriminant_is_real_zero():
    sol = classify(3.0, 1.0, 1.0, 1.0)  # ((a-1)/2)^2 - b = 0
    assert isinstance(sol.order, RealOrder)
    assert sol.order.nu == 0.0


def test_classify_rejects_bad_input():
    with pytest.raises(DomainError):
        classify(1.0, 1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        classify(1.0, 1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        classify(1.0, 1.0, 0.0, 1.0)  # an Euler equation, no Bessel form
    with pytest.raises(DomainError):
        classify(float("nan"), 1.0, 1.0, 1.0)


def test_classify_refuses_values_beyond_the_double_range():
    cases = (
        ((1.0, 1.0, 1e-300, 1e300),
         "gamma = sqrt(c)/|beta| = 0.0 leaves the double range at c=1e-300, beta=1e+300"),
        ((1.0, 1.0, 1e300, 1e-300),
         "gamma = sqrt(c)/|beta| = inf leaves the double range at c=1e+300, beta=1e-300"),
        ((3e154, 1.0, 1.0, 1.0),
         "order nu = inf leaves the double range at a=3e+154, b=1.0, beta=1.0"),
        # an imaginary order that underflows to 0 would read as RealOrder(0)'s twin
        ((1.0, 1e-300, 1.0, 1e300),
         "order nu = 0.0 leaves the double range at a=1.0, b=1e-300, beta=1e+300"),
        ((1.0, -1.0, 1e-300, 1e-310),
         "order nu = inf leaves the double range at a=1.0, b=-1.0, beta=1e-310"),
    )
    for args, message in cases:
        with pytest.raises(ToleranceError) as exc:
            classify(*args)
        assert str(exc.value) == message


def test_classify_names_an_argument_that_is_not_a_real_number():
    # in the order a, b, c, beta, each checked for its type, then finiteness
    cases = (
        (("1", 1, 1, 1), "a must be a real number, got '1'"),
        ((1, None, 1, 1), "b must be a real number, got None"),
        ((1, 1, 1j, math.nan), "c must be a real number, got 1j"),
        ((math.nan, "1", 1, 1), "a must be finite, got nan"),
        ((1, 1, 1, math.inf), "beta must be finite, got inf"),
    )
    for args, message in cases:
        with pytest.raises(DomainError) as exc:
            classify(*args)
        assert str(exc.value) == message


def test_classify_scale_consistency():
    base = classify(2.0, 1.0, 4.0, 1.0)
    doubled = classify(2.0, 1.0, 8.0, 1.0)
    assert doubled.gamma == pytest.approx(base.gamma * math.sqrt(2.0), rel=1e-15)
    assert doubled.prefactor_exponent == base.prefactor_exponent
    assert doubled.order.nu == base.order.nu


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-3.0, 5.0),
    b=st.floats(-5.0, 5.0),
    c=st.floats(0.0, 9.0, exclude_min=True),
    beta=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
)
def test_classify_discriminant_consistency(a, b, c, beta):
    sol = classify(a, b, c, beta)
    s = (a - 1.0) / 2.0
    disc = s * s - b
    assert sol.prefactor_exponent == -s
    # (beta nu)^2 reproduces |disc| for either branch
    assert (beta * sol.order.nu) ** 2 == pytest.approx(abs(disc), rel=1e-12, abs=1e-12)
    assert isinstance(sol.order, RealOrder if disc >= 0 else ImaginaryOrder)
    assert sol.order.nu >= 0.0


def _imaginary_solution(sol, sine_type):
    nu = sol.order.nu
    g = sol.gamma
    p = sol.prefactor_exponent

    def y_dy(x, beta):
        u = g * x ** beta
        r = eval_pair(Kind.OSCILLATORY, nu, u, 1e-13)
        w, dw = (r.sin_part, r.d_sin) if sine_type else (r.cos_part, r.d_cos)
        y = x ** p * w
        dy = p * x ** (p - 1.0) * w + x ** p * dw * g * beta * x ** (beta - 1.0)
        return y, dy

    return y_dy


def _ode_residual_ok(a, b, c, beta, y_dy, limit=1e-5):
    for i in range(7):
        x = 0.5 + 1.5 * i / 6.0
        h = 1e-4
        y, dy = y_dy(x, beta)
        _, dy_p = y_dy(x + h, beta)
        _, dy_m = y_dy(x - h, beta)
        ypp = (dy_p - dy_m) / (2.0 * h)
        res = x * x * ypp + a * x * dy + (b + c * x ** (2.0 * beta)) * y
        if abs(res) > limit * (1.0 + abs(y)):
            return False, (x, res, y)
    return True, None


def test_imaginary_round_trip_fixed_cases():
    cases = [
        (1.0, 1.0, 1.0, 1.0),
        (2.0, 1.0, 4.0, 1.0),
        (0.0, 1.5, 1.0, -1.0),
        (1.5, 2.0, 0.81, 0.8),
    ]
    for a, b, c, beta in cases:
        sol = classify(a, b, c, beta)
        assert isinstance(sol.order, ImaginaryOrder)
        for sine_type in (False, True):
            ok, info = _ode_residual_ok(a, b, c, beta, _imaginary_solution(sol, sine_type))
            assert ok, (a, b, c, beta, sine_type, info)


def test_imaginary_round_trip_randomized():
    rng = random.Random(20260810)
    for _ in range(10):
        s = rng.uniform(-1.0, 1.0)
        nu_hat = rng.uniform(0.3, 1.5)
        beta = rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4)
        scale = rng.uniform(0.5, 1.5)
        a = 2.0 * s + 1.0
        b = s * s + (nu_hat * abs(beta)) ** 2
        c = (scale * abs(beta)) ** 2
        sol = classify(a, b, c, beta)
        assert isinstance(sol.order, ImaginaryOrder)
        for sine_type in (False, True):
            ok, info = _ode_residual_ok(a, b, c, beta, _imaginary_solution(sol, sine_type))
            assert ok, (a, b, c, beta, sine_type, info)


def test_real_order_round_trip_integer_case():
    # a=1, b=-1, c=1, beta=1 classifies to J_1; check the ODE residual of
    # x^0 * J_1(x) using mpmath's J_1 at 50 digits
    sol = classify(1.0, -1.0, 1.0, 1.0)
    assert isinstance(sol.order, RealOrder)
    assert sol.order.nu == pytest.approx(1.0, rel=1e-15)

    def y_dy(x, beta):
        h = 5e-5
        with mpmath.mp.workdps(50):
            y, yp, ym = (float(mpmath.besselj(1, t)) for t in (x, x + h, x - h))
        return y, (yp - ym) / (2.0 * h)

    ok, info = _ode_residual_ok(1.0, -1.0, 1.0, 1.0, y_dy)
    assert ok, info


# ------------------------------------------------------------ record contract

def test_order_records_compare_only_within_their_type():
    # named tuples, but a real and an imaginary order of the same nu differ
    assert RealOrder(1.0) != ImaginaryOrder(1.0)
    assert not RealOrder(1.0) == ImaginaryOrder(1.0)
    assert RealOrder(1.0) != (1.0,) and (1.0,) != ImaginaryOrder(1.0)
    for cls in (RealOrder, ImaginaryOrder):
        assert cls(1.5) == cls(1.5) and not cls(1.5) != cls(1.5)
        assert hash(cls(1.5)) == hash(cls(1.5))
        assert cls(1.5) != cls(2.5)
        assert len({cls(1.5), cls(1.5), cls(2.5)}) == 2
    real, imaginary = classify(1.0, -2.25, 1.0, 1.0), classify(1.0, 2.25, 1.0, 1.0)
    assert real != imaginary and real[:2] == imaginary[:2]
    assert classify(2.0, 1.0, 4.0, 1.0) == classify(2.0, 1.0, 4.0, 1.0)
    assert hash(classify(2.0, 1.0, 4.0, 1.0)) == hash(classify(2.0, 1.0, 4.0, 1.0))


def test_lommel_records_are_immutable_with_a_stable_repr():
    sol = classify(2.0, 1.0, 4.0, 1.0)
    assert isinstance(sol, LommelSolution) and isinstance(sol.order, ImaginaryOrder)
    assert LommelSolution._fields == ("prefactor_exponent", "gamma", "order")
    assert RealOrder._fields == ImaginaryOrder._fields == ("nu",)
    assert repr(sol) == ("LommelSolution(prefactor_exponent=-0.5, gamma=2.0, "
                         "order=ImaginaryOrder(nu=0.8660254037844386))")
    assert repr(RealOrder(1.5)) == "RealOrder(nu=1.5)"
    for record, name in ((sol, "gamma"), (sol, "order"), (sol.order, "nu")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    with pytest.raises(AttributeError):
        sol.order.extra = 0.0


CLASSIFY_BYTES = {
    ("1.5", "3", "2", "1"): (
        "a,b,c,beta,prefactor_exponent,gamma,order_type,nu\n"
        "1.5,3,2,1,-0.25,1.4142135623730951,imaginary,1.713913650100261\n",
        '[\n  {\n    "a": 1.5,\n    "b": 3.0,\n    "c": 2.0,\n    "beta": 1.0,\n'
        '    "prefactor_exponent": -0.25,\n    "gamma": 1.4142135623730951,\n'
        '    "order_type": "imaginary",\n    "nu": 1.713913650100261\n  }\n]\n',
    ),
    ("2", "-3", "4", "-0.5"): (
        "a,b,c,beta,prefactor_exponent,gamma,order_type,nu\n"
        "2,-3,4,-0.5,-0.5,4,real,3.6055512754639891\n",
        '[\n  {\n    "a": 2.0,\n    "b": -3.0,\n    "c": 4.0,\n    "beta": -0.5,\n'
        '    "prefactor_exponent": -0.5,\n    "gamma": 4.0,\n'
        '    "order_type": "real",\n    "nu": 3.605551275463989\n  }\n]\n',
    ),
    ("3", "1", "1", "1"): (
        "a,b,c,beta,prefactor_exponent,gamma,order_type,nu\n"
        "3,1,1,1,-1,1,real,0\n",
        '[\n  {\n    "a": 3.0,\n    "b": 1.0,\n    "c": 1.0,\n    "beta": 1.0,\n'
        '    "prefactor_exponent": -1.0,\n    "gamma": 1.0,\n'
        '    "order_type": "real",\n    "nu": 0.0\n  }\n]\n',
    ),
}


def test_classify_command_bytes_are_pinned():
    # CSV and JSON bytes of `imbessel classify`, frozen from the release
    # whose records were frozen dataclasses
    for (a, b, c, beta), (csv_text, json_text) in CLASSIFY_BYTES.items():
        for fmt, want in (("csv", csv_text), ("json", json_text)):
            out = io.StringIO()
            args = ["classify", "--a", a, "--b", b, "--c", c, "--beta", beta, "--format", fmt]
            assert cli_main(args, out=out) == 0
            assert out.getvalue() == want, (a, b, c, beta, fmt)
