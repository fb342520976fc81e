import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from eightvertex.numeric import (
    Cyclo8, scalar, parse_scalar, parse_cyclo8, format_cyclo8,
    sqrt_in_field, as_power_of_i, unit_modulus,
    DivisionByZero, ZERO, ONE, I, ALPHA, SQRT2,
)

small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
cyclos = st.builds(Cyclo8, small_fracs, small_fracs, small_fracs, small_fracs)


def test_basis_relations():
    zeta = Cyclo8(0, 1, 0, 0)
    assert zeta ** 8 == ONE
    assert zeta ** 4 == Cyclo8(-1)
    assert ALPHA == zeta
    assert ALPHA * ALPHA == I
    assert SQRT2 * SQRT2 == Cyclo8(2)
    assert SQRT2 == zeta - zeta ** 3
    assert I * I == Cyclo8(-1)


@given(cyclos, cyclos, cyclos)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == ZERO


@given(cyclos)
def test_inverse(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ONE
        assert (ONE / x) * x == ONE


@given(cyclos)
def test_conjugate_matches_complex(x):
    zc = x.to_complex()
    cc = x.conjugate().to_complex()
    assert math.isclose(zc.real, cc.real, abs_tol=1e-9)
    assert math.isclose(zc.imag, -cc.imag, abs_tol=1e-9)


@given(cyclos, st.integers(min_value=-6, max_value=6))
def test_pow_matches_repeated_product(x, n):
    if n < 0 and x.is_zero():
        return
    step = x if n >= 0 else x.inverse()
    acc = ONE
    for _ in range(abs(n)):
        acc = acc * step
    assert x ** n == acc


@given(cyclos)
def test_galois_automorphisms(x):
    for k in (1, 3, 5, 7):
        g = x.galois(k)
        # additive and multiplicative on a probe
        assert (x + x).galois(k) == g + g
    assert x.galois(1) == x


@given(cyclos)
def test_to_complex_consistent_with_arithmetic(x):
    z = x.to_complex()
    w = (x * x).to_complex()
    assert abs(z * z - w) < 1e-6


@given(cyclos)
def test_sqrt_in_field_of_square(x):
    sq = x * x
    r = sqrt_in_field(sq)
    assert r is not None
    assert r * r == sq


@given(cyclos)
def test_sqrt_in_field_sound(x):
    r = sqrt_in_field(x)
    if r is not None:
        assert r * r == x


def test_sqrt_in_field_misses():
    assert sqrt_in_field(Cyclo8(3)) is None
    assert sqrt_in_field(Cyclo8(-3)) is None
    assert sqrt_in_field(Cyclo8(Fraction(5, 7))) is None
    # sqrt(sqrt2) = 2^(1/4) generates a degree-8 extension of Q
    assert sqrt_in_field(SQRT2) is None


def test_sqrt_in_field_hits():
    one_plus_zeta = ONE + ALPHA
    for v in (Cyclo8(2), Cyclo8(-2), Cyclo8(-1), I, -I,
              Cyclo8(2) * I, Cyclo8(Fraction(9, 4)),
              one_plus_zeta * one_plus_zeta):
        r = sqrt_in_field(v)
        assert r is not None and r * r == v


@given(cyclos, st.integers(min_value=0, max_value=7))
def test_rotate_is_multiplication_by_zeta_power(x, k):
    assert x.rotate(k) == x * ALPHA ** k
    assert x.rotate(-k) == x * ALPHA ** (8 - k)
    assert x.rotate(k + 8) == x.rotate(k)


def test_power_of_i_detection():
    for k in range(4):
        assert as_power_of_i(I ** k) == k
    assert as_power_of_i(SQRT2) is None
    assert as_power_of_i(Cyclo8(2)) is None
    assert as_power_of_i(ZERO) is None


def test_unit_modulus():
    assert unit_modulus(ALPHA ** 3)
    assert not unit_modulus(Cyclo8(2))
    assert not unit_modulus(ZERO)


@given(cyclos)
def test_format_parse_round_trip(x):
    assert parse_cyclo8(format_cyclo8(x)) == x


def test_parse_scalar_forms():
    assert parse_scalar is parse_cyclo8
    assert parse_cyclo8("3/2") == Cyclo8(Fraction(3, 2))
    assert parse_cyclo8("-2i") == Cyclo8(-2) * I
    assert parse_cyclo8("1+1i") == ONE + I
    assert parse_cyclo8("a") == ALPHA
    with pytest.raises(ValueError):
        parse_cyclo8("one")


@given(cyclos)
def test_scalar_str_round_trip(x):
    assert scalar(x) is x
    assert parse_cyclo8(str(x)) == x


def test_scalar_demotion():
    """An inexact operand is refused rather than turning the result
    into an approximation."""
    for inexact in (0.5, 1.0, 1j, "1"):
        with pytest.raises(TypeError):
            scalar(inexact)
        with pytest.raises(TypeError):
            Cyclo8(inexact)
        with pytest.raises(TypeError):
            scalar(1) + inexact
        with pytest.raises(TypeError):
            inexact * scalar(2)
    assert scalar(1) != 1.0
    assert scalar(Fraction(1, 2)) == Cyclo8(Fraction(1, 2))


def test_scalar_division_by_zero():
    with pytest.raises(DivisionByZero):
        scalar(1) / scalar(0)


def test_benchmark_tracer_wraps_field():
    """benchmark/tracing.py wraps Cyclo8's operations, numeric.Scalar's
    _binop, __neg__, __pow__ and __eq__, and numeric.parse_cyclo8 by
    name.  A missing name fails here in about a second, not only in the
    traced benchmark passes."""
    import eightvertex
    import eightvertex.classify
    import eightvertex.evaluate  # noqa: F401  (the tracer wraps it too)
    from eightvertex import numeric
    from eightvertex.signatures import EightVertexSig

    path = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mul, eq = Cyclo8.__dict__["__mul__"], Cyclo8.__dict__["__eq__"]
    parse = numeric.parse_cyclo8
    tracer = tracing.Tracer()
    tracer.install(eightvertex)
    try:
        eightvertex.classify.classify(EightVertexSig.parse("1,1,1,0,0,1,1,0"))
        assert tracer.counts["cyclo_mul"] > 0
    finally:
        tracer.uninstall()
    assert Cyclo8.__dict__["__mul__"] is mul
    assert Cyclo8.__dict__["__eq__"] is eq
    assert numeric.parse_cyclo8 is parse


# -- differential test against sympy: Q[x] / (x^4 + 1) ----------------------

wide_fracs = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-40, max_value=40).map(Fraction),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
)
wide_cyclos = st.builds(Cyclo8, wide_fracs, wide_fracs, wide_fracs,
                        wide_fracs)


def _to_poly(x, sp):
    X = sp.Symbol("x")
    return sp.Poly([sp.Rational(c.numerator, c.denominator)
                    for c in reversed(x.coeffs)], X, domain=sp.QQ)


def _from_poly(p, sp):
    p = p.rem(sp.Poly(sp.Symbol("x") ** 4 + 1, sp.Symbol("x"),
                      domain=sp.QQ))
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return Cyclo8(*(cs + [Fraction(0)] * (4 - len(cs))))


def _check_canonical(x):
    assert x.d > 0
    assert math.gcd(*x.n, x.d) == 1
    if not any(x.n):
        assert x.n == (0, 0, 0, 0) and x.d == 1
    assert x.coeffs == tuple(Fraction(k, x.d) for k in x.n)
    assert hash(x) == hash(x.coeffs)
    assert x == Cyclo8(*x.coeffs)


@settings(max_examples=40, deadline=None)
@given(wide_cyclos, wide_cyclos, st.integers(min_value=-5, max_value=5))
def test_field_matches_sympy(x, y, k):
    sp = pytest.importorskip("sympy")
    X = sp.Symbol("x")
    mod = sp.Poly(X ** 4 + 1, X, domain=sp.QQ)
    px, py = _to_poly(x, sp), _to_poly(y, sp)
    results = {
        "add": (x + y, px + py),
        "sub": (x - y, px - py),
        "mul": (x * y, px * py),
        "int_mul": (x * k, px * k),
        "int_rsub": (k - x, k - px),
    }
    if not x.is_zero():
        inv = px.invert(mod)
        results["inverse"] = (x.inverse(), inv)
        results["rtruediv"] = (k / x, inv * k)
        if not y.is_zero():
            results["truediv"] = (x / y, px * py.invert(mod))
        results["pow"] = (x ** k, (px if k >= 0 else inv) ** abs(k))
    for j in (1, 3, 5, 7):
        results[f"galois{j}"] = (x.galois(j), px.compose(
            sp.Poly(X ** j, X, domain=sp.QQ)))
    for name, (got, want) in results.items():
        _check_canonical(got)
        assert got == _from_poly(want, sp), name
    _check_canonical(x)
    assert (x == y) == (x.coeffs == y.coeffs)
    assert (hash(x) == hash(y)) or x != y
    assert parse_cyclo8(format_cyclo8(x)) == x


@settings(max_examples=40, deadline=None)
@given(wide_cyclos, wide_cyclos)
def test_sqrt_in_field_matches_sympy(x, y):
    sp = pytest.importorskip("sympy")
    for v in (x, _from_poly(_to_poly(y, sp) ** 2, sp)):
        r = sqrt_in_field(v)
        if r is not None:
            _check_canonical(r)
            assert _from_poly(_to_poly(r, sp) ** 2, sp) == v
    assert sqrt_in_field(y * y) is not None
