import random

import pytest

from cycledescent.poly import ONE, Q, T, X, Y, ZERO, MultiPoly


def test_monomials():
    assert MultiPoly.monomial(1, ex=1) == X
    assert MultiPoly.monomial(0, ex=3) == ZERO
    assert str(MultiPoly.monomial(-1, et=3)) == "-t^3"


def test_arithmetic_basics():
    assert (X + 1) * (X - 1) == X**2 - 1
    p = 3 * X * Y - T
    assert p + ZERO == p
    assert (ONE + X) * (ONE + X) == 1 + 2 * X + X**2


def test_substitute_zero_convention():
    assert (Q**2 * T).substitute(q=0) == ZERO
    assert X.substitute(q=0) == X  # q-exponent 0 survives q=0
    assert (Y**2).substitute(y=-1) == ONE
    assert (X + X * T).substitute(t=1) == 2 * X


def test_substitute_partial_keeps_symbolic():
    p = X**2 * Y + Q * T
    assert p.substitute(y=2) == 2 * X**2 + Q * T
    assert p.substitute(x=1, y=1, q=1, t=1).as_int() == 2


def test_as_int():
    assert ZERO.as_int() == 0
    assert MultiPoly.constant(-7).as_int() == -7
    with pytest.raises(ValueError):
        X.as_int()


def test_canonical_string():
    assert str(ZERO) == "0"
    assert str(X**2 * Y + 2 * X - 1) == "x^2*y + 2*x - 1"
    # graded-lex: higher total degree first, then x before y before q before t
    assert str(X**2 + X * Y + Y**2 + T) == "x^2 + x*y + y^2 + t"
    assert str(-X + ONE) == "-x + 1"


def test_equal_polys_equal_strings():
    a = (X + Y) ** 3
    b = X**3 + 3 * X**2 * Y + 3 * X * Y**2 + Y**3
    assert a == b
    assert str(a) == str(b)
    assert hash(a) == hash(b)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly({(0, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        X**-1


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        key = tuple(rng.randint(0, 3) for _ in range(4))
        terms[key] = terms.get(key, 0) + rng.randint(-6, 6)
    return MultiPoly(terms)


def test_ring_axioms_random():
    rng = random.Random(991)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a


def test_substitution_commutes_with_arithmetic():
    rng = random.Random(1717)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        binding = {
            name: rng.randint(-3, 3) for name in rng.sample(["x", "y", "q", "t"], 2)
        }
        assert (a + b).substitute(**binding) == a.substitute(**binding) + b.substitute(
            **binding
        )
        assert (a * b).substitute(**binding) == a.substitute(**binding) * b.substitute(
            **binding
        )


def test_big_coefficients_stay_exact():
    p = (1 + X) ** 64
    assert p.coefficient(ex=32) == 1832624140942590534  # C(64, 32)


def test_keys_naming_one_exponent_vector_are_summed():
    assert MultiPoly({(0, 1, 2, 3): 2, range(4): -1}) == MultiPoly.monomial(1, 0, 1, 2, 3)
    assert MultiPoly({(0, 1, 2, 3): 1, range(4): -1}).is_zero()


def test_equality_with_integers_and_other_types():
    assert MultiPoly.constant(3) == 3
    assert ZERO == 0 and X != 1
    assert X != "x"


def test_substitute_refuses_an_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable: 'z'"):
        X.substitute(z=1)


def test_repr_shows_the_canonical_string():
    assert repr(X**2 - 1) == "MultiPoly<x^2 - 1>"


def test_only_integers_mix_with_polynomials():
    with pytest.raises(TypeError, match="cannot treat str as a polynomial"):
        X + "1"
    with pytest.raises(TypeError, match="cannot treat float as a polynomial"):
        X * 1.5
