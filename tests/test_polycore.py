"""Core polynomial arithmetic over F_p.

Multiplication and translation are checked against the evaluation
homomorphism: identities that hold at every rational point of F_p^n hold
in the ring whenever p > total degree fails to apply, so we check the
structural identities directly on term maps and use full-box evaluation
as an independent witness for the product.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fplocal.errors import ParseError, RingMismatchError
from fplocal.polycore import (
    MINUS_INF,
    PolyRing,
    Polynomial,
    RationalPoint,
    add_scaled,
    dict_mul,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    monomials_up_to_degree,
    _bits,
    _is_prime,
    _width,
    parse_poly,
)

RINGS = [PolyRing(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


@st.composite
def ring_polys(draw, k=1, max_deg=3, max_terms=4):
    ring = draw(st.sampled_from(RINGS))
    out = [ring]
    for _ in range(k):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            mono = tuple(draw(st.integers(0, max_deg)) for _ in range(ring.n))
            terms[mono] = draw(st.integers(0, ring.p - 1))
        out.append(Polynomial(ring, terms))
    return tuple(out)


def all_points(ring):
    return itertools.product(range(ring.p), repeat=ring.n)


# ---------------------------------------------------------------------------
# ring construction and validation


def test_ring_requires_prime_modulus():
    with pytest.raises(ValueError):
        PolyRing(4, 2)
    with pytest.raises(ValueError):
        PolyRing(1, 2)


def test_modulus_primality_matches_trial_division():
    def trial(m):
        return m >= 2 and all(m % d for d in range(2, math.isqrt(m) + 1))

    assert [m for m in range(3000) if _is_prime(m)] == [m for m in range(3000) if trial(m)]


def test_ring_accepts_64_bit_prime_modulus():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
    # bases 2, 3, 5 and 7, so fewer bases would accept it
    for p in (10**18 + 3, 2**61 - 1):
        assert PolyRing(p, 2).p == p
    for m in (561, 3215031751):
        with pytest.raises(ValueError):
            PolyRing(m, 2)


def test_ring_requires_variables():
    with pytest.raises(ValueError):
        PolyRing(2, 0)


def test_ring_rejects_unknown_order():
    with pytest.raises(ValueError):
        PolyRing(2, 2, "deglex")


def test_ring_equality_includes_order():
    assert PolyRing(2, 2) == PolyRing(2, 2, "grevlex")
    assert PolyRing(2, 2) != PolyRing(2, 2, "lex")
    assert PolyRing(2, 2) != PolyRing(3, 2)
    assert hash(PolyRing(5, 3)) == hash(PolyRing(5, 3))


def test_cross_ring_arithmetic_rejected():
    R = PolyRing(2, 2)
    S = PolyRing(3, 2)
    with pytest.raises(RingMismatchError):
        Polynomial.one(R) + Polynomial.one(S)
    with pytest.raises(RingMismatchError):
        Polynomial.variable(R, 1) * Polynomial.variable(PolyRing(2, 2, "lex"), 1)


def test_term_validation():
    R = PolyRing(2, 2)
    with pytest.raises(ValueError):
        Polynomial(R, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(R, {(1, -1): 1})
    with pytest.raises(ValueError):
        Polynomial.variable(R, 3)
    with pytest.raises(ValueError):
        Polynomial.variable(R, 0)


def test_duplicate_monomials_merge_mod_p():
    R = PolyRing(2, 2)
    g = Polynomial(R, [((1, 0), 1), ((1, 0), 1)])
    assert not g
    h = Polynomial(R, [((1, 0), 1), ((1, 0), 1), ((1, 0), 1)])
    assert h == Polynomial.variable(R, 1)


# ---------------------------------------------------------------------------
# monomial orders


def test_lex_order():
    R = PolyRing(2, 2, "lex")
    g = parse_poly(R, "x1 + x2^5")
    assert g.leading_monomial() == (1, 0)


def test_grevlex_order():
    R = PolyRing(2, 2)
    assert parse_poly(R, "x1 + x2^5").leading_monomial() == (0, 5)
    # degree tie: grevlex prefers the smaller last exponent
    assert parse_poly(R, "x1^2*x2 + x1*x2^2").leading_monomial() == (2, 1)


def test_grevlex_vs_lex_disagree():
    # x1*x3 vs x2^2: lex says x1 wins, grevlex compares from the tail
    L = PolyRing(5, 3, "lex")
    G = PolyRing(5, 3)
    assert parse_poly(L, "x1*x3 + x2^2").leading_monomial() == (1, 0, 1)
    assert parse_poly(G, "x1*x3 + x2^2").leading_monomial() == (0, 2, 0)


def test_elim_order_last_variable_dominates():
    R = PolyRing(2, 3, "elim-grevlex")
    assert parse_poly(R, "x3 + x1^5*x2^5").leading_monomial() == (0, 0, 1)
    # ties on the last variable fall back to the base order
    assert parse_poly(R, "x1^2*x3 + x2*x3").leading_monomial() == (2, 0, 1)


@given(ring_polys(k=2))
@settings(deadline=None)
def test_leading_monomial_multiplicative(data):
    ring, g, h = data
    if g and h:
        prod = g * h
        assert prod.leading_monomial() == mono_mul(g.leading_monomial(), h.leading_monomial())
        assert prod.leading_coeff() == (g.leading_coeff() * h.leading_coeff()) % ring.p


# ---------------------------------------------------------------------------
# ring axioms


class TestRingAxioms:
    @given(ring_polys(k=2))
    @settings(deadline=None)
    def test_add_commutes(self, data):
        _, g, h = data
        assert g + h == h + g

    @given(ring_polys(k=3))
    @settings(deadline=None)
    def test_add_associates(self, data):
        _, g, h, k = data
        assert (g + h) + k == g + (h + k)

    @given(ring_polys(k=2))
    @settings(deadline=None)
    def test_mul_commutes(self, data):
        _, g, h = data
        assert g * h == h * g

    @given(ring_polys(k=3))
    @settings(deadline=None)
    def test_mul_associates(self, data):
        _, g, h, k = data
        assert (g * h) * k == g * (h * k)

    @given(ring_polys(k=3))
    @settings(deadline=None)
    def test_distributive(self, data):
        _, g, h, k = data
        assert g * (h + k) == g * h + g * k

    @given(ring_polys())
    @settings(deadline=None)
    def test_identities(self, data):
        ring, g = data
        assert g + Polynomial.zero(ring) == g
        assert g * Polynomial.one(ring) == g
        assert g * Polynomial.zero(ring) == Polynomial.zero(ring)
        assert g - g == Polynomial.zero(ring)
        assert g + (-g) == Polynomial.zero(ring)

    @given(ring_polys(k=2))
    @settings(deadline=None)
    def test_sub_is_add_neg(self, data):
        _, g, h = data
        assert g - h == g + (-h)

    @given(ring_polys())
    @settings(deadline=None)
    def test_int_scalars(self, data):
        ring, g = data
        assert 1 * g == g
        assert 0 * g == Polynomial.zero(ring)
        assert (ring.p - 1) * g == -g
        assert ring.p * g == Polynomial.zero(ring)
        assert g + 0 == g


@given(ring_polys(k=2, max_deg=2, max_terms=3))
@settings(deadline=None)
def test_mul_matches_evaluation(data):
    # the product agrees with pointwise multiplication at every point
    ring, g, h = data
    prod = g * h
    for pt in all_points(ring):
        assert prod.evaluate(pt) == (g.evaluate(pt) * h.evaluate(pt)) % ring.p


@given(ring_polys(k=2, max_deg=2, max_terms=3))
@settings(deadline=None)
def test_add_matches_evaluation(data):
    ring, g, h = data
    total = g + h
    for pt in all_points(ring):
        assert total.evaluate(pt) == (g.evaluate(pt) + h.evaluate(pt)) % ring.p


@given(ring_polys(max_deg=2, max_terms=3), st.integers(0, 6))
@settings(deadline=None)
def test_pow_matches_repeated_product(data, e):
    ring, g = data
    expected = Polynomial.one(ring)
    for _ in range(e):
        expected = expected * g
    assert g**e == expected


def test_pow_frobenius_scales_exponents():
    R = PolyRing(3, 2)
    g = parse_poly(R, "x1 + 2*x2")
    assert g**3 == parse_poly(R, "x1^3 + 2*x2^3")
    assert g**9 == parse_poly(R, "x1^9 + 2*x2^9")


def test_pow_rejects_negative():
    R = PolyRing(2, 1)
    with pytest.raises(ValueError):
        Polynomial.variable(R, 1) ** -1


# ---------------------------------------------------------------------------
# degrees and MINUS_INF


def test_minus_inf_comparisons():
    assert MINUS_INF < 0
    assert MINUS_INF < -(10**9)
    assert not (MINUS_INF > 0)
    assert MINUS_INF <= MINUS_INF
    assert MINUS_INF >= MINUS_INF
    assert not (MINUS_INF < MINUS_INF)
    assert MINUS_INF + 5 is MINUS_INF
    assert 5 + MINUS_INF is MINUS_INF
    assert repr(MINUS_INF) == "-inf"


def test_zero_degree_is_minus_inf():
    R = PolyRing(2, 2)
    assert Polynomial.zero(R).total_degree() is MINUS_INF
    assert Polynomial.one(R).total_degree() == 0
    assert parse_poly(R, "x1^2*x2").total_degree() == 3


@given(ring_polys(k=2))
@settings(deadline=None)
def test_degree_additive_under_mul(data):
    # F_p[x] is a domain, so degrees add exactly (MINUS_INF absorbs)
    _, g, h = data
    assert (g * h).total_degree() == g.total_degree() + h.total_degree()


@given(ring_polys())
@settings(deadline=None)
def test_monic_normalizes_leading_coeff(data):
    ring, g = data
    m = g.monic()
    if g:
        assert m.leading_coeff() == 1
        assert m * g.leading_coeff() == g
    else:
        assert m == g


def test_is_homogeneous():
    R = PolyRing(5, 2)
    assert parse_poly(R, "x1^2 + x1*x2").is_homogeneous()
    assert not parse_poly(R, "x1^2 + x2").is_homogeneous()
    assert Polynomial.zero(R).is_homogeneous()
    assert Polynomial.one(R).is_homogeneous()


# ---------------------------------------------------------------------------
# parse / format


def test_format_frozen_examples():
    R = PolyRing(5, 3)
    assert str(Polynomial.zero(R)) == "0"
    assert str(Polynomial.one(R)) == "1"
    assert str(Polynomial.constant(R, 3)) == "3"
    assert str(Polynomial.variable(R, 2)) == "x2"
    assert str(parse_poly(R, "2*x1")) == "2*x1"
    assert str(parse_poly(R, "x1^2*x2 + x3")) == "x1^2*x2 + x3"
    # terms come out in descending ring order with reduced coefficients
    assert str(parse_poly(R, "x3 + 7*x1^2*x2")) == "2*x1^2*x2 + x3"


def test_parse_reduces_coefficients():
    R = PolyRing(2, 1)
    assert parse_poly(R, "3*x1") == Polynomial.variable(R, 1)
    assert not parse_poly(R, "2*x1")
    assert str(parse_poly(R, "2*x1")) == "0"


def test_parse_signs():
    R = PolyRing(3, 1)
    assert str(parse_poly(R, "-x1")) == "2*x1"
    assert str(parse_poly(R, "x1 - x1")) == "0"
    assert parse_poly(R, "- 2*x1 + 1") == parse_poly(R, "x1 + 1")


def test_parse_repeated_factors_multiply():
    R = PolyRing(5, 2)
    assert parse_poly(R, "x1*x1") == parse_poly(R, "x1^2")
    assert parse_poly(R, "2*x1*3*x2") == parse_poly(R, "x1*x2")
    assert parse_poly(R, "x1^2*x1^3") == parse_poly(R, "x1^5")


def test_parse_whitespace_insensitive():
    R = PolyRing(5, 2)
    assert parse_poly(R, " x1 ^ 2 * x2+ 1 ") == parse_poly(R, "x1^2*x2+1")


def test_parse_errors_carry_position():
    R = PolyRing(2, 2)
    with pytest.raises(ParseError) as ei:
        parse_poly(R, "x1 + y")
    assert ei.value.pos == 5
    with pytest.raises(ParseError) as ei:
        parse_poly(R, "x1 +")
    assert ei.value.pos == 4
    with pytest.raises(ParseError):
        parse_poly(R, "")
    with pytest.raises(ParseError):
        parse_poly(R, "x")
    with pytest.raises(ParseError):
        parse_poly(R, "x0")
    with pytest.raises(ParseError):
        parse_poly(R, "x3 + x1")
    with pytest.raises(ParseError):
        parse_poly(R, "x1^x2")


@given(ring_polys(max_deg=4, max_terms=6))
@settings(deadline=None)
def test_parse_format_round_trip(data):
    ring, g = data
    assert parse_poly(ring, str(g)) == g


# ---------------------------------------------------------------------------
# evaluation and translation


def test_evaluate_frozen():
    R = PolyRing(5, 2)
    g = parse_poly(R, "x1^2*x2 + 3*x2 + 1")
    assert g.evaluate((2, 3)) == (4 * 3 + 9 + 1) % 5
    assert g.evaluate(RationalPoint(R, (0, 0))) == 1


def test_translate_frozen():
    R = PolyRing(3, 1)
    g = parse_poly(R, "x1^2")
    assert g.translate((1,)) == parse_poly(R, "x1^2 + 2*x1 + 1")


def test_translate_at_origin_is_identity():
    R = PolyRing(2, 2)
    g = parse_poly(R, "x1*x2 + 1")
    assert g.translate(RationalPoint.origin(R)) == g


@given(ring_polys(max_deg=3, max_terms=3))
@settings(deadline=None, max_examples=60)
def test_translate_matches_shifted_evaluation(data):
    ring, g = data
    coords = tuple(range(1, ring.n + 1))
    a = RationalPoint(ring, coords)
    shifted = g.translate(a)
    for pt in all_points(ring):
        moved = tuple((x + c) % ring.p for x, c in zip(pt, a.coords))
        assert shifted.evaluate(pt) == g.evaluate(moved)


@given(ring_polys(max_deg=3, max_terms=3))
@settings(deadline=None)
def test_translate_inverts(data):
    ring, g = data
    a = RationalPoint(ring, tuple((i + 1) % ring.p for i in range(ring.n)))
    assert g.translate(a).translate(-a) == g


# ---------------------------------------------------------------------------
# monomial helpers


def test_mono_helpers_frozen():
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_div((4, 2), (3, 0)) == (1, 2)
    with pytest.raises(ArithmeticError):
        mono_div((1, 0), (0, 1))
    assert mono_divides((1, 0), (1, 2))
    assert not mono_divides((2, 0), (1, 2))
    assert mono_lcm((1, 2), (3, 0)) == (3, 2)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(0, 4)] * n),
            st.tuples(*[st.integers(0, 4)] * n),
        )
    )
)
def test_lcm_divides_consistency(pair):
    a, b = pair
    m = mono_lcm(a, b)
    assert mono_divides(a, m) and mono_divides(b, m)
    assert mono_lcm(a, b) == mono_lcm(b, a)
    if mono_divides(b, a):
        assert mono_mul(mono_div(a, b), b) == a


def test_monomial_enumeration():
    assert list(monomials_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(monomials_up_to_degree(2, 1)) == [(0, 0), (1, 0), (0, 1)]
    for n, d in [(1, 4), (2, 3), (3, 4), (4, 2)]:
        monos = list(monomials_of_degree(n, d))
        assert len(monos) == math.comb(n + d - 1, n - 1)
        assert len(set(monos)) == len(monos)
        assert all(sum(m) == d for m in monos)


# ---------------------------------------------------------------------------
# rational points


def test_rational_point_basics():
    R = PolyRing(5, 2)
    a = RationalPoint(R, (1, 7))
    assert a.coords == (1, 2)
    assert not a.is_origin()
    assert RationalPoint.origin(R).is_origin()
    assert -a == RationalPoint(R, (4, 3))
    with pytest.raises(ValueError):
        RationalPoint(R, (1,))
    assert a == RationalPoint(R, (6, 2))
    assert hash(a) == hash(RationalPoint(R, (6, 2)))


# ---------------------------------------------------------------------------
# raw kernels


def test_add_scaled_in_place():
    acc = {(1, 0): 1}
    add_scaled(acc, {(0, 1): 1, (1, 0): 2}, 2, (0, 0), 5)
    assert acc == {(0, 1): 2}


def test_dict_mul_matches_polynomial_mul():
    R = PolyRing(3, 2)
    g = parse_poly(R, "x1 + 2*x2")
    h = parse_poly(R, "x1*x2 + 1")
    assert dict_mul(g.terms, h.terms, 3) == (g * h).terms


# ---------------------------------------------------------------------------
# packed product kernel, against a schoolbook product on exponent tuples

P64 = 18446744073709551557  # the largest prime below 2^64
ORDERS = ("grevlex", "lex", "elim-grevlex", "elim-lex")


def schoolbook(A, B, p):
    out = {}
    for a, ca in A.items():
        for b, cb in B.items():
            m = tuple(x + y for x, y in zip(a, b))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def assert_product(g, h):
    want = schoolbook(g.terms, h.terms, g.ring.p)
    assert dict_mul(g.terms, h.terms, g.ring.p) == want
    assert (g * h).terms == want
    assert (h * g).terms == want


def poly_of_degree(ring, rng, d, terms=4, heavy=None):
    """A polynomial of total degree exactly d: one term of degree d whose
    exponents are spread over the variables, the variable `heavy` (random
    if None) taking all but a few, and lower terms."""
    mono = [0] * ring.n
    for _ in range(min(d, 3 * ring.n)):
        mono[rng.randrange(ring.n)] += 1
    mono[rng.randrange(ring.n) if heavy is None else heavy] += d - sum(mono)
    t = {tuple(mono): rng.randrange(1, ring.p)}
    for _ in range(terms - 1):
        low = [rng.randint(0, 2) for _ in range(ring.n)]
        if sum(low) < d:
            t[tuple(low)] = rng.randrange(1, ring.p)
    return Polynomial(ring, t)


def test_width_steps():
    # the engine's width holds four times the degree, a product's width
    # holds the product's degree
    for bits in (8, 16, 32, 64):
        assert _width([(2 ** (bits - 2) - 1,)]) == bits
        assert _width([(2 ** (bits - 2),)]) == 2 * bits
        assert _bits(2**bits - 1) == bits
        assert _bits(2**bits) == 2 * bits


@pytest.mark.parametrize("n", [1, 6])
@pytest.mark.parametrize("order", ORDERS)
def test_product_degrees_around_width_steps(n, order):
    rng = random.Random(f"width:{n}:{order}")
    R = PolyRing(5, n, order)
    steps = [2 ** (bits - 2) for bits in (8, 16, 32, 64)] + [2**bits for bits in (8, 16, 32, 64)]
    for step in steps:
        for d in (step - 1, step):
            dg = d // 2
            heavy = rng.randrange(n)  # one exponent of the product nears d
            g = poly_of_degree(R, rng, dg, heavy=heavy)
            h = poly_of_degree(R, rng, d - dg, heavy=heavy)
            assert (g * h).total_degree() == d
            assert_product(g, h)


def test_product_single_variable_exponent_fills_its_field():
    # the product's exponent of one variable equals its degree: the field
    # of x1 is full and the field above it must not see a carry
    R = PolyRing(3, 6, "lex")
    for d in (255, 256, 65535, 65536):
        g = Polynomial(R, {(d - 100, 0, 0, 0, 0, 1): 1, (0,) * 6: 2})
        h = Polynomial(R, {(100, 0, 0, 0, 0, 0): 2, (0, 0, 0, 0, 0, 1): 1})
        assert_product(g, h)


@pytest.mark.parametrize("n", [1, 6])
@pytest.mark.parametrize("order", ORDERS)
def test_product_random_against_schoolbook(n, order):
    rng = random.Random(f"random:{n}:{order}")
    for p in (2, 3, 7, P64):
        R = PolyRing(p, n, order)
        for _ in range(10):
            g = poly_of_degree(R, rng, rng.randint(0, 6), rng.randint(1, 6))
            h = poly_of_degree(R, rng, rng.randint(0, 6), rng.randint(1, 6))
            assert_product(g, h)


def test_product_char2_cancellation():
    R = PolyRing(2, 2)
    # every middle term cancels: (x1 + 1)(x1^7 + ... + 1) = x1^8 + 1
    g = parse_poly(R, "x1 + 1")
    h = Polynomial(R, {(k, 0): 1 for k in range(8)})
    assert_product(g, h)
    assert (g * h) == parse_poly(R, "x1^8 + 1")
    # (x1 + x2)^2 = x1^2 + x2^2: the cross term reaches 2 = 0
    s = parse_poly(R, "x1 + x2")
    assert_product(s, s)
    assert s * s == parse_poly(R, "x1^2 + x2^2")
    # a sum of products that cancels to zero
    assert not (s * parse_poly(R, "x1") + parse_poly(R, "x1^2 + x1*x2"))


def test_product_64_bit_prime():
    R = PolyRing(P64, 3)
    g = Polynomial(R, {(1, 0, 0): P64 - 1, (0, 1, 0): P64 - 2, (0, 0, 0): 3})
    h = Polynomial(R, {(1, 0, 0): P64 - 1, (0, 0, 2): 5})
    assert_product(g, h)
    assert (g * h).terms[(2, 0, 0)] == 1
    # the coefficient sums past p several times before it is reduced
    s = Polynomial(R, {(k, 0, 0): P64 - 1 for k in range(6)})
    assert_product(s, s)


def test_product_zero_and_constant_factors():
    for order in ORDERS:
        R = PolyRing(3, 3, order)
        g = parse_poly(R, "x1^2*x3 + 2*x2 + 1")
        zero = Polynomial.zero(R)
        assert_product(g, zero)
        assert not g * zero and not zero * g
        assert dict_mul({}, g.terms, 3) == {} and dict_mul(g.terms, {}, 3) == {}
        assert g * Polynomial.one(R) == g
        assert_product(g, Polynomial.constant(R, 2))
        assert (Polynomial.constant(R, 2) * Polynomial.constant(R, 2)).terms == {(0, 0, 0): 1}



# ---------------------------------------------------------------------------
# packed powers, against repeated schoolbook products


def schoolbook_pow(g, e):
    out = {(0,) * g.ring.n: 1}
    for _ in range(e):
        out = schoolbook(out, g.terms, g.ring.p)
    return out


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_pow_degrees_around_width_steps(n, p):
    # e divides 2^bits - 1 for every step, so g = a*x_n^deg + b*x1 + c
    # with deg = d fills the field of x_n in g^e, and deg = d + 1 crosses
    # the step; the exponents cover one to three base-p digits
    rng = random.Random(f"pow:{n}:{p}")
    R = PolyRing(p, n, "lex" if n == 1 else "grevlex")
    x1 = (1,) + (0,) * (n - 1)
    for bits in (8, 16, 32):
        for e in (3, 5, 15, 17):
            d = (2**bits - 1) // e
            for deg in (d, d + 1):
                lead = (0,) * (n - 1) + (deg,)
                coeffs = [rng.randrange(1, p), rng.randrange(1, p), rng.randrange(p)]
                g = Polynomial(R, dict(zip((lead, x1, (0,) * n), coeffs)))
                assert (g**e).terms == schoolbook_pow(g, e)
                assert (g**e).total_degree() == e * deg


def test_pow_64_bit_prime():
    rng = random.Random("pow:p64")
    R = PolyRing(P64, 3)
    for e in range(6):
        for d in (0, 1, 3):
            g = poly_of_degree(R, rng, d, terms=4)
            assert (g**e).terms == schoolbook_pow(g, e)
    g = poly_of_degree(R, rng, 255 // 5, terms=3, heavy=1)
    assert (g**5).terms == schoolbook_pow(g, 5)


def test_pow_zero_exponent_zero_and_constants():
    for p in (2, 3, 5, P64):
        R = PolyRing(p, 2)
        zero, one = Polynomial.zero(R), Polynomial.one(R)
        g = parse_poly(R, "x1^2*x2 + x2 + 1")
        c = Polynomial.constant(R, p - 1)
        for h in (g, zero, one, c):
            assert h**0 == one
        for e in (1, 2, p, p + 1, 2 * p + 3):
            assert zero**e == zero
            assert (c**e).terms == {(0, 0): pow(p - 1, e, p)}
        assert g**1 == g


def schoolbook_translate(g, coords):
    p, n = g.ring.p, g.ring.n
    out = {}
    for mono, c in g.terms.items():
        term = {(0,) * n: c}
        for i, e in enumerate(mono):
            unit = tuple(1 if j == i else 0 for j in range(n))
            for _ in range(e):
                term = schoolbook(term, {unit: 1, (0,) * n: coords[i]} if coords[i] else {unit: 1}, p)
        for m, v in term.items():
            out[m] = (out.get(m, 0) + v) % p
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 6])
def test_translate_against_schoolbook_expansion(n):
    rng = random.Random(f"translate:{n}")
    for p in (2, 3, P64):
        R = PolyRing(p, n)
        coords = [rng.randrange(p) if k % 2 else 0 for k in range(n)] if n > 1 else [1]
        for d in (3, 255, 256):
            g = poly_of_degree(R, rng, d, terms=3)
            assert g.translate(coords).terms == schoolbook_translate(g, coords)
