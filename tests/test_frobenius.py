"""Frobenius-level splitting g = sum_i g_i^q e_i and the dual map.

The splitting is pure exponent bookkeeping, so the tests lean on exact
round trips in both directions, linearity, and the degree inequality
q*deg(g_i) + |i| <= deg(g) that every stored component must satisfy.
"""

import random

import pytest

from fplocal.config import EngineLimits
from fplocal.errors import ResourceLimitError, RingMismatchError
from fplocal.frobenius import (
    FrobComponents,
    FrobeniusLevel,
    bracket_power,
    component_at,
    frobenius_decompose,
    frobenius_multipliers,
    frobenius_power,
    level_for_degree,
    psi_map,
    td_roundtrip_check,
)
from fplocal.groebner import Ideal, ideals_equal, verify_confluence
from fplocal.modres import module_gb
from fplocal.polycore import MINUS_INF, Polynomial, PolyRing, parse_poly

SEED = 27182

GRID = [(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]


def random_poly(ring, rng, deg=4, terms=4):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(ring.n))
        t[mono] = rng.randint(0, ring.p - 1)
    return Polynomial(ring, t)


# ---------------------------------------------------------------------------
# levels


def test_level_basics():
    lvl = FrobeniusLevel(2, 2)
    assert lvl.q == 4
    assert lvl.top_index(3) == (3, 3, 3)
    box = list(lvl.box(2))
    assert len(box) == 16
    assert box[0] == (0, 0) and box[-1] == (3, 3)


def test_level_validation():
    with pytest.raises(ValueError):
        FrobeniusLevel(4, 1)
    with pytest.raises(ValueError):
        FrobeniusLevel(2, 0)


def test_level_for_degree():
    assert level_for_degree(2, MINUS_INF) == FrobeniusLevel(2, 1)
    assert level_for_degree(2, 0) == FrobeniusLevel(2, 1)
    assert level_for_degree(2, 3) == FrobeniusLevel(2, 4)
    assert level_for_degree(3, 2).q == 27


def test_level_ring_mismatch():
    R = PolyRing(2, 1)
    with pytest.raises(ValueError):
        frobenius_decompose(Polynomial.one(R), FrobeniusLevel(3, 1))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_frozen():
    R = PolyRing(2, 2)
    g = parse_poly(R, "x1^3 + x1*x2")
    comps = frobenius_decompose(g, FrobeniusLevel(2, 1))
    assert comps.indices() == ((1, 0), (1, 1))
    assert comps.component((1, 0)) == parse_poly(R, "x1")
    assert comps.component((1, 1)) == Polynomial.one(R)
    assert not comps.component((0, 0))


def test_decompose_constant_and_zero():
    R = PolyRing(3, 2)
    lvl = FrobeniusLevel(3, 1)
    c = frobenius_decompose(Polynomial.constant(R, 2), lvl)
    assert c.indices() == ((0, 0),)
    assert c.component((0, 0)) == Polynomial.constant(R, 2)
    z = frobenius_decompose(Polynomial.zero(R), lvl)
    assert z.indices() == ()
    assert not z.recompose()


def test_decompose_recompose_round_trip():
    rng = random.Random(SEED)
    for p, n in GRID:
        R = PolyRing(p, n)
        for l in (1, 2):
            lvl = FrobeniusLevel(p, l)
            for _ in range(8):
                g = random_poly(R, rng, deg=2 * lvl.q)
                assert frobenius_decompose(g, lvl).recompose() == g


def test_recompose_decompose_round_trip():
    # start from hand-built components instead of a polynomial
    rng = random.Random(SEED + 1)
    for p, n in GRID[:6]:
        R = PolyRing(p, n)
        lvl = FrobeniusLevel(p, 2)
        comps = {}
        for _ in range(3):
            idx = tuple(rng.randint(0, lvl.q - 1) for _ in range(n))
            g = random_poly(R, rng, deg=2)
            if g:
                comps[idx] = g
        built = FrobComponents(R, lvl, comps)
        assert frobenius_decompose(built.recompose(), lvl) == built


def test_decompose_additive():
    rng = random.Random(SEED + 2)
    R = PolyRing(3, 2)
    lvl = FrobeniusLevel(3, 1)
    for _ in range(6):
        g, h = random_poly(R, rng), random_poly(R, rng)
        cg = frobenius_decompose(g, lvl)
        ch = frobenius_decompose(h, lvl)
        cs = frobenius_decompose(g + h, lvl)
        for idx in lvl.box(2):
            assert cs.component(idx) == cg.component(idx) + ch.component(idx)


def test_component_degree_bound():
    rng = random.Random(SEED + 3)
    for p, n in GRID:
        R = PolyRing(p, n)
        lvl = FrobeniusLevel(p, 2)
        for _ in range(5):
            g = random_poly(R, rng, deg=6)
            if not g:
                continue
            comps = frobenius_decompose(g, lvl)
            for idx in comps.indices():
                c = comps.component(idx)
                assert lvl.q * c.total_degree() + sum(idx) <= g.total_degree()


def test_top_component_vanishes_below_degree_threshold():
    # a term hits the top index only with degree at least n(q-1)
    rng = random.Random(SEED + 4)
    R = PolyRing(2, 2)
    lvl = FrobeniusLevel(2, 2)
    top = lvl.top_index(2)
    for _ in range(10):
        g = random_poly(R, rng, deg=2)  # degree < 2*(4-1)
        assert not component_at(g, top, lvl)


def test_component_at_matches_decompose():
    rng = random.Random(SEED + 5)
    R = PolyRing(3, 2)
    lvl = FrobeniusLevel(3, 1)
    g = random_poly(R, rng, deg=5, terms=6)
    comps = frobenius_decompose(g, lvl)
    for idx in lvl.box(2):
        assert component_at(g, idx, lvl) == comps.component(idx)


def test_component_at_validates_index():
    R = PolyRing(2, 2)
    g = Polynomial.one(R)
    lvl = FrobeniusLevel(2, 1)
    with pytest.raises(ValueError):
        component_at(g, (0,), lvl)
    with pytest.raises(ValueError):
        component_at(g, (0, 2), lvl)


# ---------------------------------------------------------------------------
# q-th powers


def test_frobenius_power_matches_pow():
    rng = random.Random(SEED + 6)
    for p, n in GRID[:6]:
        R = PolyRing(p, n)
        for l in (1, 2):
            lvl = FrobeniusLevel(p, l)
            for _ in range(4):
                g = random_poly(R, rng, deg=2)
                assert frobenius_power(g, lvl) == g ** lvl.q


def test_frobenius_power_is_additive_and_multiplicative():
    rng = random.Random(SEED + 7)
    R = PolyRing(5, 2)
    lvl = FrobeniusLevel(5, 1)
    for _ in range(6):
        g, h = random_poly(R, rng), random_poly(R, rng)
        assert frobenius_power(g + h, lvl) == frobenius_power(g, lvl) + frobenius_power(h, lvl)
        assert frobenius_power(g * h, lvl) == frobenius_power(g, lvl) * frobenius_power(h, lvl)


def test_bracket_power_frozen():
    R = PolyRing(3, 2)
    I = Ideal(R, ["x1", "x2^2"])
    J = bracket_power(I, FrobeniusLevel(3, 1))
    assert J.gens == (parse_poly(R, "x1^3"), parse_poly(R, "x2^6"))


def test_bracket_power_generator_independent():
    rng = random.Random(SEED + 8)
    for p in (2, 3):
        R = PolyRing(p, 2)
        lvl = FrobeniusLevel(p, 1)
        for _ in range(4):
            gens = [random_poly(R, rng), random_poly(R, rng)]
            I = Ideal(R, gens)
            if I.is_zero():
                continue
            combo = gens[0] + random_poly(R, rng, deg=1) * gens[1]
            J = Ideal(R, gens + [combo])
            assert ideals_equal(bracket_power(I, lvl), bracket_power(J, lvl))


# ---------------------------------------------------------------------------
# level-q bases by exponent scaling, and multipliers by recurrence

SCALING_GRID = [(p, n, order) for p in (2, 3, 5) for n in (2, 3) for order in ("grevlex", "lex")]


def scaled(vectors, lvl):
    return [tuple(frobenius_power(g, lvl) for g in v) for v in vectors]


def test_bracket_basis_is_the_scaled_basis():
    # the reference runs Buchberger on the level-q generators themselves
    rng = random.Random(SEED + 11)
    for p, n, order in SCALING_GRID:
        R = PolyRing(p, n, order)
        for _ in range(3):
            I = Ideal(R, [random_poly(R, rng, deg=2, terms=3) for _ in range(n)])
            for l in (1, 2):
                lvl = FrobeniusLevel(p, l)
                Iq = bracket_power(I, lvl)
                assert Iq.groebner_basis() == Ideal(R, Iq.gens).groebner_basis()


def test_module_basis_scales_to_the_level_q_basis():
    # what verify_prop_van relies on for im d_q: F^e of the reduced basis
    # of a rank-2 module is the reduced basis of the scaled generators
    rng = random.Random(SEED + 12)
    for p, n, order in SCALING_GRID:
        R = PolyRing(p, n, order)
        for _ in range(3):
            gens = [tuple(random_poly(R, rng, deg=2, terms=2) for _ in range(2)) for _ in range(3)]
            gb = module_gb(R, gens)
            for l in (1, 2):
                lvl = FrobeniusLevel(p, l)
                assert tuple(scaled(gb, lvl)) == module_gb(R, scaled(gens, lvl))


def test_scaled_bracket_basis_reaches_the_observer():
    # one fresh basis per bracket power, and each passes the independent
    # confluence check; a cache hit does not fire again
    seen = []
    lim = EngineLimits(on_basis=lambda ring, basis: seen.append((ring, basis)))
    R = PolyRing(3, 3)
    I = Ideal(R, ["x1^2 + x2*x3", "x1*x2 + 2*x3^2", "x2^3"])
    base = I.groebner_basis(lim)
    assert len(seen) == 1
    for l in (1, 2):
        Iq = bracket_power(I, FrobeniusLevel(3, l))
        gb = Iq.groebner_basis(lim)
        Iq.groebner_basis(lim)
        assert seen[-1] == (R, gb)
        assert len(gb) == len(base)
        assert verify_confluence(R, gb)
    assert len(seen) == 3


def test_bracket_basis_of_the_zero_ideal_stays_silent():
    seen = []
    lim = EngineLimits(on_basis=lambda ring, basis: seen.append(basis))
    R = PolyRing(2, 2)
    assert bracket_power(Ideal(R, []), FrobeniusLevel(2, 1)).groebner_basis(lim) == ()
    assert seen == []


def test_frobenius_multipliers_match_direct_powers():
    rng = random.Random(SEED + 13)
    for p, n in GRID:
        R = PolyRing(p, n)
        for g in (random_poly(R, rng, deg=2, terms=3), Polynomial.one(R), Polynomial.zero(R)):
            walk = frobenius_multipliers(g, p)
            for l in range(1, 4 if p < 5 else 3):
                assert next(walk) == g ** (p ** l - 1)


# ---------------------------------------------------------------------------
# the dual map psi


def test_psi_frozen_sharp_example():
    # n=1, f=x, q=4: psi(f^3, 1) = 1, so the top component can survive
    R = PolyRing(2, 1)
    lvl = FrobeniusLevel(2, 2)
    h = parse_poly(R, "x1^3")
    assert psi_map(h, Polynomial.one(R), lvl) == Polynomial.one(R)
    assert not psi_map(h, parse_poly(R, "x1"), lvl)  # x^4 has component x at 0


def test_psi_additive():
    rng = random.Random(SEED + 9)
    R = PolyRing(2, 2)
    lvl = FrobeniusLevel(2, 1)
    h = parse_poly(R, "x1*x2 + x1")
    for _ in range(6):
        g1, g2 = random_poly(R, rng), random_poly(R, rng)
        assert psi_map(h, g1 + g2, lvl) == psi_map(h, g1, lvl) + psi_map(h, g2, lvl)


def test_psi_semilinear():
    # psi(h, r^q g) = r psi(h, g)
    rng = random.Random(SEED + 10)
    for p in (2, 3):
        R = PolyRing(p, 2)
        lvl = FrobeniusLevel(p, 1)
        for _ in range(5):
            h = random_poly(R, rng, deg=2)
            g = random_poly(R, rng, deg=2)
            r = random_poly(R, rng, deg=1, terms=2)
            assert psi_map(h, frobenius_power(r, lvl) * g, lvl) == r * psi_map(h, g, lvl)


def test_psi_ring_mismatch():
    with pytest.raises(RingMismatchError):
        psi_map(Polynomial.one(PolyRing(2, 1)), Polynomial.one(PolyRing(2, 2)), FrobeniusLevel(2, 1))


# ---------------------------------------------------------------------------
# the round trip identity


def test_td_trivial_cases():
    R = PolyRing(2, 2)
    lvl = FrobeniusLevel(2, 1)
    one = Polynomial.one(R)
    zero = Polynomial.zero(R)
    assert td_roundtrip_check(one, one, lvl)
    assert td_roundtrip_check(zero, one, lvl)
    assert td_roundtrip_check(one, zero, lvl)


def test_td_random_instances():
    rng = random.Random(SEED + 11)
    for p in (2, 3):
        for n in (1, 2):
            R = PolyRing(p, n)
            for l in (1, 2):
                lvl = FrobeniusLevel(p, l)
                for _ in range(5):
                    h = random_poly(R, rng, deg=lvl.q)
                    g = random_poly(R, rng, deg=lvl.q)
                    assert td_roundtrip_check(h, g, lvl)


def test_td_box_guard():
    R = PolyRing(2, 2)
    one = Polynomial.one(R)
    with pytest.raises(ResourceLimitError):
        td_roundtrip_check(one, one, FrobeniusLevel(2, 2), EngineLimits(max_length=10))


def test_td_ring_mismatch():
    with pytest.raises(RingMismatchError):
        td_roundtrip_check(
            Polynomial.one(PolyRing(2, 1)), Polynomial.one(PolyRing(2, 2)), FrobeniusLevel(2, 1)
        )
