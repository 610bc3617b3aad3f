"""Buchberger engine and ideal operations.

Monomial ideals are the oracle class here: intersection, colon and
saturation all have closed-form generator recipes (pairwise lcm,
divide-by-gcd, strip the variable), so the colon routines are checked
against answers computed without any Groebner machinery.  The reduced
basis of a monomial ideal is its minimal generating set, which gives a
Buchberger oracle by pure divisibility filtering.  On other ideals the
colons, meets and saturations are checked against the classic
elimination route, kept below as a test-side reference.
"""

import random
from pathlib import Path

import pytest

from fplocal import groebner, modres
from fplocal.config import Budget, EngineLimits, resolve_limits
from fplocal.errors import ResourceLimitError, RingMismatchError
from fplocal.groebner import (
    Ideal,
    _meet,
    _rank1,
    _wrap,
    ideal_quotient,
    ideal_quotient_ideal,
    ideals_equal,
    maximal_ideal,
    saturation,
    verify_confluence,
)
from fplocal.localcoh import question_q_check
from fplocal.polycore import (
    Polynomial,
    PolyRing,
    RationalPoint,
    mono_div,
    mono_lcm,
    monomials_of_degree,
    parse_poly,
)
from support import exact_quotient

SEED = 20260819


def random_poly(ring, rng, deg=2, terms=3):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(ring.n))
        t[mono] = rng.randint(0, ring.p - 1)
    return Polynomial(ring, t)


def mono_ideal(ring, monos):
    return Ideal(ring, [Polynomial.monomial(ring, m) for m in monos])


def random_monos(ring, rng, count, deg=3):
    out = set()
    for _ in range(count):
        m = tuple(rng.randint(0, deg) for _ in range(ring.n))
        if any(m):
            out.add(m)
    return out


def minimal_monos(monos):
    monos = set(monos)
    return {
        m
        for m in monos
        if not any(w != m and all(x <= y for x, y in zip(w, m)) for w in monos)
    }


def lcm_pairs(A, B):
    return {mono_lcm(a, b) for a in A for b in B}


def colon_by_mono(A, m):
    # (a : m) = a / gcd(a, m)
    return {mono_div(a, tuple(min(x, y) for x, y in zip(a, m))) for a in A}


def strip_var(A, i):
    return {tuple(0 if j == i else e for j, e in enumerate(a)) for a in A}


# ---------------------------------------------------------------------------
# reduced bases, frozen


def test_gb_monomial_ideal_is_input():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2", "x1*x2"])
    assert I.groebner_basis() == (parse_poly(R, "x1^2"), parse_poly(R, "x1*x2"))


def test_gb_drops_redundant_generators():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2*x2", "x1", "x1*x2^3"])
    assert I.groebner_basis() == (parse_poly(R, "x1"),)


def test_gb_univariate_is_gcd():
    # (x^2 - 1, x^2 + 3x + 2) = (x + 1) in F_5[x]
    R = PolyRing(5, 1)
    I = Ideal(R, ["x1^2 + 4", "x1^2 + 3*x1 + 2"])
    assert I.groebner_basis() == (parse_poly(R, "x1 + 1"),)


def test_gb_frozen_char2():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2 + x2", "x1*x2"])
    expected = (parse_poly(R, "x1^2 + x2"), parse_poly(R, "x1*x2"), parse_poly(R, "x2^2"))
    assert I.groebner_basis() == expected


def test_gb_frozen_char3():
    # x^2 = y and xy = 1 force x^3 = 1; the quotient has dimension 3
    R = PolyRing(3, 2)
    I = Ideal(R, ["x1^2 + 2*x2", "x1*x2 + 2"])
    expected = (
        parse_poly(R, "x1^2 + 2*x2"),
        parse_poly(R, "x1*x2 + 2"),
        parse_poly(R, "x2^2 + 2*x1"),
    )
    assert I.groebner_basis() == expected
    assert I.normal_form(parse_poly(R, "x1^3")) == Polynomial.one(R)
    assert I.contains(parse_poly(R, "x1^3 + 2"))
    assert not I.contains(parse_poly(R, "x1 + 2"))


def test_gb_zero_and_unit_ideals():
    R = PolyRing(2, 2)
    assert Ideal(R, ()).groebner_basis() == ()
    assert Ideal(R, [Polynomial.zero(R)]).is_zero()
    assert Ideal(R, ["x1 + 1", "x1"]).groebner_basis() == (Polynomial.one(R),)


def test_gb_cached():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2 + x2", "x1*x2"])
    assert I.groebner_basis() is I.groebner_basis()


def test_ideal_input_validation():
    R = PolyRing(2, 2)
    with pytest.raises(TypeError):
        Ideal(R, [1])
    with pytest.raises(RingMismatchError):
        Ideal(R, [Polynomial.one(PolyRing(3, 2))])


# ---------------------------------------------------------------------------
# canonicity: the reduced basis is generator-independent


def test_gb_canonical_under_presentation_changes():
    rng = random.Random(SEED)
    R = PolyRing(3, 2)
    f = parse_poly(R, "x1^2 + 2*x2")
    g = parse_poly(R, "x1*x2 + 2")
    base = Ideal(R, [f, g]).groebner_basis()
    variants = [
        [g, f],
        [f * 2, g],
        [f, g, f],
        [f, g + f * parse_poly(R, "x1")],
        [f + g, g],
        [f, g, Polynomial.zero(R)],
    ]
    for gens in variants:
        rng.shuffle(gens)
        assert Ideal(R, gens).groebner_basis() == base


def test_gb_canonical_random_monomial_ideals():
    rng = random.Random(SEED + 1)
    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n)
            for _ in range(4):
                monos = random_monos(R, rng, 4)
                if not monos:
                    continue
                gb = mono_ideal(R, monos).groebner_basis()
                expected = {Polynomial.monomial(R, m) for m in minimal_monos(monos)}
                assert set(gb) == expected


# ---------------------------------------------------------------------------
# confluence verifier


def test_verify_confluence_accepts_computed_bases():
    rng = random.Random(SEED + 2)
    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n)
            for _ in range(4):
                I = Ideal(R, [random_poly(R, rng), random_poly(R, rng)])
                assert verify_confluence(R, I.groebner_basis())


def test_verify_confluence_rejects_non_basis():
    R = PolyRing(2, 2)
    bad = (parse_poly(R, "x1^2 + x2"), parse_poly(R, "x1*x2"))
    # S-poly leaves x2^2, which neither lead divides
    assert not verify_confluence(R, bad)


def test_on_basis_observer_sees_base_ring_bases_only():
    # colons and meets compute module bases, which stay silent: the
    # observer sees I's basis once, and no elimination ring
    seen = []
    lim = EngineLimits(on_basis=lambda ring, basis: seen.append((ring, basis)))
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2", "x1*x2"])
    S = saturation(I, maximal_ideal(R), lim)
    assert S.groebner_basis() == (parse_poly(R, "x1"),)
    assert seen == [(R, I.groebner_basis())]
    assert verify_confluence(R, I.groebner_basis())


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_properties():
    rng = random.Random(SEED + 3)
    R = PolyRing(5, 2)
    I = Ideal(R, ["x1^2 + x2", "x2^3"])
    gb = I.groebner_basis()
    for _ in range(10):
        g = random_poly(R, rng, deg=3)
        r = I.normal_form(g)
        assert I.normal_form(r) == r
        assert I.contains(g - r)
        q = random_poly(R, rng, deg=2)
        assert I.normal_form(g + q * gb[0]) == r


def test_normal_form_empty_basis():
    R = PolyRing(2, 2)
    g = parse_poly(R, "x1 + 1")
    assert Ideal(R, ()).normal_form(g) == g


# ---------------------------------------------------------------------------
# intersection: _meet at rank 1, the meet every colon by a J of several
# generators ends in


def intersect(I, J):
    """I meet J by _meet: I's generators against J's reduced basis."""
    lim = EngineLimits()
    A = [_rank1(g.terms) for g in I.gens]
    return Ideal(I.ring, _wrap(I.ring, _meet(A, J._divisors(lim), 1, I.ring, lim)))


def test_intersect_frozen():
    R = PolyRing(2, 2)
    A = Ideal(R, ["x1"])
    B = Ideal(R, ["x2"])
    assert ideals_equal(intersect(A, B), Ideal(R, ["x1*x2"]))
    C = Ideal(R, ["x1*x2 + x1"])
    assert ideals_equal(intersect(A, C), C)  # C is inside (x1) already


def test_intersect_monomial_oracle():
    rng = random.Random(SEED + 5)
    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n)
            for _ in range(4):
                A = random_monos(R, rng, 3)
                B = random_monos(R, rng, 3)
                if not A or not B:
                    continue
                got = intersect(mono_ideal(R, A), mono_ideal(R, B))
                assert ideals_equal(got, mono_ideal(R, lcm_pairs(A, B)))


def test_intersect_symmetric_and_contains():
    rng = random.Random(SEED + 6)
    R = PolyRing(3, 2)
    for _ in range(5):
        I = Ideal(R, [random_poly(R, rng), random_poly(R, rng)])
        J = Ideal(R, [random_poly(R, rng)])
        K = intersect(I, J)
        assert ideals_equal(K, intersect(J, I))
        for g in K.gens:
            assert I.contains(g) and J.contains(g)


def test_intersect_with_zero_ideal():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1"])
    assert intersect(I, Ideal(R, ())).is_zero()


def test_intersect_on_elim_ring():
    # the tagged kernel works in any monomial order: (x1) meet (x2) = (x1*x2)
    E = PolyRing(2, 3, "elim-grevlex")
    x1, x2 = Polynomial.variable(E, 1), Polynomial.variable(E, 2)
    assert intersect(Ideal(E, [x1]), Ideal(E, [x2])).gens == (x1 * x2,)


# ---------------------------------------------------------------------------
# a polynomial or an ideal from another ring


FOREIGN_ENTRIES = {
    "Ideal.normal_form": lambda I, g: I.normal_form(g),
    "Ideal.contains": lambda I, g: I.contains(g),
    "saturation": lambda I, g: saturation(I, Ideal(g.ring, [g])),
    "ideal_quotient_ideal": lambda I, g: ideal_quotient_ideal(I, Ideal(g.ring, [g])),
    "ideal_quotient": lambda I, g: ideal_quotient(I, g),
}


@pytest.mark.parametrize("entry", FOREIGN_ENTRIES)
def test_an_argument_from_another_ring_raises(entry):
    # x1^2 over F_3[x1], read against this basis as if over F_3[x1, x2, x3],
    # reduces to 0: a wrong membership, and a wrong colon or saturation
    I = Ideal(PolyRing(3, 3), ["x1^2*x3", "x1*x2*x3"])
    for S in (PolyRing(3, 1), PolyRing(3, 4), PolyRing(3, 3, "lex")):
        with pytest.raises(RingMismatchError):
            FOREIGN_ENTRIES[entry](I, parse_poly(S, "x1^2"))
    FOREIGN_ENTRIES[entry](I, parse_poly(I.ring, "x1^2"))  # the same ring is fine
    assert not I.contains(parse_poly(I.ring, "x1^2"))


# ---------------------------------------------------------------------------
# colon ideals


def test_quotient_frozen():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2", "x1*x2"])
    assert ideals_equal(ideal_quotient(I, parse_poly(R, "x1")), Ideal(R, ["x1", "x2"]))
    assert ideals_equal(ideal_quotient_ideal(I, maximal_ideal(R)), Ideal(R, ["x1"]))


def test_quotient_monomial_oracle():
    rng = random.Random(SEED + 7)
    for p in (2, 3):
        for n in (2, 3):
            R = PolyRing(p, n)
            for _ in range(4):
                A = random_monos(R, rng, 3)
                if not A:
                    continue
                m = tuple(rng.randint(0, 2) for _ in range(n))
                if not any(m):
                    continue
                got = ideal_quotient(mono_ideal(R, A), Polynomial.monomial(R, m))
                assert ideals_equal(got, mono_ideal(R, colon_by_mono(A, m)))


def test_quotient_ideal_monomial_oracle():
    rng = random.Random(SEED + 8)
    R = PolyRing(2, 3)
    for _ in range(4):
        A = random_monos(R, rng, 3)
        B = random_monos(R, rng, 2, deg=2)
        if not A or not B:
            continue
        got = ideal_quotient_ideal(mono_ideal(R, A), mono_ideal(R, B))
        expected = None
        for m in B:
            part = colon_by_mono(A, m)
            expected = part if expected is None else lcm_pairs(expected, part)
        assert ideals_equal(got, mono_ideal(R, expected))


def test_quotient_errors():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1"])
    with pytest.raises(ValueError):
        ideal_quotient(I, Polynomial.zero(R))
    with pytest.raises(ValueError):
        ideal_quotient_ideal(I, Ideal(R, ()))


# ---------------------------------------------------------------------------
# saturation


def test_saturation_frozen():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2", "x1*x2"])
    assert ideals_equal(saturation(I, maximal_ideal(R)), Ideal(R, ["x1"]))
    # saturating a primary-at-origin ideal by the origin gives the unit ideal
    assert ideals_equal(saturation(I, Ideal(R, ["x1"])), Ideal(R, ["1"]))
    J = Ideal(R, ["x1*x2 + x1"])
    assert ideals_equal(saturation(J, Ideal(R, ["x2 + 1"])), Ideal(R, ["x1"]))


def test_saturation_monomial_oracle():
    rng = random.Random(SEED + 9)
    for p in (2, 3):
        for n in (2, 3):
            R = PolyRing(p, n)
            for _ in range(4):
                A = random_monos(R, rng, 3)
                if not A:
                    continue
                got = saturation(mono_ideal(R, A), maximal_ideal(R))
                expected = None
                for i in range(n):
                    part = strip_var(A, i)
                    expected = part if expected is None else lcm_pairs(expected, part)
                assert ideals_equal(got, mono_ideal(R, expected))


def test_saturation_membership_certificate():
    # for principal J = (h), each saturation generator times a power of h
    # lands back in I
    rng = random.Random(SEED + 10)
    R = PolyRing(3, 2)
    for _ in range(5):
        I = Ideal(R, [random_poly(R, rng), random_poly(R, rng)])
        h = random_poly(R, rng, deg=1, terms=2)
        if not h or h.is_constant() or I.is_zero():
            continue
        J = Ideal(R, [h])
        S = saturation(I, J)
        assert ideals_equal(ideal_quotient_ideal(S, J), S)
        for s in S.gens:
            assert any(I.contains(s * h**k) for k in range(7))


def test_saturation_round_budget():
    # x2 has no pure power among the leads of (x1^3*x2): no finite
    # staircase, and the loop takes four rounds to reach (x2)
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^3*x2"])
    J = Ideal(R, ["x1"])
    with pytest.raises(ResourceLimitError):
        saturation(I, J, EngineLimits(max_rounds=2))
    assert ideals_equal(saturation(I, J), Ideal(R, ["x2"]))
    assert ideals_equal(saturation(I, J, EngineLimits(max_rounds=4)), Ideal(R, ["x2"]))
    with pytest.raises(ResourceLimitError):
        saturation(I, J, EngineLimits(max_rounds=3))
    # x1^3 kills R/(x1^3): (1) is read off the staircase, with no round
    R1 = PolyRing(2, 1)
    assert saturation(Ideal(R1, ["x1^3"]), Ideal(R1, ["x1"]), EngineLimits(max_rounds=2)).gens == (
        parse_poly(R1, "1"),)


# ---------------------------------------------------------------------------
# the classic elimination route, as a reference for colons, meets and
# saturation: it shares no kernel with them, only Ideal.groebner_basis on
# a ring with one more variable


def elim_intersect(I, J):
    """I meet J as (t*I + (1 - t)*J) meet F_p[x]: the reduced basis of
    the ideal over F_p[x, t], t dominating, keeps the elements free of t,
    and they are the reduced basis of the meet."""
    R = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(R, ())
    E = PolyRing(R.p, R.n + 1, "elim-" + R.order)

    def lift(g, e):
        return Polynomial(E, {a + (e,): c for a, c in g.terms.items()})

    gens = [lift(g, 1) for g in I.gens] + [lift(g, 0) - lift(g, 1) for g in J.gens]
    kept = [
        Polynomial(R, {a[:-1]: c for a, c in g.terms.items()})
        for g in Ideal(E, gens).groebner_basis()
        if all(a[-1] == 0 for a in g.terms)
    ]
    return Ideal(R, kept)


def elim_quotient(I, h):
    """I : h = (I meet (h)) / h, generated by its reduced basis."""
    Q = Ideal(I.ring, [exact_quotient(g, h) for g in elim_intersect(I, Ideal(I.ring, [h])).gens])
    return Ideal(I.ring, Q.groebner_basis())


def reference_saturation(I, J, rounds=50):
    """I : J^infinity with no early exit: each round colons by every
    generator of J by elimination, intersects the colons in order, and
    stops when the reduced bases agree."""
    K = I
    for _ in range(rounds):
        K2 = None
        for h in J.gens:
            Q = elim_quotient(K, h)
            K2 = Q if K2 is None else elim_intersect(K2, Q)
        if K2.groebner_basis() == K.groebner_basis():
            return K
        K = K2
    raise AssertionError("reference saturation did not settle")


def count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_steps(monkeypatch):
    """A one-element list that counts every reduction budget step taken."""
    steps = [0]
    step = Budget.step

    def counted(self):
        steps[0] += 1
        return step(self)

    monkeypatch.setattr(Budget, "step", counted)
    return steps


def torsion_ideal(R, rng, point):
    """g * m_a + (f): R/I has m_a-torsion (the class of g) unless g lies
    in (f)."""
    g = random_poly(R, rng, deg=1, terms=2)
    f = random_poly(R, rng, deg=2, terms=3)
    return Ideal(R, [g * h for h in maximal_ideal(R, point).gens] + [f])


def reference_cases(seed, ns):
    """(I, J): random, torsion-at-the-origin and torsion-at-a-point ideals
    against m, m_a and a random linear J, over F_2, F_3 and F_5."""
    rng = random.Random(seed)
    for p in (2, 3, 5):
        for n in ns:
            R = PolyRing(p, n)
            point = tuple(rng.randrange(p) for _ in range(n))
            ideals = [
                Ideal(R, [random_poly(R, rng), random_poly(R, rng)]),
                torsion_ideal(R, rng, None),
                torsion_ideal(R, rng, point),
            ]
            Js = [
                maximal_ideal(R),
                maximal_ideal(R, point),
                Ideal(R, [random_poly(R, rng, deg=1, terms=2) for _ in range(rng.choice((2, 3)))]),
            ]
            for I in ideals:
                for J in Js:
                    if not J.is_zero():
                        yield I, J


def test_saturation_matches_reference_loop():
    for I, J in reference_cases(SEED + 20, (2, 3, 4)):
        assert saturation(I, J).gens == reference_saturation(I, J).gens


def test_colons_and_meets_match_elimination():
    grew = 0
    for I, J in reference_cases(SEED + 21, (2, 3)):
        for h in J.gens:
            Q = ideal_quotient(I, h)
            assert Q.gens == elim_quotient(I, h).gens
            grew += Q.groebner_basis() != I.groebner_basis()
        assert intersect(I, J).gens == elim_intersect(I, J).gens
        K = ideal_quotient_ideal(I, J)
        want = None
        for h in J.gens:
            Q = elim_quotient(I, h)
            want = Q if want is None else elim_intersect(want, Q)
        assert K.groebner_basis() == want.groebner_basis()
        assert (K is I) == (want.groebner_basis() == I.groebner_basis())
    assert grew >= 20


def test_quotient_ideal_returns_I_when_a_later_generator_passes(monkeypatch):
    # x3 divides no lead of (x1*x2): I : m = I is read off the leads, with
    # no colon, no intersection of colons and no reduction step
    R = PolyRing(3, 3)
    I = Ideal(R, ["x1*x2"])
    colons = count_calls(monkeypatch, groebner, "_syzygies_raw")
    meets = count_calls(monkeypatch, groebner, "_meet")
    steps = count_steps(monkeypatch)
    assert ideal_quotient_ideal(I, maximal_ideal(R)) is I
    assert (len(colons), len(meets), steps[0]) == (0, 0, 0)
    assert saturation(I, maximal_ideal(R)) is I
    # no generator of J is one term: x1*(x1 + x3) and x2*(x2 + x3) are
    # zerodivisors on R/(x1*x2), x1 + x3 is not.  The first colon is
    # I : x1*(x1 + x3) = (x2); neither other generator times x2 lies in I
    # (one reduction step tests (x1 + x3)*x2), so both get engine colons,
    # and I : (x1 + x3) = I returns I before any intersection of colons
    J = Ideal(R, ["x1^2 + x1*x3", "x2^2 + x2*x3", "x1 + x3"])
    colons.clear()
    steps[0] = 0
    assert ideal_quotient_ideal(I, J) is I
    assert (len(colons), len(meets), steps[0]) == (3, 0, 8)
    assert saturation(I, J) is I
    assert saturation(I, J).gens == reference_saturation(I, J).gens
    # x1 + 1 lies in no associated prime of (x1*x2) in two variables
    R2 = PolyRing(5, 2)
    I2 = Ideal(R2, ["x1*x2"])
    J2 = Ideal(R2, ["x2", "x1 + 1"])
    assert saturation(I2, J2) is I2
    assert saturation(I2, J2).gens == reference_saturation(I2, J2).gens


def test_quotient_ideal_intersects_when_no_generator_passes():
    # (x1^2, x1*x2) : x1 = (x1, x2) and : x2 = (x1); neither lies in I
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2", "x1*x2"])
    K = ideal_quotient_ideal(I, maximal_ideal(R))
    assert K is not I and ideals_equal(K, Ideal(R, ["x1"]))
    S = saturation(I, maximal_ideal(R))
    assert S.gens == reference_saturation(I, maximal_ideal(R)).gens
    assert S.gens == (parse_poly(R, "x1"),)


def test_saturation_builds_one_ideal_at_the_end(monkeypatch):
    # x1*(x1, x2)^3 : m^infinity = (x1) sheds one power of m a round: four
    # colons, the last giving its input back, and one Ideal for the result
    R = PolyRing(3, 2)
    I = Ideal(R, ["x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3"])
    colons = count_calls(monkeypatch, groebner, "_colon")
    built = []
    of_basis = Ideal._of_basis
    monkeypatch.setattr(
        Ideal, "_of_basis", lambda ring, basis: built.append(1) or of_basis(ring, basis)
    )
    S = saturation(I, maximal_ideal(R))
    assert S.gens == (parse_poly(R, "x1"),) == reference_saturation(I, maximal_ideal(R)).gens
    assert (len(colons), len(built)) == (4, 1)


def test_membership_packs_the_basis_once(monkeypatch):
    # the dividends need a wider field than the basis: its packs at that
    # width are made by the first normal form and reused by the others
    R = PolyRing(5, 3)
    I = Ideal(R, ["x1^2 + x2*x3", "x2^2 + 2*x1*x3", "x3^3"])
    basis = I.groebner_basis()
    gs = [parse_poly(R, f"x1^{k}*x2^{k} + 3*x3^{2 * k} + x1*x2") for k in range(40, 45)]
    want = [Ideal(R, basis).normal_form(g) for g in gs]  # packs of its own
    splits = count_calls(monkeypatch, groebner, "_split")
    assert [I.normal_form(g) for g in gs] == want
    assert [I.contains(g) for g in gs] == [not r for r in want]
    assert len(splits) == len(basis)


def test_quotient_by_the_last_variable_makes_no_engine_colon(monkeypatch):
    # a homogeneous basis in grevlex: I : x3 is read off its leads
    R = PolyRing(3, 3)
    x3 = parse_poly(R, "x3")
    I = Ideal(R, ["x1*x3^2 + x2^3", "x2*x3^2 + 2*x1^2*x2"])
    syz = count_calls(monkeypatch, groebner, "_syzygies_raw")
    Q = ideal_quotient(I, x3)
    assert syz == []
    assert Q.gens == elim_quotient(I, x3).gens
    assert Q.groebner_basis() != I.groebner_basis()


def test_q1_on_a_complete_intersection_makes_no_colon(monkeypatch):
    # the input leads x1^2 and x1*x2 share x1, and so does the next lead,
    # x1*x3^2; the one after, x3^4, gives dim R/L = 3 = n - c: the two
    # quadrics are a complete intersection, so stage 0 stops Buchberger
    # there, after 3 of the 13 steps that I's whole basis (x3^4, x1*x3^2,
    # x1^2, x1*x2) takes, and runs no saturation
    R = PolyRing(3, 5)
    f = [parse_poly(R, "x1*x2 + x3^2 + x4*x5"), parse_poly(R, "x1^2 + x2*x4 + 2*x5^2")]
    colons = count_calls(monkeypatch, groebner, "_syzygies_raw")
    steps = count_steps(monkeypatch)
    report = question_q_check(f)
    assert report.outcome == "pass"
    assert (len(colons), steps[0]) == (0, 3)


# ---------------------------------------------------------------------------
# colons by a variable read off the basis leads, against engine colons


def random_form(ring, rng, deg, terms=3):
    monos = list(monomials_of_degree(ring.n, deg))
    return Polynomial(ring, {rng.choice(monos): rng.randrange(1, ring.p) for _ in range(terms)})


def lead_colon_ideals(seed, order):
    """Homogeneous ideals over F_2, F_3 and F_5 in 2 to 5 variables: two
    random quadrics, where x_n is mostly a nonzerodivisor, and families
    where it is a zerodivisor: (x_n*g, h), (g^2, g*l) and g*m + (f)."""
    rng = random.Random(seed)
    for p in (2, 3, 5):
        for n in range(2, 6):
            R = PolyRing(p, n, order)
            xn = Polynomial.variable(R, n)
            g, l = random_form(R, rng, 1, 2), random_form(R, rng, 1, 2)
            f, h = random_form(R, rng, 2), random_form(R, rng, 2)
            yield Ideal(R, [f, h])
            yield Ideal(R, [xn * g, h])
            yield Ideal(R, [g * g, g * l])
            yield Ideal(R, [g * x for x in maximal_ideal(R).gens] + [f])


def lead_colon_Js(R):
    """(x_n), m, and (x1 + x_n, c*x_n)."""
    xs = maximal_ideal(R).gens
    return [Ideal(R, [xs[-1]]), Ideal(R, xs), Ideal(R, [xs[0] + xs[-1], (R.p - 1) * xs[-1]])]


def engine_colon(I, J):
    """I : J by every_colon_met, on I's reduced basis."""
    return every_colon_met(I._divisors(resolve_limits(None)), [h.terms for h in J.gens], 1, I.ring)


def lead_colon(I, J):
    lim = resolve_limits(None)
    return groebner._colon(I._divisors(lim), [h.terms for h in J.gens], 1, I.ring, lim).vecs


NEGATIVE_CONTROLS = [
    # x3 divides the lead x1*x3 but not x2^2, in lex and with x3 eliminated
    ("lex", 3, "x1*x3 + x2^2"),
    ("elim-grevlex", 3, "x1*x3 + x2^2"),
    # the grevlex lead x1*x2 of x1*(x2 + 1) is divisible by x2, x1 is not
    ("grevlex", 2, "x1*x2 + x1"),
]


def negative_control(order, n, text):
    R = PolyRing(3, n, order)
    return Ideal(R, [text]), Ideal(R, [Polynomial.variable(R, n)])


def test_lead_colons_match_engine_colons(monkeypatch):
    by_last = count_calls(monkeypatch, groebner, "_colon_by_last")
    for I in lead_colon_ideals(SEED + 30, "grevlex"):
        m = maximal_ideal(I.ring)
        for J in lead_colon_Js(I.ring):
            assert lead_colon(I, J) == engine_colon(I, J)
        assert saturation(I, m).gens == reference_saturation(I, m).gens
    # x_n divided a lead of the basis, and N : x_n was read off it, often
    assert len(by_last) >= 40


def test_lead_colons_leave_other_orders_and_inhomogeneous_bases_to_the_engine(monkeypatch):
    by_last = count_calls(monkeypatch, groebner, "_colon_by_last")
    cases = [I for order in ("lex", "elim-grevlex") for I in lead_colon_ideals(SEED + 31, order)]
    for I in cases:
        for J in lead_colon_Js(I.ring):
            assert lead_colon(I, J) == engine_colon(I, J)
    for order, n, text in NEGATIVE_CONTROLS:
        I, J = negative_control(order, n, text)
        assert lead_colon(I, J) == engine_colon(I, J) == I._divisors(resolve_limits(None)).vecs
        assert ideal_quotient_ideal(I, J) is I
        if not order.startswith("elim-"):  # the reference eliminates a variable of its own
            assert saturation(I, J).gens == reference_saturation(I, J).gens
    assert by_last == []


def homogeneous_basis(N, ring):
    return all(len({sum(a) for _, a in v}) == 1 for v in N.vecs)


@pytest.mark.parametrize("mutant,caught", [
    (lambda N, ring: ring.order == "grevlex", [False, False, True]),
    (homogeneous_basis, [True, True, False]),
], ids=["no-homogeneity-gate", "no-grevlex-gate"])
def test_agreement_catches_a_lead_colon_without_its_gate(monkeypatch, mutant, caught):
    # with a gate of _graded_revlex removed, the negative controls that
    # gate protects disagree with the engine colon
    monkeypatch.setattr(groebner, "_graded_revlex", mutant)
    assert [
        lead_colon(*negative_control(*c)) != engine_colon(*negative_control(*c))
        for c in NEGATIVE_CONTROLS
    ] == caught


def test_lead_read_needs_one_term_that_no_lead_shares_a_variable_with(monkeypatch):
    R = PolyRing(3, 3)
    x1 = parse_poly(R, "x1")
    colons = count_calls(monkeypatch, groebner, "_syzygies_raw")
    # x3, a term of x1 + x3, divides no lead of x1*(x1 + x3), yet x1 + x3
    # is a zerodivisor: a generator of two terms goes to the engine
    assert ideal_quotient_ideal(Ideal(R, ["x1^2 + x1*x3"]), Ideal(R, ["x1 + x3"])).gens == (x1,)
    assert len(colons) == 1
    # even where no term shares a variable with the lead and I : h = I
    I = Ideal(R, ["x1*x2"])
    assert ideal_quotient_ideal(I, Ideal(R, ["x3^2 + x3"])) is I
    assert len(colons) == 2
    # x1 shares a variable with the lead x1*x2 of a prime: the engine
    # finds I : x1 = I
    I = Ideal(R, ["x1*x2 + x3^2"])
    assert ideal_quotient_ideal(I, Ideal(R, ["x1"])) is I
    assert len(colons) == 3
    assert ideal_quotient_ideal(Ideal(R, ["x1^2"]), Ideal(R, ["x1"])).gens == (x1,)
    assert len(colons) == 4


# ---------------------------------------------------------------------------
# one colon per round: the other generators of J are tested by reduction,
# and only those that fail get an engine colon and a meet


def every_colon_met(N, hs, rank, R):
    """N : J with an engine colon for every generator h of J,
    _syzygies_raw of h*e_c modulo N, met in order: _colon with no
    generator tested and nothing read off the leads.  The reduced basis
    as vectors."""
    lim = resolve_limits(None)
    quots = [groebner._syzygies_raw([{(c, a): w for a, w in h.items()} for c in range(rank)],
                                    rank, R, lim, N) for h in hs]
    K = quots[0]
    for q in quots[1:]:
        K = _meet(K.vecs, q, rank, R, lim)
    return K.vecs


def colon_Js(R, rng):
    """m, m_a at a nonzero point (generators of two terms) and a random
    J of two or three linear forms of two terms."""
    point = tuple(rng.randrange(R.p) for _ in range(R.n))
    if not any(point):
        point = (1,) + point[1:]
    return [maximal_ideal(R), maximal_ideal(R, point),
            Ideal(R, [random_poly(R, rng, deg=1, terms=2) for _ in range(rng.choice((2, 3)))])]


def times_vec(h, v, p):
    """h * v on exponent tuples, h {monomial: coeff} and v
    {(component, monomial): coeff}."""
    out = {}
    for b, u in h.items():
        for (c, a), w in v.items():
            m = (c, tuple(x + y for x, y in zip(a, b)))
            out[m] = (out.get(m, 0) + u * w) % p
    return {m: w for m, w in out.items() if w}


def submodules(seed, order):
    """Reduced bases of N <= R^rank, rank 2 and 3, over F_2, F_3 and F_5
    in 2 and 3 variables: h*v for every h of m or m_a and a sparse v,
    plus two sparse vectors, so that v lies in N : m or N : m_a, and
    often outside N."""
    rng = random.Random(seed)
    lim = resolve_limits(None)

    def sparse(R, rank):
        return {(c, tuple(rng.randint(0, 1) for _ in range(R.n))): rng.randrange(1, R.p)
                for c in rng.sample(range(rank), 2)}

    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n, order)
            for rank in (2, 3):
                for point in (None, tuple(rng.randrange(p) for _ in range(n))):
                    v = sparse(R, rank)
                    vecs = [times_vec(h.terms, v, p) for h in maximal_ideal(R, point).gens]
                    N = groebner._divisor_basis(vecs + [sparse(R, rank), sparse(R, rank)], R, lim)
                    yield R, rank, N, rng


def tally_tests(monkeypatch):
    """[passed, failed]: the outcomes of _colon's tests by reduction."""
    tally = [0, 0]
    spans_all = groebner._spans_all

    def counted(*args):
        ok = spans_all(*args)
        tally[not ok] += 1
        return ok

    monkeypatch.setattr(groebner, "_spans_all", counted)
    return tally


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_one_colon_per_round_matches_every_colon_met(monkeypatch, order):
    tally = tally_tests(monkeypatch)
    meets = count_calls(monkeypatch, groebner, "_meet")
    lim = resolve_limits(None)
    checked = grew = 0
    cases = [(I.ring, 1, I._divisors(lim), random.Random(f"{SEED}:colon:{k}"))
             for k, I in enumerate(lead_colon_ideals(SEED + 40, order))]
    for R, rank, N, rng in cases + list(submodules(SEED + 41, order)):
        for J in colon_Js(R, rng):
            if J.is_zero():
                continue
            hs = [h.terms for h in J.gens]
            want = every_colon_met(N, hs, rank, R)
            K = groebner._colon(N, hs, rank, R, lim)
            assert K.vecs == want
            assert (K is N) == (want == N.vecs)
            checked += 1
            grew += rank > 1 and K is not N
    # both outcomes of the test occur, failing generators are met in (the
    # reference's meets are not counted), and module colons grow
    assert checked >= 200 and len(meets) >= 30 and grew >= 15, (checked, len(meets), grew)
    assert tally[0] >= 50 and tally[1] >= 50, tally


def test_a_generator_that_fails_the_test_is_met(monkeypatch):
    # (x1*x2) : (x1, x2) over F_2: Q = I : x2 = (x1) is read off the
    # basis, and x1 * x1 is not in I, so I : x1 = (x2) is an engine colon,
    # met with Q: (x1) meet (x2) = (x1*x2) = I
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1*x2"])
    colons = count_calls(monkeypatch, groebner, "_syzygies_raw")
    meets = count_calls(monkeypatch, groebner, "_meet")
    assert ideal_quotient_ideal(I, maximal_ideal(R)) is I
    assert (len(colons), len(meets)) == (1, 1)
    assert saturation(I, maximal_ideal(R)) is I


def test_skipping_a_generator_untested_gives_a_wrong_colon(monkeypatch):
    # mutation: every generator passes, so only Q = I : x2 = (x1) is left
    monkeypatch.setattr(groebner, "_spans_all", lambda *args: True)
    R = PolyRing(2, 2)
    K = ideal_quotient_ideal(Ideal(R, ["x1*x2"]), maximal_ideal(R))
    assert K.gens == (parse_poly(R, "x1"),)


# ---------------------------------------------------------------------------
# saturation read off a finite staircase: N : J^infinity is R once a power
# of every variable lies in N and J lies in m


def origin_primary(R, rng):
    """A homogeneous ideal whose only zero is the origin: x_k^d_k plus
    x_j times a form for j < k, triangular in x1, ..., xn, and one random
    quadric."""
    xs = maximal_ideal(R).gens
    gens = []
    for k, x in enumerate(xs):
        d = rng.choice((1, 2, 2))
        g = x ** d
        for y in xs[:k]:
            g = g + y * random_form(R, rng, d - 1, 2)
        gens.append(g)
    return Ideal(R, gens + [random_form(R, rng, 2)])


def second_point(R, rng):
    """(x1^2 - x1, x2 - c2*x1, ..., xn - cn*x1): zeros at the origin and
    at (1, c2, ..., cn), so no power of x1 lies in it."""
    xs = maximal_ideal(R).gens
    rest = [x - Polynomial.constant(R, rng.randrange(R.p)) * xs[0] for x in xs[1:]]
    return Ideal(R, [xs[0] ** 2 - xs[0]] + rest)


def count_shortcuts(monkeypatch):
    """[saturations, taken]: calls of _saturate, and those that returned
    with no colon: the ones the staircase answered."""
    tally = [0, 0]
    real = groebner._saturate
    colons = count_calls(monkeypatch, groebner, "_colon")

    def counted(N, hs, rank, limits):
        before = len(colons)
        out = real(N, hs, rank, limits)
        tally[0] += 1
        tally[1] += len(colons) == before
        return out

    for module in (groebner, modres):
        monkeypatch.setattr(module, "_saturate", counted)
    return tally


def test_finite_staircases_saturate_to_the_unit_ideal(monkeypatch):
    rng = random.Random(SEED + 40)
    tally = count_shortcuts(monkeypatch)
    cases = 0
    for p in (2, 3, 5):
        for order in ("grevlex", "lex"):
            for n in (1, 2, 3):
                R = PolyRing(p, n, order)
                I = origin_primary(R, rng)
                m = maximal_ideal(R)
                S = saturation(I, m)
                assert S.gens == (Polynomial.constant(R, 1),)
                assert S.gens == reference_saturation(I, m).gens
                # any J inside m, not only m
                J = Ideal(R, [random_form(R, rng, 2)])
                assert saturation(I, J).gens == (Polynomial.constant(R, 1),)
                cases += 2
    assert tally == [cases, cases]


def test_other_saturations_fall_back_to_the_loop(monkeypatch):
    rng = random.Random(SEED + 41)
    tally = count_shortcuts(monkeypatch)
    cases = 0
    for p in (2, 3, 5):
        for order in ("grevlex", "lex"):
            for n in (1, 2, 3):
                R = PolyRing(p, n, order)
                m = maximal_ideal(R)
                # a second point: x1^D is never in I, whatever D
                I = second_point(R, rng)
                S = saturation(I, m)
                assert S.gens == reference_saturation(I, m).gens
                assert S.gens != (Polynomial.constant(R, 1),)
                # J holds a unit: x1 + 1 is a unit modulo an m-primary I
                I = origin_primary(R, rng)
                J = Ideal(R, [m.gens[0] + Polynomial.constant(R, 1)] + list(m.gens[1:]))
                assert saturation(I, J) is I
                assert saturation(I, J).gens == reference_saturation(I, J).gens
                cases += 3
    assert tally == [cases, 0]


def test_the_whole_ring_saturates_to_itself(monkeypatch):
    for order in ("grevlex", "lex"):
        R = PolyRing(3, 2, order)
        I = Ideal(R, ["1"])
        assert saturation(I, maximal_ideal(R)) is I
        assert saturation(I, Ideal(R, ["x1 + 1"])) is I
    # at rank 2, with a colon that must not run
    lim = resolve_limits(None)
    zero = R.zero_mono()
    N = groebner._divisor_basis([{(0, zero): 1}, {(1, zero): 1}], R, lim)
    m = [x.terms for x in maximal_ideal(R).gens]

    def colon(*args):
        raise AssertionError("N = R^2 needs no colon")

    monkeypatch.setattr(groebner, "_colon", colon)
    assert groebner._saturate(N, m, 2, lim) is N


def test_fewer_leads_than_variables_decide_the_staircase_at_once():
    # a finite staircase needs n pure powers in every component without a
    # unit lead; with fewer than n leads only R^rank passes, with no corner
    R = PolyRing(3, 4)
    lim = resolve_limits(None)
    zero = R.zero_mono()
    whole = groebner._divisor_basis([{(c, zero): 1} for c in range(3)], R, lim)
    assert groebner._staircase_corners(whole, 3) == []
    half = groebner._divisor_basis([{(0, zero): 1}, {(1, (2, 0, 0, 0)): 1}], R, lim)
    assert groebner._staircase_corners(half, 2) is None
    pure = [{(0, (0,) * k + (2,) + (0,) * (3 - k)): 1} for k in range(4)]
    short = groebner._divisor_basis(pure[:3], R, lim)
    assert groebner._staircase_corners(short, 1) is None
    assert groebner._staircase_corners(groebner._divisor_basis(pure, R, lim), 1) == [
        {(0, (0,) * k + (5,) + (0,) * (3 - k)): 1} for k in range(4)
    ]


def test_colon_by_the_zero_ideal_raises_before_the_staircase(monkeypatch):
    R = PolyRing(2, 2)
    corners = count_calls(monkeypatch, groebner, "_staircase_corners")
    with pytest.raises(ValueError, match="zero ideal"):
        saturation(Ideal(R, ["x1^2", "x2^2"]), Ideal(R, []))
    assert corners == []


def test_thin_staircase_saturates_in_no_round():
    # R/(x1^60, x2^60, x3^60, x1*x2, x1*x3, x2*x3) has length 178; the loop
    # takes about 60 rounds, past the default ceiling of 50
    R = PolyRing(2, 3)
    I = Ideal(R, ["x1^60", "x2^60", "x3^60", "x1*x2", "x1*x3", "x2*x3"])
    S = saturation(I, maximal_ideal(R), EngineLimits(max_rounds=1))
    assert S.gens == (Polynomial.constant(R, 1),)
    report = question_q_check(list(I.gens))
    assert (report.outcome, report.data["witness"]) == ("fail", "1")


def count_saturation_colons(monkeypatch):
    """[colons]: the _colon calls made under groebner.saturation, the one
    caller of _saturate through the groebner module; module_h0m's, through
    modres, are not counted."""
    count, inside = [0], [0]
    saturate, colon = groebner._saturate, groebner._colon

    def counted_saturate(*args):
        inside[0] += 1
        try:
            return saturate(*args)
        finally:
            inside[0] -= 1

    def counted_colon(*args):
        count[0] += inside[0] > 0
        return colon(*args)

    monkeypatch.setattr(groebner, "_saturate", counted_saturate)
    monkeypatch.setattr(groebner, "_colon", counted_colon)
    return count


def test_staircase_hits_in_one_bench_round(monkeypatch):
    # seed 1: the finite family of torsion-certificates saturates to R^r
    # in all 48 of its saturations (24 module_h0m in propvan, 24 _torsion
    # in topvan); no q1 saturation has a finite staircase.  Stage 0 runs
    # no saturation on a complete intersection with c < n: not on the 24
    # topvan instances of the paper family, nor on the 64 random q1
    # pairs, so 8 q1 saturations are left, those of g*m + (h).  The ideal
    # saturations take 60 and 16 colons, one a round.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    for workload, want, rounds in (
        ("torsion-certificates", [120, 48], 60),
        ("q1-saturation", [8, 0], 16),
    ):
        with monkeypatch.context() as m:
            tally = count_shortcuts(m)
            colons = count_saturation_colons(m)
            for op in workloads.build(workload, 1):
                assert op.check(op.call(op.limits)) is None, op.label
        assert (tally, colons) == (want, [rounds]), workload


# ---------------------------------------------------------------------------
# maximal ideals and evaluation


def test_maximal_ideal_frozen():
    R = PolyRing(3, 2)
    m = maximal_ideal(R)
    assert m.gens == (parse_poly(R, "x1"), parse_poly(R, "x2"))
    ma = maximal_ideal(R, (1, 2))
    assert ma.gens == (parse_poly(R, "x1 + 2"), parse_poly(R, "x2 + 1"))


def test_maximal_ideal_checks_the_point():
    # a point of another length or of another ring is refused, not cut or
    # padded; a RationalPoint of the ring itself is taken
    R = PolyRing(3, 2)
    for point in ((1, 2, 5), (1,), ()):
        with pytest.raises(ValueError, match="coordinates"):
            maximal_ideal(R, point)
    for S in (PolyRing(3, 3), PolyRing(5, 2)):
        with pytest.raises(RingMismatchError):
            maximal_ideal(R, RationalPoint(S, (1,) * S.n))
    assert maximal_ideal(R, RationalPoint(R, (1, 2))).gens == maximal_ideal(R, (1, 2)).gens
    assert maximal_ideal(R, (4, -1)).gens == maximal_ideal(R, (1, 2)).gens


def test_maximal_ideal_membership_is_vanishing():
    rng = random.Random(SEED + 11)
    for p in (2, 3, 5):
        R = PolyRing(p, 2)
        a = (1 % p, (p - 1) % p)
        m = maximal_ideal(R, a)
        for _ in range(10):
            g = random_poly(R, rng, deg=3)
            assert m.contains(g) == (g.evaluate(a) == 0)


# ---------------------------------------------------------------------------
# budgets


def test_reduction_budget():
    R = PolyRing(3, 2)
    I = Ideal(R, ["x1^2 + 2*x2", "x1*x2 + 2"])
    with pytest.raises(ResourceLimitError) as ei:
        I.groebner_basis(EngineLimits(max_reductions=2))
    assert ei.value.kind == "reductions"


def test_basis_size_budget():
    R = PolyRing(3, 2)
    I = Ideal(R, ["x1^2 + 2*x2", "x1*x2 + 2"])
    with pytest.raises(ResourceLimitError) as ei:
        I.groebner_basis(EngineLimits(max_basis=2))
    assert ei.value.kind == "basis size"


def test_normal_form_budget():
    R = PolyRing(2, 1)
    I = Ideal(R, ["x1"])
    g = parse_poly(R, "x1^5 + x1^4 + x1^3 + x1^2 + x1")
    with pytest.raises(ResourceLimitError):
        I.normal_form(g, EngineLimits(max_reductions=2))
