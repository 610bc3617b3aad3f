"""Checker layer: level choice, the degree criterion, the torsion
question for R/I, the top cohomology certificate, and the projective
dimension bound.

Witnesses inside reports are re-verified from scratch here: a torsion
witness must lie in the saturation but not the ideal, and certified
stages must also certify at the next stage (the memberships are nested).
"""

import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from fplocal import frobenius, groebner, koszul, localcoh, modres
from fplocal.campaign import CampaignConfig, random_instance, random_polynomial
from fplocal.config import Budget, EngineLimits
from fplocal.errors import (
    CancelledError,
    HypothesisViolatedError,
    NonHomogeneousError,
    ResourceLimitError,
    RingMismatchError,
)
from fplocal.frobenius import FrobeniusLevel, bracket_power
from fplocal.groebner import Ideal, ideal_quotient, maximal_ideal, saturation
from fplocal.koszul import verify_prop_van
from fplocal.localcoh import (
    CheckReport,
    choose_level,
    degree_criterion,
    pd_bound_check,
    question_q_check,
    top_lc_vanishing_certificate,
)
from fplocal.modres import projective_dimension, quotient_presentation
from fplocal.polycore import (
    Polynomial,
    PolyRing,
    RationalPoint,
    _Layout,
    monomials_of_degree,
    parse_poly,
)
from support import exact_quotient

SEED = 14142


def P(ring, text):
    return parse_poly(ring, text)


def random_poly(ring, rng, deg, terms=3, homogeneous=False):
    t = {}
    for _ in range(terms):
        if homogeneous:
            mono = [0] * ring.n
            for _ in range(deg):
                mono[rng.randrange(ring.n)] += 1
            mono = tuple(mono)
        else:
            mono = tuple(rng.randint(0, deg) for _ in range(ring.n))
        t[mono] = rng.randint(0, ring.p - 1)
    return Polynomial(ring, t)


# ---------------------------------------------------------------------------
# level choice


def test_choose_level_frozen():
    R = PolyRing(2, 2)
    f = [P(R, "x1")]
    assert choose_level(f, P(R, "x1^2*x2")) == FrobeniusLevel(2, 4)
    assert choose_level(f, Polynomial.one(R)) == FrobeniusLevel(2, 1)
    assert choose_level(f, Polynomial.zero(R)) == FrobeniusLevel(2, 1)


def test_choose_level_rejects_large_degrees():
    R = PolyRing(2, 2)
    with pytest.raises(HypothesisViolatedError):
        choose_level([P(R, "x1"), P(R, "x2")], Polynomial.one(R))
    with pytest.raises(HypothesisViolatedError):
        choose_level([P(R, "x1*x2")], Polynomial.one(R))


def test_choose_level_chain_inequality():
    rng = random.Random(SEED)
    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n)
            f = [
                Polynomial.variable(R, rng.randint(1, n)) * rng.randint(1, p - 1)
                for _ in range(n - 1)
            ]
            for _ in range(5):
                g = random_poly(R, rng, rng.randint(0, 3))
                lvl = choose_level(f, g)
                d = g.total_degree()
                if isinstance(d, int) and d >= 1:
                    assert lvl.l == d + 1
                else:
                    assert lvl.l == 1
                q = lvl.q
                assert lvl.l + (q - 1) * (n - 1) <= n * (q - 1)


# ---------------------------------------------------------------------------
# degree criterion


def test_degree_criterion_true_case():
    R = PolyRing(2, 2)
    f = [P(R, "x1")]
    g = P(R, "x1*x2")
    lvl = choose_level(f, g)
    # the criterion internally asserts psi really vanishes when it says so
    assert degree_criterion(f, g, lvl) is True


def test_degree_criterion_sharp_false():
    # n=1, f=(x), q=4: the bound fails for g=1 and the top component of
    # f^3 * 1 is actually nonzero, so False is the honest answer
    R = PolyRing(2, 1)
    lvl = FrobeniusLevel(2, 2)
    assert degree_criterion([P(R, "x1")], Polynomial.one(R), lvl) is False


def test_degree_criterion_degenerate_inputs():
    R = PolyRing(2, 2)
    lvl = FrobeniusLevel(2, 1)
    assert degree_criterion([P(R, "x1")], Polynomial.zero(R), lvl) is True
    assert degree_criterion([Polynomial.zero(R)], P(R, "x1^5"), lvl) is True


def test_degree_criterion_random_with_chosen_level():
    rng = random.Random(SEED + 1)
    for p in (2, 3):
        for n in (2, 3):
            R = PolyRing(p, n)
            for _ in range(6):
                f = []
                budget = n - 1
                while budget > 0:
                    g = random_poly(R, rng, 1, terms=2)
                    d = g.total_degree()
                    if g and isinstance(d, int) and 1 <= d <= budget:
                        f.append(g)
                        budget -= d
                    if rng.random() < 0.3:
                        break
                if not f:
                    f = [Polynomial.variable(R, 1)]
                g = random_poly(R, rng, rng.randint(0, 2))
                lvl = choose_level(f, g)
                assert degree_criterion(f, g, lvl) is True


# ---------------------------------------------------------------------------
# the torsion question for R/I


def test_q1_fail_frozen():
    R = PolyRing(2, 2)
    rep = question_q_check([P(R, "x1^2"), P(R, "x1*x2")])
    assert rep.outcome == "fail"
    assert rep.data["witness"] == "x1"
    assert rep.hypothesis_ok is False
    assert rep.point == (0, 0)
    assert rep.sum_deg == 4
    assert rep.millis is not None


def test_q1_pass_frozen():
    R = PolyRing(2, 2)
    rep = question_q_check([P(R, "x1")])
    assert rep.outcome == "pass"
    assert rep.data["witness"] is None
    assert rep.hypothesis_ok is True


def test_q1_translated_point():
    R = PolyRing(2, 2)
    f = [P(R, "x1^2 + 1"), P(R, "x1*x2 + x1 + x2 + 1")]
    rep = question_q_check(f, point=(1, 1))
    assert rep.outcome == "fail"
    assert rep.point == (1, 1)
    assert rep.data["witness"] == "x1 + 1"
    # same check through a RationalPoint, and at the origin it passes
    rep2 = question_q_check(f, point=RationalPoint(R, (1, 1)))
    assert rep2.data["witness"] == "x1 + 1"
    assert question_q_check(f).outcome == "pass"


def test_q1_witness_reverifies():
    R = PolyRing(2, 2)
    f = [P(R, "x1^2 + 1"), P(R, "x1*x2 + x1 + x2 + 1")]
    rep = question_q_check(f, point=(1, 1))
    w = P(R, rep.data["witness"])
    I = Ideal(R, f)
    assert not I.contains(w)
    assert saturation(I, maximal_ideal(R, (1, 1))).contains(w)


def test_q1_resource_limit():
    R = PolyRing(2, 2)
    rep = question_q_check(
        [P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=0)
    )
    assert rep.outcome == "resource-limit"
    assert rep.data == {"witness": None, "limit_kind": "reductions", "limit": 0}
    # the reduced basis of (x1^2 + x2, x1*x2) takes three reduction steps
    rep = question_q_check(
        [P(R, "x1^2 + x2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=2)
    )
    assert rep.data == {"witness": None, "limit_kind": "reductions", "limit": 2}


def test_q1_one_reduction_per_call_suffices():
    # each Budget is per call, and no call on (x1^2, x1*x2) needs more than
    # one step: I : m is I : x2 = (x1), read off the basis, after one
    # reduction tests x1 * x1 in I
    R = PolyRing(2, 2)
    rep = question_q_check(
        [P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=1)
    )
    assert (rep.outcome, rep.data) == ("fail", {"witness": "x1"})


def test_q1_cancel_reaches_the_caller():
    # the frame turns ceilings into reports, and nothing else
    R = PolyRing(2, 2)
    with pytest.raises(CancelledError):
        question_q_check(
            [P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(cancel=lambda: True)
        )


def test_q1_origin_point_is_default():
    R = PolyRing(2, 2)
    a = question_q_check([P(R, "x1")], point=(0, 0))
    b = question_q_check([P(R, "x1")])
    assert a.to_json_dict() == b.to_json_dict()


# ---------------------------------------------------------------------------
# top cohomology certificate


def test_topvan_stage0():
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1")])
    assert rep.outcome == "pass"
    assert rep.data["stage"] == 0
    assert rep.data["memberships"] is None


def test_topvan_stage1_frozen():
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1^2"), P(R, "x1*x2")])
    assert rep.outcome == "pass"
    assert rep.data["stage"] == 1
    assert rep.data["memberships"] == [True]


def test_topvan_stage_memberships_nested():
    # if stage e certifies, stage e+1 must certify as well
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    rep = top_lc_vanishing_certificate(f)
    e = rep.data["stage"]
    I = Ideal(R, f)
    S = saturation(I, maximal_ideal(R))
    prod = f[0] * f[1]
    for stage in (e, e + 1):
        Iq = bracket_power(I, FrobeniusLevel(2, stage))
        mult = prod ** (2**stage - 1)
        for h in S.gens:
            assert Iq.contains(mult * h)


def test_topvan_inconclusive():
    # I = m: (x1 x2)^{q-1} never lies in (x1^q, x2^q), at any stage
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1"), P(R, "x2")], e_max=2)
    assert rep.outcome == "inconclusive"
    assert rep.data["stage"] is None
    assert rep.data["stages_tried"] == 2


def test_topvan_translated():
    R = PolyRing(2, 2)
    f = [P(R, "x1^2 + 1"), P(R, "x1*x2 + x1 + x2 + 1")]
    rep = top_lc_vanishing_certificate(f, point=(1, 1))
    assert rep.outcome == "pass"
    assert rep.data["stage"] == 1
    assert top_lc_vanishing_certificate(f).data["stage"] == 0


def test_topvan_resource_limit():
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate(
        [P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=0)
    )
    assert rep.outcome == "resource-limit"
    assert rep.data == {"stage": None, "limit_kind": "reductions", "limit": 0}
    # the reduced basis of (x1^2 + x2, x1*x2) takes three reduction steps
    rep = top_lc_vanishing_certificate(
        [P(R, "x1^2 + x2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=1)
    )
    assert rep.data == {"stage": None, "limit_kind": "reductions", "limit": 1}


# ---------------------------------------------------------------------------
# projective dimension bound


def test_pd_bound_frozen():
    R = PolyRing(2, 2)
    rep = pd_bound_check([P(R, "x1^2"), P(R, "x1*x2")])
    assert rep.outcome == "pass"
    assert rep.data == {"pd": 2, "depth": 0, "bound": 4}


def test_pd_bound_tight_on_variables():
    R = PolyRing(2, 3)
    for s in (1, 2, 3):
        f = [Polynomial.variable(R, k) for k in range(1, s + 1)]
        rep = pd_bound_check(f)
        assert rep.outcome == "pass"
        assert rep.data["pd"] == s == rep.data["bound"]
        assert rep.data["depth"] == 3 - s


def test_pd_bound_invariant_under_presentation():
    R = PolyRing(3, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    base = pd_bound_check(f).data["pd"]
    assert pd_bound_check(list(reversed(f))).data["pd"] == base
    assert pd_bound_check([g * 2 for g in f]).data["pd"] == base


def test_pd_bound_rejects_inhomogeneous():
    R = PolyRing(2, 2)
    with pytest.raises(NonHomogeneousError):
        pd_bound_check([P(R, "x1^2 + x2")])


def test_pd_bound_resource_limit():
    R = PolyRing(2, 2)
    rep = pd_bound_check([P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=0))
    assert rep.outcome == "resource-limit"
    assert rep.data == {"pd": None, "depth": None, "limit_kind": "reductions", "limit": 0}
    assert rep.point is None


def test_q1_fails_exactly_when_pd_is_n():
    """Two routes to depth(R/I) = 0 for homogeneous I at the origin.

    question_q_check fails iff m is associated to R/I, iff depth(R/I) = 0,
    iff pd(R/I) = n by Auslander-Buchsbaum.  The q1 check reaches its
    answer by saturation, pd_bound_check by a minimal resolution: they
    share the Buchberger engine and no algorithm.  The inputs are the
    acceptance suite's pd families, each also spoiled to g*m + (f1) for a
    random linear form g, which usually puts m in Ass(R/I).
    """
    patterns = {2: ((1,),), 3: ((1, 1), (2,)), 4: ((1, 2), (1, 1, 1), (3,))}
    rng = random.Random(SEED + 7)
    seen = []
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            R = PolyRing(p, n)
            for pat in patterns[n]:
                cfg = CampaignConfig(p=p, n=n, degrees=pat, trials=3, seed="acc:pd")
                for k in range(3):
                    f = random_instance(cfg, k)
                    g = random_polynomial(R, 1, rng)
                    spoiled = [g * Polynomial.variable(R, j) for j in range(1, n + 1)] + f[:1]
                    for gens in (f, spoiled):
                        fails = question_q_check(gens).outcome == "fail"
                        pd = pd_bound_check(gens).data["pd"]
                        assert fails == (pd == n), [str(x) for x in gens]
                        seen.append(fails)
    assert 20 <= seen.count(True) <= len(seen) - 20  # both answers occur often


# ---------------------------------------------------------------------------
# pd read off the leads of one ideal basis


def lead_read(gens):
    """pd_bound_check's read on the ideal of `gens`: pd, or None."""
    return localcoh._pd_off_leads(Ideal(gens[0].ring, gens), EngineLimits())


def resolved_pd(gens):
    return projective_dimension(quotient_presentation(Ideal(gens[0].ring, gens)))


def free_of_leads(gens):
    """The number of variables in no lead of the reduced basis."""
    I = Ideal(gens[0].ring, gens)
    used = {k for g in I.groebner_basis() for k, e in enumerate(g.leading_monomial()) if e}
    return I.ring.n - len(used)


def read_families(R, rng):
    """Graded generator lists of R: dense and sparse forms, monomial
    ideals, linear forms, and l*J, which is almost never Cohen-Macaulay."""
    n = R.n
    top = 3 if n <= 3 else 2
    dense = [
        random_polynomial(R, rng.randint(1, top), rng, density=0.8) for _ in range(rng.randint(1, n))
    ]
    sparse = [
        random_polynomial(R, rng.randint(2, 3), rng, density=0.15)
        for _ in range(rng.randint(1, n + 1))
    ]
    monomial = [
        Polynomial(R, {rng.choice(list(monomials_of_degree(n, rng.randint(1, 3)))): 1})
        for _ in range(rng.randint(1, n + 1))
    ]
    linear = [random_polynomial(R, 1, rng) for _ in range(rng.randint(1, n))]
    ell = random_polynomial(R, 1, rng)
    times_linear = [
        ell * random_polynomial(R, 2, rng, density=0.3) for _ in range(rng.randint(2, n))
    ]
    return dense, sparse, monomial, linear, times_linear


def crossed_products(R, rng):
    """(l1, l2)*(l3, l4) for random linear forms: for n >= 4 and forms in
    general position, the meet of two planes of codimension 2 that meet in
    codimension 4, so of height 2 and depth n - 3, not Cohen-Macaulay: the
    leads mostly decline.  Two draws."""
    out = []
    for _ in range(2):
        ls = [random_polynomial(R, 1, rng) for _ in range(4)]
        out.append([a * b for a in ls[:2] for b in ls[2:]])
    return out


def test_pd_read_off_the_leads_agrees_with_the_resolution():
    """Where the leads decide pd, it equals the length of the minimal
    resolution, in grevlex, lex and elimination orders; the read both
    answers and declines often, and complete intersections whose leads
    leave fewer than dim R/I variables free are answered often too.  The
    crossed products draw from their own stream, so the other families'
    draws do not depend on them."""
    rng = random.Random(SEED + 17)
    crossed = random.Random(SEED + 18)
    answered, declined, regular = Counter(), Counter(), Counter()
    for p in (2, 3, 5):
        for n in (2, 3, 4, 5):
            # resolutions in lex orders grow fast past four variables
            for order in ("grevlex", "lex", "elim-grevlex", "elim-lex")[: 4 if n <= 4 else 1]:
                R = PolyRing(p, n, order)
                for _ in range(8 if order == "grevlex" else 3):
                    for gens in (*read_families(R, rng), *crossed_products(R, crossed)):
                        pd = lead_read(gens)
                        if pd is None:
                            declined[order[:4]] += 1
                        else:
                            assert pd == resolved_pd(gens), (order, [str(g) for g in gens])
                            answered[order[:4]] += 1
                            regular[order[:4]] += pd != n - free_of_leads(gens)
    # both occur often in every kind of order (answered/declined at this
    # seed: 470/202 grevlex, 137/52 lex, 284/94 elim-*, of which the read
    # families give 399/81, 116/19 and 238/32, the crossed products 71/121,
    # 21/33 and 46/62; answered where the free variables do not decide:
    # 112 grevlex, 32 lex, 56 elim-*)
    for kind in ("grev", "lex", "elim"):
        assert answered[kind] >= 40 and declined[kind] >= 40, (answered, declined)
        assert regular[kind] >= 12, regular


# over F_3[x1..x4]: the leads x1^2, x2^2, x3^2 are coprime, so they are
# in(I), and x4 is in none; pd 3
SQUARES_PLUS_LOWER = ("x1^2 + x2*x4", "x2^2 + x3*x4", "x3^2 + 2*x1*x4")


def test_pd_read_hand_cases():
    R = PolyRing(3, 4)
    f = [P(R, s) for s in SQUARES_PLUS_LOWER]
    assert lead_read(f) == 3 == resolved_pd(f)
    assert pd_bound_check(f).data == {"pd": 3, "depth": 1, "bound": 6}
    # dim R/(x1^2, x1*x2) = 1 but every variable is in a lead, and two
    # generators of height 1 are no regular sequence; divided by the leads'
    # gcd x1 they are J = (x1, x2)'s, which leave no variable free, pd 2
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    assert lead_read(f) == 2 == resolved_pd(f) == resolved_pd([P(R, "x1"), P(R, "x2")])
    assert pd_bound_check(f).data["pd"] == 2
    # dim 1 = n - 2, not CI and no variable free, and the leads share no
    # variable: declined; the resolution gives 2
    R = PolyRing(2, 3)
    for gens in (["x1^2", "x1*x2", "x2*x3"], ["x1*x2", "x1*x3", "x2*x3"]):
        f = [P(R, s) for s in gens]
        assert lead_read(f) is None
        assert resolved_pd(f) == 2 == pd_bound_check(f).data["pd"]
    # regular sequences whose leads hold more than n - dim variables: the
    # hypersurface x1*x2 + x3^2 (lead x1*x2, x3 free, dim 2) has pd 1, and
    # (x1*x2, x3^2) (no variable free, dim 1) has pd 2
    R = PolyRing(3, 3)
    for gens, pd in ((["x1*x2 + x3^2"], 1), (["x1*x2", "x3^2"], 2)):
        f = [P(R, s) for s in gens]
        assert free_of_leads(f) < R.n - pd
        assert lead_read(f) == pd == resolved_pd(f) == pd_bound_check(f).data["pd"]
    # m-primary: a = D = 0
    R = PolyRing(5, 3)
    f = [P(R, "x1^2 + x2*x3"), P(R, "x2^2 + x1*x3"), P(R, "x3^3"), P(R, "x1*x2*x3")]
    assert lead_read(f) == 3 == resolved_pd(f)
    # the unit ideal has dimension -1 and is left to the resolution, also
    # with n + 1 generators, one more than its "height" n - (-1)
    assert lead_read([Polynomial.one(R)]) is None
    assert lead_read([Polynomial.one(R)] + [Polynomial.variable(R, k) for k in (1, 2, 3)]) is None
    # the zero ideal: every variable is free
    assert lead_read([Polynomial.zero(R)]) == 0


def test_pd_read_answers_where_the_resolution_hits_a_ceiling():
    """An m-primary ideal of F_5[x1..x4] whose resolution passes the module
    basis ceiling of 600: its leads hold a pure power of every variable,
    so pd = 4, depth 0, and m is associated to R/I, so q1 fails."""
    R = PolyRing(5, 4)
    f = [P(R, s) for s in (
        "3*x1^2 + 2*x1*x2 + 3*x2^2 + 3*x1*x3 + 3*x2*x3 + 2*x3^2 + 2*x1*x4 + x2*x4 + x3*x4 + 2*x4^2",
        "x1^3 + 2*x1^2*x2 + 2*x1*x2^2 + x2^3 + 2*x1^2*x3 + 3*x1*x2*x3 + x2^2*x3 + 2*x1*x3^2"
        " + 2*x2*x3^2 + 4*x3^3 + 3*x1^2*x4 + 4*x1*x2*x4 + 4*x2^2*x4 + 4*x1*x3*x4 + 2*x2*x3*x4"
        " + x3^2*x4 + x1*x4^2 + 3*x2*x4^2 + 4*x3*x4^2 + x4^3",
        "2*x1^3 + x1^2*x2 + 2*x1*x2^2 + 4*x2^3 + 3*x1^2*x3 + 3*x1*x2*x3 + 2*x2^2*x3 + 4*x1*x3^2"
        " + 4*x2*x3^2 + 4*x3^3 + 2*x1^2*x4 + 3*x1*x2*x4 + x2^2*x4 + 4*x1*x3*x4 + 4*x2*x3*x4"
        " + 3*x3^2*x4 + 2*x1*x4^2 + 2*x2*x4^2 + x3*x4^2 + 2*x4^3",
        "4*x1^3 + 4*x1^2*x2 + 3*x1*x2^2 + 3*x2^3 + 3*x1^2*x3 + 4*x1*x2*x3 + 2*x2^2*x3 + 2*x1*x3^2"
        " + 4*x2*x3^2 + x3^3 + 4*x1^2*x4 + x1*x2*x4 + x2^2*x4 + x1*x3*x4 + 3*x2*x3*x4 + 4*x3^2*x4"
        " + 4*x1*x4^2 + 3*x2*x4^2 + 3*x3*x4^2 + x4^3",
        "3*x1^3 + 2*x1^2*x2 + x1*x2^2 + 4*x2^3 + 3*x1^2*x3 + 3*x1*x2*x3 + 4*x2^2*x3 + 3*x1*x3^2"
        " + 4*x2*x3^2 + x3^3 + x1^2*x4 + 2*x1*x2*x4 + 3*x2^2*x4 + x1*x3*x4 + x2*x3*x4 + 2*x3^2*x4"
        " + 4*x1*x4^2 + x2*x4^2 + 4*x3*x4^2 + 4*x4^3",
    )]
    rep = pd_bound_check(f)
    assert (rep.outcome, rep.data) == ("pass", {"pd": 4, "depth": 0, "bound": 14})
    with pytest.raises(ResourceLimitError, match="module basis size"):
        resolved_pd(f)
    assert question_q_check(f).outcome == "fail"


def test_pd_read_ceiling_falls_through_to_the_resolution(monkeypatch):
    """A ceiling inside the read, in the complete intersection certificate
    or in I's basis, decides nothing: the resolution answers, or reports
    its own ceiling (test_pd_bound_resource_limit)."""
    R = PolyRing(3, 4)
    f = [P(R, s) for s in SQUARES_PLUS_LOWER]

    def capped(*args):
        raise ResourceLimitError("basis size", 1)

    monkeypatch.setattr(Ideal, "_divisors", capped)
    monkeypatch.setattr(localcoh, "_complete_intersection", capped)
    rep = pd_bound_check(f)
    assert rep.data == {"pd": 3, "depth": 1, "bound": 6}


# ---------------------------------------------------------------------------
# pd read through the content: I = g*J of height 1


def content_route(gens):
    """How _pd_off_leads treats the ideal of `gens` through the leads' gcd:
    "below" when dim R/in(I) < n - 1, and otherwise "unit" (one basis
    element, pd 1), "read" (the leads divided by their gcd decide) or
    "resolve" (declined, so pd_bound_check resolves R/I); with the read's
    pd or None."""
    I = Ideal(gens[0].ring, gens)
    n = I.ring.n
    leads = [g.leading_monomial() for g in I.groebner_basis()]
    pd = localcoh._pd_off_leads(I, EngineLimits())
    if groebner._lead_dim(leads, n) < n - 1:
        route = "below"
    elif len(leads) == 1:
        route = "unit"
    else:
        route = "read" if pd is not None else "resolve"
    return route, pd


def test_pd_read_through_the_content_agrees_with_the_resolution():
    """g*J for g of degree 1 and 2 and J from the read families, plus
    J = (1, h): every pd _pd_off_leads reads, off the leads divided by
    their gcd, equals the length of R/I's own minimal resolution, in
    grevlex, lex and elimination orders."""
    rng = random.Random(SEED + 23)
    routes = Counter()
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            # resolutions of g*J in lex orders grow fast at four variables
            for order in ("grevlex", "lex", "elim-grevlex", "elim-lex")[: 4 if n <= 3 else 1]:
                R = PolyRing(p, n, order)
                for _ in range(3 if order == "grevlex" else 2):
                    fams = (*read_families(R, rng), [Polynomial.one(R), random_polynomial(R, 1, rng)])
                    for J in fams:
                        g = random_polynomial(R, rng.randint(1, 2), rng)
                        gens = [g * h for h in J]
                        route, pd = content_route(gens)
                        if pd is not None:
                            assert pd == resolved_pd(gens), (order, route, [str(x) for x in gens])
                        routes[route] += 1
    # at this seed: 201 unit, 144 read, 33 resolve
    assert routes["below"] == 0  # g*J has height 1
    assert routes["read"] >= 40 and routes["resolve"] >= 15 and routes["unit"] >= 15, routes


def gcd_of(fs):
    """A gcd of the nonzero polynomials fs, up to a unit: gcd(a, b) is
    b / c, where c, the one element of the reduced basis of (b) : a, is
    b / gcd(a, b) up to a unit."""
    ring = fs[0].ring
    g = fs[0]
    for b in fs[1:]:
        (c,) = ideal_quotient(Ideal(ring, [b]), g).groebner_basis()
        g = exact_quotient(b, c)
    return g


def test_content_is_a_nonunit_exactly_at_height_one():
    """For I != 0, the gcd g of I's reduced basis is a nonunit iff
    dim R/in(I) = n - 1: a height-1 ideal lies in a principal prime, and
    a nonunit gcd puts I inside a principal ideal, of height 1.  Then
    lead(g) is the monomial gcd of I's leads: J = I/g has gcd 1, so J = R
    or J has height >= 2, and then J's leads share no variable.  The pd
    read divides the leads by that monomial gcd on this identity."""
    rng = random.Random(SEED + 29)
    seen = Counter()
    for p in (2, 3):
        for n in (2, 3, 4):
            for order in ("grevlex", "lex", "elim-grevlex"):
                R = PolyRing(p, n, order)
                for _ in range(3):
                    for gens in (*read_families(R, rng), *crossed_products(R, rng)):
                        I = Ideal(R, gens)
                        if I.is_zero():
                            continue
                        basis = I.groebner_basis()
                        dim = groebner._lead_dim([g.leading_monomial() for g in basis], n)
                        g = gcd_of(basis)
                        assert g.is_constant() == (dim != n - 1), (order, [str(g) for g in gens])
                        if dim == n - 1:
                            leads = [b.leading_monomial() for b in basis]
                            assert g.leading_monomial() == tuple(map(min, *leads, leads[0]))
                        seen[g.is_constant()] += 1
    assert seen[True] >= 40 and seen[False] >= 40, seen


def test_pd_read_through_the_content_hand_cases():
    R = PolyRing(3, 3)
    g = P(R, "x1*x2 + x3^2")  # its lead x1*x2 is no pure power
    # (g, x1*g): two generators of height 1 whose lead x1*x2 leaves no
    # variable free at dim 2; the basis is the one element g, so pd 1
    f = [g, g * P(R, "x1")]
    assert lead_read(f) == 1
    assert resolved_pd(f) == 1
    assert pd_bound_check(f).data == {"pd": 1, "depth": 2, "bound": 5}
    # g*(x1, x2, x3): the leads x1^2*x2, x1*x2^2, x1*x2*x3 leave no variable
    # free at dim 2; divided by lead(g) = x1*x2, both of its variables, they
    # are x1, x2, x3, which J = m's read decides: pd 3, with no resolution
    f = [g * Polynomial.variable(R, k) for k in (1, 2, 3)]
    assert lead_read(f) == 3
    assert resolved_pd(f) == 3
    # l*(x1*x2, x1*x3, x2*x3): divided by lead(l) = x1, the leads are those
    # of J = (x1*x2, x1*x3, x2*x3), which decline too, so R/I is resolved
    ell = P(R, "x1 + 2*x2 + x3")
    f = [ell * P(R, s) for s in ("x1*x2", "x1*x3", "x2*x3")]
    assert lead_read(f) is None
    assert resolved_pd(f) == 2 == pd_bound_check(f).data["pd"]


def test_every_pd_instance_answers_with_no_resolution_in_one_bench_round(monkeypatch):
    """seed 1: 8 random-3-5, 2 random-2-6, 12 regular and 12 times-linear
    instances; the times-linear ones, l*J, are read off the leads divided
    by lead(l).  Each instance runs the engine once, on I's generators,
    and nothing else: no syzygy and no resolution.  The run stops early
    on a complete intersection and finishes I's basis otherwise."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads

    calls = Counter()

    def counted(mod, name):
        real = getattr(mod, name)

        def spy(*a, **k):
            calls[name] += 1
            return real(*a, **k)

        monkeypatch.setattr(mod, name, spy)

    counted(modres, "free_resolution")
    for mod in (groebner, modres):
        counted(mod, "_syzygies_raw")
        counted(mod, "_divisor_basis")
    ops = workloads.build("pd-resolution", 1)
    assert len(ops) == 34
    for op in ops:
        before = calls["_divisor_basis"]
        assert op.check(op.call(op.limits)) is None, op.label
        assert calls["_divisor_basis"] == before + 1, op.label
    assert calls == Counter(_divisor_basis=34)


# ---------------------------------------------------------------------------
# complete intersections proved off the leads found so far


def below_square(R, k, rng):
    """x_k^2 plus random terms below it: its lead is x_k^2."""
    top = tuple(2 * (i == k) for i in range(1, R.n + 1))
    terms = {top: 1}
    for m in monomials_of_degree(R.n, 2):
        if R.key(m) < R.key(top) and rng.random() < 0.4:
            terms[m] = rng.randrange(1, R.p)
    return Polynomial(R, terms)


def certificate_families(R, rng):
    """Generator lists of R, each with whether it is a complete
    intersection, or None where only the resolution knows: c <= n random
    forms, mostly regular sequences; a common factor g*(h1, h2) and a
    repeated generator (h1, h1), of height 1 with c = 2; n forms with
    leads x_k^2, m-primary; and the random forms plus a constant on the
    first, inhomogeneous."""
    n = R.n
    forms = [random_polynomial(R, rng.randint(1, 2), rng, density=0.6)
             for _ in range(rng.randint(1, n))]
    g = random_polynomial(R, 1, rng)
    h1, h2 = (random_polynomial(R, rng.randint(1, 2), rng) for _ in range(2))
    return [
        (forms, None),
        ([g * h1, g * h2], False),
        ([h1, h1], False),
        ([below_square(R, k, rng) for k in range(1, n + 1)], True),
        ([forms[0] + Polynomial.one(R)] + forms[1:], False),
    ]


def loop_is_ci(I):
    """Whether ht I equals the number of I's generators, read off I's whole
    reduced basis: n - dim R/in(I) = c."""
    leads = [g.leading_monomial() for g in I.groebner_basis()]
    return I.ring.n - groebner._lead_dim(leads, I.ring.n) == len(I.gens)


def test_complete_intersection_reads_agree_with_the_loop_and_the_resolution():
    """The certificate holds exactly on homogeneous regular sequences,
    which a finished basis decides too.  Where it holds, q1 passes with
    no saturation when c < n, and pd is c with no resolution; both agree
    with the routes that prove nothing, the saturation loop and the
    length of the minimal resolution.  At c = n the certificate holds and
    q1 still fails, with a witness outside I."""
    rng = random.Random(SEED + 31)
    seen = Counter()
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            R = PolyRing(p, n)
            for _ in range(5):
                for gens, known in certificate_families(R, rng):
                    I = Ideal(R, gens)
                    c = len(I.gens)
                    homogeneous = all(g.is_homogeneous() for g in gens)
                    ci = groebner._complete_intersection(Ideal(R, gens), EngineLimits())
                    assert ci == (homogeneous and loop_is_ci(I)), [str(g) for g in gens]
                    if known is not None:
                        assert ci == known, [str(g) for g in gens]
                    if homogeneous:
                        pd = resolved_pd(gens)
                        assert pd_bound_check(gens).data["pd"] == pd
                        assert not ci or pd == c
                    report = question_q_check(gens)
                    S = saturation(I, maximal_ideal(R))
                    assert (report.outcome == "pass") == groebner.ideals_equal(S, I)
                    if report.outcome == "fail":
                        witness = P(R, report.data["witness"])
                        assert S.contains(witness) and not I.contains(witness)
                    if ci:
                        assert report.outcome == ("pass" if c < n else "fail")
                    seen[ci, c < n, homogeneous] += 1
    # every kind occurs often
    for key in ((True, True, True), (True, False, True), (False, True, True),
                (False, True, False)):
        assert seen[key] >= 10, seen


def test_complete_intersection_declines_on_what_it_cannot_prove():
    R = PolyRing(3, 3)
    lim = EngineLimits()
    ci = groebner._complete_intersection
    # leads x2^2 and x3 of (x1 + x2^2, x3) have dim R/L = 1 = n - c, but the
    # input is inhomogeneous; the homogeneous (x1*x3 + x2^2, x3) has the
    # same leads and is proved
    assert not ci(Ideal(R, ["x1 + x2^2", "x3"]), lim)
    assert ci(Ideal(R, ["x1*x3 + x2^2", "x3"]), lim)
    # height 1 with c = 2: a common factor, a repeated generator
    assert not ci(Ideal(R, ["x1^2", "x1*x2"]), lim)
    assert not ci(Ideal(R, ["x1*x2 + x3^2", "x1*x2 + x3^2"]), lim)
    assert lead_read([P(R, "x1*x2 + x3^2"), P(R, "x1*x2 + x3^2")]) == 1
    # c > n, c = 0 and the unit ideal
    assert not ci(Ideal(R, ["x1", "x2", "x3", "x1 + x2"]), lim)
    assert not ci(Ideal(R, []), lim)
    assert not ci(Ideal(R, ["1", "x1"]), lim)
    # c = n: proved, but m-primary, so q1 still fails
    f = [P(R, s) for s in ("x1^2", "x2^2 + x1*x3", "x3^2")]
    assert ci(Ideal(R, f), lim)
    assert question_q_check(f).outcome == "fail"


def test_a_stopped_run_caches_and_observes_nothing(monkeypatch):
    R = PolyRing(3, 5)
    f = ["x1*x2 + x3^2 + x4*x5", "x1^2 + x2*x4 + 2*x5^2"]
    seen = []
    lim = EngineLimits(on_basis=lambda ring, basis: seen.append(basis))
    I = Ideal(R, f)
    assert groebner._complete_intersection(I, lim)
    assert (I._div, I._gb, seen) == (None, None, [])
    assert I.groebner_basis(lim) == Ideal(R, f).groebner_basis()
    assert seen == [I.groebner_basis()]
    # a finished run is cached and observed once, and read again as cached
    runs = []
    packed_basis = groebner._packed_basis
    monkeypatch.setattr(groebner, "_packed_basis", lambda *a: runs.append(1) or packed_basis(*a))
    J = Ideal(R, ["x1^2", "x1*x2"])
    seen.clear()
    assert not groebner._complete_intersection(J, lim)
    assert J._div is not None and len(seen) == 1
    assert not groebner._complete_intersection(J, lim)
    assert J.groebner_basis(lim) == (P(R, "x1^2"), P(R, "x1*x2"))
    assert (len(runs), len(seen)) == (1, 1)
    # a cached basis is read, and a derived one is derived: no engine run
    runs.clear()
    assert groebner._complete_intersection(I, lim)
    Iq = bracket_power(I, FrobeniusLevel(3, 1))
    assert Iq._basis is not None and Iq._div is None
    assert groebner._complete_intersection(Iq, lim)
    assert runs == []


def test_a_ceiling_in_the_certificate_is_reported():
    # the certificate run on these quadrics takes 3 steps: with a ceiling
    # of 2, q1 and topvan report it, and pd falls back to the resolution,
    # which hits it too
    R = PolyRing(3, 5)
    f = [P(R, "x1*x2 + x3^2 + x4*x5"), P(R, "x1^2 + x2*x4 + 2*x5^2")]
    lim = EngineLimits(max_reductions=2)
    want = {"limit_kind": "reductions", "limit": 2}
    assert question_q_check(f, None, lim).data == {"witness": None, **want}
    assert top_lc_vanishing_certificate(f, None, 1, lim).data == {"stage": None, **want}
    assert pd_bound_check(f, lim).outcome == "resource-limit"
    assert question_q_check(f, None, EngineLimits(max_reductions=3)).outcome == "pass"


# ---------------------------------------------------------------------------
# report plumbing


def test_report_timing_toggle():
    R = PolyRing(2, 2)
    rep = question_q_check([P(R, "x1")])
    plain = rep.to_json_dict()
    assert "millis" not in plain
    timed = rep.to_json_dict(include_timing=True)
    assert isinstance(timed["millis"], float)
    assert {k: v for k, v in timed.items() if k != "millis"} == plain


def test_topvan_rejects_negative_e_max():
    R = PolyRing(2, 2)
    with pytest.raises(ValueError, match="e_max"):
        top_lc_vanishing_certificate([P(R, "x1^2"), P(R, "x1*x2")], e_max=-1)


def test_topvan_e_max_zero_tries_stage_zero_only():
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1^2"), P(R, "x1*x2")], e_max=0)
    assert rep.outcome == "inconclusive"
    assert rep.data["stages_tried"] == 0
    rep = top_lc_vanishing_certificate([P(R, "x1")], e_max=0)
    assert rep.outcome == "pass"
    assert rep.data["stage"] == 0


def test_topvan_stages_run_no_buchberger(monkeypatch):
    # I = m has torsion and never certifies, so every stage is tried.  The
    # stages add no Buchberger run: each bracket power's basis is I's,
    # scaled, and reaches the observer.  The multipliers take one power,
    # (x1 x2)^(p-1); later stages come from the recurrence.
    runs, pows = [], []
    packed_basis = groebner._packed_basis
    monkeypatch.setattr(groebner, "_packed_basis", lambda *a: runs.append(1) or packed_basis(*a))
    pow_ = Polynomial.__pow__
    monkeypatch.setattr(Polynomial, "__pow__", lambda g, e: pows.append(e) or pow_(g, e))
    R = PolyRing(3, 2)
    f = [P(R, "x1"), P(R, "x2")]
    counts = {}
    for e_max in (0, 3):
        runs.clear()
        pows.clear()
        seen = []
        lim = EngineLimits(on_basis=lambda ring, basis: seen.append(basis))
        rep = top_lc_vanishing_certificate(f, e_max=e_max, limits=lim)
        assert rep.outcome == "inconclusive"
        counts[e_max] = (len(runs), len(seen), list(pows))
    assert counts[3][0] == counts[0][0]
    assert counts[3][1] == counts[0][1] + 3
    assert counts[3][2] == counts[0][2] + [2]


def test_topvan_walk_past_the_default_cap_restarts_exactly(monkeypatch):
    # six stages: the multipliers are laid out for stages up to 4, then 6,
    # and the second walk starts again from stage 1; every value it
    # yields is the direct power
    walks = []
    real = frobenius.frobenius_multipliers

    def spy(g, lay):
        walks.append([])
        for m in real(g, lay):
            walks[-1].append((g, Polynomial(g.ring, lay.unpack_terms(m, g.ring.p), _raw=True)))
            yield m

    monkeypatch.setattr(frobenius, "frobenius_multipliers", spy)
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1"), P(R, "x2")], e_max=6)
    assert rep.outcome == "inconclusive" and rep.data["stages_tried"] == 6
    assert [len(w) for w in walks] == [4, 6]
    for w in walks:
        for e, (g, mult) in enumerate(w, 1):
            assert mult == g ** (2 ** e - 1)


def test_topvan_huge_e_max_widens_no_pack_before_the_walk_needs_it(monkeypatch):
    widths = []
    real = frobenius._product_layout
    monkeypatch.setattr(frobenius, "_product_layout", lambda n, d: widths.append(d) or real(n, d))
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1^2"), P(R, "x1*x2")], e_max=10 ** 6)
    assert rep.outcome == "pass" and rep.data["stage"] == 1
    # (x1^2)(x1*x2) has degree 4, and room is left for one factor of the
    # saturation generator x1's degree
    assert widths == [2 ** 4 * 4 + 1]


def test_topvan_packed_memberships_match_the_bracket_power_normal_forms(monkeypatch):
    # each membership multiplies the packed multiplier by the packed
    # saturation generator and hands the product to the entry still
    # packed; unpacked, it is mult * h, and its remainder by the entry's
    # divisors is the normal form of mult * h by the bracket power, in
    # grevlex and in lex
    seen = []
    real = localcoh._reduces_to_zero

    def spy(h, src, deg, divisors, ring, budget):
        product = Polynomial(ring, src.unpack_terms(h, ring.p))
        r = groebner._reduce(groebner._rank1(product.terms), divisors, ring, Budget(EngineLimits()))
        seen.append((product, Polynomial(ring, groebner._terms(r))))
        zero = real(h, src, deg, divisors, ring, budget)
        assert zero == (not r)
        return zero

    monkeypatch.setattr(localcoh, "_reduces_to_zero", spy)
    rng = random.Random(SEED + 7)
    checked = nonzero = 0
    for order in ("grevlex", "lex"):
        for p, n in ((2, 2), (3, 2), (2, 3), (3, 3)):
            R = PolyRing(p, n, order)
            xs = maximal_ideal(R).gens
            cases = [[P(R, "x1^2"), P(R, "x1*x2")], list(xs)]
            for _ in range(3):
                # g * m has the saturation (g); three forms in two
                # variables are mostly m-primary, with saturation (1)
                g = random_poly(R, rng, 1, homogeneous=True)
                cases.append([x * g for x in xs])
                cases.append([random_poly(R, rng, 2, homogeneous=True) for _ in range(3)])
            for f in cases:
                if not all(f):
                    continue
                seen.clear()
                rep = top_lc_vanishing_certificate(f, e_max=2)
                I = Ideal(R, f)
                S = saturation(I, maximal_ideal(R))
                stages = rep.data.get("stages_tried", rep.data["stage"])
                want = []
                for e in range(1, stages + 1):
                    Iq = bracket_power(I, FrobeniusLevel(p, e))
                    mult = math.prod(f, start=Polynomial.one(R)) ** (p ** e - 1)
                    want += [(mult * h, Iq.normal_form(mult * h)) for h in S.gens]
                assert seen == want, (order, p, f)
                want = [r for _, r in want]
                checked += len(want)
                nonzero += sum(1 for g in want if g)
    assert checked >= 30 and nonzero >= 10


def test_a_torsion_pair_unpacks_nothing_for_its_memberships(monkeypatch):
    # the bench's torsion shape: (l1, l2^2 + l1*r, l3^2 + l1*s + l2*t) over
    # F_2[x1, x2, x3], here l = (x1 + x3, x2 + x3, x3) and (r, s, t) =
    # (x2, x1, x3), whose only zero is the origin, propvan at i = s with
    # level cap 3 and topvan with three stages; neither certifies, so every
    # level and stage is tried.  Each membership forms its product on packs
    # and hands it to the entry packed.  An unpack made for one would come
    # from the checks' own code, directly or through _reduce, or from
    # inside the entry.
    checks = {Path(koszul.__file__).name, Path(localcoh.__file__).name}
    through = {"run", "_retry", "_reduce"}  # _reduce's frames in groebner
    flagged = []

    def watch(name):
        real = getattr(_Layout, name)

        def spy(self, *args):
            frame = sys._getframe(1)
            stack = []
            while frame is not None:
                stack.append((Path(frame.f_code.co_filename).name, frame.f_code.co_name))
                frame = frame.f_back
            k = 0
            while stack[k][0] == "groebner.py" and stack[k][1] in through:
                k += 1
            if stack[k][0] in checks or ("groebner.py", "_reduces_to_zero") in stack:
                flagged.append((name, stack[k]))
            return real(self, *args)

        monkeypatch.setattr(_Layout, name, spy)

    watch("unpack_terms")
    watch("unpack_vec")
    entries = []
    for mod in (koszul, localcoh):
        real = mod._reduces_to_zero
        monkeypatch.setattr(mod, "_reduces_to_zero",
                            lambda *a, real=real: entries.append(1) or real(*a))
    R = PolyRing(2, 3)
    f = [P(R, "x1 + x3"), P(R, "x2^2 + x3^2 + x1*x2 + x2*x3"), P(R, "x1^2 + x1*x3 + x2*x3")]
    cert = verify_prop_van(f, 3, limits=EngineLimits(level_cap=3))
    assert (cert.retries, cert.num_torsion_generators) == (3, 1)
    rep = top_lc_vanishing_certificate(f, e_max=3)
    assert rep.outcome == "inconclusive" and rep.data["stages_tried"] == 3
    assert flagged == []
    assert len(entries) >= 3 + 3


# ---------------------------------------------------------------------------
# instance set-up, shared by every check


CHECKS = {
    "q1": question_q_check,
    "topvan": top_lc_vanishing_certificate,
    "pd": pd_bound_check,
    "propvan": lambda f: verify_prop_van(f, 1),
}


@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_checks_reject_empty_and_mixed_input(check):
    with pytest.raises(ValueError, match="need at least one polynomial"):
        check([])
    mixed = [P(PolyRing(2, 2), "x1"), P(PolyRing(3, 2), "x2")]
    with pytest.raises(RingMismatchError):
        check(mixed)
