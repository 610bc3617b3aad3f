"""Checker layer: level choice, the degree criterion, the torsion
question for R/I, the top cohomology certificate, and the projective
dimension bound.

Witnesses inside reports are re-verified from scratch here: a torsion
witness must lie in the saturation but not the ideal, and certified
stages must also certify at the next stage (the memberships are nested).
"""

import random
from collections import Counter

import pytest

from fplocal import groebner, localcoh
from fplocal.campaign import CampaignConfig, random_instance, random_polynomial
from fplocal.config import EngineLimits
from fplocal.errors import (
    CancelledError,
    HypothesisViolatedError,
    NonHomogeneousError,
    ResourceLimitError,
    RingMismatchError,
)
from fplocal.frobenius import FrobeniusLevel, bracket_power
from fplocal.groebner import Ideal, maximal_ideal, saturation
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
from fplocal.polycore import Polynomial, PolyRing, RationalPoint, monomials_of_degree, parse_poly

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
        [P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=1)
    )
    assert rep.outcome == "resource-limit"
    assert rep.data == {"witness": None, "limit_kind": "reductions", "limit": 1}


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
        [P(R, "x1^2"), P(R, "x1*x2")], limits=EngineLimits(max_reductions=1)
    )
    assert rep.outcome == "resource-limit"
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


def test_pd_read_off_the_leads_agrees_with_the_resolution():
    """Where the leads decide pd, it equals the length of the minimal
    resolution, in grevlex, lex and elimination orders; the read both
    answers and declines often, and complete intersections whose leads
    leave fewer than dim R/I variables free are answered often too."""
    rng = random.Random(SEED + 17)
    answered, declined, regular = Counter(), Counter(), Counter()
    for p in (2, 3, 5):
        for n in (2, 3, 4, 5):
            # resolutions in lex orders grow fast past four variables
            for order in ("grevlex", "lex", "elim-grevlex", "elim-lex")[: 4 if n <= 4 else 1]:
                R = PolyRing(p, n, order)
                for _ in range(8 if order == "grevlex" else 3):
                    for gens in read_families(R, rng):
                        pd = lead_read(gens)
                        if pd is None:
                            declined[order[:4]] += 1
                        else:
                            assert pd == resolved_pd(gens), (order, [str(g) for g in gens])
                            answered[order[:4]] += 1
                            regular[order[:4]] += pd != n - free_of_leads(gens)
    # both occur often in every kind of order (counts at this seed: 309/171
    # grevlex, 85/50 lex, 188/82 elim-*; answered as regular sequences the
    # free variables do not decide: 56 grevlex, 18 lex, 31 elim-*)
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
    # generators of height 1 are no regular sequence: declined
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
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
    """A ceiling inside the read decides nothing: the resolution answers,
    or reports its own ceiling (test_pd_bound_resource_limit)."""
    R = PolyRing(3, 4)
    f = [P(R, s) for s in SQUARES_PLUS_LOWER]

    def capped(self, limits):
        raise ResourceLimitError("basis size", 1)

    monkeypatch.setattr(Ideal, "_divisors", capped)
    rep = pd_bound_check(f)
    assert rep.data == {"pd": 3, "depth": 1, "bound": 6}


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
    real = localcoh.frobenius_multipliers

    def spy(g, lay):
        walks.append([])
        for m in real(g, lay):
            walks[-1].append((g, Polynomial(g.ring, lay.unpack_terms(m, g.ring.p), _raw=True)))
            yield m

    monkeypatch.setattr(localcoh, "frobenius_multipliers", spy)
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1"), P(R, "x2")], e_max=6)
    assert rep.outcome == "inconclusive" and rep.data["stages_tried"] == 6
    assert [len(w) for w in walks] == [4, 6]
    for w in walks:
        for e, (g, mult) in enumerate(w, 1):
            assert mult == g ** (2 ** e - 1)


def test_topvan_huge_e_max_widens_no_pack_before_the_walk_needs_it(monkeypatch):
    widths = []
    real = localcoh._product_layout
    monkeypatch.setattr(localcoh, "_product_layout", lambda n, d: widths.append(d) or real(n, d))
    R = PolyRing(2, 2)
    rep = top_lc_vanishing_certificate([P(R, "x1^2"), P(R, "x1*x2")], e_max=10 ** 6)
    assert rep.outcome == "pass" and rep.data["stage"] == 1
    assert widths == [2 ** 4 * 4]  # (x1^2)(x1*x2) has degree 4


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
