"""Checker layer: level choice, the degree criterion, the torsion
question for R/I, the top cohomology certificate, and the projective
dimension bound.

Witnesses inside reports are re-verified from scratch here: a torsion
witness must lie in the saturation but not the ideal, and certified
stages must also certify at the next stage (the memberships are nested).
"""

import random

import pytest

from fplocal import groebner
from fplocal.campaign import CampaignConfig, random_instance, random_polynomial
from fplocal.config import EngineLimits
from fplocal.errors import HypothesisViolatedError, NonHomogeneousError
from fplocal.frobenius import FrobeniusLevel, bracket_power
from fplocal.groebner import Ideal, maximal_ideal, saturation
from fplocal.localcoh import (
    CheckReport,
    choose_level,
    degree_criterion,
    pd_bound_check,
    question_q_check,
    top_lc_vanishing_certificate,
)
from fplocal.polycore import Polynomial, PolyRing, RationalPoint, parse_poly

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
    assert rep.data["limit_kind"] == "reductions"


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
    assert rep.data["pd"] is None


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
