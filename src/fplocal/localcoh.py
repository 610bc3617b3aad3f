"""Checkers built on the saturation / Frobenius / resolution layers:
the torsion question for R/I at a rational point, level selection and
the degree criterion for the dual map, the top local cohomology
vanishing certificate, and the projective dimension bound.

Every outcome is decided by exact arithmetic; reports carry enough data
to reproduce a failure from scratch.  Maximal ideals are restricted to
F_p-rational points throughout.

The three checks run on one frame, _frame.  It sets up the paper's
instance: the ring of f_1..f_s, the generators translated so that the
point a is the origin (m_a becomes m), the ideal I they generate, and
sum deg f_i with hypothesis_ok = (sum deg f_i < n).  It then runs the
check's body on that instance and writes the CheckReport.  A ceiling
(ResourceLimitError) becomes the resource-limit report: the check's
blank data plus limit_kind and limit.  Nothing else is caught, so a
cancellation or a usage error reaches the caller.  q1 and topvan share
stage 0, _torsion: I : m^infinity, compared with I.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from math import prod
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .config import EngineLimits, resolve_limits
from .errors import HypothesisViolatedError, NonHomogeneousError, ResourceLimitError
from .frobenius import (
    FrobeniusLevel,
    _horizon,
    bracket_power,
    frobenius_multipliers,
    level_for_degree,
    psi_map,
)
from .groebner import (
    Ideal,
    _gcd,
    _lead_dim,
    exact_div,
    ideals_equal,
    maximal_ideal,
    saturation,
)
from .modres import projective_dimension, quotient_presentation
from .polycore import (
    MINUS_INF,
    Polynomial,
    PolyRing,
    RationalPoint,
    _normalize_point,
    _product_layout,
    _ring_of,
    _sum_deg,
    mono_div,
)

__all__ = [
    "CheckReport",
    "choose_level",
    "degree_criterion",
    "question_q_check",
    "top_lc_vanishing_certificate",
    "pd_bound_check",
]


@dataclass
class CheckReport:
    """One check outcome with its reproduction data.

    outcome: pass | fail | inconclusive | resource-limit.  A fail with
    hypothesis_ok=True is the interesting event and is never swallowed.
    """

    check: str
    p: int
    n: int
    generators: Tuple[str, ...]
    point: Optional[Tuple[int, ...]]
    sum_deg: int
    hypothesis_ok: bool
    outcome: str
    data: dict
    millis: Optional[float] = None

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "check": self.check,
            "p": self.p,
            "n": self.n,
            "generators": list(self.generators),
            "point": list(self.point) if self.point is not None else None,
            "sum_deg": self.sum_deg,
            "hypothesis_ok": self.hypothesis_ok,
            "outcome": self.outcome,
            "data": self.data,
        }
        if include_timing and self.millis is not None:
            out["millis"] = self.millis
        return out


def choose_level(f: Sequence[Polynomial], g: Polynomial) -> FrobeniusLevel:
    """Minimal level with l > deg(g); requires sum deg(f_i) < n.

    The returned level satisfies l + (q-1)(n-1) <= n(q-1), which is the
    inequality making the degree criterion automatic; it is re-checked
    numerically on every call.
    """
    ring = _ring_of(f)
    n = ring.n
    total = _sum_deg(f)
    if total >= n:
        raise HypothesisViolatedError(f"sum of degrees {total} >= n = {n}")
    lvl = level_for_degree(ring.p, g.total_degree())
    q = lvl.q
    if lvl.l + (q - 1) * (n - 1) > n * (q - 1):
        raise AssertionError(f"level chain inequality failed at l={lvl.l}, p={ring.p}, n={n}")
    return lvl


def degree_criterion(f: Sequence[Polynomial], g: Polynomial, lvl: FrobeniusLevel) -> bool:
    """True iff deg(g * prod f_i^{q-1}) < n(q-1); in that case the top
    component of the product is zero and this is asserted by actually
    applying the dual map."""
    ring = _ring_of(f)
    n, q = ring.n, lvl.q
    dg = g.total_degree()
    if dg is MINUS_INF or any(not fi for fi in f):
        below = True
    else:
        below = dg + (q - 1) * _sum_deg(f) < n * (q - 1)
    if below:
        h = Polynomial.one(ring)
        for fi in f:
            h = h * (fi ** (q - 1))
        if psi_map(h, g, lvl):
            raise AssertionError("degree criterion held but the top component is nonzero")
    return below


class _Instance(NamedTuple):
    """One check's input: gens and ideal are translated so that the
    point, None at the origin, is the origin."""

    ring: PolyRing
    gens: Tuple[Polynomial, ...]
    ideal: Ideal
    point: Optional[RationalPoint]
    sum_deg: int
    limits: EngineLimits


def _frame(
    check: str,
    f: Sequence[Polynomial],
    point,
    limits: Optional[EngineLimits],
    blank: dict,
    body: Callable[[_Instance], tuple],
    local: bool = True,
) -> CheckReport:
    """Set up the instance, run body(instance) -> (outcome, data), and
    report.  A ceiling gives the resource-limit report with `blank`
    data; a check that is not `local` takes no point and reports none."""
    ring = _ring_of(f)
    lim = resolve_limits(limits)
    t0 = time.monotonic()
    pt = _normalize_point(ring, point)
    gens = tuple(g.translate(pt) for g in f) if pt is not None else tuple(f)
    total = _sum_deg(f)
    try:
        outcome, data = body(_Instance(ring, gens, Ideal(ring, gens), pt, total, lim))
    except ResourceLimitError as e:
        outcome, data = "resource-limit", {**blank, "limit_kind": e.kind, "limit": e.limit}
    return CheckReport(
        check=check,
        p=ring.p,
        n=ring.n,
        generators=tuple(str(g) for g in f),
        point=(pt.coords if pt is not None else (0,) * ring.n) if local else None,
        sum_deg=total,
        hypothesis_ok=total < ring.n,
        outcome=outcome,
        data=data,
        millis=round((time.monotonic() - t0) * 1000.0, 3),
    )


def _torsion(x: _Instance) -> Optional[Ideal]:
    """Stage 0: I : m^infinity, or None when it is I, that is when R/I
    has no m-torsion."""
    S = saturation(x.ideal, maximal_ideal(x.ring), x.limits)
    return None if ideals_equal(S, x.ideal, x.limits) else S


def question_q_check(
    f: Sequence[Polynomial], point=None, limits: Optional[EngineLimits] = None
) -> CheckReport:
    """Is R/I free of m_a-torsion?  pass iff saturation(I, m_a) == I.

    A fail report carries one saturation generator outside I, translated
    back to the original coordinates.
    """

    def body(x: _Instance) -> tuple:
        S = _torsion(x)
        if S is None:
            return "pass", {"witness": None}
        for g in S.gens:
            if x.ideal.normal_form(g, x.limits):
                witness = g.translate(-x.point) if x.point is not None else g
                return "fail", {"witness": str(witness)}
        raise AssertionError("saturation differs from I but all generators reduce to 0")

    return _frame("question-q", f, point, limits, {"witness": None}, body)


def top_lc_vanishing_certificate(
    f: Sequence[Polynomial],
    point=None,
    e_max: int = 3,
    limits: Optional[EngineLimits] = None,
) -> CheckReport:
    """Certificate that the m_a-torsion of the top local cohomology of
    R/I vanishes.

    Stage 0: no torsion in R/I at all -> immediate pass.  Otherwise try
    stages e = 1..e_max: (prod f)^{p^e - 1} * h inside the e-th bracket
    power of I for every saturation generator h; the first stage where
    all memberships hold kills the torsion downstream (Lyubeznik 1997,
    Prop. 2.3 at that stage).  No stage working is reported
    inconclusive, not fail.  e_max = 0 tries stage 0 only; a negative
    e_max raises ValueError.

    Each stage's multiplier comes from the one before, on packs
    (frobenius_multipliers, in a layout sized by frobenius._horizon), and
    is unpacked once for its stage; each bracket power's basis is I's,
    scaled (bracket_power): no stage runs Buchberger.
    """
    if e_max < 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")

    def body(x: _Instance) -> tuple:
        S = _torsion(x)
        if S is None:
            return "pass", {"stage": 0, "memberships": None}
        ring, p = x.ring, x.ring.p
        g = prod(x.gens, start=Polynomial.one(ring))
        horizon = 0
        for e in range(1, e_max + 1):
            if e > horizon:
                horizon = _horizon(e, horizon, e_max)
                lay = _product_layout(ring.n, p ** horizon * max(map(sum, g.terms), default=0))
                mults = islice(frobenius_multipliers(g, lay), e - 1, None)
            Iq = bracket_power(x.ideal, FrobeniusLevel(p, e))
            mult = Polynomial(ring, lay.unpack_terms(next(mults), p), _raw=True)
            verdicts = [not Iq.normal_form(mult * h, x.limits) for h in S.gens]
            if all(verdicts):
                return "pass", {"stage": e, "memberships": verdicts}
        return "inconclusive", {"stage": None, "memberships": None, "stages_tried": e_max}

    return _frame("top-vanishing", f, point, limits, {"stage": None}, body)


def _pd_of_leads(leads: list, dim: int, n: int, c: int) -> Optional[int]:
    """pd(R/K) when the leads of K's Groebner basis pin it, with
    dim = dim R/in(K) and c the number of K's nonzero generators: n - a
    when the a variables that no lead holds number dim, and c when the c
    generators have height n - dim = c; None otherwise."""
    missing = n - len({k for a in leads for k, e in enumerate(a) if e})
    if dim == missing:
        return n - missing
    if dim >= 0 and n - dim == c:
        return c
    return None


def _pd_off_leads(I: Ideal, limits: EngineLimits) -> Tuple[Optional[int], Optional[Ideal]]:
    """(pd(R/I), None) when the leads of I's reduced basis decide it, and
    otherwise (None, K), K the ideal to resolve, with pd(R/K) = pd(R/I).

    The leads are read first (_pd_of_leads).  Where they decline and
    dim R/in(I) = n - 1, I = g*J for its content g (groebner._gcd on the
    basis), and J's leads, I's divided by lead(g), are read in turn: pd is
    1 when J = R, else J's read, else K = J, given by the generators
    divided by g.  K = I when the read declines at dim R/in(I) < n - 1,
    and when a ceiling stops the basis or the content step (see
    pd_bound_check)."""
    n, c = I.ring.n, len(I.gens)
    try:
        leads = [a for _, a in I._divisors(limits).leads()]
    except ResourceLimitError:
        return None, I
    dim = _lead_dim(leads, n)
    pd = _pd_of_leads(leads, dim, n, c)
    if pd is not None:
        return pd, None
    if dim != n - 1:
        return None, I
    try:
        g = _gcd(I.groebner_basis(limits), limits)
    except ResourceLimitError:
        return None, I
    u = g.leading_monomial()
    if u in leads:
        return 1, None  # J = R
    leads = [mono_div(a, u) for a in leads]
    pd = _pd_of_leads(leads, _lead_dim(leads, n), n, c)
    if pd is not None:
        return pd, None
    try:
        return None, Ideal(I.ring, [exact_div(f, g, limits) for f in I.gens])
    except ResourceLimitError:
        return None, I


def pd_bound_check(
    f: Sequence[Polynomial], limits: Optional[EngineLimits] = None
) -> CheckReport:
    """pass iff pd(R/I) <= sum deg(f_i); homogeneous generators only.

    The report also carries depth(R/I) = n - pd for the companion bound
    depth >= n - sum deg(f_i).

    pd is read off the leads of I's reduced basis when they decide it
    (_pd_off_leads).  Let a be the number of variables in no lead and
    D = dim R/in(I) = dim R/I.  Proof that D = a gives pd(R/I) = n - a:
    R/in(I) is the quotient by the leads in the other variables, tensored
    with a polynomial ring in these a, so depth R/in(I) >= a; Betti
    numbers only grow under Groebner degeneration, in any term order, so
    pd(R/I) <= pd(R/in(I)) <= n - a; and pd(R/I) = n - depth R/I
    >= n - D.  The same D also decides complete intersections: when the
    c nonzero generators have height n - D = c, they are a regular
    sequence (R is Cohen-Macaulay and they are homogeneous), so the
    Koszul complex resolves R/I and pd(R/I) <= c = n - D, hence pd = c.

    Where both decline and D = n - 1, pd is read through the content.
    I has height 1 and R is a UFD, so I lies in a principal prime and its
    generators have a nonunit gcd g, which is also the gcd of its reduced
    basis; then I = g*J.  Since lead(g*h) = lead(g)*lead(h) in every
    monomial order, the basis divided by g is a Groebner basis of J, and
    in(J) = in(I) / lead(g).  As g*J is isomorphic to J(-deg g),
    pd(R/I) = pd(R/J) when J != R, read off J's leads by the two rules
    above with the same c generators f_i / g, and pd(R/I) = 1 when J = R,
    I = (g), that is when some lead of I is lead(g).  g comes from
    rank-1 colons on the basis: (a) : b = (a / gcd(a, b)).  Otherwise pd
    is the length of the minimal resolution of R/J, or of R/I when
    D < n - 1, or when a ceiling stops the basis or the content step; its
    ceilings are reported.
    """
    for g in f:
        if g and not g.is_homogeneous():
            raise NonHomogeneousError(f"{g} is not homogeneous")

    def body(x: _Instance) -> tuple:
        pd, K = _pd_off_leads(x.ideal, x.limits)
        if pd is None:
            pd = projective_dimension(quotient_presentation(K), x.limits)
        data = {"pd": pd, "depth": x.ring.n - pd, "bound": x.sum_deg}
        return "pass" if pd <= x.sum_deg else "fail", data

    return _frame("pd-bound", f, None, limits, {"pd": None, "depth": None}, body, local=False)
