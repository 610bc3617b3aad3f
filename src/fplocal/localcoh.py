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

One proof serves two checks.  When the leads of I's basis prove that c
homogeneous generators are a complete intersection
(groebner._complete_intersection), Buchberger stops there, and:
stage 0 finds no torsion when c < n, since R/I is then unmixed; and pd
is c, since the Koszul complex resolves R/I.  No saturation loop,
equality test or resolution runs on such an instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from .config import Budget, EngineLimits, resolve_limits
from .errors import HypothesisViolatedError, NonHomogeneousError, ResourceLimitError
from .frobenius import (
    FrobeniusLevel,
    bracket_power,
    frobenius_walk,
    level_for_degree,
    psi_map,
)
from .groebner import (
    Ideal,
    _complete_intersection,
    _lead_dim,
    _reduces_to_zero,
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
    _mul_acc,
    _normalize_point,
    _ring_of,
    _sum_deg,
    _translate,
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
    gens = _translate(f, pt) if pt is not None else tuple(f)
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
    has no m-torsion.  None at once when c < n generators are proved a
    complete intersection: every associated prime of R/I then has height
    c, below ht m = n (_complete_intersection).  Otherwise the saturation
    loop runs and its result is compared with I."""
    if len(x.ideal.gens) < x.ring.n and _complete_intersection(x.ideal, x.limits):
        return None
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
                witness = _translate((g,), -x.point)[0] if x.point is not None else g
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

    The multipliers come from frobenius_walk on prod f, laid out with
    room for one more factor of the generators' degree, and stay packed:
    each membership multiplies the multiplier by the packed generator in
    that layout, and the product, still packed, is decided by the
    membership entry groebner._reduces_to_zero against the bracket
    power's divisors under one Budget, at the width its degree
    deg h + (q-1) * deg prod f asks for; nothing is unpacked.  Each
    bracket power's basis is I's, scaled (bracket_power): no stage runs
    Buchberger.
    """
    if e_max < 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")

    def body(x: _Instance) -> tuple:
        S = _torsion(x)
        if S is None:
            return "pass", {"stage": 0, "memberships": None}
        ring, p = x.ring, x.ring.p
        g = prod(x.gens, start=Polynomial.one(ring))
        dg = max(map(sum, g.terms), default=0)
        hdeg = [max(map(sum, h.terms)) for h in S.gens]
        for e, lay, mults in frobenius_walk({(): g}, 1, e_max, max(hdeg)):
            div = bracket_power(x.ideal, FrobeniusLevel(p, e))._divisors(x.limits)
            verdicts = []
            for h, dh in zip(S.gens, hdeg):
                image: dict = {}
                _mul_acc(image, lay.pack_terms(h.terms), mults[()])
                deg = dh + (p ** e - 1) * dg  # R is a domain
                verdicts.append(_reduces_to_zero(image, lay, deg, div, ring, Budget(x.limits)))
            if all(verdicts):
                return "pass", {"stage": e, "memberships": verdicts}
        return "inconclusive", {"stage": None, "memberships": None, "stages_tried": e_max}

    return _frame("top-vanishing", f, point, limits, {"stage": None}, body)


def _pd_off_leads(I: Ideal, limits: EngineLimits) -> Optional[int]:
    """pd(R/I) when leads decide it, else None.

    c, the number of I's nonzero generators, when they are proved a
    complete intersection (_complete_intersection), read off the leads
    found before I's basis is finished.  Otherwise the leads of the
    reduced basis are read.  One non-constant element gives 1.  Otherwise
    the leads are divided by their monomial gcd u, and with
    D = dim R/(quotients) the read is n - a when the a variables that no
    quotient holds number D, c when n - D = c, and None otherwise.  At
    u = 1 the c rule repeats the certificate, which has declined, so only
    quotients by u != 1 can meet it.  A ceiling in the basis declines too
    (see pd_bound_check)."""
    n, c = I.ring.n, len(I.gens)
    try:
        if _complete_intersection(I, limits):
            return c
        leads = [a for _, a in I._divisors(limits).leads()]
    except ResourceLimitError:
        return None
    if len(leads) == 1 and any(leads[0]):
        return 1
    u = tuple(map(min, zip(*leads)))
    leads = [mono_div(a, u) for a in leads]
    dim = _lead_dim(leads, n)
    missing = n - len({k for a in leads for k, e in enumerate(a) if e})
    if dim == missing:
        return n - missing
    if dim >= 0 and n - dim == c:
        return c
    return None


def pd_bound_check(
    f: Sequence[Polynomial], limits: Optional[EngineLimits] = None
) -> CheckReport:
    """pass iff pd(R/I) <= sum deg(f_i); homogeneous generators only.

    The report also carries depth(R/I) = n - pd for the companion bound
    depth >= n - sum deg(f_i).

    pd is read off leads when they decide it (_pd_off_leads), and is
    otherwise the length of the minimal resolution of R/I, whose ceilings
    are reported.  The read, in order:

    - When the leads found so far prove that the c generators are a
      complete intersection, pd = c, and I's basis is never finished
      (_complete_intersection has the proof).  Otherwise the basis is
      finished and its leads are read.
    - A reduced basis of one non-constant element means I = (g), and
      pd(R/I) = 1.
    - Otherwise the leads are divided by their monomial gcd u.  I is
      homogeneous, so D = dim R/in(I) = dim R/I in every order.  If the
      leads share a variable x_k, then in(I) lies in (x_k) and D >= n - 1;
      so u = 1 when D < n - 1, and the division changes nothing.  At
      D = n - 1, I has height 1 and R is a UFD, so I = g*J for a nonunit
      g with gcd(J) = 1: J = R, or J has height >= 2 and in(J) lies in no
      (x_k).  Since lead(g*h) = lead(g)*lead(h) in every monomial order,
      in(I) = lead(g)*in(J), so u = lead(g) and the quotients are the
      leads of J's reduced basis.  J = R only when I = (g), the case
      above; otherwise g*J is isomorphic to J(-deg g), so
      pd(R/I) = pd(R/J), and J has the c generators f_i / g.
    - On the quotients, those of an ideal K with pd(R/K) = pd(R/I), let a
      be the number of variables in none and D = dim R/in(K) = dim R/K.
      Proof that D = a gives pd(R/K) = n - a: R/in(K) is the quotient by
      the leads in the other variables, tensored with a polynomial ring
      in these a, so depth R/in(K) >= a; Betti numbers only grow under
      Groebner degeneration, in any term order, so
      pd(R/K) <= pd(R/in(K)) <= n - a; and pd(R/K) = n - depth R/K
      >= n - D.  The same D also decides complete intersections: when the
      c nonzero generators of K have height n - D = c, they are a regular
      sequence (R is Cohen-Macaulay and they are homogeneous), so the
      Koszul complex resolves R/K and pd(R/K) <= c = n - D, hence pd = c.
    """
    for g in f:
        if g and not g.is_homogeneous():
            raise NonHomogeneousError(f"{g} is not homogeneous")

    def body(x: _Instance) -> tuple:
        pd = _pd_off_leads(x.ideal, x.limits)
        if pd is None:
            pd = projective_dimension(quotient_presentation(x.ideal), x.limits)
        data = {"pd": pd, "depth": x.ring.n - pd, "bound": x.sum_deg}
        return "pass" if pd <= x.sum_deg else "fail", data

    return _frame("pd-bound", f, None, limits, {"pd": None, "depth": None}, body, local=False)
