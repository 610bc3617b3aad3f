"""Checkers built on the saturation / Frobenius / resolution layers:
the torsion question for R/I at a rational point, level selection and
the degree criterion for the dual map, the top local cohomology
vanishing certificate, and the projective dimension bound.

Every outcome is decided by exact arithmetic; reports carry enough data
to reproduce a failure from scratch.  Maximal ideals are restricted to
F_p-rational points throughout.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .config import EngineLimits, resolve_limits
from .errors import HypothesisViolatedError, NonHomogeneousError, ResourceLimitError
from .frobenius import FrobeniusLevel, bracket_power, level_for_degree, psi_map
from .groebner import Ideal, ideals_equal, maximal_ideal, saturation
from .modres import depth, projective_dimension, quotient_presentation
from .polycore import MINUS_INF, Polynomial, PolyRing, RationalPoint

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


def _ring_of(f: Sequence[Polynomial]) -> PolyRing:
    if not f:
        raise ValueError("need at least one polynomial")
    ring = f[0].ring
    for g in f:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    return ring


def _sum_deg(f: Sequence[Polynomial]) -> int:
    total = 0
    for g in f:
        d = g.total_degree()
        if d is not MINUS_INF:
            total += d
    return total


def _normalize_point(ring: PolyRing, point) -> Optional[RationalPoint]:
    if point is None:
        return None
    pt = point if isinstance(point, RationalPoint) else RationalPoint(ring, point)
    return None if pt.is_origin() else pt


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


def question_q_check(
    f: Sequence[Polynomial], point=None, limits: Optional[EngineLimits] = None
) -> CheckReport:
    """Is R/I free of m_a-torsion?  pass iff saturation(I, m_a) == I.

    A fail report carries one saturation generator outside I, translated
    back to the original coordinates.
    """
    ring = _ring_of(f)
    lim = resolve_limits(limits)
    t0 = time.monotonic()
    pt = _normalize_point(ring, point)
    fs = tuple(g.translate(pt) for g in f) if pt is not None else tuple(f)
    I = Ideal(ring, fs)
    total = _sum_deg(f)
    base = dict(
        check="question-q",
        p=ring.p,
        n=ring.n,
        generators=tuple(str(g) for g in f),
        point=tuple(pt.coords) if pt is not None else (0,) * ring.n,
        sum_deg=total,
        hypothesis_ok=total < ring.n,
    )
    try:
        S = saturation(I, maximal_ideal(ring), lim)
        if ideals_equal(S, I, lim):
            return CheckReport(
                **base, outcome="pass", data={"witness": None},
                millis=_ms(t0),
            )
        witness = None
        for g in S.gens:
            if I.normal_form(g, lim):
                witness = g.translate(-pt) if pt is not None else g
                break
        if witness is None:
            raise AssertionError("saturation differs from I but all generators reduce to 0")
        return CheckReport(
            **base, outcome="fail", data={"witness": str(witness)},
            millis=_ms(t0),
        )
    except ResourceLimitError as e:
        return CheckReport(
            **base, outcome="resource-limit",
            data={"witness": None, "limit_kind": e.kind, "limit": e.limit},
            millis=_ms(t0),
        )


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
    """
    ring = _ring_of(f)
    if e_max < 0:
        raise ValueError(f"e_max must be >= 0, got {e_max}")
    lim = resolve_limits(limits)
    t0 = time.monotonic()
    pt = _normalize_point(ring, point)
    fs = tuple(g.translate(pt) for g in f) if pt is not None else tuple(f)
    I = Ideal(ring, fs)
    total = _sum_deg(f)
    base = dict(
        check="top-vanishing",
        p=ring.p,
        n=ring.n,
        generators=tuple(str(g) for g in f),
        point=tuple(pt.coords) if pt is not None else (0,) * ring.n,
        sum_deg=total,
        hypothesis_ok=total < ring.n,
    )
    try:
        S = saturation(I, maximal_ideal(ring), lim)
        if ideals_equal(S, I, lim):
            return CheckReport(
                **base, outcome="pass", data={"stage": 0, "memberships": None},
                millis=_ms(t0),
            )
        prod = Polynomial.one(ring)
        for g in fs:
            prod = prod * g
        for e in range(1, e_max + 1):
            lvl = FrobeniusLevel(ring.p, e)
            Iq = bracket_power(I, lvl)
            mult = prod ** (ring.p ** e - 1)
            verdicts = [bool(not Iq.normal_form(mult * h, lim)) for h in S.gens]
            if all(verdicts):
                return CheckReport(
                    **base, outcome="pass",
                    data={"stage": e, "memberships": verdicts},
                    millis=_ms(t0),
                )
        return CheckReport(
            **base, outcome="inconclusive",
            data={"stage": None, "memberships": None, "stages_tried": e_max},
            millis=_ms(t0),
        )
    except ResourceLimitError as e:
        return CheckReport(
            **base, outcome="resource-limit",
            data={"stage": None, "limit_kind": e.kind, "limit": e.limit},
            millis=_ms(t0),
        )


def pd_bound_check(
    f: Sequence[Polynomial], limits: Optional[EngineLimits] = None
) -> CheckReport:
    """pass iff pd(R/I) <= sum deg(f_i); homogeneous generators only.

    The report also carries depth(R/I) = n - pd for the companion bound
    depth >= n - sum deg(f_i).
    """
    ring = _ring_of(f)
    lim = resolve_limits(limits)
    t0 = time.monotonic()
    for g in f:
        if g and not g.is_homogeneous():
            raise NonHomogeneousError(f"{g} is not homogeneous")
    I = Ideal(ring, f)
    total = _sum_deg(f)
    base = dict(
        check="pd-bound",
        p=ring.p,
        n=ring.n,
        generators=tuple(str(g) for g in f),
        point=None,
        sum_deg=total,
        hypothesis_ok=total < ring.n,
    )
    try:
        pres = quotient_presentation(I)
        pd = projective_dimension(pres, lim)
        dep = ring.n - pd
        return CheckReport(
            **base,
            outcome="pass" if pd <= total else "fail",
            data={"pd": pd, "depth": dep, "bound": total},
            millis=_ms(t0),
        )
    except ResourceLimitError as e:
        return CheckReport(
            **base, outcome="resource-limit",
            data={"pd": None, "depth": None, "limit_kind": e.kind, "limit": e.limit},
            millis=_ms(t0),
        )


def _ms(t0: float) -> float:
    return round((time.monotonic() - t0) * 1000.0, 3)
