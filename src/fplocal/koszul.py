"""Koszul cocomplexes on powers of a polynomial list, the Frobenius
chain map between levels, cohomology presentations, and the torsion
vanishing verifier.

Coordinates of K^j are labeled by strictly increasing tuples
(a_1 < ... < a_j) of generator indices (1-based).  The differential
sends the coordinate at a (j+1)-tuple T to

    sum over v of (-1)^v f_{T[v]}^t * r_{T minus T[v]}    (v 1-based)

and d compose d = 0 is asserted for every constructed complex.  The sign
starts at -1 in degree 0; signs cancel in composites and do not affect
cohomology.

Between exponent t=1 and t=q the multiplication maps

    phi^j = diag( M_T(q) ),   M_T(q) = prod over a in T of f_a^{q-1}

form a chain map (checked exactly), and iterating them realizes the
directed system whose limit is the local cohomology module.  The
verifier computes the m-torsion of H^i at level 1 and certifies that
phi pushes every torsion generator into the image of the level-q
differential, which kills its class downstream (Lyubeznik 1997,
Prop. 2.3 supplies the limit argument).

The level walk reuses the level below.  The multipliers follow the
recurrence M_T(pq) = F(M_T(q)) * M_T(p), with F the p-th power, an
exponent scaling: one product of a large and a small polynomial per
subset T and level, built up from level 1 even when the walk starts
higher.  The image of the level-q differential is the level-1 image
under x^a e_c -> x^(qa) e_c, an injective map that fixes F_p and
preserves the module order and divisibility, so it carries the reduced
basis of im d_1 to that of im d_q: one Buchberger run, at level 1,
serves every level.  The d compose d and commutation checks still run
at every level tried.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Optional, Sequence, Tuple

from .config import EngineLimits, resolve_limits
from .frobenius import (
    FrobeniusLevel,
    _check_level,
    frobenius_multipliers,
    frobenius_power,
    level_for_degree,
)
from .modres import (
    ModulePresentation,
    PolyMatrix,
    kernel_of_map,
    module_gb,
    module_h0m,
    module_normal_form,
    subquotient_presentation,
)
from .polycore import Polynomial, PolyRing, _normalize_point, _ring_of, _sum_deg

__all__ = [
    "KoszulComplex",
    "VanishingCertificate",
    "build_koszul",
    "phi_chain_map",
    "koszul_cohomology",
    "verify_prop_van",
]


@dataclass(frozen=True)
class KoszulComplex:
    """diffs[j]: K^j -> K^{j+1}; index_maps[j] labels the coordinates of
    K^j by increasing tuples of generator indices."""

    ring: PolyRing
    f: Tuple[Polynomial, ...]
    t: int
    diffs: Tuple[PolyMatrix, ...]
    index_maps: Tuple[tuple, ...]

    @property
    def s(self) -> int:
        return len(self.f)

    def rank(self, j: int) -> int:
        return len(self.index_maps[j])


def build_koszul(f: Sequence[Polynomial], t: int = 1) -> KoszulComplex:
    """The cocomplex on (f_1^t, ..., f_s^t); d compose d = 0 is checked."""
    f = tuple(f)
    ring = _ring_of(f)
    if not all(f):
        raise ValueError("zero generator in Koszul input")
    if t < 1:
        raise ValueError(f"exponent must be >= 1, got {t}")
    s = len(f)
    ft = [g ** t for g in f]
    index_maps = tuple(tuple(combinations(range(1, s + 1), j)) for j in range(s + 1))
    zero = Polynomial.zero(ring)
    diffs = []
    for j in range(s):
        targets = index_maps[j + 1]
        pos = {T: r for r, T in enumerate(targets)}
        cols = []
        for S in index_maps[j]:
            col = [zero] * len(targets)
            for alpha in range(1, s + 1):
                if alpha in S:
                    continue
                T = tuple(sorted(S + (alpha,)))
                v = T.index(alpha) + 1
                sign = -1 if v % 2 else 1
                col[pos[T]] = ft[alpha - 1] * sign
            cols.append(tuple(col))
        diffs.append(PolyMatrix(ring, len(targets), tuple(cols)))
    for j in range(s - 1):
        if not diffs[j + 1].compose(diffs[j]).is_zero():
            raise ValueError(f"differential composite nonzero at degree {j}")
    return KoszulComplex(ring, f, t, tuple(diffs), index_maps)


def _multiplier_levels(f: Sequence[Polynomial], p: int) -> Iterator[dict]:
    """{T: M_T(q)} for q = p, p^2, ..., one dict per level, T over every
    increasing tuple of generator indices, the empty one included.

    M_T(q) is (prod over a in T of f_a)^(q-1), and each walks by
    frobenius_multipliers' recurrence: a level after the first costs one
    product per subset.
    """
    s = len(f)
    prods = {(): Polynomial.one(f[0].ring)}
    for j in range(1, s + 1):
        for T in combinations(range(1, s + 1), j):
            prods[T] = prods[T[:-1]] * f[T[-1] - 1]
    walks = {T: frobenius_multipliers(g, p) for T, g in prods.items()}
    while True:
        yield {T: next(w) for T, w in walks.items()}


def _phi_with_complexes(k1: KoszulComplex, lvl: FrobeniusLevel, mults: dict):
    """phi from the level-1 complex k1, which the caller built, to the
    level-q complex, built here for the commutation check that runs at
    every call.  mults[T] is M_T(q), from the caller's _multiplier_levels
    walk."""
    kq = build_koszul(k1.f, lvl.q)
    ring = k1.ring
    zero = Polynomial.zero(ring)
    phis = []
    for tuples in k1.index_maps:
        cols = []
        for r, T in enumerate(tuples):
            col = [zero] * len(tuples)
            col[r] = mults[T]
            cols.append(tuple(col))
        phis.append(PolyMatrix(ring, len(tuples), tuple(cols)))
    for j in range(k1.s):
        if kq.diffs[j].compose(phis[j]) != phis[j + 1].compose(k1.diffs[j]):
            raise ValueError(f"chain map fails to commute at degree {j}")
    return tuple(phis)


def phi_chain_map(f: Sequence[Polynomial], lvl: FrobeniusLevel) -> tuple:
    """Per-degree diagonal multipliers prod f_a^{q-1}; commutation with
    both differentials is checked exactly."""
    k1 = build_koszul(f, 1)
    _check_level(k1.ring, lvl)
    mults = next(islice(_multiplier_levels(k1.f, lvl.p), lvl.l - 1, None))
    return _phi_with_complexes(k1, lvl, mults)


def _cohomology_data(
    kx: KoszulComplex, i: int, limits: Optional[EngineLimits] = None
):
    """(kernel generators, image columns, subquotient presentation)."""
    s = kx.s
    if i < 0 or i > s:
        raise ValueError(f"cohomological degree {i} outside [0, {s}]")
    ring = kx.ring
    rank = kx.rank(i)
    if i < s:
        ker = kernel_of_map(kx.diffs[i], limits)
    else:
        zero = Polynomial.zero(ring)
        one = Polynomial.one(ring)
        ker = tuple(
            tuple(one if r == u else zero for r in range(rank)) for u in range(rank)
        )
    im = kx.diffs[i - 1].columns if i > 0 else ()
    pres = subquotient_presentation(ring, ker, im, limits)
    return ker, im, pres


def koszul_cohomology(
    kx: KoszulComplex, i: int, limits: Optional[EngineLimits] = None
) -> ModulePresentation:
    """Presentation of ker d^i / im d^{i-1}."""
    return _cohomology_data(kx, i, limits)[2]


@dataclass(frozen=True)
class VanishingCertificate:
    """Record of one torsion-kill verification run.

    outcome: "pass" when every torsion generator of H^i at level 1 is
    pushed into the level-q image by phi (vacuously when there is no
    torsion); "inconclusive" when no level up to the cap worked;
    "hypothesis-violated" when the degree bound fails (the run still
    executes for exploration, but proves nothing).
    """

    p: int
    n: int
    s: int
    i: int
    point: Tuple[int, ...]
    generators: Tuple[str, ...]
    sum_deg: int
    hypothesis_ok: bool
    outcome: str
    torsion_finite: bool
    torsion_length: Optional[int]
    num_torsion_generators: int
    level_used: Optional[int]
    retries: int
    verdicts: Tuple[bool, ...]
    conclusion: str

    def to_json_dict(self) -> dict:
        return {
            "check": "torsion-vanishing",
            "p": self.p,
            "n": self.n,
            "s": self.s,
            "i": self.i,
            "point": list(self.point),
            "generators": list(self.generators),
            "sum_deg": self.sum_deg,
            "hypothesis_ok": self.hypothesis_ok,
            "outcome": self.outcome,
            "torsion_finite": self.torsion_finite,
            "torsion_length": self.torsion_length,
            "num_torsion_generators": self.num_torsion_generators,
            "level_used": self.level_used,
            "retries": self.retries,
            "verdicts": list(self.verdicts),
            "conclusion": self.conclusion,
        }


def verify_prop_van(
    f: Sequence[Polynomial],
    i: int,
    point=None,
    level: Optional[FrobeniusLevel] = None,
    limits: Optional[EngineLimits] = None,
) -> VanishingCertificate:
    """Certify that the m_a-torsion of H^i dies in the directed system.

    Translates the point to the origin, presents the torsion of the
    level-1 cohomology, lifts its generators to the ambient free module,
    and checks phi(g) lies in the image of the level-q differential,
    retrying at higher levels up to the cap.  Membership of each
    generator suffices: phi is R-linear and the image is a submodule.
    An explicit `level` above `limits.level_cap` raises ValueError: no
    level could be tried.
    """
    f = tuple(f)
    lim = resolve_limits(limits)
    ring = _ring_of(f)
    if level is not None and level.l > lim.level_cap:
        raise ValueError(f"level {level.l} is above the level cap {lim.level_cap}")
    total = _sum_deg(f)
    hypothesis_ok = total < ring.n
    pt = _normalize_point(ring, point)
    fs = tuple(g.translate(pt) for g in f) if pt is not None else f
    k1 = build_koszul(fs, 1)
    ker, _, pres = _cohomology_data(k1, i, lim)
    tors = module_h0m(pres, None, lim)

    def finish(outcome, level_used, retries, verdicts):
        if not hypothesis_ok:
            label = "hypothesis-violated"
            conclusion = "degree hypothesis fails; run is exploratory only"
        else:
            label = outcome
            if outcome == "pass":
                conclusion = (
                    f"H^0_m(H^{i}_I(R)) = 0 at the given point "
                    "(torsion killed; Lyubeznik 1997, Prop. 2.3)"
                )
            else:
                conclusion = f"no level up to {lim.level_cap} certified the kill"
        return VanishingCertificate(
            p=ring.p,
            n=ring.n,
            s=len(f),
            i=i,
            point=pt.coords if pt is not None else (0,) * ring.n,
            generators=tuple(str(g) for g in f),
            sum_deg=total,
            hypothesis_ok=hypothesis_ok,
            outcome=label,
            torsion_finite=tors.finite,
            torsion_length=tors.length,
            num_torsion_generators=len(tors.generators),
            level_used=level_used,
            retries=retries,
            verdicts=tuple(verdicts),
            conclusion=conclusion,
        )

    if not tors.generators:
        return finish("pass", None, 0, ())

    reps = PolyMatrix(ring, k1.rank(i), ker)._times(tors.generators)
    if not all(any(rep) for rep in reps):
        raise AssertionError("torsion generator lifted to zero representative")
    dmax = max(g.total_degree() for rep in reps for g in rep if g)
    l0 = level.l if level is not None else level_for_degree(ring.p, dmax).l
    if l0 > lim.level_cap:
        return finish("inconclusive", None, 0, ())
    im_1 = k1.diffs[i - 1].columns if i > 0 else ()
    imgb_1 = module_gb(ring, im_1, lim) if im_1 else ()
    retries = 0
    verdicts: list = []
    walk = _multiplier_levels(fs, ring.p)
    for l in range(1, lim.level_cap + 1):
        mults = next(walk)
        if l < l0:
            continue
        lvl = FrobeniusLevel(ring.p, l)
        phis = _phi_with_complexes(k1, lvl, mults)
        imgb = tuple(tuple(frobenius_power(g, lvl) for g in v) for v in imgb_1)
        verdicts = []
        for rep in reps:
            image = phis[i].apply(rep)
            nf = module_normal_form(ring, image, imgb, lim) if imgb else image
            verdicts.append(not any(nf))
        if all(verdicts):
            return finish("pass", l, retries, verdicts)
        retries += 1
    return finish("inconclusive", None, retries, verdicts)
