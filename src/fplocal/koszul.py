"""Koszul cocomplexes on powers of a polynomial list, the Frobenius
chain map between levels, cohomology presentations, and the torsion
vanishing verifier.

Coordinates of K^j are labeled by strictly increasing tuples
(a_1 < ... < a_j) of generator indices (1-based).  The differential
sends the coordinate at a (j+1)-tuple T to

    sum over v of (-1)^v f_{T[v]}^t * r_{T minus T[v]}    (v 1-based)

and d compose d = 0 is checked on packs for every constructed complex.
The sign starts at -1 in degree 0; signs cancel in composites and do
not affect cohomology.

Between exponent t=1 and t=q the multiplication maps

    phi^j = diag( M_T(q) ),   M_T(q) = prod over a in T of f_a^{q-1}

form a chain map (checked exactly), and iterating them realizes the
directed system whose limit is the local cohomology module.  The
verifier computes the m-torsion of H^i at level 1 and certifies that
phi pushes every torsion generator into the image of the level-q
differential, which kills its class downstream (Lyubeznik 1997,
Prop. 2.3 supplies the limit argument).

The level walk is frobenius_walk, on packs: the multipliers follow the
recurrence M_T(pq) = F(M_T(q)) * M_T(p), where F, the p-th power,
multiplies a pack by p, built up from level 1 even when the walk starts
higher, in one polycore product layout that holds p^h * sum deg f plus
the degree of the torsion representatives up to the walk's horizon h,
so neither a product nor a Frobenius step can carry.  The level-q
differential is F^e(d_1) entrywise, and every level tried checks both
identities exactly on packs: d_q o phi = phi o d_1, and d_q o d_q = 0
(polycore._vanishes accumulates each sum of products and reduces it mod
p once).  The first is multiplied out on one entry per nonempty subset
T, 2^s - 1 of the s * 2^(s-1) entries, after every entry of d_q is
compared with F^e(d_1); R is a domain, so these force the multipliers
to be M_() * prod f_a^{q-1}, which satisfy every entry
(_check_chain_map has the proof).  The images phi(rep) of the torsion
representatives stay packed too: each is multiplied out with _mul_acc
straight off the walk's multipliers, its entries placed at their
components in the walk's layout, and handed to the membership entry
groebner._reduces_to_zero, which moves it into the engine's layout and
decides it on packs, at the width its degree deg rep + (q-1) * deg M_T
asks for; nothing of the image is unpacked.  The reduced basis of im d_q
is that of im d_1, scaled
(groebner._Divisors.scaled), and the basis of im d_1 is the one that
presenting H^i was computed modulo (modres._subquotient): no level runs
Buchberger on the image.  The torsion is taken on that presentation's
relation basis (modres._torsion), which is not built again; at i = s,
where ker d^s is spanned by the unit vector, that relation basis is im
d_{s-1}'s basis itself (modres._presentation_raw).  Below i = s, ker
d^i's generators are the reduced basis of the syzygies of d^i, and
_subquotient checks the image against that basis, not a second one.
phi_chain_map is the same walk and check, unpacked into matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Optional, Sequence, Tuple

from .config import Budget, EngineLimits, resolve_limits
from .frobenius import FrobeniusLevel, _check_level, frobenius_walk, level_for_degree
from .groebner import _reduces_to_zero, _syzygies_raw
from .modres import (
    ModulePresentation,
    PolyMatrix,
    _free_from_vec,
    _subquotient,
    _torsion,
    _vec_from_free,
)
from .polycore import (
    Polynomial,
    PolyRing,
    _Layout,
    _mul_acc,
    _normalize_point,
    _product_layout,
    _ring_of,
    _sum_deg,
    _translate,
    _vanishes,
)

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


def _koszul_entries(ft: Sequence[Polynomial], index_maps: tuple) -> dict:
    """{(T, S): (-1)^v g_a}, the nonzero entries of the differential on
    (g_1, ..., g_s) = ft, where T is S with the index a added at 1-based
    position v."""
    s = len(ft)
    out = {}
    for tuples in index_maps[:-1]:
        for S in tuples:
            for a in range(1, s + 1):
                if a in S:
                    continue
                T = tuple(sorted(S + (a,)))
                v = T.index(a) + 1
                out[T, S] = -ft[a - 1] if v % 2 else ft[a - 1]
    return out


def _check_complex(d: dict, index_maps: tuple, p: int) -> None:
    """d compose d = 0 on the packed entries d[T, S]: from each S to each
    U = S + {a, b} the paths through S + {a} and S + {b} must cancel.
    Raises ValueError at the first degree where they do not."""
    s = len(index_maps) - 1
    for j, tuples in enumerate(index_maps[:-2]):
        for S in tuples:
            rest = [a for a in range(1, s + 1) if a not in S]
            for a, b in combinations(rest, 2):
                U = tuple(sorted(S + (a, b)))
                Ta, Tb = tuple(sorted(S + (a,))), tuple(sorted(S + (b,)))
                if not _vanishes(((d[U, Ta], d[Ta, S]), (d[U, Tb], d[Tb, S])), p):
                    raise ValueError(f"differential composite nonzero at degree {j}")


def build_koszul(f: Sequence[Polynomial], t: int = 1) -> KoszulComplex:
    """The cocomplex on (f_1^t, ..., f_s^t); d compose d = 0 is checked
    on packs."""
    f = tuple(f)
    ring = _ring_of(f)
    if not all(f):
        raise ValueError("zero generator in Koszul input")
    if t < 1:
        raise ValueError(f"exponent must be >= 1, got {t}")
    s = len(f)
    ft = [g ** t for g in f]
    index_maps = tuple(tuple(combinations(range(1, s + 1), j)) for j in range(s + 1))
    entries = _koszul_entries(ft, index_maps)
    zero = Polynomial.zero(ring)
    diffs = tuple(
        PolyMatrix(ring, len(index_maps[j + 1]), tuple(
            tuple(entries.get((T, S), zero) for T in index_maps[j + 1]) for S in index_maps[j]
        ))
        for j in range(s)
    )
    lay = _product_layout(ring.n, 2 * max(g.total_degree() for g in ft))
    _check_complex(_packed(entries, lay), index_maps, ring.p)
    return KoszulComplex(ring, f, t, diffs, index_maps)


def _packed(entries: dict, lay: _Layout) -> dict:
    return {k: lay.pack_terms(g.terms) for k, g in entries.items()}


def _level_entries(d1: dict, q: int) -> dict:
    """The level-q differential's packed entries: F^e(d_1) entrywise,
    x^a -> x^(qa) on every pack.  The signs carry over: q is odd for odd
    p, and -1 = 1 in F_2."""
    return {k: {t * q: c for t, c in e.items()} for k, e in d1.items()}


def _check_chain_map(d1: dict, mults: dict, q: int, index_maps: tuple, p: int) -> None:
    """The exact identities of the level-q chain map, on packs.  d1 holds
    the packed level-1 entries and mults[T] is M_T(q), both in one layout
    that holds degree q * sum deg f.

    - Every entry of d_q is F^e(d_1[T, S]), d_1[T, S] with each pack
      multiplied by q.
    - For each nonempty T, one entry of d_q o phi = phi o d_1:
      F^e(d_1[T, S]) * M_S == M_T * d_1[T, S] with S = T minus {a}, a the
      index in T whose f_a has the fewest terms (the smallest on ties).
    - d_q o d_q = 0 (_check_complex).

    These imply every entry of d_q o phi = phi o d_1 (phi is diagonal, so
    its entries are all the identities F^e(d_1[T, S]) * M_S == M_T *
    d_1[T, S]).  d_1[T, S] = +-f_a and F^e(d_1[T, S]) = +-f_a^q with the
    same sign (q is odd for odd p, and -1 = 1 in F_2), so the checked
    entry reads f_a * (f_a^(q-1) * M_S - M_T) = 0, and R is a domain:
    M_T = f_a^(q-1) * M_S.  By induction on |T|, M_T = M_() * prod over
    b in T of f_b^(q-1) for every T.  Then any entry T = S + {b} has both
    sides equal to +-f_b^q * M_() * prod over c in S of f_c^(q-1).  So
    2^s - 1 entries are multiplied out, not all s * 2^(s-1).  A failure
    raises ValueError."""
    dq = _level_entries(d1, q)
    for (T, S), e in d1.items():
        if dq[T, S] != {t * q: c for t, c in e.items()}:
            raise ValueError(f"chain map fails to commute at degree {len(S)}")
    for tuples in index_maps[1:]:
        for T in tuples:
            subs = [T[:v] + T[v + 1:] for v in range(len(T))]
            S = min(subs, key=lambda S: len(d1[T, S]))
            minus = {t: p - c for t, c in d1[T, S].items()}
            if not _vanishes(((dq[T, S], mults[S]), (minus, mults[T])), p):
                raise ValueError(f"chain map fails to commute at degree {len(S)}")
    _check_complex(dq, index_maps, p)


def _chain_maps(k1: KoszulComplex, first: int, last: int, extra: int) -> Iterator[tuple]:
    """(l, lay, {T: M_T(q)}) for the levels l = first..last, q = p^l: the
    frobenius_walk of the subset products prod over a in T of f_a, T over
    every increasing tuple of generator indices, the empty one included.
    The largest is prod f, so `lay` holds p^h * sum deg f + extra up to
    the walk's horizon h.  d_1 is packed again whenever the layout
    changes, and each level yielded has passed _check_chain_map: d_q is
    F^e(d_1), one entry per nonempty subset of d_q o phi = phi o d_1,
    which implies all of them, and d_q o d_q = 0."""
    f, p = k1.f, k1.ring.p
    prods = {(): Polynomial.one(k1.ring)}
    for tuples in k1.index_maps[1:]:
        for T in tuples:
            prods[T] = prods[T[:-1]] * f[T[-1] - 1]
    entries = _koszul_entries(f, k1.index_maps)
    packed_in = None
    for l, lay, mults in frobenius_walk(prods, first, last, extra):
        if lay is not packed_in:
            d1, packed_in = _packed(entries, lay), lay
        _check_chain_map(d1, mults, p ** l, k1.index_maps, p)
        yield l, lay, mults


def phi_chain_map(f: Sequence[Polynomial], lvl: FrobeniusLevel) -> tuple:
    """Per-degree diagonal multipliers prod f_a^{q-1}.  They come from
    verify_prop_van's packed walk, built up from level 1, with both
    identities checked exactly on packs (d_q o phi = phi o d_1, on one
    entry per subset, which implies every entry since R is a domain; see
    _check_chain_map; and d_q o d_q = 0), and are unpacked into matrices
    at the end."""
    k1 = build_koszul(f, 1)
    ring = k1.ring
    _check_level(ring, lvl)
    [(_, lay, mults)] = _chain_maps(k1, lvl.l, lvl.l, 0)
    zero = Polynomial.zero(ring)
    phis = []
    for tuples in k1.index_maps:
        cols = []
        for r, T in enumerate(tuples):
            col = [zero] * len(tuples)
            col[r] = Polynomial(ring, lay.unpack_terms(mults[T], ring.p), _raw=True)
            cols.append(tuple(col))
        phis.append(PolyMatrix(ring, len(tuples), tuple(cols)))
    return tuple(phis)


def _cohomology_data(kx: KoszulComplex, i: int, lim: EngineLimits) -> tuple:
    """(kernel generators, presentation, relation basis, image basis):
    ker d^i and modres._subquotient of it by im d^{i-1}.  Below i = s the
    kernel generators are the engine's reduced basis of the syzygies of
    d^i, and that basis goes to _subquotient, which checks the image
    against it: no basis of ker d^i is built twice."""
    s = kx.s
    if i < 0 or i > s:
        raise ValueError(f"cohomological degree {i} outside [0, {s}]")
    ring = kx.ring
    rank = kx.rank(i)
    im = kx.diffs[i - 1].columns if i > 0 else ()
    if i < s:
        cols = [_vec_from_free(c) for c in kx.diffs[i].columns]
        basis = _syzygies_raw(cols, kx.rank(i + 1), ring, lim)
        ker = tuple(_free_from_vec(v, rank, ring) for v in basis.vecs)
        return (ker,) + _subquotient(ring, ker, im, lim, basis)
    zero = Polynomial.zero(ring)
    one = Polynomial.one(ring)
    ker = tuple(tuple(one if r == u else zero for r in range(rank)) for u in range(rank))
    return (ker,) + _subquotient(ring, ker, im, lim)


def koszul_cohomology(
    kx: KoszulComplex, i: int, limits: Optional[EngineLimits] = None
) -> ModulePresentation:
    """Presentation of ker d^i / im d^{i-1}."""
    return _cohomology_data(kx, i, resolve_limits(limits))[1]


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
    The walk stays on packs from level 1 to the cap (see the module
    docstring): each level tried checks d_q o phi = phi o d_1 (on one
    entry per subset, which implies the rest) and d_q o d_q = 0 exactly,
    and the images phi(rep) are tested for membership on packs.
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
    fs = _translate(f, pt) if pt is not None else f
    k1 = build_koszul(fs, 1)
    ker, pres, rels, basis_1 = _cohomology_data(k1, i, lim)
    tors = _torsion(rels, pres.rank, lim)

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
    p = ring.p
    targets = k1.index_maps[i]
    fdeg = [g.total_degree() for g in k1.f]
    retries = 0
    verdicts: list = []
    packed_in = None
    for l, lay, mults in _chain_maps(k1, l0, lim.level_cap, dmax):
        q = p ** l
        basis = basis_1.scaled(q)
        if lay is not packed_in:  # each representative's entries, at their components
            packed = [
                [
                    (T, lay.pack_vec({(c, a): w for a, w in g.terms.items()}))
                    for c, (T, g) in enumerate(zip(targets, rep))
                    if g
                ]
                for rep in reps
            ]
            packed_in = lay
        verdicts = []
        for rep, entries in zip(reps, packed):
            image: dict = {}
            for T, g in entries:
                _mul_acc(image, g, mults[T])  # the entry is the smaller operand
            # R is a domain: M_T * g has degree deg g + (q-1) * sum of deg f_a over T
            deg = max(
                g.total_degree() + (q - 1) * sum(fdeg[a - 1] for a in T)
                for T, g in zip(targets, rep)
                if g
            )
            verdicts.append(_reduces_to_zero(image, lay, deg, basis, ring, Budget(lim)))
        if all(verdicts):
            return finish("pass", l, retries, verdicts)
        retries += 1
    return finish("inconclusive", None, retries, verdicts)
