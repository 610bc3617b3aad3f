"""Free modules over the polynomial ring: Groebner bases, syzygies,
presentations, resolutions, and the m-torsion submodule.

Vectors in R^r are tuples of polynomials at the API level.  Internally a
vector is one flat dict {(component, monomial): coeff} so the reduction
loops mirror the ideal case.  The module order is position-over-term:
component 0 dominates, ties broken by the ring's monomial order.  Module
Buchberger runs without the product or chain criteria; the product
criterion is unsound for modules and the inputs here are small enough
that the chain criterion is not worth the risk.

Syzygies use the tag-component form of Schreyer's construction: append
one tag component per input column, compute a module basis where the
real components dominate, and read the syzygy generators off the
elements whose real part vanished.  Each syzygy is an exact certificate;
tests verify them by substitution.

Resolutions iterate syzygies until a kernel vanishes.  The minimal
graded resolution is obtained by Gaussian cancellation of constant
entries, and projective dimension reads its length; depth follows by the
Auslander-Buchsbaum formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import product as _iproduct
from operator import add, le, sub
from typing import Optional, Sequence, Tuple

from .config import Budget, EngineLimits, resolve_limits
from .errors import NonHomogeneousError, ResourceLimitError, RingMismatchError
from .groebner import Ideal
from .polycore import Polynomial, PolyRing, RationalPoint, mono_divides

__all__ = [
    "PolyMatrix",
    "ModulePresentation",
    "Resolution",
    "TorsionData",
    "module_gb",
    "module_normal_form",
    "syzygies",
    "kernel_of_map",
    "subquotient_presentation",
    "free_resolution",
    "minimize_resolution",
    "quotient_presentation",
    "projective_dimension",
    "depth",
    "module_h0m",
    "finite_length_data",
]

FreeElem = Tuple[Polynomial, ...]


# ---------------------------------------------------------------------------
# raw vector layer: {(component, monomial): coeff}

def _vec_from_free(col: Sequence[Polynomial]) -> dict:
    v = {}
    for c, g in enumerate(col):
        for a, cc in g.terms.items():
            v[(c, a)] = cc
    return v


def _free_from_vec(v: dict, rank: int, ring: PolyRing) -> FreeElem:
    comps: list = [{} for _ in range(rank)]
    for (c, a), cc in v.items():
        comps[c][a] = cc
    return tuple(Polynomial(ring, t, _raw=True) for t in comps)


def _vkey(ring: PolyRing):
    k = ring.key

    def vk(cm):
        return (-cm[0], k(cm[1]))

    return vk


def _vadd_scaled(acc: dict, src: dict, coeff: int, shift: tuple, p: int) -> None:
    """acc += coeff * x^shift * src, in place."""
    for (c, a), v in src.items():
        m = (c, tuple(x + y for x, y in zip(a, shift)))
        w = (acc.get(m, 0) + coeff * v) % p
        if w:
            acc[m] = w
        else:
            acc.pop(m, None)


def _vmonic(v: dict, lead, p: int) -> dict:
    c = v[lead]
    if c == 1:
        return v
    inv = pow(c, -1, p)
    return {m: (w * inv) % p for m, w in v.items()}


def _vreduce(v: dict, divisors: Sequence, ring: PolyRing, budget: Budget) -> dict:
    """Full normal form against monic (lead, vec) divisors.

    Heap-ordered like groebner._reduce: the pending terms sit in a
    min-heap on (component, ring.rkey(monomial)), h keeps cancelled
    terms at coefficient 0, and those are skipped when popped.  The
    result lists its terms in descending order: its lead comes first.
    """
    p = ring.p
    rkey = ring.rkey
    h = dict(v)
    heap = [(cm[0], rkey(cm[1]), cm) for cm in h]
    heapify(heap)
    out: dict = {}
    while heap:
        lead = heappop(heap)[2]
        c = h[lead]
        if not c:
            continue
        comp, mono = lead
        for (dc, dm), dvec in divisors:
            if dc == comp and all(map(le, dm, mono)):
                break
        else:
            out[lead] = c
            continue
        budget.step()
        shift = tuple(map(sub, mono, dm))
        coeff = p - c
        for (tc, a), w in dvec.items():
            m = (tc, tuple(map(add, a, shift)))
            old = h.get(m)
            if old is None:
                h[m] = coeff * w % p
                heappush(heap, (tc, rkey(m[1]), m))
            else:
                h[m] = (old + coeff * w) % p
    return out


def _vcanonical_input(vecs: Sequence[dict], ring: PolyRing) -> list:
    p = ring.p
    vk = _vkey(ring)
    seen: list = []
    out = []
    for v in vecs:
        if not v:
            continue
        lead = max(v, key=vk)
        m = _vmonic(v, lead, p)
        if m in seen:
            continue
        seen.append(m)
        out.append((lead, m))
    out.sort(key=lambda e: (vk(e[0]), sorted(e[1].items())), reverse=True)
    return out


def _module_buchberger(vecs: Sequence[dict], ring: PolyRing, limits: EngineLimits) -> list:
    """Reduced module basis of the span of `vecs`, position-over-term order."""
    p = ring.p
    budget = Budget(limits)
    G = _vcanonical_input(vecs, ring)
    if not G:
        return []
    pairs = [(i, j) for j in range(len(G)) for i in range(j) if G[i][0][0] == G[j][0][0]]

    def pair_key(ij):
        i, j = ij
        (c, ai) = G[i][0]
        aj = G[j][0][1]
        return (-c, ring.key(tuple(max(x, y) for x, y in zip(ai, aj))), i, j)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        budget.step()
        (c, ai), ti = G[i]
        aj, tj = G[j][0][1], G[j][1]
        u = tuple(max(x, y) for x, y in zip(ai, aj))
        s: dict = {}
        _vadd_scaled(s, ti, 1, tuple(x - y for x, y in zip(u, ai)), p)
        _vadd_scaled(s, tj, p - 1, tuple(x - y for x, y in zip(u, aj)), p)
        r = _vreduce(s, G, ring, budget)
        if r:
            if len(G) >= limits.max_basis:
                raise ResourceLimitError("module basis size", limits.max_basis)
            lead = next(iter(r))  # _vreduce emits terms in descending order
            k = len(G)
            G.append((lead, _vmonic(r, lead, p)))
            pairs.extend((i2, k) for i2 in range(k) if G[i2][0][0] == lead[0])
    return _vinterreduce(G, ring, budget)


def _vinterreduce(G: list, ring: PolyRing, budget: Budget) -> list:
    vk = _vkey(ring)
    p = ring.p
    kept: list = []
    for idx in sorted(range(len(G)), key=lambda t: vk(G[t][0])):
        (c, a) = G[idx][0]
        if any(kc == c and mono_divides(ka, a) for (kc, ka), _ in kept):
            continue
        kept.append(G[idx])
    kept.sort(key=lambda e: vk(e[0]), reverse=True)
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        r = _vreduce(kept[i][1], others, ring, budget)
        lead = next(iter(r))
        kept[i] = (lead, _vmonic(r, lead, p))
    kept.sort(key=lambda e: vk(e[0]), reverse=True)
    return [v for _, v in kept]


def _gb_pairs(gb: Sequence[dict], ring: PolyRing) -> list:
    """Monic (lead, vec) divisors for _vreduce, in basis order."""
    vk = _vkey(ring)
    out = []
    for v in gb:
        lead = max(v, key=vk)
        out.append((lead, _vmonic(v, lead, ring.p)))
    return out


def _syzygies_raw(cols: Sequence[dict], rank: int, ring: PolyRing, limits: EngineLimits) -> list:
    """Generators of {a in R^k : sum a_j cols_j = 0}, k = len(cols)."""
    k = len(cols)
    if k == 0:
        return []
    aug = []
    zero = ring.zero_mono()
    for j, col in enumerate(cols):
        w = dict(col)
        w[(rank + j, zero)] = 1
        aug.append(w)
    G = _module_buchberger(aug, ring, limits)
    syz = []
    for u in G:
        if all(c >= rank for (c, _a) in u):
            syz.append({(c - rank, a): v for (c, a), v in u.items()})
    return syz


# ---------------------------------------------------------------------------
# public module layer

def module_gb(
    ring: PolyRing, vectors: Sequence[Sequence[Polynomial]], limits: Optional[EngineLimits] = None
) -> tuple:
    """Reduced module basis (monic, tail-reduced, descending leads)."""
    rank = _common_rank(vectors)
    gb = _module_buchberger([_vec_from_free(v) for v in vectors], ring, resolve_limits(limits))
    return tuple(_free_from_vec(v, rank, ring) for v in gb)


def module_normal_form(
    ring: PolyRing,
    vec: Sequence[Polynomial],
    basis: Sequence[Sequence[Polynomial]],
    limits: Optional[EngineLimits] = None,
) -> FreeElem:
    rank = len(vec)
    budget = Budget(resolve_limits(limits))
    gb = [_vec_from_free(v) for v in basis if any(v)]
    r = _vreduce(_vec_from_free(vec), _gb_pairs(gb, ring), ring, budget)
    return _free_from_vec(r, rank, ring)


def syzygies(
    ring: PolyRing, columns: Sequence[Sequence[Polynomial]], limits: Optional[EngineLimits] = None
) -> tuple:
    """Syzygy generators of the given columns, each verified by substitution
    in the tests: sum_j syz_j * columns_j == 0 exactly."""
    if not columns:
        return ()
    rank = _common_rank(columns)
    raw = _syzygies_raw([_vec_from_free(c) for c in columns], rank, ring, resolve_limits(limits))
    return tuple(_free_from_vec(v, len(columns), ring) for v in raw)


def _common_rank(vectors: Sequence[Sequence[Polynomial]]) -> int:
    ranks = {len(v) for v in vectors}
    if len(ranks) > 1:
        raise ValueError(f"columns of mixed ranks: {sorted(ranks)}")
    return ranks.pop() if ranks else 0


@dataclass(frozen=True)
class PolyMatrix:
    """A map R^cols -> R^rows given by its column images."""

    ring: PolyRing
    rows: int
    columns: Tuple[FreeElem, ...]

    def __post_init__(self):
        for col in self.columns:
            if len(col) != self.rows:
                raise ValueError(f"column of length {len(col)}, expected {self.rows}")
            for g in col:
                if g.ring != self.ring:
                    raise RingMismatchError(f"{g.ring} entry in {self.ring} matrix")

    @classmethod
    def from_columns(cls, ring: PolyRing, rows: int, cols: Sequence[Sequence[Polynomial]]):
        return cls(ring, rows, tuple(tuple(c) for c in cols))

    @property
    def cols(self) -> int:
        return len(self.columns)

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j][i]

    def column(self, j: int) -> FreeElem:
        return self.columns[j]

    def apply(self, vec: Sequence[Polynomial]) -> FreeElem:
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)}, expected {self.cols}")
        out = [Polynomial.zero(self.ring) for _ in range(self.rows)]
        for j, vj in enumerate(vec):
            if not vj:
                continue
            col = self.columns[j]
            for i in range(self.rows):
                if col[i]:
                    out[i] = out[i] + vj * col[i]
        return tuple(out)

    def compose(self, other: "PolyMatrix") -> "PolyMatrix":
        """self o other, defined when other maps into self's source."""
        if other.rows != self.cols:
            raise ValueError(f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        return PolyMatrix(self.ring, self.rows, tuple(self.apply(c) for c in other.columns))

    def is_zero(self) -> bool:
        return all(not g for col in self.columns for g in col)


@dataclass(frozen=True)
class ModulePresentation:
    """coker(relations: R^k -> R^rank); shifts grade the generators when set."""

    ring: PolyRing
    rank: int
    relations: PolyMatrix
    shifts: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.relations.rows != self.rank:
            raise ValueError(
                f"relations map into R^{self.relations.rows}, presentation rank {self.rank}"
            )
        if self.shifts is not None:
            if len(self.shifts) != self.rank:
                raise ValueError("one shift per generator required")
            self.column_degrees()  # raises when not homogeneous

    def column_degrees(self) -> tuple:
        """Degree of each relation column in the shifted grading."""
        if self.shifts is None:
            raise NonHomogeneousError("presentation carries no grading data")
        degs = []
        for col in self.relations.columns:
            d = None
            for i, g in enumerate(col):
                if not g:
                    continue
                if not g.is_homogeneous():
                    raise NonHomogeneousError(f"relation entry {g} is not homogeneous")
                gd = g.total_degree() + self.shifts[i]
                if d is None:
                    d = gd
                elif d != gd:
                    raise NonHomogeneousError("relation column is not homogeneous in the shifts")
            degs.append(d)
        return tuple(degs)

    @classmethod
    def free(cls, ring: PolyRing, rank: int, shifts: Optional[Tuple[int, ...]] = None):
        return cls(ring, rank, PolyMatrix(ring, rank, ()), shifts)


def quotient_presentation(I: Ideal) -> ModulePresentation:
    """R/I as a rank-1 presentation; graded when the generators are."""
    ring = I.ring
    cols = tuple((g,) for g in I.gens)
    shifts = (0,) if all(g.is_homogeneous() for g in I.gens) else None
    return ModulePresentation(ring, 1, PolyMatrix(ring, 1, cols), shifts)


def kernel_of_map(mat: PolyMatrix, limits: Optional[EngineLimits] = None) -> tuple:
    """Generators of ker(mat) in R^cols."""
    if mat.cols == 0:
        return ()
    raw = _syzygies_raw(
        [_vec_from_free(c) for c in mat.columns], mat.rows, mat.ring, resolve_limits(limits)
    )
    return tuple(_free_from_vec(v, mat.cols, mat.ring) for v in raw)


def _presentation_raw(
    gens: Sequence[dict], modulo: Sequence[dict], rank: int, ring: PolyRing, limits: EngineLimits
) -> ModulePresentation:
    """Presentation of (span(gens) + span(modulo)) / span(modulo)."""
    u = len(gens)
    if u == 0:
        return ModulePresentation(ring, 0, PolyMatrix(ring, 0, ()))
    combined = list(gens) + [m for m in modulo if m]
    syz = _syzygies_raw(combined, rank, ring, limits)
    rels = []
    for s in syz:
        proj = {(c, a): v for (c, a), v in s.items() if c < u}
        if proj and proj not in rels:
            rels.append(proj)
    cols = tuple(_free_from_vec(v, u, ring) for v in rels)
    return ModulePresentation(ring, u, PolyMatrix(ring, u, cols))


def subquotient_presentation(
    ring: PolyRing,
    ker_gens: Sequence[Sequence[Polynomial]],
    im_gens: Sequence[Sequence[Polynomial]],
    limits: Optional[EngineLimits] = None,
) -> ModulePresentation:
    """Presentation of span(ker_gens)/span(im_gens).

    The inclusion im <= span(ker) is checked; a failure signals a broken
    complex upstream, not bad user input.
    """
    lim = resolve_limits(limits)
    kv = [_vec_from_free(v) for v in ker_gens]
    iv = [_vec_from_free(v) for v in im_gens]
    iv = [v for v in iv if v]
    if kv:
        rank = _common_rank(list(ker_gens) + list(im_gens))
        gb = _gb_pairs(_module_buchberger(kv, ring, lim), ring)
        budget = Budget(lim)
        for v in iv:
            if _vreduce(v, gb, ring, budget):
                raise ValueError("image generators do not lie in the kernel span")
    elif iv:
        raise ValueError("image generators do not lie in the kernel span")
    else:
        rank = 0
    return _presentation_raw(kv, iv, rank, ring, lim)


# ---------------------------------------------------------------------------
# resolutions

@dataclass(frozen=True)
class Resolution:
    """F_0 <- F_1 <- ... with maps[k]: F_{k+1} -> F_k; composites vanish."""

    ring: PolyRing
    base_rank: int
    maps: Tuple[PolyMatrix, ...]
    shifts: Optional[Tuple[Tuple[int, ...], ...]] = None

    def __post_init__(self):
        rows = self.base_rank
        for m in self.maps:
            if m.rows != rows:
                raise ValueError("resolution ranks do not chain")
            rows = m.cols
        for k in range(len(self.maps) - 1):
            if not self.maps[k].compose(self.maps[k + 1]).is_zero():
                raise ValueError(f"composite of maps {k} and {k + 1} is nonzero")

    @property
    def ranks(self) -> tuple:
        return (self.base_rank,) + tuple(m.cols for m in self.maps)

    @property
    def length(self) -> int:
        ranks = self.ranks
        last = 0
        for k, r in enumerate(ranks):
            if r > 0:
                last = k
        return last


def free_resolution(
    pres: ModulePresentation,
    limits: Optional[EngineLimits] = None,
    max_len: Optional[int] = None,
) -> Resolution:
    """Iterated syzygies until a kernel vanishes; exact by construction.

    Redundant generators are dropped at every step (membership in the
    span of the others), so the ranks stay small and graded input
    terminates within n steps.
    """
    ring = pres.ring
    lim = resolve_limits(limits)
    if max_len is None:
        max_len = ring.n + 4
    maps: list = []
    cols = [_vec_from_free(c) for c in pres.relations.columns]
    cols = _prune_generators(_dedupe_nonzero(cols), ring, lim)
    cur_rank = pres.rank
    while cols:
        if len(maps) >= max_len:
            raise ResourceLimitError("resolution length", max_len)
        maps.append(
            PolyMatrix(ring, cur_rank, tuple(_free_from_vec(v, cur_rank, ring) for v in cols))
        )
        syz = _syzygies_raw(cols, cur_rank, ring, lim)
        cur_rank = len(cols)
        cols = _prune_generators(_dedupe_nonzero(syz), ring, lim)
    shifts = _resolution_shifts(pres, maps)
    return Resolution(ring, pres.rank, tuple(maps), shifts)


def _dedupe_nonzero(vecs: Sequence[dict]) -> list:
    out: list = []
    for v in vecs:
        if v and v not in out:
            out.append(v)
    return out


def _prune_generators(vecs: list, ring: PolyRing, lim: EngineLimits) -> list:
    """Drop generators lying in the span of the remaining ones."""
    out = list(vecs)
    i = 0
    while i < len(out):
        others = out[:i] + out[i + 1:]
        if others:
            gb = _gb_pairs(_module_buchberger(others, ring, lim), ring)
            if not _vreduce(out[i], gb, ring, Budget(lim)):
                out.pop(i)
                continue
        i += 1
    return out


def _resolution_shifts(pres: ModulePresentation, maps: Sequence[PolyMatrix]):
    if pres.shifts is None:
        return None
    shifts = [tuple(pres.shifts)]
    try:
        for m in maps:
            cur = shifts[-1]
            nxt = []
            for col in m.columns:
                d = None
                for i, g in enumerate(col):
                    if not g:
                        continue
                    if not g.is_homogeneous():
                        raise NonHomogeneousError("entry not homogeneous")
                    gd = g.total_degree() + cur[i]
                    if d is None:
                        d = gd
                    elif d != gd:
                        raise NonHomogeneousError("column not homogeneous")
                nxt.append(d if d is not None else 0)
            shifts.append(tuple(nxt))
    except NonHomogeneousError:
        return None
    return tuple(shifts)


def _is_unit_entry(g: Polynomial) -> bool:
    return len(g.terms) == 1 and not any(next(iter(g.terms)))


def minimize_resolution(res: Resolution) -> Resolution:
    """Cancel constant entries (Gaussian elimination over R) until none
    remain; for graded input this yields the minimal resolution."""
    ring = res.ring
    p = ring.p
    zero = Polynomial.zero(ring)
    base_rank = res.base_rank
    # mutable copy: mats[k] is a list of columns, each a list of entries
    mats = [[list(col) for col in m.columns] for m in res.maps]

    def find_unit():
        for k, A in enumerate(mats):
            for j, col in enumerate(A):
                for i, g in enumerate(col):
                    if g and _is_unit_entry(g):
                        return k, i, j
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        k, i, j = hit
        A = mats[k]
        uinv = pow(A[j][i].terms[ring.zero_mono()], -1, p)
        # column operations clear row i; mirror as row ops on the next map
        lam = {}
        for j2 in range(len(A)):
            if j2 == j or not A[j2][i]:
                continue
            l = A[j2][i] * uinv
            lam[j2] = l
            A[j2] = [A[j2][r] - l * A[j][r] for r in range(len(A[j2]))]
        if lam and k + 1 < len(mats):
            for col in mats[k + 1]:
                acc = col[j]
                for j2, l in lam.items():
                    acc = acc + l * col[j2]
                col[j] = acc
        # row operations clear column j; mirror as column ops on the previous map
        mu = {}
        for i2 in range(len(A[j])):
            if i2 == i or not A[j][i2]:
                continue
            m = A[j][i2] * uinv
            mu[i2] = m
            for j2 in range(len(A)):
                if A[j2][i]:
                    A[j2][i2] = A[j2][i2] - m * A[j2][i]
        if mu and k >= 1:
            B = mats[k - 1]
            acc = list(B[i])
            for i2, m in mu.items():
                acc = [acc[r] + m * B[i2][r] for r in range(len(acc))]
            B[i] = acc
        # split off the trivial R --u--> R summand
        del A[j]
        for col in A:
            del col[i]
        if k + 1 < len(mats):
            for col in mats[k + 1]:
                if col[j]:
                    raise AssertionError("cancelled generator still hit by the next map")
                del col[j]
        if k >= 1:
            if any(mats[k - 1][i]):
                raise AssertionError("cancelled generator still maps down")
            del mats[k - 1][i]
        else:
            base_rank -= 1
    while mats and not mats[-1]:
        mats.pop()
    rows = base_rank
    rebuilt = []
    for A in mats:
        rebuilt.append(PolyMatrix(ring, rows, tuple(tuple(col) for col in A)))
        rows = len(A)
    out = Resolution(ring, base_rank, tuple(rebuilt))
    if res.shifts is not None and rebuilt:
        pres = ModulePresentation(
            ring, base_rank, rebuilt[0], _minimized_shifts(res, base_rank, rebuilt)
        )
        out = Resolution(ring, base_rank, tuple(rebuilt), _resolution_shifts(pres, rebuilt))
    return out


def _minimized_shifts(res: Resolution, base_rank: int, rebuilt: Sequence[PolyMatrix]):
    # base shifts cannot be recovered from the matrices alone when rank
    # dropped at level 0; for quotient presentations the base stays rank 1
    if res.shifts is not None and len(res.shifts[0]) == base_rank:
        return tuple(res.shifts[0])
    return None


def projective_dimension(
    pres: ModulePresentation,
    limits: Optional[EngineLimits] = None,
    max_len: Optional[int] = None,
) -> int:
    """Length of the minimal graded resolution.  Graded input only."""
    if pres.shifts is None:
        raise NonHomogeneousError("projective dimension needs a graded presentation")
    res = free_resolution(pres, limits, max_len)
    return minimize_resolution(res).length


def depth(
    pres: ModulePresentation,
    limits: Optional[EngineLimits] = None,
) -> int:
    """depth = n - pd by Auslander-Buchsbaum, for graded presentations."""
    return pres.ring.n - projective_dimension(pres, limits)


# ---------------------------------------------------------------------------
# m-torsion: (0 :_M m^infinity)

@dataclass(frozen=True)
class TorsionData:
    """The m_a-torsion submodule of a presented module.

    generators: vectors in R^rank of the input presentation whose classes
    generate the torsion submodule (already reduced mod the relations).
    When the point is not the origin the presentation is computed in
    translated coordinates and the generators are translated back.
    """

    presentation: ModulePresentation
    generators: Tuple[FreeElem, ...]
    finite: bool
    length: Optional[int]


def _module_colon_poly(
    gens: Sequence[dict], f: Polynomial, rank: int, ring: PolyRing, limits: EngineLimits
) -> list:
    """Generators of {v in R^rank : f*v in span(gens)}."""
    fcols = []
    for c in range(rank):
        fcols.append({(c, a): v for a, v in f.terms.items()})
    cols = fcols + list(gens)
    syz = _syzygies_raw(cols, rank, ring, limits)
    out: list = []
    for s in syz:
        proj = {(c, a): v for (c, a), v in s.items() if c < rank}
        if proj and proj not in out:
            out.append(proj)
    return out


def _module_intersect(
    A: Sequence[dict], B: Sequence[dict], rank: int, ring: PolyRing, limits: EngineLimits
) -> list:
    cols = list(A) + list(B)
    syz = _syzygies_raw(cols, rank, ring, limits)
    out: list = []
    for s in syz:
        w: dict = {}
        for (idx, mono), coeff in s.items():
            if idx < len(A):
                _vadd_scaled(w, A[idx], coeff, mono, ring.p)
        if w and w not in out:
            out.append(w)
    return out


def _module_saturation_origin(
    gens: Sequence[dict], rank: int, ring: PolyRing, limits: EngineLimits
) -> list:
    """Saturation of span(gens) <= R^rank with respect to m = (x1..xn)."""
    mvars = [Polynomial.variable(ring, k) for k in range(1, ring.n + 1)]
    cur = _module_buchberger(list(gens), ring, limits)
    for _ in range(limits.max_rounds):
        quot = None
        for xv in mvars:
            q = _module_colon_poly(cur, xv, rank, ring, limits)
            quot = q if quot is None else _module_intersect(quot, q, rank, ring, limits)
        qgb = _module_buchberger(quot, ring, limits)
        if qgb == cur:
            return cur
        cur = qgb
    raise ResourceLimitError("module saturation rounds", limits.max_rounds)


def module_h0m(
    pres: ModulePresentation,
    point=None,
    limits: Optional[EngineLimits] = None,
) -> TorsionData:
    """Presentation of (0 :_M m_a^infinity) with finite-length detection.

    Saturates the relation submodule at the (translated) origin, reduces
    the saturation generators mod the relations to get torsion
    generators, presents the subquotient, and counts its staircase.
    """
    ring = pres.ring
    lim = resolve_limits(limits)
    rank = pres.rank
    if rank == 0:
        return TorsionData(pres, (), True, 0)
    pt = None
    if point is not None:
        pt = point if isinstance(point, RationalPoint) else RationalPoint(ring, point)
        if pt.is_origin():
            pt = None
    cols = []
    for col in pres.relations.columns:
        if pt is not None:
            col = tuple(g.translate(pt) for g in col)
        v = _vec_from_free(col)
        if v:
            cols.append(v)
    sat = _module_saturation_origin(cols, rank, ring, lim)
    ngb = _gb_pairs(_module_buchberger(cols, ring, lim), ring)
    budget = Budget(lim)
    vk = _vkey(ring)
    tors: list = []
    for v in sat:
        r = _vreduce(v, ngb, ring, budget)
        if r:
            r = _vmonic(r, next(iter(r)), ring.p)
            if r not in tors:
                tors.append(r)
    tors.sort(key=lambda v: vk(max(v, key=vk)), reverse=True)
    presentation = _presentation_raw(tors, cols, rank, ring, lim)
    finite, length = finite_length_data(presentation, lim)
    gens = [_free_from_vec(v, rank, ring) for v in tors]
    if pt is not None:
        back = -pt
        gens = [tuple(g.translate(back) for g in col) for col in gens]
    return TorsionData(presentation, tuple(gens), finite, length)


def finite_length_data(
    pres: ModulePresentation, limits: Optional[EngineLimits] = None
) -> tuple:
    """(finite, length): whether coker(relations) has a finite staircase,
    and the count of standard monomials across components when it does."""
    ring = pres.ring
    lim = resolve_limits(limits)
    rank = pres.rank
    if rank == 0:
        return True, 0
    rel = [_vec_from_free(col) for col in pres.relations.columns]
    rel = [v for v in rel if v]
    gb = _module_buchberger(rel, ring, lim)
    vk = _vkey(ring)
    leads: dict = {}
    for v in gb:
        c, a = max(v, key=vk)
        leads.setdefault(c, []).append(a)
    n = ring.n
    total = 0
    for c in range(rank):
        L = leads.get(c, [])
        bounds = []
        for k in range(n):
            pure = [a[k] for a in L if all(e == 0 for i2, e in enumerate(a) if i2 != k)]
            if not pure:
                return False, None
            bounds.append(min(pure))
        box = 1
        for b in bounds:
            box *= b
        if total + box > lim.max_length:
            raise ResourceLimitError("length count", lim.max_length)
        for mono in _iproduct(*(range(b) for b in bounds)):
            if not any(mono_divides(a, mono) for a in L):
                total += 1
    return True, total
