"""Free modules over the polynomial ring: Groebner bases, syzygies,
presentations, resolutions, and the m-torsion submodule.

Vectors in R^r are tuples of polynomials at the API level.  Internally a
vector is one flat dict {(component, monomial): coeff}, the form the
Buchberger engine in groebner works on; this module holds the
conversions and the module logic, and calls that engine for bases and
normal forms.  The module order is position-over-term: component 0
dominates, ties broken by the ring's monomial order.  Module bases are
computed with the chain criterion, which is sound within one component,
and without the product criterion, which is unsound for modules;
tests/test_module_confluence.py checks module bases by a route that
shares no code with the engine.

Syzygies modulo a submodule come from groebner's tagged kernel,
_syzygies_raw, and the m-torsion from its saturation loop; each syzygy
is an exact certificate, and tests verify them by substitution.  A
submodule goes to the engine as its reduced basis only, so each layer
hands on the basis it holds: _subquotient presents modulo the image's
basis and returns it with the relation basis, checking the image
against the kernel's basis when its caller holds one, and _torsion
saturates the relation basis and presents the torsion modulo it.  The
unit vectors modulo a basis are presented by that basis, with no engine
call (_presentation_raw).  module_h0m and subquotient_presentation are
thin wrappers over these two bodies, which koszul's verifier calls
directly.

Resolutions iterate syzygies until a kernel vanishes, in one pass that
yields the minimal graded resolution.  Constant entries of the
presentation are cancelled first; after that every level's generators
are pruned to an irredundant set, and no syzygy of irredundant
generators has a constant entry.  Pruning keeps the generators that a
front-to-back pass keeps, dropping each one that lies in the span of the
rest.  Graded input takes that pass one degree at a time: one basis of
the kept generators of lower degree per degree, and an F_p echelon of
the normal forms against it (_prune_graded proves the two passes keep
the same generators).  Other input takes it one candidate at a time,
with one basis of the others each.  Projective dimension reads the
resolution's length; localcoh.pd_bound_check reports depth as n - pd by
the Auslander-Buchsbaum formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional, Sequence, Tuple

from .config import Budget, EngineLimits, resolve_limits
from .errors import NonHomogeneousError, ResourceLimitError, RingMismatchError
from .groebner import (
    Ideal,
    _dividends,
    _divisor_basis,
    _Divisors,
    _monic,
    _reduce,
    _saturate,
    _spans_all,
    _staircase_corners,
    _syzygies_raw,
    maximal_ideal,
)
from .polycore import (
    Polynomial,
    PolyRing,
    _mul_acc,
    _normalize_point,
    _product_layout,
    _translate,
    _vanishes,
    mono_divides,
)

__all__ = [
    "PolyMatrix",
    "ModulePresentation",
    "Resolution",
    "TorsionData",
    "syzygies",
    "subquotient_presentation",
    "free_resolution",
    "quotient_presentation",
    "projective_dimension",
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
    """Sort key of a (component, monomial) term in position-over-term order."""
    k = ring.key

    def vk(cm):
        return (-cm[0], k(cm[1]))

    return vk


# ---------------------------------------------------------------------------
# public module layer

def syzygies(
    ring: PolyRing, columns: Sequence[Sequence[Polynomial]], limits: Optional[EngineLimits] = None
) -> tuple:
    """Syzygy generators of the given columns, each verified by substitution
    in the tests: sum_j syz_j * columns_j == 0 exactly."""
    if not columns:
        return ()
    rank = _common_rank(columns)
    raw = _syzygies_raw([_vec_from_free(c) for c in columns], rank, ring, resolve_limits(limits))
    return tuple(_free_from_vec(v, len(columns), ring) for v in raw.vecs)


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
        for g in vec:
            if g.ring != self.ring:
                raise RingMismatchError(f"{g.ring} entry applied to a {self.ring} matrix")
        return self._times((tuple(vec),))[0]

    def _times(self, vecs: Sequence[FreeElem]) -> tuple:
        """self applied to each of `vecs`.  Every entry is packed once per
        call, each output entry accumulates in one packed dict, and it is
        unpacked once."""
        ring = self.ring
        lay = _product_layout(ring.n, _max_degree(self.columns) + _max_degree(vecs))
        pack = lay.pack_terms
        mat = [[(i, pack(g.terms)) for i, g in enumerate(col) if g] for col in self.columns]
        out = []
        for v in vecs:
            acc: list = [{} for _ in range(self.rows)]
            for col, g in zip(mat, v):
                if g:
                    pg = pack(g.terms)
                    for i, entry in col:
                        _mul_acc(acc[i], pg, entry)
            out.append(tuple(Polynomial(ring, lay.unpack_terms(a, ring.p), _raw=True) for a in acc))
        return tuple(out)

    def is_zero(self) -> bool:
        return all(not g for col in self.columns for g in col)

    def _kills(self, other: "PolyMatrix") -> bool:
        """Whether self o other is zero, decided on packs: the products of
        each composite entry go to polycore._vanishes, and nothing is
        unpacked.  The ranks must chain."""
        if other.ring != self.ring:
            raise RingMismatchError(f"{other.ring} matrix composed with a {self.ring} matrix")
        lay = _product_layout(self.ring.n, _max_degree(self.columns) + _max_degree(other.columns))
        pack = lay.pack_terms
        rows: list = [[] for _ in range(self.rows)]
        for k, col in enumerate(self.columns):
            for i, g in enumerate(col):
                if g:
                    rows[i].append((k, pack(g.terms)))
        p = self.ring.p
        for v in other.columns:
            pv = [pack(g.terms) for g in v]
            if not all(_vanishes(((e, pv[k]) for k, e in row), p) for row in rows):
                return False
        return True


def _max_degree(cols: Sequence[FreeElem]) -> int:
    return max((max(map(sum, g.terms)) for col in cols for g in col if g), default=0)


def _column_degrees(columns: Sequence[FreeElem], shifts: Sequence[int]) -> tuple:
    """Degree of each column in the grading where row i is shifted by
    shifts[i]; None for a zero column.  Raises NonHomogeneousError."""
    degs = []
    for col in columns:
        d = None
        for i, g in enumerate(col):
            if not g:
                continue
            if not g.is_homogeneous():
                raise NonHomogeneousError(f"relation entry {g} is not homogeneous")
            gd = g.total_degree() + shifts[i]
            if d is None:
                d = gd
            elif d != gd:
                raise NonHomogeneousError("relation column is not homogeneous in the shifts")
        degs.append(d)
    return tuple(degs)


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
        return _column_degrees(self.relations.columns, self.shifts)

    @classmethod
    def free(cls, ring: PolyRing, rank: int, shifts: Optional[Tuple[int, ...]] = None):
        return cls(ring, rank, PolyMatrix(ring, rank, ()), shifts)


def quotient_presentation(I: Ideal) -> ModulePresentation:
    """R/I as a rank-1 presentation; graded when the generators are."""
    ring = I.ring
    cols = tuple((g,) for g in I.gens)
    shifts = (0,) if all(g.is_homogeneous() for g in I.gens) else None
    return ModulePresentation(ring, 1, PolyMatrix(ring, 1, cols), shifts)


def _are_units(vecs: Sequence[dict], rank: int, ring: PolyRing) -> bool:
    """Whether `vecs` are the unit vectors e_0, ..., e_{rank-1} in order,
    which span all of R^rank."""
    zero = ring.zero_mono()
    return len(vecs) == rank and all(v == {(c, zero): 1} for c, v in enumerate(vecs))


def _presentation_raw(
    gens: Sequence[dict], modulo: _Divisors, rank: int, ring: PolyRing, limits: EngineLimits
) -> tuple:
    """(presentation, relation basis) of (span(gens) + span(modulo)) /
    span(modulo), `modulo` a reduced basis the engine computed.  Its
    relations are the syzygies of gens modulo span(modulo), the same list
    as full tags projected onto the gens tags (see the module docstring);
    the engine's reduced basis of them comes back as well.

    When gens are the unit vectors e_0, ..., e_{rank-1} in order, a is a
    relation exactly when sum a_c e_c = a lies in span(modulo): the
    relations are span(modulo) itself, whose reduced basis is `modulo`,
    and no engine call is made.  This presents H^s of a Koszul complex,
    and the torsion when it is all of R^rank / span(modulo) with no e_c
    in span(modulo), as after a staircase exit (_torsion)."""
    u = len(gens)
    if u == 0:
        return ModulePresentation(ring, 0, PolyMatrix(ring, 0, ())), _Divisors([], ring)
    if _are_units(gens, rank, ring):
        rels = modulo
    else:
        rels = _syzygies_raw(gens, rank, ring, limits, modulo)
    cols = tuple(_free_from_vec(v, u, ring) for v in rels.vecs)
    return ModulePresentation(ring, u, PolyMatrix(ring, u, cols)), rels


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
    return _subquotient(ring, ker_gens, im_gens, resolve_limits(limits))[0]


def _subquotient(
    ring: PolyRing,
    ker_gens: Sequence[Sequence[Polynomial]],
    im_gens: Sequence[Sequence[Polynomial]],
    lim: EngineLimits,
    ker_basis: Optional[_Divisors] = None,
) -> tuple:
    """(presentation, relation basis, image basis) of
    span(ker_gens)/span(im_gens): subquotient_presentation's answer, the
    engine's reduced basis of its relations, and that of span(im_gens),
    which the presentation is computed modulo.

    The inclusion im <= span(ker) is checked wherever it can fail, by
    reducing the image vectors by the reduced basis of span(ker_gens):
    `ker_basis` when the caller holds it, as koszul does for the
    syzygies it took ker_gens from, and otherwise one built here.  When
    ker_gens are the unit vectors of the common rank, as for H^s of a
    Koszul complex, they span all of R^rank, so no basis of them is
    built and no image vector is reduced."""
    kv = [_vec_from_free(v) for v in ker_gens]
    iv = [v for v in map(_vec_from_free, im_gens) if v]
    if kv:
        rank = _common_rank(list(ker_gens) + list(im_gens))
        if not _are_units(kv, rank, ring):
            if ker_basis is None:
                ker_basis = _divisor_basis(kv, ring, lim)
            if not _spans_all(ker_basis, _dividends(iv, ker_basis), ring, lim):
                raise ValueError("image generators do not lie in the kernel span")
    elif iv:
        raise ValueError("image generators do not lie in the kernel span")
    else:
        rank = 0
    image = _divisor_basis(iv, ring, lim)
    return _presentation_raw(kv, image, rank, ring, lim) + (image,)


# ---------------------------------------------------------------------------
# resolutions

@dataclass(frozen=True)
class Resolution:
    """F_0 <- F_1 <- ... with maps[k]: F_{k+1} -> F_k; composites vanish,
    which is checked on packs (PolyMatrix._kills)."""

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
            if not self.maps[k]._kills(self.maps[k + 1]):
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
) -> Resolution:
    """The resolution of coker(pres.relations) by iterated syzygies,
    until a kernel vanishes; exact by construction.  A level of one
    nonzero column ends it with no syzygy computation: R is a domain, so
    the column's kernel is 0.

    Constant relation entries are cancelled first (see
    _cancel_constant_entries).  At every level, generators lying in the
    span of the others are then dropped, so each level's generators are
    irredundant: graded input is pruned one degree at a time against one
    basis per degree (_prune_graded), other input one candidate at a time
    (_prune_generators), and both keep the same generators.  A syzygy of
    irredundant generators has no nonzero constant entry: a constant a_j
    would give g_j = -a_j^{-1} (sum of the other terms), a redundant g_j.
    So every map has its entries in m, and for graded input an exact
    resolution with its entries in m is the minimal graded resolution;
    graded input terminates within n steps.  A resolution that needs more
    than n + 4 maps raises ResourceLimitError.  The shifts are carried
    level to level: the next level's shifts are the degrees of the
    current columns.
    """
    ring = pres.ring
    lim = resolve_limits(limits)
    pres = _cancel_constant_entries(pres)
    maps: list = []
    shifts = [pres.shifts]
    cols = [_vec_from_free(c) for c in pres.relations.columns]
    cols, degs = _prune(_dedupe_nonzero(cols), pres.shifts, ring, lim)
    cur_rank = pres.rank
    while cols:
        if len(maps) >= ring.n + 4:
            raise ResourceLimitError("resolution length", ring.n + 4)
        m = PolyMatrix(ring, cur_rank, tuple(_free_from_vec(v, cur_rank, ring) for v in cols))
        if any(g and g.is_constant() for col in m.columns for g in col):
            raise AssertionError(f"map {len(maps)} of the resolution holds a constant entry")
        maps.append(m)
        shifts.append(degs)
        if len(cols) == 1:
            break  # a -> a*v is injective for v != 0: R^r is torsion-free
        syz = _syzygies_raw(cols, cur_rank, ring, lim).vecs
        cur_rank = len(cols)
        cols, degs = _prune(_dedupe_nonzero(syz), degs, ring, lim)
    graded = pres.shifts is not None
    return Resolution(ring, pres.rank, tuple(maps), tuple(shifts) if graded else None)


def _cancel_constant_entries(pres: ModulePresentation) -> ModulePresentation:
    """A presentation of the same module whose relations hold no nonzero
    constant entry.

    A constant u at row i of column j writes generator i in terms of the
    others.  Column operations clear row i in the other columns; then row
    i, column j and shift i are dropped.  No other map exists yet, so
    nothing needs mirroring.
    """
    ring = pres.ring
    rank, shifts = pres.rank, pres.shifts
    cols = [list(col) for col in pres.relations.columns]
    while True:
        hit = next(
            ((i, j) for j, col in enumerate(cols) for i, g in enumerate(col) if g and g.is_constant()),
            None,
        )
        if hit is None:
            return ModulePresentation(ring, rank, PolyMatrix.from_columns(ring, rank, cols), shifts)
        i, j = hit
        pivot = cols.pop(j)
        uinv = pow(pivot[i].terms[ring.zero_mono()], -1, ring.p)
        for col in cols:
            if col[i]:
                lam = col[i] * uinv
                col[:] = [g - lam * h for g, h in zip(col, pivot)]
            del col[i]
        if shifts is not None:
            shifts = shifts[:i] + shifts[i + 1:]
        rank -= 1


def _dedupe_nonzero(vecs: Sequence[dict]) -> list:
    out: list = []
    for v in vecs:
        if v and v not in out:
            out.append(v)
    return out


def _prune(vecs: list, shifts: Optional[tuple], ring: PolyRing, lim: EngineLimits) -> tuple:
    """(generators, degrees): the irredundant subset of `vecs` that
    _prune_generators keeps, in input order, and its degrees where
    component c is shifted by shifts[c]; no degrees when ungraded."""
    if shifts is None:
        return _prune_generators(vecs, ring, lim), None
    degs = []
    for v in vecs:
        d = {sum(a) + shifts[c] for c, a in v}
        if len(d) != 1:
            raise NonHomogeneousError("resolution column is not homogeneous in the shifts")
        degs.append(d.pop())
    keep = _prune_graded(vecs, degs, ring, lim)
    return [vecs[i] for i in keep], tuple(degs[i] for i in keep)


def _prune_generators(vecs: list, ring: PolyRing, lim: EngineLimits) -> list:
    """Drop generators lying in the span of the remaining ones, front to
    back, with one basis of the others per candidate."""
    out = list(vecs)
    i = 0
    while i < len(out):
        others = out[:i] + out[i + 1:]
        if others:
            gb = _divisor_basis(others, ring, lim)
            if _spans_all(gb, _dividends([out[i]], gb), ring, lim):
                out.pop(i)
                continue
        i += 1
    return out


def _prune_graded(vecs: list, degs: Sequence[int], ring: PolyRing, lim: EngineLimits) -> list:
    """Indices, ascending, of the generators _prune_generators keeps, for
    homogeneous `vecs` of degrees `degs`; one basis per degree.

    Let M_<d be the span of the generators of degree < d.  A generator g
    of degree d lies in the span of the others iff its normal form modulo
    M_<d lies in the F_p-span of the normal forms of the other degree-d
    generators: in g = sum a_h h only the degree-d part counts, where the
    a_h of degree-d generators are constants and those of higher ones
    vanish.  So removing g leaves the span of the remaining generators of
    degree <= e unchanged for every e, and M_<d is the same at every step
    of the front-to-back loop: the span of the kept generators of degree
    < d.  Within degree d that loop is front-to-back removal on the normal
    forms v_1..v_m, which keeps v_i iff v_i is not in span(v_{>i}): were
    v_i = sum c_j v_j + w with w in span(v_{>i}) and kept v_j, j < i, the
    first kept v_j with c_j != 0 would have lain in the span of the list
    at its own step.  A reverse scan that keeps each v_i independent of
    the ones it kept before decides exactly that, since those span
    span(v_{>i}).  Inhomogeneous input has no such degree-d part, and
    stays on _prune_generators.
    """
    p = ring.p
    kept: list = []
    for _, block in groupby(sorted(range(len(vecs)), key=degs.__getitem__), degs.__getitem__):
        block = list(block)
        nfs = [vecs[i] for i in block]
        if kept:  # every kept generator has degree < d
            lower = _divisor_basis([vecs[i] for i in kept], ring, lim)
            budget = Budget(lim)
            nfs = [_reduce(v, lower, ring, budget) for v in nfs]
        rows: list = []
        kept += [i for i, v in reversed(list(zip(block, nfs))) if _independent(v, rows, p)]
    return sorted(kept)


def _independent(v: dict, rows: list, p: int) -> bool:
    """Whether v lies outside the F_p-span of `rows`; if so, v reduced by
    them joins them.  A row is (pivot, vector) with vector[pivot] = 1 and
    no term at the pivot of an earlier row."""
    v = dict(v)
    for t, row in rows:
        c = v.get(t)
        if c:
            for m, w in row.items():
                x = (v.get(m, 0) - c * w) % p
                if x:
                    v[m] = x
                else:
                    del v[m]
    if not v:
        return False
    t = next(iter(v))
    inv = pow(v[t], -1, p)
    rows.append((t, {m: w * inv % p for m, w in v.items()}))
    return True


def projective_dimension(
    pres: ModulePresentation,
    limits: Optional[EngineLimits] = None,
) -> int:
    """Length of the minimal graded resolution.  Graded input only."""
    if pres.shifts is None:
        raise NonHomogeneousError("projective dimension needs a graded presentation")
    return free_resolution(pres, limits).length


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


def module_h0m(
    pres: ModulePresentation,
    point=None,
    limits: Optional[EngineLimits] = None,
) -> TorsionData:
    """Presentation of (0 :_M m_a^infinity) with finite-length detection.

    Translates the relations to the origin, takes their reduced basis and
    hands it to _torsion; the generators are translated back.
    """
    ring = pres.ring
    lim = resolve_limits(limits)
    pt = _normalize_point(ring, point)
    rank = pres.rank
    cols = pres.relations.columns
    if pt is not None:
        cols = _split(_translate([g for col in cols for g in col], pt), rank)
    tors = _torsion(_divisor_basis([_vec_from_free(c) for c in cols], ring, lim), rank, lim)
    if pt is None:
        return tors
    gens = _split(_translate([g for col in tors.generators for g in col], -pt), rank)
    return TorsionData(tors.presentation, tuple(gens), tors.finite, tors.length)


def _split(flat: tuple, rank: int) -> list:
    """The consecutive length-`rank` vectors of a flat tuple."""
    return [flat[k:k + rank] for k in range(0, len(flat), rank)]


def _torsion(ngb: _Divisors, rank: int, lim: EngineLimits) -> TorsionData:
    """module_h0m at the origin of R^rank / span(ngb), `ngb` the reduced
    basis of the relations.

    Saturates span(ngb) at m, reduces the saturation generators mod ngb
    to get torsion generators, presents the subquotient modulo ngb, and
    counts the staircase of the relation basis that presenting it
    computed.  When the torsion generators are all the unit vectors
    (the saturation is R^rank and no e_c lies in span(ngb)), that basis
    is ngb itself, read off with no engine call.  At rank 0 the
    saturation is ngb itself, and the torsion is 0 of length 0.
    """
    ring = ngb.ring
    m = [g.terms for g in maximal_ideal(ring).gens]
    sat = _saturate(ngb, m, rank, lim)
    budget = Budget(lim)
    vk = _vkey(ring)
    tors: list = []
    for v in sat.vecs:
        r = _reduce(v, ngb, ring, budget)
        if r:
            r = _monic(r, next(iter(r)), ring.p)
            if r not in tors:
                tors.append(r)
    tors.sort(key=lambda v: vk(next(iter(v))), reverse=True)  # engine output: lead first
    presentation, rels = _presentation_raw(tors, ngb, rank, ring, lim)
    finite, length = _staircase_length(rels, len(tors), lim)
    gens = tuple(_free_from_vec(v, rank, ring) for v in tors)
    return TorsionData(presentation, gens, finite, length)


def finite_length_data(
    pres: ModulePresentation, limits: Optional[EngineLimits] = None
) -> tuple:
    """(finite, length): whether coker(relations) has a finite staircase,
    and the count of standard monomials across components when it does
    (_staircase_length, on the reduced basis of the relations)."""
    lim = resolve_limits(limits)
    if pres.rank == 0:
        return True, 0
    rel = [_vec_from_free(col) for col in pres.relations.columns]
    return _staircase_length(_divisor_basis(rel, pres.ring, lim), pres.rank, lim)


def _staircase_length(basis: _Divisors, rank: int, lim: EngineLimits) -> tuple:
    """(finite, length) of R^rank / span(basis), read off the leads of
    its reduced basis.

    The staircase is finite when groebner._staircase_corners finds every
    component's pure powers.  The count walks the staircase itself, not
    the box below those powers: the standard monomials are an order
    ideal, so a depth-first walk from 1 that reaches each b only from
    b - x_k, k the last variable of b, visits each of them once.
    max_length bounds the count, and is reached only by a module that
    long."""
    if _staircase_corners(basis, rank) is None:
        return False, None
    stairs: list = [[] for _ in range(rank)]
    for c, a in basis.leads():
        stairs[c].append(a)
    n = basis.ring.n
    zero = basis.ring.zero_mono()
    total = 0
    for L in stairs:
        stack = [] if zero in L else [(zero, 0)]  # (b, the last variable of b)
        while stack:
            b, last = stack.pop()
            total += 1
            if total > lim.max_length:
                raise ResourceLimitError("length count", lim.max_length)
            for k in range(last, n):
                nxt = b[:k] + (b[k] + 1,) + b[k + 1:]
                if not any(mono_divides(a, nxt) for a in L):
                    stack.append((nxt, k))
    return True, total
