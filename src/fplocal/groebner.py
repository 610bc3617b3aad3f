"""Buchberger engine and ideal operations.

One engine serves ideals and modules.  Its callers hand it flat vectors
{(component, monomial): coeff} in position-over-term order: component 0
dominates, ties broken by the ring's monomial order.  An ideal is the
rank-1 case: the ideal entries lift {a: c} to {(0, a): c} at the
boundary and convert back, and modres calls the engine directly.

The engine computes the unique reduced basis for the order: leads monic,
every element fully tail-reduced against the others, sorted in
descending lead order, each listing its lead first.  Pairs are formed
between leads in one component and selected by the normal strategy
(smallest lcm in the module order first); every skipped or reduced pair
counts against the configured reduction budget, so a runaway computation
raises ResourceLimitError instead of spinning.  The chain criterion
(Gebauer and Moeller, "On an installation of Buchberger's algorithm",
JSC 1988) is applied to every basis: a pair is skipped when a third lead
divides its lcm and neither of the pairs it forms with the two is still
pending.  It is sound within one component, and that is all it sees:
pairs are formed only within one component, and a lead divides only
terms of its own component.  The product criterion is applied to ideals
only; it is unsound for modules.  Module bases are checked by a
test-side confluence verifier.  Only the bases of Ideal.groebner_basis
reach the on_basis observer: colons, meets and saturations compute
module bases, tags included, and stay silent.

Inside the engine each term is one int (Bachmann and Schoenemann,
"Monomial representations for Groebner bases computations", ISSAC 1998).
From the top down the int holds the negated component, the order fields
and the plain exponent fields.  The order fields are the grevlex partial
sums (a1+...+an, ..., a1), or the lex exponents, with the auxiliary
exponent of an elimination order above them; a plain field follows for
every variable that no order field holds alone.  The pack is linear in
the exponents, so multiplying a term by a monomial adds the monomial's
pack, and comparing two packs compares the terms in the module order.
Every field has a zero guard bit above it: D divides T exactly when
T - D lies in [0, 2^S), the packs of component 0, and has no guard bit
set.  The field width is chosen per call, from four times the largest
input degree; a new term whose guard bit is set has overflowed, and the
call restarts at double width with its reduction budget as it was at the
start, so a restart changes no result and no step count.  Terms are
packed where they enter the engine and unpacked where they leave it;
_divisor_basis hands a basis over still packed, as divisors for
_reduce.  The layout is polycore's, shared with the product kernel.

Division is heap-ordered (Monagan and Pearce, "Sparse polynomial
division using a heap", JSC 2011): _divide, the one division loop, keeps
the dividend's packed terms in a max-heap, so a term costs one push and
one pop, and a cancelled term is skipped when it is popped.  Divisors
are monic, so each step cancels the lead exactly.  The divisor chosen
for a lead is the first one in basis order that divides it.  exact_div
is a tagged reduction on the same loop: g*e_0 reduced by h*e_0 - e_1
leaves the remainder g - q*h in component 0 and the quotient q in
component 1.

Syzygies modulo a submodule come from one tagged kernel, _syzygies_raw:
each column gets a unit tag component, the submodule's vectors get none,
and the basis elements whose lead is a tag are the reduced basis of
{a : sum a_j col_j in the submodule}; tagging the submodule too and
projecting onto the column tags would give the same list.  A colon
N : h, N <= R^rank, is the syzygies of h*e_c, c < rank, modulo N; a meet
tags each vector with its own copy.  A reduced basis the engine computed
joins such a call as a known part (N's in a colon, the later colon's in
a meet), and no S-pair between two of its elements is formed: each
reduces to zero by Buchberger's criterion.  N : J is the meet of the
N : h over the generators h of J, and each N : h is tested as soon as it
is computed: if it is N, then N : J = N, since N <= N : J <= N : h.
Before any engine call, _colon reads what it can off the leads of N's
basis.  A one-term generator u that shares a variable with no lead gives
N : J = N at once, at any rank and in any order.  For an ideal with a
homogeneous basis in grevlex, N : x_n is that basis with x_n divided out
of each element whose lead it divides (Bayer and Stillman), interreduced.
Saturation, of ideals and modules alike, iterates the colon until it
gives N back, the one round where that test can pass, so the early exit
changes no saturation's generators.  A saturated N whose leads miss some
variable costs no engine colon; one modulo which x1 is a nonzerodivisor
costs at most one.  Before the first round, _saturate reads N's
staircase: when every component's leads hold a pure power of every
variable, no generator of J has a constant term, and x_k^D * e_c reduces
to zero for every k and c, with D past every component's box, then a
power of J (inside m) kills R^rank/N, and N : J^infinity is R^rank with
no colon at all.  The test is exact in any order; when it fails, the
loop runs as before.

verify_confluence is an independent second route used as an oracle: it
re-derives every S-polynomial on exponent tuples and reduces it with its
own divisor policy (reverse scan), sharing nothing with the engine's
packing or pair bookkeeping.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Optional, Sequence

from .config import Budget, EngineLimits, resolve_limits
from .errors import ResourceLimitError, RingMismatchError
from .polycore import (
    Polynomial,
    PolyRing,
    _Layout,
    _layout,
    _width,
    add_scaled,
    mono_div,
    mono_divides,
    mono_lcm,
    parse_poly,
)

__all__ = [
    "Ideal",
    "normal_form",
    "verify_confluence",
    "intersect",
    "ideal_quotient",
    "ideal_quotient_ideal",
    "saturation",
    "ideals_equal",
    "maximal_ideal",
    "exact_div",
]


# ---------------------------------------------------------------------------
# packed terms: one int per (component, monomial)

class _Overflow(Exception):
    """A new term's field reached its guard bit: the call restarts wider."""


def _retry(run: Callable[[int], Any], bits: int):
    """run(bits), restarted at double width while a field overflows."""
    while True:
        try:
            return run(bits)
        except _Overflow:
            bits *= 2


# ---------------------------------------------------------------------------
# the engine: packed vectors {term: coeff}, monic divisors (lead, tail)

def _add_scaled(acc: dict, tail: list, coeff: int, shift: int, p: int, guard: int) -> None:
    """acc += coeff * x^shift * tail, in place, dropping cancelled terms."""
    for t, w in tail:
        m = t + shift
        old = acc.get(m)
        if old is None:
            if m & guard:
                raise _Overflow
            acc[m] = coeff * w % p
        else:
            w = (old + coeff * w) % p
            if w:
                acc[m] = w
            else:
                del acc[m]


def _divide(h: dict, divisors: Sequence, lay: _Layout, p: int, budget: Budget) -> dict:
    """Full normal form of `h`, which it consumes, against monic divisors.

    The pending terms sit in a max-heap, stored negated.  h keeps every
    queued term, at coefficient 0 once cancelled, and a cancelled entry
    is skipped when popped.  Every term added while reducing a lead is
    smaller than it, so no term is popped twice.  The divisor's lead
    would land on the popped lead and cancel it, so only its tail is
    added.  The result lists its terms in descending order: its lead
    comes first.
    """
    top, guard = lay.top, lay.guard
    heap = [-t for t in h]
    heapify(heap)
    out: dict = {}
    while heap:
        t = -heappop(heap)
        c = h[t]
        if not c:
            continue
        for lead, tail in divisors:
            shift = t - lead  # lay.divides, inlined
            if 0 <= shift < top and not shift & guard:
                break
        else:
            out[t] = c
            continue
        budget.step()
        coeff = p - c
        for s, w in tail:
            m = s + shift
            old = h.get(m)
            if old is None:
                if m & guard:
                    raise _Overflow
                h[m] = coeff * w % p
                heappush(heap, -m)
            else:
                h[m] = (old + coeff * w) % p
    return out


def _split(v: dict, p: int) -> tuple:
    """(lead, tail) of a packed vector, made monic."""
    lead = max(v)
    inv = pow(v[lead], -1, p)
    return lead, [(t, w * inv % p) for t, w in v.items() if t != lead]


class _Divisors:
    """Monic divisors (lead, tail) for _reduce, in the given order, packed
    once per field width.  They are built from vectors, or handed over
    packed by the engine (_divisor_basis); the vectors are then unpacked
    only when another width or a caller asks for them.  `reduced` marks
    the engine's output, a reduced basis of its span: only such divisors
    may join an engine call as its known part."""

    __slots__ = ("ring", "bits", "packed", "_vecs", "_leads", "reduced")

    def __init__(self, vecs: Sequence[dict], ring: PolyRing):
        self.ring = ring
        self._vecs = list(vecs)
        self.bits = _width(a for v in self._vecs for _, a in v)
        self.packed: dict = {}
        self._leads = None
        self.reduced = False

    @classmethod
    def _of_packed(cls, split: list, lay: _Layout, ring: PolyRing) -> "_Divisors":
        out = cls.__new__(cls)
        out.ring = ring
        out._vecs = None
        out.bits = lay.bits
        out.packed = {lay.bits: split}
        out._leads = None
        out.reduced = True
        return out

    def leads(self) -> list:
        """The leads as (component, monomial), in basis order, read off the
        packs once: no tail is unpacked."""
        if self._leads is None:
            lay = _layout(self.ring.n, self.ring.order, self.bits)
            self._leads = [lay.unpack(lead) for lead, _ in self.at(lay)]
        return self._leads

    @property
    def vecs(self) -> list:
        """The divisors as {(component, monomial): coeff}, leads first."""
        if self._vecs is None:
            lay = _layout(self.ring.n, self.ring.order, self.bits)
            unpack = lay.unpack
            self._vecs = [
                dict([(unpack(lead), 1)] + [(unpack(t), w) for t, w in tail])
                for lead, tail in self.packed[self.bits]
            ]
        return self._vecs

    def above(self, c: int) -> "_Divisors":
        """The engine's basis elements whose lead lies at a component >= c,
        moved down by c components, still packed: the reduced basis of the
        span's meet with those components, since position-over-term order
        puts every lower component above such a lead."""
        lay = _layout(self.ring.n, self.ring.order, self.bits)
        off = c << lay.S  # a pack holds its term's component negated
        split = [
            (lead + off, [(t + off, w) for t, w in tail])
            for lead, tail in self.packed[self.bits]
            if -(lead >> lay.S) >= c  # the lead's component, as unpack reads it
        ]
        return _Divisors._of_packed(split, lay, self.ring)

    def at(self, lay: _Layout) -> list:
        out = self.packed.get(lay.bits)
        if out is None:
            p = self.ring.p
            out = self.packed[lay.bits] = [_split(lay.pack_vec(v), p) for v in self.vecs]
        return out


def _reduce(v: dict, divisors: _Divisors, ring: PolyRing, budget: Budget) -> dict:
    """Full normal form of `v` against `divisors`, by the first divisor in
    basis order whose lead divides; the result lists its lead first."""
    p = ring.p
    left = budget.left

    def run(bits: int) -> dict:
        budget.left = left  # a restart redoes the same steps
        lay = _layout(ring.n, ring.order, bits)
        return lay.unpack_vec(_divide(lay.pack_vec(v), divisors.at(lay), lay, p, budget))

    return _retry(run, max(divisors.bits, _width(a for _, a in v)))


def _monic(v: dict, lead, p: int) -> dict:
    c = v[lead]
    if c == 1:
        return v
    inv = pow(c, -1, p)
    return {m: (w * inv) % p for m, w in v.items()}


def _canonical_input(vecs: Sequence[dict], lay: _Layout, p: int) -> list:
    """Monic, deduplicated packed copies of the nonzero input as (lead,
    vec), in descending lead order.  Equal leads are ordered on the monic
    (component, monomial) terms, so the order does not depend on the
    packing."""
    out: list = []
    for v in vecs:
        pv = lay.pack_vec(v)
        lead = max(pv)
        pv = _monic(pv, lead, p)
        if not any(e[0] == lead and e[1] == pv for e in out):
            out.append((lead, pv, v))
    out.sort(key=itemgetter(0), reverse=True)
    canon: list = []
    for _, run in groupby(out, itemgetter(0)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda e: sorted(_monic(e[2], lay.unpack(e[0]), p).items()), reverse=True)
        canon += [e[:2] for e in run]
    return canon


def _reduced_basis(
    vecs: Sequence[dict], ring: PolyRing, limits: EngineLimits, ideal: bool = False
) -> list:
    """Reduced basis of the span of `vecs`, position-over-term order.

    Pairs are formed only between leads in one component and popped
    smallest first on (-component, lcm).  The chain criterion applies to
    every basis.  `ideal` marks rank-1 input from the ideal entry: only
    there is the product criterion applied, and a basis overflow is
    reported as "basis size" rather than "module basis size".  The basis
    elements list their leads first.
    """
    return _divisor_basis(vecs, ring, limits, ideal).vecs


def _divisor_basis(
    vecs: Sequence[dict],
    ring: PolyRing,
    limits: EngineLimits,
    ideal: bool = False,
    known: Optional[_Divisors] = None,
) -> _Divisors:
    """_reduced_basis as monic divisors, still packed at the width the
    basis was computed at: a caller that reduces by the basis skips the
    unpacking and packing again.  `known`, a reduced basis the engine
    computed, joins the input: its packs are reused at their width, and no
    pair between two of its elements is formed, since such an S-vector
    reduces to zero by it; for the chain criterion, none is pending.
    """
    vecs = [v for v in vecs if v]
    if known is not None and not known.reduced:
        raise ValueError("a known part must be a reduced basis computed by the engine")
    p = ring.p

    def run(bits: int) -> _Divisors:
        lay = _layout(ring.n, ring.order, bits)
        K = known.at(lay) if known is not None else []
        G = K + [
            (lead, [(t, w) for t, w in v.items() if t != lead])
            for lead, v in _canonical_input(vecs, lay, p)
        ]
        return _Divisors._of_packed(_packed_basis(G, lay, p, limits, ideal, len(K)), lay, ring)

    bits = _width(a for v in vecs for _, a in v)
    return _retry(run, bits if known is None else max(bits, known.bits))


def _packed_basis(
    G: list, lay: _Layout, p: int, limits: EngineLimits, ideal: bool, known: int = 0
) -> list:
    """The reduced basis of the span of monic (lead, tail) divisors G, a
    fresh list that grows in place; its first `known` are a reduced basis."""
    budget = Budget(limits)
    pack, divides, guard, rest = lay.pack, lay.divides, lay.guard, lay.top - 1
    leads = [lay.unpack(lead) for lead, _ in G]  # for the lcms
    heap: list = []
    pending = set()

    def push_pairs(j: int) -> None:
        cj, aj = leads[j]
        for i in range(j):
            ci, ai = leads[i]
            if ci == cj:
                u = pack(cj, mono_lcm(ai, aj))
                if u & guard:
                    raise _Overflow
                heappush(heap, (u, i, j))
                pending.add((i, j))

    for j in range(known, len(G)):
        push_pairs(j)

    while heap:
        u, i, j = heappop(heap)
        pending.discard((i, j))
        budget.step()
        li, ti = G[i]
        lj, tj = G[j]
        if ideal and li + (lj & rest) == u:
            continue  # product criterion: coprime leads
        skip = False
        for k in range(len(G)):
            if k == i or k == j:
                continue
            if divides(G[k][0], u):  # so G[k] leads in u's component
                a = (i, k) if i < k else (k, i)
                b = (j, k) if j < k else (k, j)
                if a not in pending and b not in pending:
                    skip = True  # chain criterion
                    break
        if skip:
            continue
        s: dict = {}
        _add_scaled(s, ti, 1, u - li, p, guard)  # the leads cancel at u
        _add_scaled(s, tj, p - 1, u - lj, p, guard)
        r = _divide(s, G, lay, p, budget)
        if r:
            if len(G) >= limits.max_basis:
                kind = "basis size" if ideal else "module basis size"
                raise ResourceLimitError(kind, limits.max_basis)
            G.append(_split(r, p))
            leads.append(lay.unpack(G[-1][0]))
            push_pairs(len(G) - 1)
    return _interreduce(G, lay, p, budget)


def _interreduce(G: list, lay: _Layout, p: int, budget: Budget) -> list:
    """Minimal leads, each element tail-reduced by the others: monic
    (lead, tail) in descending lead order, each tail descending."""
    kept: list = []
    for lead, tail in sorted(G, key=itemgetter(0)):
        if any(lay.divides(k, lead) for k, _ in kept):
            continue
        kept.append((lead, tail))
    kept.reverse()
    for i, (lead, tail) in enumerate(kept):
        h = dict(tail)
        h[lead] = 1
        r = _divide(h, kept[:i] + kept[i + 1:], lay, p, budget)
        kept[i] = (lead, list(r.items())[1:])  # no other lead divides this one
    return kept


# ---------------------------------------------------------------------------
# syzygies modulo a submodule, and the one saturation loop

def _syzygies_raw(
    cols: Sequence[dict], rank: int, ring: PolyRing, limits: EngineLimits, modulo=()
) -> _Divisors:
    """Reduced basis of {a in R^k : sum a_j cols_j in span(modulo)},
    k = len(cols).  Column j is tagged at component rank + j; the
    `modulo` vectors are not tagged.  `modulo` is a list of vectors, or
    a reduced basis as the engine's _Divisors, which then joins the
    engine call as its known part."""
    zero = ring.zero_mono()
    tagged = [{**col, (rank + j, zero): 1} for j, col in enumerate(cols)]
    if isinstance(modulo, _Divisors):
        return _divisor_basis(tagged, ring, limits, known=modulo).above(rank)
    return _divisor_basis(tagged + list(modulo), ring, limits).above(rank)


def _meet(
    A: Sequence[dict], B: _Divisors, rank: int, ring: PolyRing, limits: EngineLimits
) -> _Divisors:
    """Reduced basis of span(A) meet span(B), B a reduced basis.  Each a
    in A is tagged with its own copy, (a | a), and B is not: the span's
    elements with zero real part are (0 | sum s_i a_i) with
    sum s_i a_i in span(B)."""
    tagged = [{**a, **{(rank + c, m): w for (c, m), w in a.items()}} for a in A]
    return _divisor_basis(tagged, ring, limits, known=B).above(rank)


def _graded_revlex(N: _Divisors, ring: PolyRing) -> bool:
    """Whether N's reduced basis is homogeneous in grevlex: _colon_by_last
    holds there and nowhere else."""
    return ring.order == "grevlex" and all(len({sum(a) for _, a in v}) == 1 for v in N.vecs)


def _colon_by_last(N: _Divisors, lay: _Layout, ring: PolyRing, limits: EngineLimits) -> _Divisors:
    """N : x_n for an ideal N with a homogeneous reduced basis in grevlex.
    There x_n divides every g whose lead it divides, and
    in(N : x_n) = in(N) : x_n (Bayer and Stillman, Invent. Math. 1987), so
    dividing x_n out of those g, by subtracting its pack, gives a basis of
    N : x_n; _interreduce makes it the reduced one.  Reduction keeps
    degrees, so no field can overflow."""
    off, unit = lay.offsets[-1], lay.units[-1]
    G = [
        (lead - unit, [(t - unit, w) for t, w in tail]) if lead >> off & lay.mask else (lead, tail)
        for lead, tail in N.at(lay)
    ]
    return _Divisors._of_packed(_interreduce(G, lay, ring.p, Budget(limits)), lay, ring)


def _colon(
    N: _Divisors, hs: Sequence[dict], rank: int, ring: PolyRing, limits: EngineLimits
) -> _Divisors:
    """N : J as a reduced basis, N <= R^rank given by its reduced basis and
    J by the generators `hs` ({monomial: coeff}); N itself when N : J = N.

    N's leads are read first.  If J has a one-term generator u and no
    lead shares a variable with u, then N : J = N: a reduced a outside N
    with u*a in N has u*lead(a) in in(N), and a lead coprime to u that
    divides it divides lead(a).  This also covers u = x_n dividing no
    lead.  An ideal in grevlex with a homogeneous basis and c*x_n in J has
    N : x_n read off its basis (_colon_by_last).  The other N : h are
    engine colons.  Each N : h contains N, so it lies in N exactly when
    it has N's basis.  The colons are met in order only once none has,
    each meet taking the later colon's basis as its known part."""
    used = {k for _, a in N.leads() for k, e in enumerate(a) if e}
    for h in hs:
        if len(h) == 1 and not any(e and k in used for k, e in enumerate(next(iter(h)))):
            return N
    last = ring.zero_mono()[:-1] + (1,)
    by_last = None
    if rank == 1 and any(h.keys() == {last} for h in hs) and _graded_revlex(N, ring):
        by_last = _colon_by_last(N, _layout(ring.n, ring.order, N.bits), ring, limits)
    quots = []
    for h in hs:
        if by_last is not None and h.keys() == {last}:
            q = by_last
        else:
            cols = [{(c, a): w for a, w in h.items()} for c in range(rank)]
            q = _syzygies_raw(cols, rank, ring, limits, N)
        if q.vecs == N.vecs:
            return N
        quots.append(q)
    K = quots[0]
    for q in quots[1:]:
        K = _meet(K.vecs, q, rank, ring, limits)
    return N if K.vecs == N.vecs else K


def _staircase_corners(N: _Divisors, rank: int) -> Optional[list]:
    """x_k^D * e_c for every variable x_k and every component c < rank
    whose staircase is finite: when x_k^e_{c,k} * e_c is a lead of N's
    reduced basis for every k, each monomial of degree
    D_c = sum_k (e_{c,k} - 1) + 1 lies outside the box below the e_{c,k}.
    D is the largest D_c, so a graded N with a finite quotient of equal
    shifts passes at every component.  A component with the lead e_c has
    none.  None when some component lacks a pure power of some variable,
    at once when there are fewer than n leads and N is not R^rank."""
    n = N.ring.n
    leads = N.leads()
    if len(leads) < n:
        return [] if sum(not any(a) for _, a in leads) == rank else None
    pure = {c: [0] * n for c in range(rank)}  # e_{c,k}; a reduced basis has one
    for c, a in leads:
        zeros = a.count(0)
        if zeros == n:
            del pure[c]  # e_c lies in N
        elif zeros == n - 1 and c in pure:
            e = max(a)
            pure[c][a.index(e)] = e
    if not all(all(e) for e in pure.values()):
        return None
    D = max((sum(e) - n + 1 for e in pure.values()), default=0)
    return [{(c, (0,) * k + (D,) + (0,) * (n - k - 1)): 1} for c in pure for k in range(n)]


def _lead_dim(monos: Sequence[tuple], n: int) -> int:
    """dim R/(monos) for monomials in n variables: the size of the largest
    set of variables that holds no monomial's support; -1 when some
    monomial is 1, the ideal R.  A set that holds a support must drop one
    of its variables, so the search branches on those variables, and a
    branch no larger than the best set found is cut."""
    supports = {sum(1 << k for k, e in enumerate(a) if e) for a in monos}
    best = -1

    def walk(free: int, size: int) -> None:
        nonlocal best
        if size <= best:
            return
        inside = next((s for s in supports if not s & ~free), None)
        if inside is None:
            best = size
        while inside:
            bit = inside & -inside
            walk(free & ~bit, size - 1)
            inside ^= bit

    walk((1 << n) - 1, n)
    return best


def _saturate(N, hs: Sequence[dict], rank: int, colon: Callable, limits: EngineLimits):
    """N : J^infinity, J generated by `hs` ({monomial: coeff}) and N an
    Ideal (rank 1) or a submodule of R^rank given by its reduced basis;
    colon(N) is N : J, and is N itself exactly when N : J = N.  N is
    returned when it is saturated.  The one saturation loop: ideals call
    it through saturation, modules through modres.module_h0m.

    One exact exit comes first, read off N's staircase.  If J has
    generators, none with a constant term, and every x_k^D * e_c of
    _staircase_corners reduces to zero by N's basis, the answer is R^rank,
    given by its reduced basis, the unit vectors.  Proof: then
    (x_1^D, ..., x_n^D) R^rank lies in N, so m^(n(D-1)+1) R^rank does, and
    J lies in m, so J^(n(D-1)+1) kills R^rank/N.  This holds in any order
    and grading.  A failed test decides nothing, and the loop runs."""
    ring = N.ring
    zero = ring.zero_mono()
    if hs and not any(zero in h for h in hs):
        basis = N._divisors(limits) if isinstance(N, Ideal) else N
        corners = _staircase_corners(basis, rank)
        if corners == []:
            return N  # N = R^rank
        if corners and _spans_all(basis, corners, ring, limits):
            whole = _Divisors([{(c, zero): 1} for c in range(rank)], ring)
            whole.reduced = True
            return Ideal._of_basis(ring, whole) if isinstance(N, Ideal) else whole
    for _ in range(limits.max_rounds):
        Q = colon(N)
        if Q is N:
            return N
        N = Q
    raise ResourceLimitError("saturation rounds", limits.max_rounds)


# ---------------------------------------------------------------------------
# the ideal entries: rank-1 vectors at the boundary

def _rank1(terms: dict) -> dict:
    return {(0, a): c for a, c in terms.items()}


def _terms(v: dict) -> dict:
    return {a: c for (_, a), c in v.items()}


def _wrap(ring: PolyRing, dicts: Sequence[dict]) -> tuple:
    return tuple(Polynomial(ring, t, _raw=True) for t in dicts)


class Ideal:
    """An ideal of a PolyRing, with a lazily computed reduced basis.

    Generators are stored nonzero and in the given order; the basis
    cache is filled compute-then-publish, so concurrent readers either
    see nothing or the finished tuple.  The basis comes from Buchberger,
    or from `_basis(limits)` when the ideal was built with one: a route
    that derives the same reduced basis without it, as bracket powers do.
    """

    __slots__ = ("ring", "gens", "_gb", "_basis", "_div")

    def __init__(self, ring: PolyRing, gens: Sequence, *, _basis: Optional[Callable] = None):
        gs = []
        for g in gens:
            if isinstance(g, str):
                g = parse_poly(ring, g)
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generator {g!r} is not a polynomial")
            if g.ring != ring:
                raise RingMismatchError(f"{g.ring} generator in {ring} ideal")
            if g:
                gs.append(g)
        self.ring = ring
        self.gens = tuple(gs)
        self._gb = None
        self._basis = _basis
        self._div = None

    @classmethod
    def _of_basis(cls, ring: PolyRing, basis: _Divisors) -> "Ideal":
        """The ideal with reduced basis `basis`, which is also its list of
        generators."""
        gb = _wrap(ring, [_terms(v) for v in basis.vecs])
        out = cls(ring, gb)
        out._div = basis
        out._gb = gb
        return out

    def groebner_basis(self, limits: Optional[EngineLimits] = None) -> tuple:
        gb = self._gb
        if gb is None:
            lim = resolve_limits(limits)
            if self._basis is None:
                div = _divisor_basis([_rank1(g.terms) for g in self.gens], self.ring, lim, True)
                gb = _wrap(self.ring, [_terms(v) for v in div.vecs])
                self._div = div
            else:
                gb = self._basis(lim)
            # a fresh or derived ideal basis reaches the observer; cache hits do not
            if gb and lim.on_basis is not None:
                lim.on_basis(self.ring, gb)
            self._gb = gb
        return gb

    def _divisors(self, limits: EngineLimits) -> _Divisors:
        """The reduced basis as the engine's divisors, fit to be a known
        part.  A derived basis goes through the engine once more."""
        gb = self.groebner_basis(limits)  # sets _div when it runs the engine
        if self._div is None:
            self._div = _divisor_basis([_rank1(g.terms) for g in gb], self.ring, limits, True)
        return self._div

    def normal_form(self, g: Polynomial, limits: Optional[EngineLimits] = None) -> Polynomial:
        return normal_form(g, self.groebner_basis(limits), limits)

    def contains(self, g: Polynomial, limits: Optional[EngineLimits] = None) -> bool:
        return not self.normal_form(g, limits)

    def is_zero(self) -> bool:
        return not self.gens

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.gens == other.gens

    def __hash__(self):
        return hash((self.ring, self.gens))

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"


def normal_form(
    g: Polynomial, basis: Sequence[Polynomial], limits: Optional[EngineLimits] = None
) -> Polynomial:
    """Remainder of g on full division by the basis, in basis order."""
    if not basis:
        return g
    ring = g.ring
    budget = Budget(resolve_limits(limits))
    divisors = _Divisors([_rank1(b.terms) for b in basis], ring)
    return Polynomial(ring, _terms(_reduce(_rank1(g.terms), divisors, ring, budget)), _raw=True)


def verify_confluence(
    ring: PolyRing, basis: Sequence[Polynomial], limits: Optional[EngineLimits] = None
) -> bool:
    """Independent check that every S-polynomial reduces to zero.

    No pair criteria, reverse divisor scan: deliberately a second route
    so an engine bookkeeping bug cannot hide itself.
    """
    lim = resolve_limits(limits)
    budget = Budget(lim)
    p = ring.p
    key = ring.key
    items = [(g.leading_monomial(), g.terms) for g in basis]

    def nf(terms: dict) -> dict:
        h = dict(terms)
        out: dict = {}
        while h:
            lm = max(h, key=key)
            c = h.pop(lm)
            hit = None
            for dlm, dterms in reversed(items):
                if mono_divides(dlm, lm):
                    hit = (dlm, dterms)
                    break
            if hit is None:
                out[lm] = c
                continue
            budget.step()
            h[lm] = c
            inv = pow(hit[1][hit[0]], -1, p)
            add_scaled(h, hit[1], (p - c) * inv % p, mono_div(lm, hit[0]), p)
        return out

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            lmi, ti = items[i]
            lmj, tj = items[j]
            u = mono_lcm(lmi, lmj)
            s: dict = {}
            add_scaled(s, ti, pow(ti[lmi], -1, p), mono_div(u, lmi), p)
            add_scaled(s, tj, (p - 1) * pow(tj[lmj], -1, p) % p, mono_div(u, lmj), p)
            if nf(s):
                return False
    return True


def ideals_equal(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> bool:
    """Equality via the canonical reduced bases."""
    if I.ring != J.ring:
        raise RingMismatchError(f"{I.ring} vs {J.ring}")
    return I.groebner_basis(limits) == J.groebner_basis(limits)


def maximal_ideal(ring: PolyRing, point=None) -> Ideal:
    """The maximal ideal (x1 - a1, ..., xn - an); origin by default."""
    gens = []
    coords = (0,) * ring.n if point is None else (
        point.coords if hasattr(point, "coords") else tuple(point)
    )
    for k in range(1, ring.n + 1):
        gens.append(Polynomial.variable(ring, k) - Polynomial.constant(ring, coords[k - 1]))
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# rank-1 entries on the tagged kernel

def intersect(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """I intersect J: I's generators, each tagged with its own copy,
    modulo J's reduced basis (_meet)."""
    ring = I.ring
    if ring != J.ring:
        raise RingMismatchError(f"{I.ring} vs {J.ring}")
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    lim = resolve_limits(limits)
    A = [_rank1(g.terms) for g in I.gens]
    return Ideal._of_basis(ring, _meet(A, J._divisors(lim), 1, ring, lim))


def exact_div(g: Polynomial, h: Polynomial) -> Polynomial:
    """Quotient g / h when h divides g exactly; ArithmeticError otherwise.

    One tagged reduction: g*e_0 reduced by h*e_0 - e_1 leaves
    (g - q*h)*e_0 + q*e_1, and the division by one divisor leaves no
    term of g - q*h that h's lead divides, so g - q*h is zero exactly
    when h divides g.  Counted against the default reduction ceiling.
    """
    if not h:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    tagged = {**_rank1(h.terms), (1, ring.zero_mono()): ring.p - 1}
    r = _reduce(_rank1(g.terms), _Divisors([tagged], ring), ring, Budget(resolve_limits(None)))
    if any(c == 0 for c, _ in r):
        raise ArithmeticError(f"{h} does not divide {g}")
    return Polynomial(ring, _terms(r), _raw=True)


def ideal_quotient(I: Ideal, h: Polynomial, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : h): the syzygies of h modulo I's reduced basis."""
    if not h:
        raise ValueError("colon by the zero polynomial")
    ring = I.ring
    lim = resolve_limits(limits)
    return Ideal._of_basis(ring, _syzygies_raw([_rank1(h.terms)], 1, ring, lim, I._divisors(lim)))


def _spans_all(
    divisors: _Divisors, vecs: Sequence[dict], ring: PolyRing, limits: EngineLimits
) -> bool:
    """Whether every vector reduces to zero against `divisors`, a reduced
    basis: membership in its span.  One budget covers the whole test."""
    budget = Budget(limits)
    return not any(_reduce(v, divisors, ring, budget) for v in vecs)


def ideal_quotient_ideal(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : J) by _colon at rank 1: I itself when I : J = I, with its own
    generators, and otherwise the ideal of the new reduced basis."""
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    ring = I.ring
    lim = resolve_limits(limits)
    N = I._divisors(lim)
    Q = _colon(N, [g.terms for g in J.gens], 1, ring, lim)
    return I if Q is N else Ideal._of_basis(ring, Q)


def saturation(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : J^infinity) by _saturate, one ideal_quotient_ideal per round;
    I itself when I is saturated."""
    return _saturate(I, [g.terms for g in J.gens], 1,
                     lambda K: ideal_quotient_ideal(K, J, limits), resolve_limits(limits))
