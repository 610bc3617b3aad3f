"""Buchberger engine and ideal operations.

One engine serves ideals and modules.  Its callers hand it flat vectors
{(component, monomial): coeff} in position-over-term order: component 0
dominates, ties broken by the ring's monomial order.  An ideal is the
rank-1 case: _buchberger and normal_form lift {a: c} to {(0, a): c} at
the boundary and convert back, and modres calls the engine directly.

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
test-side confluence verifier, and only ideal bases reach the on_basis
observer.

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
division using a heap", JSC 2011): normal forms and exact_div keep the
dividend's packed terms in a max-heap, so a term costs one push and one
pop, and a cancelled term is skipped when it is popped.  Divisors are
monic, so each step cancels the lead exactly.  The divisor chosen for a
lead is the first one in basis order that divides it.

Ideal quotients go through the classic elimination route: intersect with
the principal ideal using one auxiliary variable that dominates the base
order, then divide by the generator.  I : J is the intersection of the
I : h over the generators h of J, and each I : h is tested as soon as it
is computed: if its generators all reduce to zero modulo I's basis,
I : J = I, since I <= I : J <= I : h for every h in J, and the colon
returns I without computing any further quotient or any intersection.
Saturation iterates the colon until the reduced bases agree.  The test
passes only in a round whose colon gives I back, which is the round the
loop stops at anyway, so the early exit changes no saturation's
generators; when x1 is a nonzerodivisor on R/I, as for a generic
complete intersection, a saturated ideal costs one elimination basis
instead of one per generator of J plus the intersections.

verify_confluence is an independent second route used as an oracle: it
re-derives every S-polynomial on exponent tuples and reduces it with its
own divisor policy (reverse scan), sharing nothing with the engine's
packing or pair bookkeeping.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain, groupby
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
    only when another width or a caller asks for them."""

    __slots__ = ("ring", "bits", "packed", "_vecs")

    def __init__(self, vecs: Sequence[dict], ring: PolyRing):
        self.ring = ring
        self._vecs = list(vecs)
        self.bits = _width(a for v in self._vecs for _, a in v)
        self.packed: dict = {}

    @classmethod
    def _of_packed(cls, split: list, lay: _Layout, ring: PolyRing) -> "_Divisors":
        out = cls.__new__(cls)
        out.ring = ring
        out._vecs = None
        out.bits = lay.bits
        out.packed = {lay.bits: split}
        return out

    @property
    def vecs(self) -> list:
        """The divisors as {(component, monomial): coeff}, leads first."""
        if self._vecs is None:
            self._vecs = self.vecs_from(0)
        return self._vecs

    def vecs_from(self, c: int) -> list:
        """The divisors whose lead lies at a component >= c, as vectors,
        leads first; only those are unpacked."""
        if self._vecs is not None:
            return [v for v in self._vecs if next(iter(v))[0] >= c]
        lay = _layout(self.ring.n, self.ring.order, self.bits)
        unpack, S = lay.unpack, lay.S
        return [
            dict([(unpack(lead), 1)] + [(unpack(t), w) for t, w in tail])
            for lead, tail in self.packed[self.bits]
            if -(lead >> S) >= c  # the lead's component, as unpack reads it
        ]

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
    vecs: Sequence[dict], ring: PolyRing, limits: EngineLimits, ideal: bool = False
) -> _Divisors:
    """_reduced_basis as monic divisors, still packed at the width the
    basis was computed at: a caller that reduces by the basis skips the
    unpacking and packing again."""
    vecs = [v for v in vecs if v]
    if not vecs:
        return _Divisors([], ring)
    p = ring.p

    def run(bits: int) -> _Divisors:
        lay = _layout(ring.n, ring.order, bits)
        G = _canonical_input(vecs, lay, p)
        return _Divisors._of_packed(_packed_basis(G, lay, p, limits, ideal), lay, ring)

    return _retry(run, _width(a for v in vecs for _, a in v))


def _packed_basis(G0: list, lay: _Layout, p: int, limits: EngineLimits, ideal: bool) -> list:
    budget = Budget(limits)
    pack, divides, guard, rest = lay.pack, lay.divides, lay.guard, lay.top - 1
    G = [(lead, [(t, w) for t, w in v.items() if t != lead]) for lead, v in G0]
    leads = [lay.unpack(lead) for lead, _ in G0]  # for the lcms
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

    for j in range(len(G)):
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
# the ideal entries: rank-1 vectors at the boundary

def _rank1(terms: dict) -> dict:
    return {(0, a): c for a, c in terms.items()}


def _terms(v: dict) -> dict:
    return {a: c for (_, a), c in v.items()}


def _buchberger(gens: Sequence[dict], ring: PolyRing, limits: EngineLimits) -> list:
    """Reduced Groebner basis of the ideal spanned by `gens`, as term dicts."""
    gb = _reduced_basis([_rank1(t) for t in gens], ring, limits, ideal=True)
    out = [_terms(v) for v in gb]
    # observer sees every freshly reduced ideal basis, elimination rings included
    if out and limits.on_basis is not None:
        limits.on_basis(ring, _wrap(ring, out))
    return out


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

    __slots__ = ("ring", "gens", "_gb", "_basis")

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

    def groebner_basis(self, limits: Optional[EngineLimits] = None) -> tuple:
        gb = self._gb
        if gb is None:
            lim = resolve_limits(limits)
            if self._basis is None:
                gb = _wrap(self.ring, _buchberger([dict(g.terms) for g in self.gens], self.ring, lim))
            else:
                gb = self._basis(lim)
                # a derived basis reaches the observer like a fresh one
                if gb and lim.on_basis is not None:
                    lim.on_basis(self.ring, gb)
            self._gb = gb
        return gb

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
# elimination machinery

def _base_ring_check(ring: PolyRing) -> None:
    if ring.order.startswith("elim-"):
        raise ValueError("ideal operations expect a base (non-elimination) ring")


def _elim_ring(ring: PolyRing) -> PolyRing:
    return PolyRing(ring.p, ring.n + 1, "elim-" + ring.order)


def _lift(terms: dict, aux_exp: int) -> dict:
    return {a + (aux_exp,): c for a, c in terms.items()}


def intersect(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """I intersect J via (t*I + (1-t)*J) with t eliminated."""
    ring = I.ring
    if ring != J.ring:
        raise RingMismatchError(f"{I.ring} vs {J.ring}")
    _base_ring_check(ring)
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    ering = _elim_ring(ring)
    p = ring.p
    gens = [_lift(g.terms, 1) for g in I.gens]
    for g in J.gens:
        t = _lift(g.terms, 0)
        add_scaled(t, _lift(g.terms, 1), p - 1, ering.zero_mono(), p)
        gens.append(t)
    gb = _buchberger(gens, ering, resolve_limits(limits))
    kept = []
    for t in gb:
        if all(a[-1] == 0 for a in t):
            kept.append({a[:-1]: c for a, c in t.items()})
    return Ideal(ring, _wrap(ring, kept))


def exact_div(g: Polynomial, h: Polynomial) -> Polynomial:
    """Quotient g / h when h divides g exactly; error otherwise.

    The remainder's packed terms sit in a heap as in _divide.  Each step
    cancels the remainder's lead against h's lead by construction, so
    only h's tail is added.
    """
    if not h:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    p = ring.p

    def run(bits: int) -> dict:
        lay = _layout(ring.n, ring.order, bits)
        top, guard = lay.top, lay.guard
        tail = lay.pack_terms(h.terms)
        hlead = max(tail)
        hinv = pow(tail.pop(hlead), -1, p)
        rem = lay.pack_terms(g.terms)
        heap = [-t for t in rem]
        heapify(heap)
        q: dict = {}
        while heap:
            t = -heappop(heap)
            c = rem[t]
            if not c:
                continue
            shift = t - hlead  # lay.divides, inlined
            if not 0 <= shift < top or shift & guard:
                raise ArithmeticError(
                    f"monomial {lay.unpack(hlead)[1]} does not divide {lay.unpack(t)[1]}"
                )
            c = c * hinv % p
            q[shift] = c
            coeff = p - c
            for s, w in tail.items():
                m = s + shift
                old = rem.get(m)
                if old is None:
                    if m & guard:
                        raise _Overflow
                    rem[m] = coeff * w % p
                    heappush(heap, -m)
                else:
                    rem[m] = (old + coeff * w) % p
        return lay.unpack_terms(q, p)

    return Polynomial(ring, _retry(run, _width(chain(g.terms, h.terms))), _raw=True)


def ideal_quotient(I: Ideal, h: Polynomial, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : h) by intersecting with (h) and dividing each generator by h."""
    if not h:
        raise ValueError("colon by the zero polynomial")
    ring = I.ring
    J = intersect(I, Ideal(ring, (h,)), limits)
    return Ideal(ring, tuple(exact_div(g, h) for g in J.gens))


def _spans_all(
    divisors: _Divisors, vecs: Sequence[dict], ring: PolyRing, limits: EngineLimits
) -> bool:
    """Whether every vector reduces to zero against `divisors`, a reduced
    basis: membership in its span.  One budget covers the whole test."""
    budget = Budget(limits)
    return not any(_reduce(v, divisors, ring, budget) for v in vecs)


def ideal_quotient_ideal(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : J) as the intersection of the single-generator quotients.

    Each quotient I : h is tested as soon as it is computed: if it lies
    in I, then I : J = I, and I itself is returned, with its own
    generators.  Otherwise the quotients are intersected in order.
    """
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    ring = I.ring
    lim = resolve_limits(limits)
    divisors = _Divisors([_rank1(g.terms) for g in I.groebner_basis(limits)], ring)
    quots = []
    for h in J.gens:
        Q = ideal_quotient(I, h, limits)
        if _spans_all(divisors, [_rank1(g.terms) for g in Q.gens], ring, lim):
            return I  # I <= I : J <= I : h <= I
        quots.append(Q)
    K = quots[0]
    for Q in quots[1:]:
        K = intersect(K, Q, limits)
    return K


def saturation(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : J^infinity): iterate the colon until the reduced bases agree."""
    lim = resolve_limits(limits)
    K = I
    for _ in range(lim.max_rounds):
        K2 = ideal_quotient_ideal(K, J, limits)
        if ideals_equal(K2, K, limits):
            return K
        K = K2
    raise ResourceLimitError("saturation rounds", lim.max_rounds)
