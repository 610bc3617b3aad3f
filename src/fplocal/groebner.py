"""Buchberger engine and ideal operations.

The engine computes the unique reduced Groebner basis for the ring's
order: leads monic, every element fully tail-reduced against the others,
sorted in descending lead order.  Pair selection is the normal strategy
(smallest lcm first) with the product and chain criteria; every skipped
or reduced pair counts against the configured reduction budget, so a
runaway computation raises ResourceLimitError instead of spinning.

Division is heap-ordered (Monagan and Pearce, "Sparse polynomial
division using a heap", JSC 2011): normal forms and exact_div keep the
dividend's monomials in a min-heap on the ring's reversed order key, so
each key is computed once, when its monomial enters the dividend, and a
cancelled monomial is skipped when it is popped.  Divisors are monic,
so each step cancels the lead exactly.  The divisor chosen for a lead
is the first one in basis order that divides it.

Ideal quotients go through the classic elimination route: intersect with
the principal ideal using one auxiliary variable that dominates the base
order, then divide by the generator.  Saturation iterates the colon
until the reduced bases agree.

verify_confluence is an independent second route used as an oracle: it
re-derives every S-polynomial and reduces it with its own divisor policy
(reverse scan), sharing nothing with the engine's pair bookkeeping.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, le, sub
from typing import Optional, Sequence

from .config import Budget, EngineLimits, resolve_limits
from .errors import ResourceLimitError, RingMismatchError
from .polycore import (
    Polynomial,
    PolyRing,
    add_scaled,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
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
# engine internals on raw term dicts

def _monic(terms: dict, lm: tuple, p: int) -> dict:
    c = terms[lm]
    if c == 1:
        return terms
    inv = pow(c, -1, p)
    return {m: (v * inv) % p for m, v in terms.items()}


def _reduce(terms: dict, divisors: Sequence, ring: PolyRing, budget: Budget) -> dict:
    """Full normal form of `terms` against monic (lm, tdict) divisors.

    The pending monomials sit in a min-heap on ring.rkey, so each order
    key is computed once, when its monomial enters h.  h keeps every
    queued monomial, at coefficient 0 once cancelled, and a cancelled
    entry is skipped when popped.  Every monomial added while reducing
    lm is smaller than lm, so no monomial is popped twice.  The divisor's
    lead lands on lm and cancels there because the divisor is monic.
    The result lists its terms in descending order: its lead comes first.
    """
    p = ring.p
    rkey = ring.rkey
    h = dict(terms)
    heap = [(rkey(m), m) for m in h]
    heapify(heap)
    out: dict = {}
    while heap:
        lm = heappop(heap)[1]
        c = h[lm]
        if not c:
            continue
        for dlm, dterms in divisors:
            if all(map(le, dlm, lm)):
                break
        else:
            out[lm] = c
            continue
        budget.step()
        shift = tuple(map(sub, lm, dlm))
        coeff = p - c
        for a, v in dterms.items():
            m = tuple(map(add, a, shift))
            old = h.get(m)
            if old is None:
                h[m] = coeff * v % p
                heappush(heap, (rkey(m), m))
            else:
                h[m] = (old + coeff * v) % p
    return out


def _canonical_input(gens: Sequence[dict], ring: PolyRing) -> list:
    """Monic, deduplicated, deterministically ordered copies of the input."""
    p = ring.p
    key = ring.key
    seen = []
    out = []
    for t in gens:
        if not t:
            continue
        lm = max(t, key=key)
        m = _monic(t, lm, p)
        if m in seen:
            continue
        seen.append(m)
        out.append((lm, m))
    out.sort(key=lambda e: (key(e[0]), sorted(e[1].items())), reverse=True)
    return out


def _buchberger(gens: Sequence[dict], ring: PolyRing, limits: EngineLimits) -> list:
    """Reduced Groebner basis of the span of `gens`, as term dicts."""
    p = ring.p
    key = ring.key
    budget = Budget(limits)
    G = _canonical_input(gens, ring)
    if not G:
        return []

    heap: list = []
    pending = set()

    def push_pairs(j: int) -> None:
        lmj = G[j][0]
        for i in range(j):
            u = mono_lcm(G[i][0], lmj)
            heappush(heap, (key(u), i, j, u))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    while heap:
        _, i, j, u = heappop(heap)
        pending.discard((i, j))
        budget.step()
        lmi, ti = G[i]
        lmj, tj = G[j]
        if mono_mul(lmi, lmj) == u:
            continue  # product criterion: coprime leads
        skip = False
        for k2 in range(len(G)):
            if k2 == i or k2 == j:
                continue
            if mono_divides(G[k2][0], u):
                a = (i, k2) if i < k2 else (k2, i)
                b = (j, k2) if j < k2 else (k2, j)
                if a not in pending and b not in pending:
                    skip = True  # chain criterion
                    break
        if skip:
            continue
        s: dict = {}
        add_scaled(s, ti, 1, mono_div(u, lmi), p)
        add_scaled(s, tj, p - 1, mono_div(u, lmj), p)
        r = _reduce(s, G, ring, budget)
        if r:
            if len(G) >= limits.max_basis:
                raise ResourceLimitError("basis size", limits.max_basis)
            lm = next(iter(r))  # _reduce emits terms in descending order
            G.append((lm, _monic(r, lm, p)))
            push_pairs(len(G) - 1)
    out = _interreduce(G, ring, budget)
    # observer sees every freshly reduced basis, elimination rings included
    if limits.on_basis is not None:
        limits.on_basis(ring, _wrap(ring, out))
    return out


def _interreduce(G: list, ring: PolyRing, budget: Budget) -> list:
    key = ring.key
    p = ring.p
    kept: list = []
    for idx in sorted(range(len(G)), key=lambda t: key(G[t][0])):
        lm = G[idx][0]
        if any(mono_divides(klm, lm) for klm, _ in kept):
            continue
        kept.append(G[idx])
    kept.sort(key=lambda e: key(e[0]), reverse=True)
    for i in range(len(kept)):
        others = kept[:i] + kept[i + 1:]
        r = _reduce(kept[i][1], others, ring, budget)
        lm = next(iter(r))
        kept[i] = (lm, _monic(r, lm, p))
    kept.sort(key=lambda e: key(e[0]), reverse=True)
    return [t for _, t in kept]


def _wrap(ring: PolyRing, dicts: Sequence[dict]) -> tuple:
    return tuple(Polynomial(ring, t, _raw=True) for t in dicts)


def _basis_pairs(basis: Sequence[Polynomial]) -> list:
    """Monic (lm, tdict) divisors for _reduce, in basis order."""
    out = []
    for g in basis:
        lm = g.leading_monomial()
        out.append((lm, _monic(g.terms, lm, g.ring.p)))
    return out


class Ideal:
    """An ideal of a PolyRing, with a lazily computed reduced basis.

    Generators are stored nonzero and in the given order; the basis
    cache is filled compute-then-publish, so concurrent readers either
    see nothing or the finished tuple.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens: Sequence):
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

    def groebner_basis(self, limits: Optional[EngineLimits] = None) -> tuple:
        gb = self._gb
        if gb is None:
            lim = resolve_limits(limits)
            gb = _wrap(self.ring, _buchberger([dict(g.terms) for g in self.gens], self.ring, lim))
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
    r = _reduce(dict(g.terms), _basis_pairs(basis), ring, budget)
    return Polynomial(ring, r, _raw=True)


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

    The remainder's monomials sit in a heap as in _reduce.  Each step
    cancels the remainder's lead against h's lead by construction, so
    only h's tail is added.
    """
    if not h:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    p = ring.p
    rkey = ring.rkey
    hlm = h.leading_monomial()
    hinv = pow(h.terms[hlm], -1, p)
    tail = [(a, v) for a, v in h.terms.items() if a != hlm]
    rem = dict(g.terms)
    heap = [(rkey(m), m) for m in rem]
    heapify(heap)
    q: dict = {}
    while heap:
        lm = heappop(heap)[1]
        c = rem[lm]
        if not c:
            continue
        shift = mono_div(lm, hlm)  # raises if not divisible
        c = (c * hinv) % p
        q[shift] = c
        coeff = p - c
        for a, v in tail:
            m = tuple(map(add, a, shift))
            old = rem.get(m)
            if old is None:
                rem[m] = coeff * v % p
                heappush(heap, (rkey(m), m))
            else:
                rem[m] = (old + coeff * v) % p
    return Polynomial(ring, q, _raw=True)


def ideal_quotient(I: Ideal, h: Polynomial, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : h) by intersecting with (h) and dividing each generator by h."""
    if not h:
        raise ValueError("colon by the zero polynomial")
    ring = I.ring
    J = intersect(I, Ideal(ring, (h,)), limits)
    return Ideal(ring, tuple(exact_div(g, h) for g in J.gens))


def ideal_quotient_ideal(I: Ideal, J: Ideal, limits: Optional[EngineLimits] = None) -> Ideal:
    """(I : J) as the intersection of the single-generator quotients."""
    if J.is_zero():
        raise ValueError("colon by the zero ideal")
    K = ideal_quotient(I, J.gens[0], limits)
    for h in J.gens[1:]:
        K = intersect(K, ideal_quotient(I, h, limits), limits)
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
