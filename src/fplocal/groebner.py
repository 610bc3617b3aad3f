"""Buchberger engine and ideal operations.

One engine serves ideals and modules.  It works on flat vectors
{(component, monomial): coeff} in position-over-term order: component 0
dominates, ties broken by the ring's monomial order.  An ideal is the
rank-1 case: _buchberger and normal_form lift {a: c} to {(0, a): c} at
the boundary and convert back, and modres calls the engine directly.

The engine computes the unique reduced basis for the order: leads monic,
every element fully tail-reduced against the others, sorted in
descending lead order.  Pairs are formed between leads in one component
and selected by the normal strategy (smallest lcm in the module order
first); every skipped or reduced pair counts against the configured
reduction budget, so a runaway computation raises ResourceLimitError
instead of spinning.  The product and chain criteria are applied to
ideals only.
The product criterion is unsound for modules.  The chain criterion is
sound within one component, but it stays off for modules until module
bases have a confluence check of their own, as ideal bases have in
verify_confluence; only ideal bases reach the on_basis observer.

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
# the engine, on flat vectors {(component, monomial): coeff}

def _vkey(ring: PolyRing):
    """Sort key of a (component, monomial) term in position-over-term order."""
    k = ring.key

    def vk(cm):
        return (-cm[0], k(cm[1]))

    return vk


def _add_scaled(acc: dict, src: dict, coeff: int, shift: tuple, p: int) -> None:
    """acc += coeff * x^shift * src, in place, dropping cancelled terms."""
    for (c, a), v in src.items():
        m = (c, tuple(map(add, a, shift)))
        w = (acc.get(m, 0) + coeff * v) % p
        if w:
            acc[m] = w
        else:
            acc.pop(m, None)


def _monic(v: dict, lead, p: int) -> dict:
    c = v[lead]
    if c == 1:
        return v
    inv = pow(c, -1, p)
    return {m: (w * inv) % p for m, w in v.items()}


def _reduce(v: dict, divisors: Sequence, ring: PolyRing, budget: Budget) -> dict:
    """Full normal form of `v` against monic (lead, vec) divisors.

    The pending terms sit in a min-heap on (component, ring.rkey(monomial)),
    so each order key is computed once, when its term enters h.  h keeps
    every queued term, at coefficient 0 once cancelled, and a cancelled
    entry is skipped when popped.  Every term added while reducing a lead
    is smaller than it, so no term is popped twice.  The divisor's lead
    lands on the popped lead and cancels there because the divisor is
    monic.  The result lists its terms in descending order: its lead
    comes first.
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


def _divisors(vecs: Sequence[dict], ring: PolyRing) -> list:
    """Monic (lead, vec) divisors for _reduce, in the given order."""
    vk = _vkey(ring)
    out = []
    for v in vecs:
        lead = max(v, key=vk)
        out.append((lead, _monic(v, lead, ring.p)))
    return out


def _canonical_input(vecs: Sequence[dict], ring: PolyRing) -> list:
    """Monic, deduplicated, deterministically ordered copies of the input."""
    vk = _vkey(ring)
    out: list = []
    for e in _divisors([v for v in vecs if v], ring):
        if e not in out:
            out.append(e)
    out.sort(key=lambda e: (vk(e[0]), sorted(e[1].items())), reverse=True)
    return out


def _reduced_basis(
    vecs: Sequence[dict], ring: PolyRing, limits: EngineLimits, ideal: bool = False
) -> list:
    """Reduced basis of the span of `vecs`, position-over-term order.

    Pairs are formed only between leads in one component and popped
    smallest first on (-component, lcm).  `ideal` marks rank-1 input
    from the ideal entry: only there are the product and chain criteria
    applied, and a basis overflow is reported as "basis size" rather
    than "module basis size".
    """
    p = ring.p
    key = ring.key
    budget = Budget(limits)
    G = _canonical_input(vecs, ring)
    if not G:
        return []

    heap: list = []
    pending = set()

    def push_pairs(j: int) -> None:
        cj, aj = G[j][0]
        for i in range(j):
            ci, ai = G[i][0]
            if ci == cj:
                u = mono_lcm(ai, aj)
                heappush(heap, (-cj, key(u), i, j, u))
                pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    while heap:
        _, _, i, j, u = heappop(heap)
        pending.discard((i, j))
        budget.step()
        (c, ai), ti = G[i]
        aj, tj = G[j][0][1], G[j][1]
        if ideal:
            if mono_mul(ai, aj) == u:
                continue  # product criterion: coprime leads
            skip = False
            for k2 in range(len(G)):
                if k2 == i or k2 == j:
                    continue
                kc, ka = G[k2][0]
                if kc == c and mono_divides(ka, u):
                    a = (i, k2) if i < k2 else (k2, i)
                    b = (j, k2) if j < k2 else (k2, j)
                    if a not in pending and b not in pending:
                        skip = True  # chain criterion
                        break
            if skip:
                continue
        s: dict = {}
        _add_scaled(s, ti, 1, tuple(map(sub, u, ai)), p)
        _add_scaled(s, tj, p - 1, tuple(map(sub, u, aj)), p)
        r = _reduce(s, G, ring, budget)
        if r:
            if len(G) >= limits.max_basis:
                kind = "basis size" if ideal else "module basis size"
                raise ResourceLimitError(kind, limits.max_basis)
            lead = next(iter(r))  # _reduce emits terms in descending order
            G.append((lead, _monic(r, lead, p)))
            push_pairs(len(G) - 1)
    return _interreduce(G, ring, budget)


def _interreduce(G: list, ring: PolyRing, budget: Budget) -> list:
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
        r = _reduce(kept[i][1], others, ring, budget)
        lead = next(iter(r))
        kept[i] = (lead, _monic(r, lead, p))
    kept.sort(key=lambda e: vk(e[0]), reverse=True)
    return [v for _, v in kept]


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
    divisors = _divisors([_rank1(b.terms) for b in basis], ring)
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
