"""Decomposition of polynomials along Frobenius levels.

Fix q = p^l.  The monomials e_i = x^i with i in [0, q-1]^n form a free
basis of R over its subring of q-th powers, so every g splits uniquely
as g = sum_i g_i^q * e_i.  Over F_p the q-th root of a coefficient is
the coefficient itself (Fermat), which makes the splitting pure exponent
arithmetic: bucket each term by its exponent residues mod q and divide
what remains by q.

The dual map psi(g) = (h*g) at the top index (q-1, ..., q-1) and the
box-wide round trip identity

    (h*g)_i == (h * e_{(q-1)-i} * g) at (q-1, ..., q-1)

are verified term-exactly; both sides are plain polynomials here, no
approximation anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product as _iproduct
from typing import Iterator, Optional

from .config import DEFAULT_LIMITS, EngineLimits, resolve_limits
from .errors import ResourceLimitError, RingMismatchError
from .groebner import Ideal
from .polycore import Polynomial, PolyRing, _is_prime, _Layout, _product_layout, _times_mod, add_scaled

__all__ = [
    "FrobeniusLevel",
    "FrobComponents",
    "level_for_degree",
    "frobenius_power",
    "frobenius_multipliers",
    "frobenius_walk",
    "bracket_power",
    "frobenius_decompose",
    "component_at",
    "psi_map",
    "td_roundtrip_check",
]


@dataclass(frozen=True)
class FrobeniusLevel:
    """The q = p^l power of Frobenius."""

    p: int
    l: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.l < 1:
            raise ValueError(f"level must be >= 1, got {self.l}")

    @property
    def q(self) -> int:
        return self.p ** self.l

    def top_index(self, n: int) -> tuple:
        return tuple(self.q - 1 for _ in range(n))

    def box(self, n: int):
        """All component indices in [0, q-1]^n, lexicographic."""
        return _iproduct(range(self.q), repeat=n)


def level_for_degree(p: int, d) -> FrobeniusLevel:
    """Smallest level with l > d (and l >= 1); d may be -inf for the
    zero polynomial."""
    l = 1
    if isinstance(d, int) and d >= 1:
        l = d + 1
    return FrobeniusLevel(p, l)


def _check_level(ring: PolyRing, lvl: FrobeniusLevel) -> None:
    if lvl.p != ring.p:
        raise ValueError(f"level is at p={lvl.p}, ring at p={ring.p}")


@dataclass(frozen=True, eq=False)
class FrobComponents:
    """The components g_i of one polynomial at one level; zero components
    are not stored."""

    ring: PolyRing
    level: FrobeniusLevel
    comps: dict

    def component(self, idx) -> Polynomial:
        return self.comps.get(tuple(idx), Polynomial.zero(self.ring))

    def indices(self) -> tuple:
        return tuple(sorted(self.comps))

    def recompose(self) -> Polynomial:
        q = self.level.q
        out = {}
        for idx, comp in self.comps.items():
            for a, c in comp.terms.items():
                out[tuple(e * q + i for e, i in zip(a, idx))] = c
        return Polynomial(self.ring, out, _raw=True)

    def __eq__(self, other):
        if not isinstance(other, FrobComponents):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.level == other.level
            and self.comps == other.comps
        )


def frobenius_decompose(g: Polynomial, lvl: FrobeniusLevel) -> FrobComponents:
    """Split g = sum_i g_i^q e_i; the q-th root of each coefficient is
    itself, so only exponents move."""
    _check_level(g.ring, lvl)
    q = lvl.q
    buckets: dict = {}
    for a, c in g.terms.items():
        idx = tuple(e % q for e in a)
        buckets.setdefault(idx, {})[tuple(e // q for e in a)] = c
    comps = {idx: Polynomial(g.ring, t, _raw=True) for idx, t in buckets.items()}
    return FrobComponents(g.ring, lvl, comps)


def component_at(g: Polynomial, idx, lvl: FrobeniusLevel) -> Polynomial:
    """The single component g_idx, without building the full splitting."""
    _check_level(g.ring, lvl)
    q = lvl.q
    idx = tuple(idx)
    if len(idx) != g.ring.n or any(i < 0 or i >= q for i in idx):
        raise ValueError(f"index {idx} outside [0,{q - 1}]^{g.ring.n}")
    out = {}
    for a, c in g.terms.items():
        if all(e % q == i for e, i in zip(a, idx)):
            out[tuple(e // q for e in a)] = c
    return Polynomial(g.ring, out, _raw=True)


def frobenius_power(g: Polynomial, lvl: FrobeniusLevel) -> Polynomial:
    """g^q by scaling exponents; coefficients are Frobenius-fixed."""
    _check_level(g.ring, lvl)
    q = lvl.q
    return Polynomial(g.ring, {tuple(e * q for e in a): c for a, c in g.terms.items()}, _raw=True)


def frobenius_multipliers(g: Polynomial, lay: _Layout) -> Iterator[dict]:
    """g^(q-1) for q = p, p^2, p^3, ..., one level per step, as packed
    terms of the product layout `lay` (polycore._product_layout).

    g^(pq-1) = (g^(q-1))^p * g^(p-1), and the p-th power is Frobenius: on
    a pack it is multiplication by p, since c^p = c in F_p.  So each step
    after the first costs one product of the large g^(q-1), scaled, with
    the small g^(p-1), and nothing is unpacked.  `lay` must hold the
    degree (q-1) deg g of the largest level taken: no field can then
    carry (frobenius_walk sizes it).
    """
    p = g.ring.p
    base = mult = lay.pack_terms((g ** (p - 1)).terms)
    while True:
        yield mult
        mult = _times_mod(base, {t * p: c for t, c in mult.items()}, p)


def _horizon(level: int, horizon: int, last: int) -> int:
    """The last level a fresh walk layout is sized for, once `level` is
    past `horizon`, the last level of the current one: every level up to
    the default level cap at once, then twice the current horizon, never
    past `last`.  A walk restarts from level 1 in the wider layout, which
    costs less than the level that forced it, since each level multiplies
    the degree by p; and a huge `last` widens no pack before the walk
    gets there."""
    return min(last, max(level, 2 * horizon, DEFAULT_LIMITS.level_cap))


def frobenius_walk(polys: dict, first: int, last: int, extra: int = 0) -> Iterator[tuple]:
    """(l, lay, {key: g^(q-1)}) for l = first..last, q = p^l, one entry
    per g = polys[key], packed in the product layout `lay`.

    The one level walk of the checks: every g walks by
    frobenius_multipliers' recurrence, built up from level 1 even when
    `first` is higher.  `lay` holds degree p^h * max deg g + extra up to a
    horizon h (_horizon), `extra` leaving room for one more factor of
    that degree: the default level cap at once, doubling after, and each
    new horizon restarts every walk from level 1 in the wider layout.
    """
    ring = next(iter(polys.values())).ring
    top = max(max(map(sum, g.terms), default=0) for g in polys.values())
    horizon = 0
    for l in range(first, last + 1):
        if l > horizon:
            horizon = _horizon(l, horizon, last)
            lay = _product_layout(ring.n, ring.p ** horizon * top + extra)
            walks = {k: islice(frobenius_multipliers(g, lay), l - 1, None) for k, g in polys.items()}
        yield l, lay, {k: next(w) for k, w in walks.items()}


def bracket_power(I: Ideal, lvl: FrobeniusLevel) -> Ideal:
    """The ideal generated by the q-th powers of the given generators.

    Its reduced basis is I's, scaled (groebner._Divisors.scaled), and no
    Buchberger run computes it past I's own.  The scaled basis reaches
    the on_basis observer like any fresh ideal basis.
    """
    _check_level(I.ring, lvl)
    gens = [frobenius_power(g, lvl) for g in I.gens]
    return Ideal(I.ring, gens, _basis=lambda limits: I._divisors(limits).scaled(lvl.q))


def psi_map(h: Polynomial, g: Polynomial, lvl: FrobeniusLevel) -> Polynomial:
    """The top component of h*g: the dual of multiplication by h."""
    if h.ring != g.ring:
        raise RingMismatchError(f"{h.ring} vs {g.ring}")
    return component_at(h * g, lvl.top_index(h.ring.n), lvl)


def td_roundtrip_check(
    h: Polynomial,
    g: Polynomial,
    lvl: FrobeniusLevel,
    limits: Optional[EngineLimits] = None,
) -> bool:
    """Check (h*g)_i == (h * e_{top-i} * g)_top for every i in the box.

    The left side comes from the full splitting of h*g; the right side
    re-extracts each component through a shifted top projection.  The
    product h*g is formed once and shifted per index, which is the same
    polynomial e_{top-i}*h*g the identity names.
    """
    ring = h.ring
    if g.ring != ring:
        raise RingMismatchError(f"{ring} vs {g.ring}")
    _check_level(ring, lvl)
    lim = resolve_limits(limits)
    q, n = lvl.q, ring.n
    if q ** n > lim.max_length:
        raise ResourceLimitError("component box size", lim.max_length)
    P = h * g
    left = frobenius_decompose(P, lvl)
    top = lvl.top_index(n)
    for idx in lvl.box(n):
        delta = tuple(q - 1 - i for i in idx)
        shifted: dict = {}
        add_scaled(shifted, P.terms, 1, delta, ring.p)
        right = component_at(Polynomial(ring, shifted, _raw=True), top, lvl)
        if left.component(idx) != right:
            return False
    return True
