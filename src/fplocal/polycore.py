"""Sparse multivariate polynomials over prime fields F_p.

A polynomial is a map from exponent tuples to nonzero coefficients in
[1, p); the zero polynomial is the empty map.  The ring object fixes the
modulus, the variable count and the monomial order, and every operation
is exact integer arithmetic mod p.

Two layers coexist on purpose: Polynomial is the immutable public value,
while the raw dict helpers are the hot-loop kernels shared with the
Groebner engine and the module layer.  The kernels never mutate a
Polynomial's term map; they work on plain dict copies.

One packing scheme serves the whole package.  _Layout packs a term
(component, monomial) into one int whose fields are sums of exponents,
for one monomial order and one field width; it is linear in the
exponents, so multiplying two terms adds their packs.  The engine in
groebner orders, divides and restarts on these packs (see there).
Products use the same layout in its lex form, one field per variable:
dict_mul packs each operand once, multiplies with _mul_acc, which adds
packs and leaves the coefficient sums unreduced, and unpacks the result
once, reducing mod p.  Its fields are sized from deg A + deg B, which
bounds every exponent of the product, so no field can carry.
Polynomial.translate runs the same kernel on each term's binomial
factors, and so does PolyMatrix.apply in modres, with every matrix
entry packed once per call and each output entry accumulated in one
packed dict.  Polynomial.__pow__ packs its base once, in a layout
sized for the final degree, so its Frobenius steps scale packs by p and
its squarings stay packed until the one unpack at the end.  The
Frobenius walks of frobenius and koszul keep their packs in one layout
from the first level to the last, and exact identities, sums of
products that must vanish, are decided on packs by _vanishes: the
Koszul d compose d and chain-map checks and the composite check of a
resolution use it, and nothing is unpacked for them.  add_scaled
stays on exponent tuples: it serves sums and the confluence verifier,
which shares no code with the engine.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import ParseError, RingMismatchError

__all__ = [
    "MINUS_INF",
    "PolyRing",
    "Polynomial",
    "RationalPoint",
    "mono_mul",
    "mono_div",
    "mono_divides",
    "mono_lcm",
    "monomials_of_degree",
    "monomials_up_to_degree",
    "parse_poly",
    "add_scaled",
    "dict_mul",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin: the first 12 primes as bases decide
    every m below 3.1e23, which covers all 64-bit moduli."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class _MinusInfinity:
    """Total degree of the zero polynomial; compares below every integer."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not MINUS_INF

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is MINUS_INF

    def __add__(self, other):
        return MINUS_INF

    __radd__ = __add__

    def __repr__(self):
        return "-inf"


MINUS_INF = _MinusInfinity()


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    """Exact quotient a / b; raises ArithmeticError on a negative exponent."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ArithmeticError(f"monomial {b} does not divide {a}")
    return q


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(x if x >= y else y for x, y in zip(a, b))


def monomials_of_degree(n: int, d: int) -> Iterator[tuple]:
    """All exponent tuples of total degree exactly d, deterministic order."""
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


def monomials_up_to_degree(n: int, d: int) -> Iterator[tuple]:
    for k in range(d + 1):
        yield from monomials_of_degree(n, k)


def _lex_key(a: tuple) -> tuple:
    return a


def _grevlex_key(a: tuple):
    return (sum(a), tuple(-e for e in reversed(a)))


class PolyRing:
    """F_p[x1, ..., xn] with a fixed monomial order.

    order is 'grevlex' (default) or 'lex'.  Orders of the form
    'elim-grevlex' / 'elim-lex' make the last variable dominant over a
    base order on the rest, for eliminating that variable.

    key sorts monomials ascending in the order.
    """

    __slots__ = ("p", "n", "order", "key")

    def __init__(self, p: int, n: int, order: str = "grevlex"):
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        base = order[5:] if order.startswith("elim-") else order
        if base == "grevlex":
            base_key = _grevlex_key
        elif base == "lex":
            base_key = _lex_key
        else:
            raise ValueError(f"unknown monomial order {order!r}")
        self.p = p
        self.n = n
        self.order = order
        if order.startswith("elim-"):
            self.key = lambda a, _bk=base_key: (a[-1], _bk(a[:-1]))
        else:
            self.key = base_key

    def zero_mono(self) -> tuple:
        return (0,) * self.n

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.n == other.n
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.p, self.n, self.order))

    def __repr__(self):
        return f"PolyRing(p={self.p}, n={self.n}, order={self.order!r})"


# ---------------------------------------------------------------------------
# packed terms: one int per (component, monomial)

def _order_fields(order: str, xs: list) -> list:
    """The variables summed in each order field, most significant first."""
    if order.startswith("elim-"):
        return [(xs[-1],)] + _order_fields(order[5:], xs[:-1])
    if order == "lex":
        return [(x,) for x in xs]
    return [tuple(xs[:k]) for k in range(len(xs), 0, -1)]  # grevlex partial sums


class _Layout:
    """How terms in n variables pack into ints, for one monomial order
    and one field width.

    The fields, most significant first, are the order fields and then one
    plain field per variable that no order field holds alone.  Each field
    is `bits` wide with a guard bit above it; the negated component sits
    above all of them.
    """

    __slots__ = ("bits", "S", "top", "mask", "guard", "units", "offsets")

    def __init__(self, n: int, order: str, bits: int):
        fields = _order_fields(order, list(range(n)))
        fields += [(x,) for x in range(n) if (x,) not in fields]
        stride = bits + 1
        offset = {f: (len(fields) - 1 - k) * stride for k, f in enumerate(fields)}
        self.bits = bits
        self.S = len(fields) * stride
        self.top = 1 << self.S  # the packs of component 0 are [0, top)
        self.mask = (1 << bits) - 1
        self.guard = sum(1 << (o + bits) for o in offset.values())
        self.units = [sum(1 << o for f, o in offset.items() if x in f) for x in range(n)]
        self.offsets = [offset[(x,)] for x in range(n)]

    def pack(self, c: int, a: tuple) -> int:
        return (-c << self.S) + sum(map(mul, a, self.units))

    def unpack(self, t: int) -> tuple:
        m = self.mask
        return (-(t >> self.S), tuple([(t >> o) & m for o in self.offsets]))

    def divides(self, d: int, t: int) -> bool:
        """D divides T when T - D has component 0 and no field borrowed."""
        s = t - d
        return 0 <= s < self.top and not s & self.guard

    def pack_vec(self, v: Mapping) -> dict:
        S, units = self.S, self.units  # pack, inlined
        return {(-c << S) + sum(map(mul, a, units)): w for (c, a), w in v.items()}

    def unpack_vec(self, v: Mapping) -> dict:
        S, m, offsets = self.S, self.mask, self.offsets  # unpack, inlined
        return {(-(t >> S), tuple([(t >> o) & m for o in offsets])): w for t, w in v.items()}

    def pack_terms(self, terms: Mapping) -> dict:
        """{monomial: coeff} as packed terms of component 0."""
        units = self.units
        return {sum(map(mul, a, units)): c for a, c in terms.items()}

    def unpack_terms(self, acc: Mapping, p: int) -> dict:
        """Packed terms of component 0 as {monomial: coeff}, coefficients
        reduced mod p and zeros dropped."""
        m, offsets = self.mask, self.offsets
        return {
            tuple([(t >> o) & m for o in offsets]): w for t, c in acc.items() if (w := c % p)
        }


@lru_cache(maxsize=None)  # one entry per (n, order, width) in use
def _layout(n: int, order: str, bits: int) -> _Layout:
    return _Layout(n, order, bits)


def _bits(d: int) -> int:
    """The first field width, 8 bits or a power of two above, that holds d."""
    bits = 8
    while d >> bits:
        bits *= 2
    return bits


def _width(monos: Iterable[tuple]) -> int:
    """The engine's first field width: it holds four times the largest
    degree, since every field is a sum of exponents."""
    return _bits(4 * max(map(sum, monos), default=0))


def _product_layout(n: int, d: int) -> _Layout:
    """The packing for products of degree at most d: the lex layout, one
    field per variable, wide enough for d.  A product's exponent is at
    most its degree, so adding two packs never carries."""
    return _layout(n, "lex", _bits(d))


def _mul_acc(acc: dict, A: Mapping, B: Mapping) -> None:
    """acc += A * B on packed terms, coefficients left unreduced.  The
    outer loop should run over the smaller operand."""
    get = acc.get
    for a, ca in A.items():
        for b, cb in B.items():
            m = a + b
            acc[m] = get(m, 0) + ca * cb


def _times_mod(A: Mapping, B: Mapping, p: int) -> dict:
    """A * B on packed terms, reduced mod p with zeros dropped."""
    acc: dict = {}
    _mul_acc(acc, A, B)
    return {t: r for t, c in acc.items() if (r := c % p)}


def _vanishes(products: Iterable, p: int) -> bool:
    """Whether the sum of A * B over the packed pairs (A, B) is zero: the
    products accumulate unreduced in one dict, which is reduced mod p
    once.  Exact, and nothing is unpacked."""
    acc: dict = {}
    for A, B in products:
        _mul_acc(acc, A, B)
    return not any(c % p for c in acc.values())


# ---------------------------------------------------------------------------
# raw term-dict kernels

def add_scaled(acc: dict, src: Mapping, coeff: int, shift: tuple, p: int) -> None:
    """acc += coeff * x^shift * src, in place, dropping cancelled terms."""
    for a, c in src.items():
        m = tuple(x + y for x, y in zip(a, shift))
        v = (acc.get(m, 0) + coeff * c) % p
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def dict_mul(A: Mapping, B: Mapping, p: int) -> dict:
    """A * B: both operands packed once, multiplied by adding packs, and
    the product unpacked once."""
    if not A or not B:
        return {}
    if len(A) > len(B):
        A, B = B, A
    lay = _product_layout(len(next(iter(A))), max(map(sum, A)) + max(map(sum, B)))
    acc: dict = {}
    _mul_acc(acc, lay.pack_terms(A), lay.pack_terms(B))
    return lay.unpack_terms(acc, p)


class Polynomial:
    """Immutable sparse polynomial.  Treat .terms as read-only."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Union[Mapping, Iterable] = (), *, _raw: bool = False):
        self.ring = ring
        if _raw:
            # internal fast path: terms is already a clean dict
            self.terms = terms
            return
        clean: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for mono, c in items:
            mono = tuple(mono)
            if len(mono) != ring.n:
                raise ValueError(f"exponent tuple {mono} has length != {ring.n}")
            if any((not isinstance(e, int)) or e < 0 for e in mono):
                raise ValueError(f"exponents must be non-negative integers: {mono}")
            v = (clean.get(mono, 0) + int(c)) % ring.p
            if v:
                clean[mono] = v
            else:
                clean.pop(mono, None)
        self.terms = clean

    # -- constructors

    @classmethod
    def zero(cls, ring: PolyRing) -> "Polynomial":
        return cls(ring, {}, _raw=True)

    @classmethod
    def constant(cls, ring: PolyRing, c: int) -> "Polynomial":
        c = int(c) % ring.p
        return cls(ring, {ring.zero_mono(): c} if c else {}, _raw=True)

    @classmethod
    def one(cls, ring: PolyRing) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring: PolyRing, k: int) -> "Polynomial":
        """The variable x_k, 1-based to match the text syntax x1..xn."""
        if not 1 <= k <= ring.n:
            raise ValueError(f"variable index {k} out of range 1..{ring.n}")
        mono = tuple(1 if i == k - 1 else 0 for i in range(ring.n))
        return cls(ring, {mono: 1}, _raw=True)

    @classmethod
    def monomial(cls, ring: PolyRing, exps: Sequence[int], coeff: int = 1) -> "Polynomial":
        return cls(ring, {tuple(exps): coeff})

    # -- structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self):
        if not self.terms:
            return MINUS_INF
        return max(sum(a) for a in self.terms)

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.key)

    def leading_coeff(self) -> int:
        return self.terms[self.leading_monomial()]

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {self.ring.zero_mono()}

    def is_homogeneous(self) -> bool:
        degs = {sum(a) for a in self.terms}
        return len(degs) <= 1

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        c = self.leading_coeff()
        if c == 1:
            return self
        inv = pow(c, -1, self.ring.p)
        return Polynomial(
            self.ring, {a: (v * inv) % self.ring.p for a, v in self.terms.items()}, _raw=True
        )

    # -- arithmetic

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        add_scaled(out, other.terms, 1, self.ring.zero_mono(), self.ring.p)
        return Polynomial(self.ring, out, _raw=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        add_scaled(out, other.terms, self.ring.p - 1, self.ring.zero_mono(), self.ring.p)
        return Polynomial(self.ring, out, _raw=True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, {a: p - c for a, c in self.terms.items()}, _raw=True)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return Polynomial.zero(self.ring)
            return Polynomial(
                self.ring, {a: (v * c) % self.ring.p for a, v in self.terms.items()}, _raw=True
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(self.ring, dict_mul(self.terms, other.terms, self.ring.p), _raw=True)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        """self^e by its base-p digits: g^(d0 + d1*p + ...) is the product
        of the (g^(p^k))^dk, where g^(p^k) scales every exponent by p^k
        (c^p = c in F_p), and each digit's power is a square-and-multiply.

        All of it runs on packs in one product layout sized for the final
        degree e * deg g, one field per variable: no intermediate power
        has a larger exponent, so a Frobenius step multiplies every pack
        by p, no field can carry, and the result is unpacked once.
        """
        if e < 0:
            raise ValueError("negative powers are not defined in R")
        ring = self.ring
        if not e:
            return Polynomial.one(ring)
        if not self.terms:
            return self
        p = ring.p
        lay = _product_layout(ring.n, e * max(map(sum, self.terms)))
        base = lay.pack_terms(self.terms)
        result = None
        while e:
            e, d = divmod(e, p)
            square = base
            while d:
                if d & 1:
                    result = square if result is None else _times_mod(result, square, p)
                d >>= 1
                if d:
                    square = _times_mod(square, square, p)
            if e:
                base = {t * p: c for t, c in base.items()}
        return Polynomial(ring, lay.unpack_terms(result, p), _raw=True)

    # -- substitution

    def evaluate(self, point) -> int:
        coords = _coords(self.ring, point)
        p = self.ring.p
        total = 0
        for a, c in self.terms.items():
            v = c
            for x, e in zip(coords, a):
                if e:
                    v = (v * pow(x, e, p)) % p
            total = (total + v) % p
        return total

    def translate(self, point) -> "Polynomial":
        """g(x + a): shift coordinates by the rational point a.

        Each term expands as a product of binomial powers (x_i + a_i)^e,
        on packed terms: no term of g(x + a) has a larger degree than g.
        """
        coords = _coords(self.ring, point)
        if not any(coords):
            return self
        ring = self.ring
        p = ring.p
        lay = _product_layout(ring.n, max(map(sum, self.terms), default=0))
        units = lay.units
        cache: dict = {}
        out: dict = {}
        for mono, c in self.terms.items():
            term = {0: c}
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                a = coords[i]
                if a == 0:
                    shift = e * units[i]
                    term = {m + shift: v for m, v in term.items()}
                    continue
                factor = cache.get((i, e))
                if factor is None:
                    factor = cache[(i, e)] = {
                        k * units[i]: cc
                        for k in range(e + 1)
                        if (cc := math.comb(e, k) * pow(a, e - k, p) % p)
                    }
                prod: dict = {}
                _mul_acc(prod, term, factor)
                term = prod
            for m, v in term.items():
                out[m] = out.get(m, 0) + v
        return Polynomial(ring, lay.unpack_terms(out, p), _raw=True)

    # -- comparison and text

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=self.ring.key, reverse=True):
            c = self.terms[mono]
            factors = []
            if c != 1 or not any(mono):
                factors.append(str(c))
            for i, e in enumerate(mono):
                if e == 0:
                    continue
                factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return str(self)


class RationalPoint:
    """An F_p-rational point: a length-n coordinate vector over F_p."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: PolyRing, coords: Sequence[int]):
        coords = tuple(int(c) % ring.p for c in coords)
        if len(coords) != ring.n:
            raise ValueError(f"point needs {ring.n} coordinates, got {len(coords)}")
        self.ring = ring
        self.coords = coords

    @classmethod
    def origin(cls, ring: PolyRing) -> "RationalPoint":
        return cls(ring, (0,) * ring.n)

    def is_origin(self) -> bool:
        return not any(self.coords)

    def __neg__(self) -> "RationalPoint":
        return RationalPoint(self.ring, tuple(-c for c in self.coords))

    def __eq__(self, other):
        if not isinstance(other, RationalPoint):
            return NotImplemented
        return self.ring == other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        return f"RationalPoint({self.coords})"


def _coords(ring: PolyRing, point) -> tuple:
    if isinstance(point, RationalPoint):
        if point.ring.p != ring.p or point.ring.n != ring.n:
            raise RingMismatchError(f"{point.ring} point used in {ring}")
        return point.coords
    coords = tuple(int(c) % ring.p for c in point)
    if len(coords) != ring.n:
        raise ValueError(f"point needs {ring.n} coordinates, got {len(coords)}")
    return coords


# ---------------------------------------------------------------------------
# instances: a generator list f_1..f_s in one ring, asked at a point


def _ring_of(f: Sequence[Polynomial]) -> PolyRing:
    """The one ring of a nonempty generator list."""
    if not f:
        raise ValueError("need at least one polynomial")
    ring = f[0].ring
    for g in f:
        if g.ring != ring:
            raise RingMismatchError(f"{g.ring} generator among {ring} generators")
    return ring


def _sum_deg(f: Sequence[Polynomial]) -> int:
    """sum deg(f_i), a zero generator counting 0: the paper's bound is
    n - sum deg(f_i)."""
    return sum(g.total_degree() for g in f if g)


def _normalize_point(ring: PolyRing, point) -> Optional[RationalPoint]:
    """The point as a RationalPoint of `ring`; None for no point and for
    the origin, where no translation is needed."""
    if point is None:
        return None
    pt = point if isinstance(point, RationalPoint) else RationalPoint(ring, point)
    return None if pt.is_origin() else pt


# ---------------------------------------------------------------------------
# text grammar
#
#   poly   := [sign] term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := integer | power
#   power  := 'x' index ['^' exponent]
#
# Whitespace is ignored.  Variables are x1..xn.  format() emits the
# canonical form: terms in descending ring order, coefficients in [1, p),
# exponent 1 left implicit; parse(format(g)) == g.

def _tokenize(text: str):
    tokens = []
    pos = 0
    end = len(text)
    while pos < end:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            j = pos
            while j < end and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[pos:j]), pos))
            pos = j
        elif ch == "x":
            j = pos + 1
            while j < end and text[j].isdigit():
                j += 1
            if j == pos + 1:
                raise ParseError("variable needs an index", text, pos)
            tokens.append(("var", int(text[pos + 1:j]), pos))
            pos = j
        elif ch in "^*+-":
            tokens.append((ch, ch, pos))
            pos += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", text, pos)
    tokens.append(("end", None, end))
    return tokens


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Parse the canonical polynomial grammar over the given ring."""
    tokens = _tokenize(text)
    k = 0

    def peek():
        return tokens[k]

    def advance():
        nonlocal k
        tok = tokens[k]
        k += 1
        return tok

    terms: dict = {}
    kind, _, pos = peek()
    if kind == "end":
        raise ParseError("empty polynomial text", text, pos)

    while True:
        sign = 1
        kind, _, pos = peek()
        if kind in "+-":
            advance()
            sign = -1 if kind == "-" else 1
        coeff = 1
        exps = [0] * ring.n
        saw_factor = False
        while True:
            kind, val, pos = peek()
            if kind == "int":
                advance()
                coeff = coeff * val
            elif kind == "var":
                advance()
                if not 1 <= val <= ring.n:
                    raise ParseError(f"variable x{val} out of range 1..{ring.n}", text, pos)
                e = 1
                if peek()[0] == "^":
                    advance()
                    ekind, eval_, epos = peek()
                    if ekind != "int":
                        raise ParseError("exponent must be an integer", text, epos)
                    advance()
                    e = eval_
                exps[val - 1] += e
            else:
                raise ParseError("expected a coefficient or variable", text, pos)
            saw_factor = True
            if peek()[0] == "*":
                advance()
                continue
            break
        if not saw_factor:
            raise ParseError("empty term", text, pos)
        mono = tuple(exps)
        v = (terms.get(mono, 0) + sign * coeff) % ring.p
        if v:
            terms[mono] = v
        else:
            terms.pop(mono, None)
        kind, _, pos = peek()
        if kind == "end":
            break
        if kind not in "+-":
            raise ParseError("expected '+' or '-' between terms", text, pos)
    return Polynomial(ring, terms, _raw=True)
