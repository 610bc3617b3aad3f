"""An F_p linear-algebra oracle for ideal membership, sharing no code with
fplocal.

Polynomials are plain dicts {exponent tuple: coefficient in [1, p)}.
For an ideal I generated by homogeneous polynomials, the degree-d piece
I_d is the F_p-span of {x^a * f_i : |a| + deg f_i = d}, and a polynomial
w lies in I exactly when every homogeneous component w_d lies in I_d.
The benchmark builds every input at a point a as h(x - a) for homogeneous
h, so after translating by a every question becomes one about a graded
ideal, which is what this module answers.

Nothing here imports fplocal: the oracle must stay a second route that a
fault in the engine cannot reach.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb

__all__ = [
    "parse",
    "fmt",
    "add",
    "mul",
    "power",
    "translate",
    "degree",
    "components",
    "monomials",
    "grevlex_key",
    "GradedIdeal",
]


# ---------------------------------------------------------------------------
# dict polynomials

def monomials(n: int, d: int) -> list:
    """Exponent tuples of total degree d in n variables, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def grevlex_key(a: tuple) -> tuple:
    """Sort key of the degree reverse lexicographic order (larger is bigger)."""
    return (sum(a), tuple(-e for e in reversed(a)))


def _put(acc: dict, m: tuple, c: int, p: int) -> None:
    v = (acc.get(m, 0) + c) % p
    if v:
        acc[m] = v
    else:
        acc.pop(m, None)


def add(f: dict, g: dict, p: int) -> dict:
    out = dict(f)
    for m, c in g.items():
        _put(out, m, c, p)
    return out


def mul(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for a, ca in f.items():
        for b, cb in g.items():
            _put(out, tuple(x + y for x, y in zip(a, b)), ca * cb, p)
    return out


def power(f: dict, e: int, n: int, p: int) -> dict:
    out = {(0,) * n: 1}
    for _ in range(e):
        out = mul(out, f, p)
    return out


def translate(f: dict, point, p: int) -> dict:
    """f(x + a), expanded term by term with the binomial theorem."""
    n = len(point)
    out: dict = {}
    for mono, c in f.items():
        term = {(0,) * n: c}
        for i, e in enumerate(mono):
            if not e:
                continue
            factor = {}
            for k in range(e + 1):
                cc = comb(e, k) * pow(point[i], e - k, p) % p
                if cc:
                    factor[tuple(k if j == i else 0 for j in range(n))] = cc
            term = mul(term, factor, p)
        for m, v in term.items():
            _put(out, m, v, p)
    return out


def degree(f: dict) -> int:
    return max(sum(m) for m in f) if f else -1


def components(f: dict) -> dict:
    """Homogeneous components {d: f_d}."""
    out: dict = {}
    for m, c in f.items():
        out.setdefault(sum(m), {})[m] = c
    return out


def parse(text: str, n: int, p: int) -> dict:
    """Read the printed form '2*x1^2*x3 + x2 + 1' (terms joined by '+')."""
    out: dict = {}
    if text.strip() == "0":
        return out
    for term in text.split("+"):
        c = 1
        e = [0] * n
        factors = term.split("*")
        for fac in factors:
            fac = fac.strip()
            if fac.isdigit():
                c *= int(fac)
            elif fac.startswith("x"):
                var, _, ex = fac[1:].partition("^")
                k = int(var)
                if not 1 <= k <= n:
                    raise ValueError(f"variable x{k} outside x1..x{n} in {text!r}")
                e[k - 1] += int(ex) if ex else 1
            else:
                raise ValueError(f"cannot read factor {fac!r} in {text!r}")
        _put(out, tuple(e), c, p)
    return out


def fmt(f: dict) -> str:
    """Printed form in descending grevlex order, for messages and tests."""
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=grevlex_key, reverse=True):
        fac = [] if f[m] == 1 and any(m) else [str(f[m])]
        fac += [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e]
        parts.append("*".join(fac))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# graded pieces of a homogeneous ideal

class _Echelon:
    """A subspace of F_p^(columns) in reduced echelon form: rows keyed by
    pivot column, every pivot 1 and absent from every other row."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict = {}

    def reduce(self, v: dict) -> dict:
        p = self.p
        v = dict(v)
        for col in [c for c in v if c in self.rows]:
            c = v.get(col)
            if c:
                for k, x in self.rows[col].items():
                    _put(v, k, -c * x, p)
        return v

    def insert(self, v: dict) -> None:
        """Add v to the span."""
        p = self.p
        v = self.reduce(v)
        if not v:
            return
        piv = max(v)
        inv = pow(v[piv], -1, p)
        v = {k: x * inv % p for k, x in v.items()}
        for row in self.rows.values():
            c = row.get(piv)
            if c:
                for k, x in v.items():
                    _put(row, k, -c * x, p)
        self.rows[piv] = v

    @property
    def rank(self) -> int:
        return len(self.rows)


class GradedIdeal:
    """The ideal of F_p[x1..xn] generated by homogeneous polynomials,
    answered one degree at a time by linear algebra."""

    def __init__(self, gens, n: int, p: int):
        self.n = n
        self.p = p
        self.gens = [dict(g) for g in gens if g]
        for g in self.gens:
            if len(components(g)) != 1:
                raise ValueError(f"generator {fmt(g)} is not homogeneous")
        self._pieces: dict = {}
        self._index: dict = {}

    def _columns(self, d: int) -> dict:
        idx = self._index.get(d)
        if idx is None:
            idx = {m: k for k, m in enumerate(monomials(self.n, d))}
            self._index[d] = idx
        return idx

    def _vector(self, f: dict, d: int) -> dict:
        idx = self._columns(d)
        return {idx[m]: c for m, c in f.items()}

    def piece(self, d: int) -> _Echelon:
        """I_d in reduced echelon form over the monomials of degree d."""
        ech = self._pieces.get(d)
        if ech is None:
            ech = _Echelon(self.p)
            idx = self._columns(d)
            for g in self.gens:
                k = d - degree(g)
                if k < 0:
                    continue
                for a in monomials(self.n, k):
                    ech.insert({idx[tuple(x + y for x, y in zip(a, m))]: c for m, c in g.items()})
            self._pieces[d] = ech
        return ech

    def dim(self, d: int) -> int:
        return self.piece(d).rank

    def contains(self, w: dict) -> bool:
        """w in I, component by component."""
        for d, wd in components(w).items():
            if self.piece(d).reduce(self._vector(wd, d)):
                return False
        return True

    def killed_by_power_of_m(self, w: dict, kmax: int):
        """Smallest k <= kmax with x^b * w in I for every |b| = k, or None."""
        for k in range(kmax + 1):
            if all(self.contains(mul({b: 1}, w, self.p)) for b in monomials(self.n, k)):
                return k
        return None

    def colon_m_dim(self, d: int) -> int:
        """dim (I : m)_d, as dim R_d minus the rank of
        R_d -> (R_{d+1} / I_{d+1})^n, u -> (x_j * u mod I)_j."""
        up = self.piece(d + 1)
        idx = self._columns(d + 1)
        width = len(idx)
        image = _Echelon(self.p)
        for m in monomials(self.n, d):
            row: dict = {}
            for j in range(self.n):
                xm = tuple(e + (1 if i == j else 0) for i, e in enumerate(m))
                for col, c in up.reduce({idx[xm]: 1}).items():
                    row[j * width + col] = c
            image.insert(row)
        return len(self._columns(d)) - image.rank

    def saturated_through(self, dmax: int) -> bool:
        """(I : m)_d == I_d for every d <= dmax (I_d is always inside)."""
        return all(self.colon_m_dim(d) == self.dim(d) for d in range(dmax + 1))

    def colength(self, dmax: int):
        """dim_F R/I when R_d = I_d for some d <= dmax, else None."""
        total = 0
        for d in range(dmax + 1):
            rest = len(self._columns(d)) - self.dim(d)
            if rest == 0:
                return total
            total += rest
        return None
