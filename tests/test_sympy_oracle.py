"""Reduced Groebner bases against sympy's, where sympy is installed.

sympy is not a dependency of fplocal: this file is skipped without it.
sympy.groebner(..., modulus=p) returns the monic reduced basis with
coefficients in the symmetric range (-p/2, p/2]; they are mapped to
[0, p) before the comparison.  The two monomial orders agree by
definition: lex with x1 > x2 > ... > xn, and grevlex comparing the total
degree first and then the last exponent, smaller being larger.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from fplocal.groebner import Ideal  # noqa: E402
from fplocal.polycore import Polynomial, PolyRing  # noqa: E402

SEED = 16180

CASES = [(p, n, order) for p in (2, 3, 5) for n in (2, 3, 4) for order in ("grevlex", "lex")]


def random_gens(rng, ring):
    gens = []
    for _ in range(rng.randint(2, 3)):
        t = {}
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(0, 3 if ring.n <= 3 else 2)
            a = [0] * ring.n
            for _ in range(d):
                a[rng.randrange(ring.n)] += 1
            t[tuple(a)] = rng.randint(1, ring.p - 1)
        gens.append(Polynomial(ring, t))
    return gens


def sympy_basis(gens, ring):
    xs = sympy.symbols(f"x1:{ring.n + 1}")
    exprs = [
        sympy.Add(*[c * sympy.Mul(*[x ** e for x, e in zip(xs, a)]) for a, c in g.terms.items()])
        for g in gens
    ]
    G = sympy.groebner(exprs, *xs, modulus=ring.p, order=ring.order)
    out = []
    for poly in G.polys:
        terms = {a: int(c) % ring.p for a, c in poly.as_dict().items()}
        out.append({a: c for a, c in terms.items() if c})
    return out


def canonical(basis):
    return sorted(tuple(sorted(t.items())) for t in basis)


@pytest.mark.parametrize("p,n,order", CASES, ids=lambda v: str(v))
def test_groebner_basis_matches_sympy(p, n, order):
    R = PolyRing(p, n, order)
    rng = random.Random(f"{SEED}:{p}:{n}:{order}")
    for _ in range(6):
        gens = [g for g in random_gens(rng, R) if g]
        gb = Ideal(R, gens).groebner_basis()
        assert all(g.leading_coeff() == 1 for g in gb)
        assert canonical([g.terms for g in gb]) == canonical(sympy_basis(gens, R))
