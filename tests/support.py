"""Routes shared by the test modules.

engine_basis and engine_nf are the engine routes every check runs on:
groebner._divisor_basis for a reduced basis and groebner._reduce for a
normal form.  They take vectors as tuples of Polynomials, the modres
API's form, and give back the engine's flat vectors
{(component, monomial): coeff}, each listing its lead first.

exact_quotient divides by leading terms on Polynomial arithmetic alone,
so a reference built on it shares no code with the engine.
"""

from fplocal import groebner
from fplocal.config import Budget, resolve_limits
from fplocal.modres import _vec_from_free
from fplocal.polycore import Polynomial, mono_div, mono_divides


def engine_basis(ring, vectors, limits=None) -> list:
    """The reduced basis of span(vectors), position over term.  Looked up
    on groebner at each call, so a test that counts engine bases counts
    these too."""
    vecs = [_vec_from_free(v) for v in vectors]
    return groebner._divisor_basis(vecs, ring, resolve_limits(limits)).vecs


def engine_nf(ring, vector, divisors, limits=None) -> dict:
    """The remainder of `vector` on full division by the flat vectors
    `divisors`, which need be neither reduced nor monic, in their order."""
    divs = groebner._Divisors([v for v in divisors if v], ring)
    return groebner._reduce(_vec_from_free(vector), divs, ring, Budget(resolve_limits(limits)))


def exact_quotient(g, h):
    """g / h when h divides g; ArithmeticError otherwise."""
    ring = g.ring
    lead, inv = h.leading_monomial(), pow(h.leading_coeff(), -1, ring.p)
    q = Polynomial.zero(ring)
    while g:
        a = g.leading_monomial()
        if not mono_divides(lead, a):
            raise ArithmeticError(f"{h} does not divide {g}")
        t = Polynomial.monomial(ring, mono_div(a, lead), g.leading_coeff() * inv)
        q, g = q + t, g - t * h
    return q
