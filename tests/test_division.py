"""Heap-ordered division against a max-scan reference.

groebner._reduce, the kernel every normal form runs on, keeps the
dividend's monomials in a heap.  Here it divides by lists of divisors
that are neither reduced nor monic, for ideals and for modules.  The
reference below finds every leading term by a full max() scan under
order keys written out here, divides by the divisor's lead coefficient
instead of assuming monic divisors, and shares no code with the engine.
Both must pick the same divisor (the first in basis order whose lead
divides the current lead) and so return the same remainder, term for
term.

The reference also counts monomials that cancel while a lower term is
reduced and are later brought back by another divisor: the case the
heap handles by skipping cancelled entries when they are popped.

The ceiling tests pin the work counted against Budget.  IDEAL_STEPS was
taken from the max-scan engine that preceded the heap.  SYZ_STEPS is the
least ceiling under which the engine, with the chain criterion on for
module bases, returns the full syzygies.
"""

import random

import pytest

from fplocal.config import EngineLimits
from fplocal.errors import ResourceLimitError
from fplocal.groebner import Ideal, verify_confluence
from fplocal.modres import _free_from_vec, syzygies
from fplocal.polycore import Polynomial, PolyRing, parse_poly
from support import engine_nf

SEED = 20261018


# ---------------------------------------------------------------------------
# the reference: order keys, max-scan division, reappearance counter

def grevlex(a):
    return (sum(a), [-e for e in reversed(a)])


def lex(a):
    return list(a)


def order_key(order):
    if order.startswith("elim-"):
        base = order_key(order[5:])
        return lambda a: (a[-1], base(a[:-1]))
    return {"grevlex": grevlex, "lex": lex}[order]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class Reference:
    """Max-scan division over plain dicts; keys are monomials or
    (component, monomial) pairs, ordered by `key`."""

    def __init__(self, key, p):
        self.key = key
        self.p = p
        self.cancelled = set()
        self.reappeared = 0  # over all divisions run so far

    def lead(self, terms):
        return max(terms, key=self.key)

    def subtract(self, h, src, coeff, shift, lead):
        """h -= coeff * shift * src; count cancelled monomials coming back."""
        p = self.p
        for m, c in src.items():
            t = shift(m)
            v = (h.get(t, 0) - coeff * c) % p
            if t in self.cancelled and t not in h:
                self.reappeared += 1
            if v:
                h[t] = v
            else:
                h.pop(t, None)
                if t != lead:
                    self.cancelled.add(t)

    def normal_form(self, terms, divisors, divides_lead, shift_by):
        p = self.p
        self.cancelled = set()
        leads = [self.lead(d) for d in divisors]
        h = dict(terms)
        out = {}
        while h:
            lm = self.lead(h)
            for d, dlm in zip(divisors, leads):
                if divides_lead(dlm, lm):
                    coeff = h[lm] * pow(d[dlm], -1, p) % p
                    self.subtract(h, d, coeff, shift_by(lm, dlm), lm)
                    break
            else:
                out[lm] = h.pop(lm)
        return out


def poly_shift(lm, dlm):
    s = tuple(x - y for x, y in zip(lm, dlm))
    return lambda m: tuple(x + y for x, y in zip(m, s))


def vec_divides(dlead, lead):
    return dlead[0] == lead[0] and divides(dlead[1], lead[1])


def vec_shift(lead, dlead):
    s = tuple(x - y for x, y in zip(lead[1], dlead[1]))
    return lambda cm: (cm[0], tuple(x + y for x, y in zip(cm[1], s)))


def to_vec(col):
    return {(c, a): v for c, g in enumerate(col) for a, v in g.terms.items()}


def normal_form(g, divisors, limits=None):
    """g's remainder by _reduce against the polynomials `divisors`."""
    r = engine_nf(g.ring, (g,), [to_vec((d,)) for d in divisors], limits)
    return Polynomial(g.ring, {a: c for (_, a), c in r.items()})


def module_normal_form(R, vec, basis):
    """vec's remainder by _reduce against the vectors `basis`."""
    return _free_from_vec(engine_nf(R, vec, [to_vec(b) for b in basis]), len(vec), R)


# ---------------------------------------------------------------------------
# seeded inputs

def random_terms(rng, n, p, count, deg):
    t = {}
    for _ in range(count):
        t[tuple(rng.randint(0, deg) for _ in range(n))] = rng.randint(1, p - 1)
    return t


def random_divisor(rng, n, p):
    """A few low-degree terms with a nonzero, often non-unit, coefficient."""
    return random_terms(rng, n, p, rng.randint(2, 4), 2)


def poly_cases(rng, ring, count):
    """(dividend, divisors): some dividends are combinations of the
    divisors plus noise, so whole blocks of terms cancel on the way."""
    n, p = ring.n, ring.p
    for _ in range(count):
        divisors = [Polynomial(ring, random_divisor(rng, n, p)) for _ in range(rng.randint(2, 4))]
        divisors = [d for d in divisors if d]
        g = Polynomial(ring, random_terms(rng, n, p, rng.randint(3, 12), 4))
        if rng.random() < 0.6:
            for d in divisors:
                g = g + Polynomial(ring, random_terms(rng, n, p, 3, 2)) * d
        yield g, divisors


RINGS = [
    PolyRing(2, 3, "grevlex"),
    PolyRing(3, 3, "grevlex"),
    PolyRing(5, 2, "grevlex"),
    PolyRing(3, 3, "lex"),
    PolyRing(7, 2, "lex"),
    PolyRing(3, 3, "elim-grevlex"),
    PolyRing(2, 3, "elim-grevlex"),
]


# ---------------------------------------------------------------------------
# ideal and module normal forms against the reference

@pytest.mark.parametrize("ring", RINGS, ids=lambda R: f"F{R.p}-n{R.n}-{R.order}")
def test_normal_form_matches_max_scan_reference(ring):
    rng = random.Random(f"{SEED}:{ring.p}:{ring.n}:{ring.order}")
    ref = Reference(order_key(ring.order), ring.p)
    for g, divisors in poly_cases(rng, ring, 40):
        want = ref.normal_form(g.terms, [d.terms for d in divisors], divides, poly_shift)
        got = normal_form(g, divisors)
        assert got.terms == want
        # the engine lists the remainder's terms in descending order, as the reference does
        assert list(got.terms) == list(want)
    assert ref.reappeared > 0


@pytest.mark.parametrize("order", ["grevlex", "lex", "elim-grevlex"])
def test_module_normal_form_matches_max_scan_reference(order):
    R = PolyRing(3, 3, order)
    rng = random.Random(f"{SEED}:module:{order}")
    key = order_key(order)
    ref = Reference(lambda cm: (-cm[0], key(cm[1])), R.p)
    for _ in range(30):
        basis = []
        for _ in range(rng.randint(2, 4)):
            col = [Polynomial(R, random_divisor(rng, R.n, R.p)) for _ in range(2)]
            if rng.random() < 0.3:
                col[rng.randint(0, 1)] = Polynomial.zero(R)
            basis.append(tuple(col))
        vec = [Polynomial(R, random_terms(rng, R.n, R.p, rng.randint(3, 10), 4)) for _ in range(2)]
        for b in basis:
            q = Polynomial(R, random_terms(rng, R.n, R.p, 2, 2))
            vec = [v + q * bc for v, bc in zip(vec, b)]
        divisors = [to_vec(b) for b in basis if any(b)]
        want = ref.normal_form(to_vec(vec), divisors, vec_divides, vec_shift)
        got = module_normal_form(R, tuple(vec), basis)
        assert to_vec(got) == want
    assert ref.reappeared > 0


# ---------------------------------------------------------------------------
# non-monic divisors: _reduce divides by the lead coefficient


def test_normal_form_non_monic_divisor():
    R = PolyRing(5, 1)
    assert not normal_form(parse_poly(R, "x1^2"), [parse_poly(R, "2*x1")])
    R2 = PolyRing(5, 2)
    g = parse_poly(R2, "x1^3 + x2^2 + 1")
    r = normal_form(g, [parse_poly(R2, "3*x1^2 + x2"), parse_poly(R2, "4*x2^2")])
    assert r == parse_poly(R2, "3*x1*x2 + 1")


def test_module_normal_form_non_monic_divisor():
    R = PolyRing(5, 2)
    x1 = parse_poly(R, "x1")
    zero = Polynomial.zero(R)
    vec = (x1 * x1, parse_poly(R, "x2"))
    basis = [(parse_poly(R, "2*x1"), zero), (zero, parse_poly(R, "3*x2 + 1"))]
    r = module_normal_form(R, vec, basis)
    assert r == (zero, parse_poly(R, "3"))


# ---------------------------------------------------------------------------
# ceilings: the counted work, pinned to the step

IDEAL_GENS = ("x1^2 + x2*x3 + 2*x3", "x1*x2 + x3^2 + 1", "x2^2 + 2*x1*x3 + x1")
IDEAL_STEPS = 71  # pair steps plus reduction steps of the max-scan engine
SYZ_COLUMNS = ("x1^2 + x2*x3", "x1*x2 + 2*x3^2", "x2^2 + x1*x3 + x3^2")
SYZ_STEPS = 26  # pair steps, the chain criterion's skips included, plus reduction steps


def test_ideal_basis_ceiling_fires_at_the_same_step():
    R = PolyRing(3, 3)
    full = Ideal(R, IDEAL_GENS).groebner_basis()
    at = Ideal(R, IDEAL_GENS).groebner_basis(EngineLimits(max_reductions=IDEAL_STEPS))
    assert at == full
    with pytest.raises(ResourceLimitError) as ei:
        Ideal(R, IDEAL_GENS).groebner_basis(EngineLimits(max_reductions=IDEAL_STEPS - 1))
    assert ei.value.kind == "reductions"


def test_syzygy_ceiling_fires_at_the_same_step():
    R = PolyRing(3, 3)
    cols = [(parse_poly(R, s),) for s in SYZ_COLUMNS]
    full = syzygies(R, cols)
    assert syzygies(R, cols, EngineLimits(max_reductions=SYZ_STEPS)) == full
    with pytest.raises(ResourceLimitError) as ei:
        syzygies(R, cols, EngineLimits(max_reductions=SYZ_STEPS - 1))
    assert ei.value.kind == "reductions"


# ---------------------------------------------------------------------------
# packed terms: wide exponents, field overflow, rank 3
#
# The engine packs each term into one int with fixed-width exponent
# fields, sized from the input and widened when a new term overflows.
# The reference above works on plain tuples, so it sees none of that.

BIG = 2 ** 40


def scaled(terms, k):
    """terms with every exponent multiplied by k: x_i -> x_i^k."""
    return {tuple(e * k for e in a): c for a, c in terms.items()}


@pytest.mark.parametrize("order", ["grevlex", "lex", "elim-grevlex"])
def test_module_normal_form_rank_3_matches_max_scan_reference(order):
    R = PolyRing(5, 3, order)
    rng = random.Random(f"{SEED}:rank3:{order}")
    key = order_key(order)
    ref = Reference(lambda cm: (-cm[0], key(cm[1])), R.p)
    for _ in range(25):
        basis = []
        for _ in range(rng.randint(2, 5)):
            col = [Polynomial(R, random_divisor(rng, R.n, R.p)) for _ in range(3)]
            for k in range(3):
                if rng.random() < 0.4:
                    col[k] = Polynomial.zero(R)
            basis.append(tuple(col))
        vec = [Polynomial(R, random_terms(rng, R.n, R.p, rng.randint(2, 8), 4)) for _ in range(3)]
        for b in basis:
            q = Polynomial(R, random_terms(rng, R.n, R.p, 2, 2))
            vec = [v + q * bc for v, bc in zip(vec, b)]
        divisors = [to_vec(b) for b in basis if any(b)]
        want = ref.normal_form(to_vec(vec), divisors, vec_divides, vec_shift)
        got = module_normal_form(R, tuple(vec), basis)
        assert to_vec(got) == want
    assert ref.reappeared > 0


def test_lex_reduction_outgrows_its_first_width():
    # x1^300 reduces by x1 - x2^1000 to x2^300000: the first field width
    # is sized from degree 1000 and must be doubled on the way
    from fplocal.groebner import _width

    R = PolyRing(3, 2, "lex")
    assert 300000 >= 1 << _width([(1, 0), (0, 1000), (300, 0)])
    gens = [parse_poly(R, "x1 - x2^1000"), parse_poly(R, "x1^300 - 1")]
    gb = Ideal(R, gens).groebner_basis()
    assert gb == (parse_poly(R, "x1 - x2^1000"), parse_poly(R, "x2^300000 - 1"))
    assert verify_confluence(R, gb)
    rng = random.Random(f"{SEED}:lexwide")
    ref = Reference(order_key("lex"), R.p)
    for _ in range(10):
        g = Polynomial(R, random_terms(rng, 2, R.p, 4, 3)) + parse_poly(R, f"x1^{rng.randint(250, 300)}")
        want = ref.normal_form(g.terms, [gens[0].terms], divides, poly_shift)
        got = normal_form(g, gens[:1])
        assert got.terms == want
        assert list(got.terms) == list(want)
    # a restart redoes the same counted work: 302 steps, as on tuples
    g = parse_poly(R, "x1^300 + x1^2*x2")
    for run in (lambda lim: Ideal(R, gens).groebner_basis(lim),
                lambda lim: normal_form(g, gens[:1], lim)):
        run(EngineLimits(max_reductions=302))
        with pytest.raises(ResourceLimitError):
            run(EngineLimits(max_reductions=301))


@pytest.mark.parametrize("ring", RINGS, ids=lambda R: f"F{R.p}-n{R.n}-{R.order}")
def test_exponents_past_2_to_the_40_match_max_scan_reference(ring):
    rng = random.Random(f"{SEED}:big:{ring.p}:{ring.n}:{ring.order}")
    ref = Reference(order_key(ring.order), ring.p)
    for g, divisors in poly_cases(rng, ring, 15):
        g = Polynomial(ring, scaled(g.terms, BIG))
        divisors = [Polynomial(ring, scaled(d.terms, BIG)) for d in divisors]
        want = ref.normal_form(g.terms, [d.terms for d in divisors], divides, poly_shift)
        got = normal_form(g, divisors)
        assert got.terms == want
        assert list(got.terms) == list(want)
    # x_i -> x_i^BIG maps the reduced basis of I onto that of the image
    for _ in range(5):
        gens = [Polynomial(ring, random_divisor(rng, ring.n, ring.p)) for _ in range(3)]
        gb = Ideal(ring, [Polynomial(ring, scaled(g.terms, BIG)) for g in gens]).groebner_basis()
        assert verify_confluence(ring, gb)
        small = Ideal(ring, gens).groebner_basis()
        assert gb == tuple(Polynomial(ring, scaled(g.terms, BIG)) for g in small)
