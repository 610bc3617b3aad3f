"""Module bases checked by a route that shares no code with the engine.

verify_confluence replays Buchberger's criterion for ideal bases only.
The verifier here does the same for module bases: it forms every
S-vector between two basis elements whose leads lie in one component
and reduces it by a max-scan division, scanning the divisors from the
back of the basis.  Order keys, leads, S-vectors and division are all
written out below on plain (component, exponent tuple) terms; only the
inputs come from fplocal.  A reduced basis must also be canonical:
monic, with no lead dividing any term of another element.
"""

import random
from itertools import product

import pytest

from fplocal.polycore import Polynomial, PolyRing, parse_poly
from support import engine_basis

SEED = 27182


def order_key(order):
    if order == "lex":
        return lambda a: tuple(a)
    return lambda a: (sum(a), tuple(-e for e in reversed(a)))  # grevlex


def term_key(order):
    """Position over term: component 0 is the largest, then the ring order."""
    key = order_key(order)
    return lambda cm: (-cm[0], key(cm[1]))


def divides(d, t):
    return d[0] == t[0] and all(x <= y for x, y in zip(d[1], t[1]))


def shifted(v, s):
    return {(c, tuple(x + y for x, y in zip(a, s))): w for (c, a), w in v.items()}


def axpy(h, v, coeff, p):
    """h += coeff * v, in place."""
    for m, w in v.items():
        x = (h.get(m, 0) + coeff * w) % p
        if x:
            h[m] = x
        else:
            h.pop(m, None)


def remainder(v, basis, key, p):
    h = dict(v)
    out = {}
    while h:
        t = max(h, key=key)
        for b in reversed(basis):
            lead = max(b, key=key)
            if divides(lead, t):
                s = tuple(y - x for x, y in zip(lead[1], t[1]))
                axpy(h, shifted(b, s), -h[t] * pow(b[lead], -1, p), p)
                break
        else:
            out[t] = h.pop(t)
    return out


def s_vector(f, g, key, p):
    lf, lg = max(f, key=key), max(g, key=key)
    u = tuple(max(x, y) for x, y in zip(lf[1], lg[1]))
    s = {}
    axpy(s, shifted(f, tuple(x - y for x, y in zip(u, lf[1]))), pow(f[lf], -1, p), p)
    axpy(s, shifted(g, tuple(x - y for x, y in zip(u, lg[1]))), -pow(g[lg], -1, p), p)
    return s


def module_confluent(basis, order, p):
    key = term_key(order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if max(basis[i], key=key)[0] != max(basis[j], key=key)[0]:
                continue  # leads in different components: no S-vector
            if remainder(s_vector(basis[i], basis[j], key, p), basis, key, p):
                return False
    return True


def reduced(basis, order):
    key = term_key(order)
    leads = [max(b, key=key) for b in basis]
    if any(b[lead] != 1 for b, lead in zip(basis, leads)):
        return False
    return not any(
        divides(leads[i], t) for i in range(len(basis)) for j, b in enumerate(basis) if j != i for t in b
    )


def to_vec(col):
    return {(c, a): v for c, g in enumerate(col) for a, v in g.terms.items()}


def random_col(rng, ring, rank):
    """Sparse entries of low degree: module bases are computed without
    the product criterion, and in lex some denser rank-3 inputs take
    minutes."""
    top = 2 if ring.n == 2 else 1
    col = []
    for _ in range(rank):
        if rng.random() < 0.3:
            col.append(Polynomial.zero(ring))
            continue
        t = {}
        for _ in range(rng.randint(1, 2)):
            t[tuple(rng.randint(0, top) for _ in range(ring.n))] = rng.randint(1, ring.p - 1)
        col.append(Polynomial(ring, t))
    return tuple(col)


CASES = [(p, n, rank, order) for p in (2, 3, 5) for n in (2, 3) for rank in (2, 3)
         for order in ("grevlex", "lex")]


@pytest.mark.parametrize("p,n,rank,order", CASES, ids=lambda v: str(v))
def test_module_gb_is_confluent_and_reduced(p, n, rank, order):
    R = PolyRing(p, n, order)
    rng = random.Random(f"{SEED}:{p}:{n}:{rank}:{order}")
    key = term_key(order)
    for _ in range(8):
        cols = [random_col(rng, R, rank) for _ in range(rng.randint(2, 3))]
        gb = engine_basis(R, cols)
        assert all(gb)
        assert module_confluent(gb, order, p)
        assert reduced(gb, order)
        # the basis spans every input column
        for c in cols:
            assert not remainder(to_vec(c), gb, key, p)


def test_verifier_rejects_a_non_basis():
    # (x1, x2) and (x2, 0): the S-vector x2*(x1, x2) - x1*(x2, 0) = (0, x2^2)
    # has no divisor among the leads, both in component 0
    R = PolyRing(3, 2)
    x1 = {(1, 0): 1}
    x2 = {(0, 1): 1}
    not_a_basis = [
        {(0, a): w for a, w in x1.items()} | {(1, a): w for a, w in x2.items()},
        {(0, a): w for a, w in x2.items()},
    ]
    assert not module_confluent(not_a_basis, "grevlex", R.p)
    gb = engine_basis(R, [
        (Polynomial(R, x1), Polynomial(R, x2)),
        (Polynomial(R, x2), Polynomial.zero(R)),
    ])
    assert module_confluent(gb, "grevlex", R.p)
    assert len(gb) == 3


# ---------------------------------------------------------------------------
# bases where the chain criterion skips pairs outside component 0
#
# The engine applies the chain criterion to module bases too.  The bases
# below are those of tagged columns (col_j | e_j), the ones syzygies are
# read from: their elements with leads at the tags form pairs beyond
# component 0.  The engine is only observed, never reused: a wrapped
# heappop logs the component of each pair popped, and a wrapped
# _add_scaled marks the pairs whose S-vector was formed; the others were
# skipped.


def tagged_columns(R, gens):
    k = len(gens)
    unit = [tuple(Polynomial.one(R) if i == j else Polynomial.zero(R) for i in range(k))
            for j in range(k)]
    return [col + e for col, e in zip(gens, unit)]


def random_form(rng, ring, d):
    monos = [a for a in product(range(d + 1), repeat=ring.n) if sum(a) == d]
    return Polynomial(ring, {a: rng.randint(1, ring.p - 1) for a in rng.sample(monos, 2)})


def observe_pairs(monkeypatch):
    """A log of [component, formed] per pair the engine pops."""
    from fplocal import groebner

    log, seen = [], {}
    packed_basis, heappop, add_scaled = groebner._packed_basis, groebner.heappop, groebner._add_scaled

    def watch_basis(G0, lay, *rest):
        seen["lay"] = lay
        return packed_basis(G0, lay, *rest)

    def watch_pop(heap):
        top = heappop(heap)
        if isinstance(top, tuple):  # a pair (lcm, i, j); the division heap holds ints
            log.append([seen["lay"].unpack(top[0])[0], False])
        return top

    def watch_add(acc, tail, coeff, *rest):
        if coeff == 1:  # the first half of an S-vector
            log[-1][1] = True
        return add_scaled(acc, tail, coeff, *rest)

    monkeypatch.setattr(groebner, "_packed_basis", watch_basis)
    monkeypatch.setattr(groebner, "heappop", watch_pop)
    monkeypatch.setattr(groebner, "_add_scaled", watch_add)
    return log


SYZ_CASES = [(p, n, rank, order) for p in (2, 3, 5) for n in (3, 4) for rank in (1, 2)
             for order in ("grevlex", "lex")]


def test_tagged_bases_where_the_chain_criterion_fires(monkeypatch):
    log = observe_pairs(monkeypatch)
    beyond = 0
    for p, n, rank, order in SYZ_CASES:
        R = PolyRing(p, n, order)
        rng = random.Random(f"{SEED}:tags:{p}:{n}:{rank}:{order}")
        gens = [tuple(random_form(rng, R, rng.randint(1, 2)) for _ in range(rank))
                for _ in range(3)]
        cols = tagged_columns(R, gens)
        del log[:]
        gb = engine_basis(R, cols)
        beyond += sum(1 for c, formed in log if c >= rank and not formed)
        assert module_confluent(gb, order, p)
        assert reduced(gb, order)
        for c in cols:
            assert not remainder(to_vec(c), gb, term_key(order), p)
    assert beyond >= 40


def test_syzygy_tags_of_three_quadrics(monkeypatch):
    # one fixed lex input: 22 of its skipped pairs have leads at a tag
    log = observe_pairs(monkeypatch)
    R = PolyRing(3, 3, "lex")
    gens = [(parse_poly(R, s),) for s in ("x1^2 + x2*x3", "x1*x2 + 2*x3^2", "x2^2 + x1*x3 + x3^2")]
    gb = engine_basis(R, tagged_columns(R, gens))
    assert sum(1 for c, formed in log if c >= 1 and not formed) == 22
    assert module_confluent(gb, "lex", 3)
    assert reduced(gb, "lex")


# ---------------------------------------------------------------------------
# bases computed with a known part
#
# Colons and meets hand the engine a reduced basis it computed before as a
# known part, and never pair two of its elements.  Those bases no longer
# reach the on_basis observer, so they are captured here: a wrapped
# _packed_basis keeps each basis built with a known part, unpacked, and
# the verifier replays every S-vector of it.


def observe_seeded(monkeypatch):
    """A log of (p, basis) for the bases built with a known part, as
    vectors; every ring of the rounds below is grevlex."""
    from fplocal import groebner

    log = []
    packed_basis = groebner._packed_basis

    def watch(G, lay, p, limits, ideal, known=0, stop=None):
        basis = packed_basis(G, lay, p, limits, ideal, known, stop)
        if known:
            log.append((p, [
                dict([(lay.unpack(lead), 1)] + [(lay.unpack(t), w) for t, w in tail])
                for lead, tail in basis
            ]))
        return basis

    monkeypatch.setattr(groebner, "_packed_basis", watch)
    return log


def small_q1_round(rng):
    """q1 checks in F_3[x1..x4]: random quadric pairs and g*m + (h), at
    the origin and at a point.  Most of their colons are read off the
    basis (I : x4) and pass the test by reduction, so they build few
    seeded bases.  Then x1*x2*(x1, x2) + (x3, x4), moved to the origin
    and to a point: in each of its two rounds the generators x1 and x2
    fail the test, so each gets an engine colon and a meet."""
    from fplocal.localcoh import question_q_check

    R = PolyRing(3, 4)
    x = [Polynomial.variable(R, k) for k in range(1, 5)]
    for k in range(6):
        point = None if k % 2 == 0 else tuple(rng.randrange(3) for _ in range(4))
        f = [random_form(rng, R, 2), random_form(rng, R, 2)]
        if k >= 4:
            g = random_form(rng, R, 1)
            f = [g * v for v in x] + [f[0]]
        question_q_check(f, point)
    for point in (None, tuple(rng.randrange(3) for _ in range(4))):
        y = [v - Polynomial.constant(R, a) for v, a in zip(x, point or (0,) * 4)]
        question_q_check([y[0] ** 2 * y[1], y[0] * y[1] ** 2, y[2], y[3]], point)


def small_torsion_round(rng):
    """propvan and topvan on (g^2, g*h) in F_3[x1, x2], at the origin and
    at a point, on a triangular ideal of F_2[x1, x2, x3] whose only zero
    is the origin, and on (x1*x2, x1*x3) in F_2[x1, x2, x3] at the origin
    and at (1, 1, 1).  The first two have finite staircases, so most of
    their saturations are read off the leads and build no seeded basis;
    the plane and line of the last one make its saturations run colons.
    Then propvan on (x1^2 + x2^2, x1*x2 + x2^2, x1) in F_2[x1, x2] at
    i = 2: its rank-2 saturation has a generator fail the test, so it
    runs a second engine colon and a meet."""
    from fplocal.config import EngineLimits
    from fplocal.koszul import verify_prop_van
    from fplocal.localcoh import top_lc_vanishing_certificate

    R = PolyRing(3, 2)
    for k in range(4):
        point = None if k % 2 == 0 else tuple(rng.randrange(3) for _ in range(2))
        g = random_form(rng, R, 1)
        h = random_form(rng, R, 1 + k % 2)
        f = [g * g, g * h]
        verify_prop_van(f, 2, point)
        top_lc_vanishing_certificate(f, point, 2)
    S = PolyRing(2, 3)
    f = [parse_poly(S, s) for s in ("x1", "x2^2 + x1*x3", "x3^2 + x1*x2")]
    verify_prop_van(f, 3, None, None, EngineLimits(level_cap=1))
    top_lc_vanishing_certificate(f, None, 1)
    f = [parse_poly(S, s) for s in ("x1*x2", "x1*x3")]
    for point in (None, (1, 1, 1)):
        verify_prop_van(f, 2, point)
        top_lc_vanishing_certificate(f, point, 2)
    T = PolyRing(2, 2)
    verify_prop_van([parse_poly(T, s) for s in ("x1^2 + x2^2", "x1*x2 + x2^2", "x1")], 2)


@pytest.mark.parametrize("round_of", [small_q1_round, small_torsion_round],
                         ids=["q1", "torsion"])
def test_bases_with_a_known_part_are_confluent_and_reduced(monkeypatch, round_of):
    log = observe_seeded(monkeypatch)
    round_of(random.Random(f"{SEED}:seeded:{round_of.__name__}"))
    assert len(log) >= 8
    for p, gb in log:
        assert module_confluent(gb, "grevlex", p)
        assert reduced(gb, "grevlex")
