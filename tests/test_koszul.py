"""Koszul cocomplexes, the Frobenius chain map, and torsion kills.

Sign conventions are pinned in char 5 where -1 is visible; cohomology
presentations are checked against the classical values for regular and
non-regular sequences.  The verifier tests cover all reachable outcome
branches: vacuous pass, explicit kill, translated points, and the
exploratory run on a hypothesis-violating input.
"""

import random
from math import prod

import pytest

from fplocal import frobenius, groebner, koszul
from fplocal.campaign import random_polynomial
from fplocal.config import EngineLimits
from fplocal.errors import RingMismatchError
from fplocal.frobenius import FrobeniusLevel
from fplocal.koszul import (
    KoszulComplex,
    build_koszul,
    koszul_cohomology,
    phi_chain_map,
    verify_prop_van,
)
from fplocal.modres import finite_length_data
from fplocal.polycore import Polynomial, PolyRing, _product_layout, _sum_deg, parse_poly
from support import engine_basis

SEED = 16180


def P(ring, text):
    return parse_poly(ring, text)


def vecs(ring, *rows):
    return tuple(tuple(parse_poly(ring, t) for t in row) for row in rows)


def random_poly(ring, rng, deg=2, terms=3):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(ring.n))
        t[mono] = rng.randint(0, ring.p - 1)
    return Polynomial(ring, t)


# ---------------------------------------------------------------------------
# complex construction


def test_koszul_shape_two_generators():
    R = PolyRing(2, 2)
    kx = build_koszul([P(R, "x1"), P(R, "x2")])
    assert kx.s == 2
    assert kx.index_maps == (((),), ((1,), (2,)), ((1, 2),))
    assert [kx.rank(j) for j in range(3)] == [1, 2, 1]
    assert len(kx.diffs) == 2


def test_koszul_signs_char5():
    # d^0 = (-f1, -f2); d^1 sends e_(1) to +f2 and e_(2) to -f1
    R = PolyRing(5, 2)
    kx = build_koszul([P(R, "x1"), P(R, "x2")])
    assert kx.diffs[0].columns == vecs(R, ("4*x1", "4*x2"))
    assert kx.diffs[1].columns == vecs(R, ("x2",), ("4*x1",))


def test_koszul_single_generator():
    R = PolyRing(3, 1)
    kx = build_koszul([P(R, "x1")])
    assert kx.diffs[0].columns == vecs(R, ("2*x1",))


def test_koszul_exponent():
    R = PolyRing(2, 2)
    kx = build_koszul([P(R, "x1"), P(R, "x2")], t=3)
    assert kx.t == 3
    assert kx.diffs[0].columns == vecs(R, ("x1^3", "x2^3"))


def test_koszul_ranks_binomial():
    R = PolyRing(2, 3)
    f = [P(R, "x1"), P(R, "x2"), P(R, "x3"), P(R, "x1 + x2")]
    kx = build_koszul(f)
    assert [kx.rank(j) for j in range(5)] == [1, 4, 6, 4, 1]
    assert kx.index_maps[2][:3] == ((1, 2), (1, 3), (1, 4))


def test_koszul_composites_vanish_random():
    rng = random.Random(SEED)
    for p in (2, 3):
        R = PolyRing(p, 2)
        for s in (2, 3, 4):
            f = []
            while len(f) < s:
                g = random_poly(R, rng)
                if g:
                    f.append(g)
            kx = build_koszul(f, t=rng.choice((1, 2)))
            for j in range(s - 1):
                for col in kx.diffs[j].columns:
                    assert not any(kx.diffs[j + 1].apply(col))


def test_koszul_input_validation():
    R = PolyRing(2, 2)
    with pytest.raises(ValueError):
        build_koszul([])
    with pytest.raises(ValueError):
        build_koszul([Polynomial.zero(R)])
    with pytest.raises(ValueError):
        build_koszul([P(R, "x1")], t=0)
    with pytest.raises(RingMismatchError):
        build_koszul([P(R, "x1"), Polynomial.one(PolyRing(3, 2))])


# ---------------------------------------------------------------------------
# the chain map


def test_phi_diagonal_entries():
    R = PolyRing(2, 2)
    f = [P(R, "x1"), P(R, "x2")]
    phis = phi_chain_map(f, FrobeniusLevel(2, 1))
    assert phis[0].columns == vecs(R, ("1",))
    assert phis[1].columns == vecs(R, ("x1", "0"), ("0", "x2"))
    assert phis[2].columns == vecs(R, ("x1*x2",))


def test_phi_single_generator():
    R = PolyRing(3, 1)
    phis = phi_chain_map([P(R, "x1")], FrobeniusLevel(3, 2))
    assert phis[1].columns == vecs(R, ("x1^8",))


def test_phi_commutes_random():
    # the constructor verifies d_q phi = phi d_1 and raises on failure
    rng = random.Random(SEED + 1)
    for p in (2, 3):
        R = PolyRing(p, 2)
        for s in (1, 2, 3):
            f = []
            while len(f) < s:
                g = random_poly(R, rng, deg=1)
                if g:
                    f.append(g)
            for l in (1, 2):
                phis = phi_chain_map(f, FrobeniusLevel(p, l))
                assert len(phis) == s + 1


def test_phi_level_mismatch():
    R = PolyRing(2, 1)
    with pytest.raises(ValueError):
        phi_chain_map([P(R, "x1")], FrobeniusLevel(3, 1))


# ---------------------------------------------------------------------------
# cohomology


def test_cohomology_regular_sequence():
    R = PolyRing(2, 2)
    kx = build_koszul([P(R, "x1"), P(R, "x2")])
    assert finite_length_data(koszul_cohomology(kx, 0)) == (True, 0)
    assert finite_length_data(koszul_cohomology(kx, 1)) == (True, 0)
    top = koszul_cohomology(kx, 2)
    assert finite_length_data(top) == (True, 1)  # R/(x1, x2)


def test_cohomology_univariate():
    R = PolyRing(5, 1)
    kx = build_koszul([P(R, "x1")])
    assert finite_length_data(koszul_cohomology(kx, 0)) == (True, 0)
    assert finite_length_data(koszul_cohomology(kx, 1)) == (True, 1)


def test_cohomology_non_regular_sequence():
    # f = (x1, x1): H^1 and H^2 are both R/(x1)
    R = PolyRing(2, 2)
    kx = build_koszul([P(R, "x1"), P(R, "x1")])
    assert finite_length_data(koszul_cohomology(kx, 0)) == (True, 0)
    assert finite_length_data(koszul_cohomology(kx, 1)) == (False, None)
    assert finite_length_data(koszul_cohomology(kx, 2)) == (False, None)


def test_cohomology_degree_bounds():
    R = PolyRing(2, 2)
    kx = build_koszul([P(R, "x1")])
    with pytest.raises(ValueError):
        koszul_cohomology(kx, -1)
    with pytest.raises(ValueError):
        koszul_cohomology(kx, 2)


# ---------------------------------------------------------------------------
# torsion kill verification


def test_verify_vacuous_pass():
    R = PolyRing(2, 2)
    cert = verify_prop_van([P(R, "x1")], 1)
    assert cert.outcome == "pass"
    assert cert.hypothesis_ok is True
    assert cert.num_torsion_generators == 0
    assert cert.torsion_length == 0
    assert cert.level_used is None
    assert cert.retries == 0
    assert cert.verdicts == ()
    assert "Lyubeznik" in cert.conclusion


def test_verify_degree_zero_always_vacuous():
    R = PolyRing(3, 3)
    cert = verify_prop_van([P(R, "x1"), P(R, "x2")], 0)
    assert cert.outcome == "pass"
    assert cert.num_torsion_generators == 0


def test_verify_explicit_kill_exploratory():
    # (x1^2, x1 x2) in two variables: sum of degrees violates the bound,
    # but the torsion class x1 of H^2 is still pushed into the image
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    cert = verify_prop_van(f, 2)
    assert cert.outcome == "hypothesis-violated"
    assert cert.hypothesis_ok is False
    assert cert.sum_deg == 4
    assert cert.num_torsion_generators == 1
    assert cert.torsion_finite is True
    assert cert.torsion_length == 1
    assert cert.verdicts == (True,)
    assert cert.level_used == 2
    assert cert.retries == 0


def test_verify_level_override():
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    cert = verify_prop_van(f, 2, level=FrobeniusLevel(2, 3))
    assert cert.verdicts == (True,)
    assert cert.level_used == 3


def test_verify_translated_point_matches_origin():
    R = PolyRing(2, 2)
    origin = verify_prop_van([P(R, "x1^2"), P(R, "x1*x2")], 2)
    # the same pair written around the point (1, 1)
    shifted = [P(R, "x1^2 + 1"), P(R, "x1*x2 + x1 + x2 + 1")]
    cert = verify_prop_van(shifted, 2, point=(1, 1))
    assert cert.point == (1, 1)
    assert cert.outcome == origin.outcome
    assert cert.torsion_length == origin.torsion_length
    assert cert.level_used == origin.level_used
    assert cert.verdicts == origin.verdicts


def test_verify_unkillable_torsion_reports_failure():
    # I = m: the top class is never pushed into the image at any level
    R = PolyRing(2, 2)
    cert = verify_prop_van([P(R, "x1"), P(R, "x2")], 2, limits=EngineLimits(level_cap=2))
    assert cert.outcome == "hypothesis-violated"  # sum_deg = n here
    assert cert.verdicts == (False,)
    assert cert.level_used is None
    assert cert.retries == 2


def test_verify_json_shape():
    R = PolyRing(2, 2)
    cert = verify_prop_van([P(R, "x1")], 1)
    d = cert.to_json_dict()
    assert d["check"] == "torsion-vanishing"
    assert d["p"] == 2 and d["n"] == 2 and d["s"] == 1 and d["i"] == 1
    assert d["point"] == [0, 0]
    assert d["generators"] == ["x1"]
    assert d["outcome"] == "pass"
    assert isinstance(d["verdicts"], list)
    assert set(d) == {
        "check",
        "p",
        "n",
        "s",
        "i",
        "point",
        "generators",
        "sum_deg",
        "hypothesis_ok",
        "outcome",
        "torsion_finite",
        "torsion_length",
        "num_torsion_generators",
        "level_used",
        "retries",
        "verdicts",
        "conclusion",
    }


def test_verify_rejects_empty_input():
    with pytest.raises(ValueError):
        verify_prop_van([], 0)


def test_verify_explicit_level_above_cap_is_rejected():
    R = PolyRing(3, 3)
    f = [P(R, "x1"), P(R, "x2^2")]
    with pytest.raises(ValueError, match="above the level cap 4"):
        verify_prop_van(f, 2, level=FrobeniusLevel(3, 7))
    with pytest.raises(ValueError, match="above the level cap 2"):
        verify_prop_van(f, 2, level=FrobeniusLevel(3, 3), limits=EngineLimits(level_cap=2))


def test_verify_explicit_level_at_cap_is_tried():
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    cert = verify_prop_van(f, 2, level=FrobeniusLevel(2, 2), limits=EngineLimits(level_cap=2))
    assert cert.level_used == 2
    assert cert.verdicts == (True,)


# ---------------------------------------------------------------------------
# the level walk: multipliers by recurrence, level-q bases by scaling

# the generator lists of acceptance criterion 5
CRITERION_5 = [
    (2, 2, ["x1"]),
    (3, 2, ["x2"]),
    (5, 2, ["x1 + x2"]),
    (2, 3, ["x1*x2"]),
    (3, 3, ["x1^2 + x2*x3"]),
    (2, 3, ["x1", "x2"]),
    (3, 3, ["x1", "x2 + x3"]),
    (5, 3, ["x1 + 2*x2", "x3"]),
    (2, 3, ["x1 + x3"]),
    (5, 3, ["x1*x3 + x2^2"]),
]


def criterion_3_families(count):
    """(f, level) for the first `count` draws of acceptance criterion 3,
    drawn in its order."""
    rng = random.Random("acc:3")
    out = []
    for _ in range(count):
        p = rng.choice((2, 3, 5))
        ring = PolyRing(p, rng.choice((2, 3)))
        s = rng.randint(1, 4)
        f = [random_polynomial(ring, rng.randint(1, 2), rng) for _ in range(s)]
        rng.choice((1, 1, 2))
        out.append((f, rng.choice((1, 2)) if p == 2 else 1))
    return out


def direct_multipliers(f, index_maps, q):
    out = {}
    for tuples in index_maps:
        for T in tuples:
            m = Polynomial.one(f[0].ring)
            for a in T:
                m = m * f[a - 1] ** (q - 1)
            out[T] = m
    return out


def unpacked(ring, lay, packs):
    return {T: Polynomial(ring, lay.unpack_terms(m, ring.p), _raw=True) for T, m in packs.items()}


def test_recurrence_multipliers_match_direct_products():
    families = [([P(PolyRing(p, n), g) for g in gens], 4) for p, n, gens in CRITERION_5]
    # criterion 3 tries levels 1 and 2 at p = 2, level 1 otherwise; the
    # recurrence is checked at level 2 for p = 3 as well
    families += [(f, max(l, 2 if f[0].ring.p < 5 else 1)) for f, l in criterion_3_families(200)]
    for f, top in families:
        R = f[0].ring
        k1 = build_koszul(f)
        walk = list(koszul._chain_maps(k1, 1, top, 0))
        assert [l for l, _, _ in walk] == list(range(1, top + 1))
        for l, lay, mults in walk:
            assert lay.bits == _product_layout(R.n, R.p ** top * _sum_deg(f)).bits
            assert unpacked(R, lay, mults) == direct_multipliers(f, k1.index_maps, R.p ** l)


def test_phi_chain_map_matches_direct_products():
    rng = random.Random(SEED + 21)
    for p in (2, 3, 5):
        R = PolyRing(p, 2)
        for s in (1, 2, 3):
            f = []
            while len(f) < s:
                g = random_poly(R, rng, deg=1, terms=2)
                if g:
                    f.append(g)
            index_maps = build_koszul(f).index_maps
            for l in (1, 2, 3):
                direct = direct_multipliers(f, index_maps, p ** l)
                phis = phi_chain_map(f, FrobeniusLevel(p, l))
                for tuples, phi in zip(index_maps, phis):
                    for c, T in enumerate(tuples):
                        assert phi.columns[c] == tuple(
                            direct[T] if r == c else Polynomial.zero(R) for r in range(len(tuples))
                        )


def test_walk_layout_is_sized_for_the_cap(monkeypatch):
    # M_(1,2)(3^4) = (x1^5*x2)^80 has x1-degree 400, past the 8-bit field
    # that level 1 needs: the walk's layout is sized for the cap, so no
    # field carries.
    R = PolyRing(3, 2)
    f = [P(R, "x1^4"), P(R, "x1*x2")]
    cap = EngineLimits().level_cap
    lay_1 = _product_layout(R.n, R.p * _sum_deg(f))
    lay = _product_layout(R.n, R.p ** cap * _sum_deg(f))
    assert lay.bits > lay_1.bits
    k1 = build_koszul(f)
    short = {
        T: frobenius.frobenius_multipliers(prod((f[a - 1] for a in T), start=Polynomial.one(R)), lay_1)
        for tuples in k1.index_maps for T in tuples
    }
    for l, walk_lay, mults in koszul._chain_maps(k1, 1, cap, 0):
        direct = direct_multipliers(f, k1.index_maps, R.p ** l)
        assert walk_lay.bits == lay.bits
        assert unpacked(R, lay, mults) == direct
        # the level-1 layout's 8-bit fields hold M_T(27), of x1-degree at
        # most 5 * 26 = 130, but not M_T(81), of x1-degree up to 400
        assert (unpacked(R, lay_1, {T: next(w) for T, w in short.items()}) == direct) == (l < 4)
    widths = []
    real = frobenius._product_layout
    monkeypatch.setattr(frobenius, "_product_layout", lambda n, d: widths.append(d) or real(n, d))
    cert = verify_prop_van(f, 2, level=FrobeniusLevel(3, cap))
    # (x1^4, x1*x2) has radical (x1), so H^2_I(R) = 0 and the torsion dies
    assert (cert.num_torsion_generators, cert.level_used, cert.verdicts) == (1, cap, (True,))
    assert real(R.n, max(widths)).bits == lay.bits


def test_walk_past_the_default_cap_doubles_its_layout(monkeypatch):
    # I = m never certifies, so a cap of 9 tries levels 1 to 9: the walk
    # is laid out for levels up to 4, then 8, then 9, restarting from
    # level 1 each time, and every level still passes both checks
    widths = []
    real = frobenius._product_layout
    monkeypatch.setattr(frobenius, "_product_layout", lambda n, d: widths.append(d) or real(n, d))
    R = PolyRing(2, 2)
    f = [P(R, "x1"), P(R, "x2")]
    cert = verify_prop_van(f, 2, limits=EngineLimits(level_cap=9))
    assert cert.retries == 9
    assert widths == [2 ** 4 * 2, 2 ** 8 * 2, 2 ** 9 * 2]


def test_huge_level_cap_widens_no_pack_before_the_walk_needs_it(monkeypatch):
    # build_koszul's layout and the walk's, both spied
    widths = []
    for mod in (koszul, frobenius):
        monkeypatch.setattr(mod, "_product_layout",
                            lambda n, d, real=mod._product_layout: widths.append(d) or real(n, d))
    R = PolyRing(3, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    lim = EngineLimits(level_cap=10 ** 6)
    cert = verify_prop_van(f, 2, level=FrobeniusLevel(3, 1), limits=lim)
    assert (cert.level_used, cert.verdicts) == (1, (True,))
    assert len(widths) == 2 and max(widths) <= 3 ** 4 * _sum_deg(f) + 1


def test_level_q_image_bases_match_buchberger(monkeypatch):
    # the basis each level reduces by, im d_1's scaled, is the reduced
    # basis that Buchberger computes from the level-q image columns
    seen = []
    real = koszul._reduces_to_zero

    def spy(h, src, deg, divisors, ring, budget):
        seen.append(divisors)
        return real(h, src, deg, divisors, ring, budget)

    monkeypatch.setattr(koszul, "_reduces_to_zero", spy)
    cases = [
        (PolyRing(2, 2), ["x1", "x2"], 2, 3),
        (PolyRing(3, 2), ["x1", "x2", "x1 + x2"], 2, 2),
        (PolyRing(3, 2), ["x1^2", "x1*x2", "x2^2"], 2, 2),
        (PolyRing(2, 3, "lex"), ["x1^2", "x1*x2", "x3"], 3, 2),
        (PolyRing(3, 3, "lex"), ["x1", "x2", "x3"], 3, 2),
    ]
    for R, gens, i, cap in cases:
        f = [P(R, g) for g in gens]
        seen.clear()
        cert = verify_prop_van(f, i, limits=EngineLimits(level_cap=cap))
        tried = cert.retries + (cert.level_used is not None)
        assert tried >= 1 and len(seen) == tried * cert.num_torsion_generators
        first = (cap + 1 if cert.level_used is None else cert.level_used) - cert.retries
        for k, l in enumerate(range(first, first + tried)):
            kq = build_koszul(f, R.p ** l)
            ref = engine_basis(R, kq.diffs[i - 1].columns)
            for basis in seen[k * cert.num_torsion_generators:(k + 1) * cert.num_torsion_generators]:
                assert basis.reduced
                assert basis.vecs == ref


def count_work(monkeypatch):
    """Patch in counters: Buchberger runs, levels tried, recurrence
    products (the steps of frobenius_multipliers), identity products (the
    pairs that the chain-map and d compose d checks hand to _vanishes),
    and the exponents of the powers taken."""
    log = {"gb": 0, "steps": 0, "ident": 0, "pows": [], "levels": []}
    packed_basis = groebner._packed_basis
    times = frobenius._times_mod
    vanishes = koszul._vanishes
    check = koszul._check_chain_map
    pow_ = Polynomial.__pow__

    def gb(*args):
        log["gb"] += 1
        return packed_basis(*args)

    def step(A, B, p):
        log["steps"] += 1
        return times(A, B, p)

    def identity(products, p):
        products = list(products)
        log["ident"] += len(products)
        return vanishes(products, p)

    def mark():
        return dict(gb=log["gb"], steps=log["steps"], ident=log["ident"], pows=len(log["pows"]))

    def level(d1, mults, q, index_maps, p):
        log["levels"].append(dict(q=q, **mark()))
        return check(d1, mults, q, index_maps, p)

    def power(g, e):
        log["pows"].append(e)
        return pow_(g, e)

    monkeypatch.setattr(groebner, "_packed_basis", gb)
    monkeypatch.setattr(frobenius, "_times_mod", step)
    monkeypatch.setattr(koszul, "_vanishes", identity)
    monkeypatch.setattr(koszul, "_check_chain_map", level)
    monkeypatch.setattr(Polynomial, "__pow__", power)
    log["mark"] = mark
    return log


def test_propvan_work_per_level_is_pinned(monkeypatch):
    # I = m never certifies, so every level up to the cap is tried.  After
    # the first level no Buchberger run happens and no power is taken, so
    # none with e = q.  Each level costs 2^s = 4 recurrence products, one
    # per subset, and 8 identity products: two per nonempty subset T for
    # its one entry of d_q o phi = phi o d_1 (2^s - 1 = 3 entries) and two
    # for the one entry of d_q o d_q.
    log = count_work(monkeypatch)
    R = PolyRing(2, 2)
    cert = verify_prop_van([P(R, "x1"), P(R, "x2")], 2, limits=EngineLimits(level_cap=4))
    assert cert.retries == 4
    levels = log["levels"]
    assert [v["q"] for v in levels] == [2, 4, 8, 16]
    marks = levels + [log["mark"]()]
    assert all(v["gb"] == levels[0]["gb"] for v in marks)
    assert all(v["pows"] == levels[0]["pows"] for v in marks)
    assert not {2, 4, 8, 16} & set(log["pows"])
    for a, b in zip(levels, levels[1:]):
        assert b["steps"] - a["steps"] == 4
    for a, b in zip(marks, marks[1:]):
        assert b["ident"] - a["ident"] == 8


def test_propvan_walk_started_high_builds_up_from_level_1(monkeypatch):
    log = count_work(monkeypatch)
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    cert = verify_prop_van(f, 2, level=FrobeniusLevel(2, 3))
    assert cert.level_used == 3
    assert [v["q"] for v in log["levels"]] == [8]
    assert log["levels"][0]["steps"] == 8  # levels 2 and 3, four subsets each
    assert 8 not in log["pows"]


def test_propvan_builds_each_basis_once(monkeypatch):
    # Buchberger runs in one verify_prop_van.  The torsion is taken on the
    # relation basis that presenting H^i computed, and im d_1's basis is
    # the one that presentation was computed modulo, so neither is built
    # again.  Both presentations are read off with no run when their
    # generators are the unit vectors.  At i = s = 2: im d_1 alone.  The
    # kernel is the unit vector there, which spans R^1, so no basis of it
    # is built to check the image; the relations are im d_1's basis, and
    # the torsion's saturation exits on the staircase with e_1 outside the
    # relations, so the torsion's relations are that basis again.  At
    # i = 2 < s = 3: ker d^2, im d_1, the relations, and four
    # for the saturation's two rounds of engine colons.  Each round makes
    # one colon and tests the other generator by reduction: it fails in
    # the first round, which costs one more colon and a meet, and passes
    # in the second.  The saturation is all of R^2 with neither unit
    # vector in the relations, so the torsion's relations are read off.
    # The image is checked against ker d^2's own basis, so span(ker) is
    # not built again.
    log = count_work(monkeypatch)
    for p, gens, runs, torsion, walked in (
        (3, ["x1^2", "x1*x2 + x2^2"], 1, 1, 4),
        (2, ["x1^2 + x2^2", "x1*x2 + x2^2", "x1"], 7, 2, 3),
    ):
        R = PolyRing(p, 2)
        log["gb"] = 0
        cert = verify_prop_van([P(R, g) for g in gens], 2)
        assert (cert.num_torsion_generators, cert.retries) == (torsion, walked)
        assert log["gb"] == runs, gens


def test_propvan_below_s_checks_the_image_against_the_kernel_basis(monkeypatch):
    # below i = s the image of d^{i-1} is checked against the basis that
    # ker d^i's syzygies were read off: one Buchberger run fewer than
    # building that basis again from the kernel generators, which is
    # what _subquotient does when it is given no basis, and the same
    # certificate
    runs = []
    packed_basis = groebner._packed_basis
    monkeypatch.setattr(groebner, "_packed_basis", lambda *a: runs.append(1) or packed_basis(*a))
    subquotient = koszul._subquotient

    def rebuilt(ring, ker, im, lim, basis=None):
        return subquotient(ring, ker, im, lim)

    cases = [
        (PolyRing(2, 2), ["x1^2 + x2^2", "x1*x2 + x2^2", "x1"], 2),
        (PolyRing(3, 3), ["x1", "x2", "x1*x3"], 1),
        (PolyRing(3, 3), ["x1", "x2", "x1*x3"], 2),
        (PolyRing(2, 3, "lex"), ["x1^2", "x1*x2", "x3"], 2),
    ]
    for R, gens, i in cases:
        f = [P(R, g) for g in gens]
        counts, certs = [], []
        for route in (subquotient, rebuilt):
            monkeypatch.setattr(koszul, "_subquotient", route)
            runs.clear()
            certs.append(verify_prop_van(f, i))
            counts.append(len(runs))
        assert certs[0] == certs[1], (gens, i)
        assert counts[1] == counts[0] + 1, (gens, i, counts)


# ---------------------------------------------------------------------------
# mutations: a broken identity fails the check


def test_walk_rejects_a_perturbed_multiplier(monkeypatch):
    # one term of one M_T at level 2 changes; every subset T, p = 2 and 3
    real = frobenius.frobenius_multipliers
    for p in (2, 3):
        R = PolyRing(p, 2)
        f = [P(R, "x1 + x2"), P(R, "x2")]
        for target in range(4):
            made = []

            def perturbed(g, lay):
                made.append(g)
                mine = len(made) - 1 == target
                for l, m in enumerate(real(g, lay), 1):
                    if mine and l == 2:
                        t = max(m)
                        m = {**m, t: m[t] + 1}
                    yield m

            monkeypatch.setattr(frobenius, "frobenius_multipliers", perturbed)
            with pytest.raises(ValueError, match="chain map fails to commute"):
                phi_chain_map(f, FrobeniusLevel(p, 2))
            made.clear()
            with pytest.raises(ValueError, match="chain map fails to commute"):
                verify_prop_van(f, 2, limits=EngineLimits(level_cap=2))


def test_walk_rejects_a_perturbed_multiplier_at_s_3(monkeypatch):
    # one term of one of the 8 M_T at level 2 changes.  Each level checks
    # one entry per nonempty T, S = T minus {a} with f_a of fewest terms:
    # here x2 or x3, so no entry with S = T minus {1} is multiplied out
    # once T holds 2 or 3, and each perturbation is still caught
    real = frobenius.frobenius_multipliers
    for p in (2, 3):
        R = PolyRing(p, 3)
        f = [P(R, "x1 + x2 + x3"), P(R, "x2"), P(R, "x3")]
        for target in range(8):
            made = []

            def perturbed(g, lay):
                made.append(g)
                mine = len(made) - 1 == target
                for l, m in enumerate(real(g, lay), 1):
                    if mine and l == 2:
                        t = max(m)
                        m = {**m, t: m[t] + 1}
                    yield m

            monkeypatch.setattr(frobenius, "frobenius_multipliers", perturbed)
            with pytest.raises(ValueError, match="chain map fails to commute"):
                phi_chain_map(f, FrobeniusLevel(p, 2))
            made.clear()
            with pytest.raises(ValueError, match="chain map fails to commute"):
                verify_prop_van(f, 3, limits=EngineLimits(level_cap=2))
            assert len(made) == 8


def test_walk_rejects_a_flipped_sign_of_d_q(monkeypatch):
    real = koszul._level_entries
    R = PolyRing(3, 3)
    f = [P(R, "x1"), P(R, "x2 + x3"), P(R, "x3")]
    keys = list(koszul._koszul_entries(f, build_koszul(f).index_maps))
    for key in keys:

        def flipped(d1, q):
            dq = real(d1, q)
            dq[key] = {t: R.p - c for t, c in dq[key].items()}
            return dq

        monkeypatch.setattr(koszul, "_level_entries", flipped)
        with pytest.raises(ValueError, match="chain map fails to commute"):
            phi_chain_map(f, FrobeniusLevel(3, 2))
        with pytest.raises(ValueError, match="chain map fails to commute"):
            verify_prop_van(f, 3, limits=EngineLimits(level_cap=1))


def test_level_check_rejects_a_complex_that_fails_d_compose_d():
    # flipping one sign of d_1 keeps d_q o phi = phi o d_1, since d_q is
    # F^e(d_1), but breaks d_q o d_q = 0 at the flipped entry's degrees
    R = PolyRing(3, 2)
    f = [P(R, "x1"), P(R, "x2"), P(R, "x1 + x2")]
    k1 = build_koszul(f)
    [(_, lay, mults)] = koszul._chain_maps(k1, 2, 2, 0)
    d1 = {k: lay.pack_terms(g.terms) for k, g in koszul._koszul_entries(f, k1.index_maps).items()}
    koszul._check_chain_map(d1, mults, 9, k1.index_maps, R.p)
    for key in d1:
        bad = {**d1, key: {t: R.p - c for t, c in d1[key].items()}}
        with pytest.raises(ValueError, match="differential composite nonzero"):
            koszul._check_chain_map(bad, mults, 9, k1.index_maps, R.p)


def test_build_koszul_rejects_a_flipped_entry(monkeypatch):
    real = koszul._koszul_entries
    R = PolyRing(5, 2)
    f = [P(R, "x1"), P(R, "x2^2"), P(R, "x1 + x2")]
    keys = list(real(f, build_koszul(f).index_maps))
    for key in keys:

        def flipped(ft, index_maps):
            out = real(ft, index_maps)
            out[key] = -out[key]
            return out

        monkeypatch.setattr(koszul, "_koszul_entries", flipped)
        with pytest.raises(ValueError, match="differential composite nonzero"):
            build_koszul(f)
        with pytest.raises(ValueError, match="differential composite nonzero"):
            build_koszul(f, 5)
