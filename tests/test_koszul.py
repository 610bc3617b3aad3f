"""Koszul cocomplexes, the Frobenius chain map, and torsion kills.

Sign conventions are pinned in char 5 where -1 is visible; cohomology
presentations are checked against the classical values for regular and
non-regular sequences.  The verifier tests cover all reachable outcome
branches: vacuous pass, explicit kill, translated points, and the
exploratory run on a hypothesis-violating input.
"""

import random

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
from fplocal.modres import finite_length_data, module_gb
from fplocal.polycore import Polynomial, PolyRing, parse_poly

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


def test_recurrence_multipliers_match_direct_products():
    families = [([P(PolyRing(p, n), g) for g in gens], 4) for p, n, gens in CRITERION_5]
    # criterion 3 tries levels 1 and 2 at p = 2, level 1 otherwise; the
    # recurrence is checked at level 2 for p = 3 as well
    families += [(f, max(l, 2 if f[0].ring.p < 5 else 1)) for f, l in criterion_3_families(200)]
    for f, top in families:
        p = f[0].ring.p
        index_maps = build_koszul(f).index_maps
        walk = koszul._multiplier_levels(f, p)
        for l in range(1, top + 1):
            assert next(walk) == direct_multipliers(f, index_maps, p ** l)


def test_level_q_image_bases_match_buchberger(monkeypatch):
    # the basis each level reduces by is the reduced basis that Buchberger
    # computes from the level-q image columns
    seen = []
    real = koszul.module_normal_form

    def spy(ring, vec, basis, limits=None):
        seen.append(basis)
        return real(ring, vec, basis, limits)

    monkeypatch.setattr(koszul, "module_normal_form", spy)
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
            ref = module_gb(R, kq.diffs[i - 1].columns)
            for basis in seen[k * cert.num_torsion_generators:(k + 1) * cert.num_torsion_generators]:
                assert basis == ref


def count_work(monkeypatch):
    """Patch in counters: Buchberger runs, levels entered, recurrence
    steps (the p-th powers of frobenius_multipliers), products of two
    polynomials, and the exponents of the powers taken."""
    log = {"gb": 0, "steps": 0, "mul": 0, "pows": [], "levels": []}
    packed_basis = groebner._packed_basis
    frob = frobenius.frobenius_power
    phi = koszul._phi_with_complexes
    mul, pow_ = Polynomial.__mul__, Polynomial.__pow__

    def gb(*args):
        log["gb"] += 1
        return packed_basis(*args)

    def step(g, lvl):
        log["steps"] += lvl.l == 1
        return frob(g, lvl)

    def level(k1, lvl, mults):
        log["levels"].append(dict(l=lvl.l, gb=log["gb"], steps=log["steps"], mul=log["mul"],
                                  pows=len(log["pows"])))
        return phi(k1, lvl, mults)

    def product(a, b):
        log["mul"] += isinstance(b, Polynomial)
        return mul(a, b)

    def power(g, e):
        log["pows"].append(e)
        return pow_(g, e)

    monkeypatch.setattr(groebner, "_packed_basis", gb)
    monkeypatch.setattr(frobenius, "frobenius_power", step)
    monkeypatch.setattr(koszul, "_phi_with_complexes", level)
    monkeypatch.setattr(Polynomial, "__mul__", product)
    monkeypatch.setattr(Polynomial, "__pow__", power)
    return log


def test_propvan_work_per_level_is_pinned(monkeypatch):
    # I = m never certifies, so every level up to the cap is tried.  After
    # the first level no Buchberger run happens, and each level costs
    # 2^s = 4 recurrence steps and products, one per subset.  The only
    # powers are build_koszul's f^q, with no f^(q-1) among them.
    log = count_work(monkeypatch)
    R = PolyRing(2, 2)
    cert = verify_prop_van([P(R, "x1"), P(R, "x2")], 2, limits=EngineLimits(level_cap=4))
    assert cert.retries == 4
    levels = log["levels"]
    assert [v["l"] for v in levels] == [1, 2, 3, 4]
    end = dict(gb=log["gb"], steps=log["steps"], mul=log["mul"], pows=len(log["pows"]))
    marks = levels + [end]
    assert all(v["gb"] == levels[0]["gb"] for v in marks)
    for k, (a, b) in enumerate(zip(levels, levels[1:]), 2):
        assert (b["steps"] - a["steps"], b["mul"] - a["mul"]) == (4, 4)
        assert log["pows"][a["pows"]:b["pows"]] == [2 ** (k - 1)] * 2


def test_propvan_walk_started_high_builds_up_from_level_1(monkeypatch):
    log = count_work(monkeypatch)
    R = PolyRing(2, 2)
    f = [P(R, "x1^2"), P(R, "x1*x2")]
    cert = verify_prop_van(f, 2, level=FrobeniusLevel(2, 3))
    assert cert.level_used == 3
    assert [v["l"] for v in log["levels"]] == [3]
    assert log["levels"][0]["steps"] == 8  # levels 2 and 3, four subsets each
