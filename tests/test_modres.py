"""Module Groebner bases, syzygies, resolutions, torsion.

Syzygies are certificates, so every computed generator is re-verified by
direct substitution.  Resolutions are checked for exactness with the
kernel routine run against the next map's span, and the minimal Betti
numbers of classical quotients (Koszul complexes of variable sequences)
are the frozen targets for the minimization pass.
"""

import math
import random

import pytest

from fplocal.config import EngineLimits
from fplocal.errors import NonHomogeneousError, ResourceLimitError, RingMismatchError
from fplocal.groebner import Ideal
from fplocal.modres import (
    ModulePresentation,
    PolyMatrix,
    Resolution,
    depth,
    finite_length_data,
    free_resolution,
    kernel_of_map,
    minimize_resolution,
    module_gb,
    module_h0m,
    module_normal_form,
    projective_dimension,
    quotient_presentation,
    subquotient_presentation,
    syzygies,
)
from fplocal.polycore import Polynomial, PolyRing, parse_poly

SEED = 31415


def P(ring, text):
    return parse_poly(ring, text)


def vec(ring, *texts):
    return tuple(parse_poly(ring, t) for t in texts)


def random_poly(ring, rng, deg=2, terms=3):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, deg) for _ in range(ring.n))
        t[mono] = rng.randint(0, ring.p - 1)
    return Polynomial(ring, t)


def random_vec(ring, rng, rank):
    return tuple(random_poly(ring, rng, deg=2, terms=2) for _ in range(rank))


def span_equal(ring, A, B):
    return module_gb(ring, A) == module_gb(ring, B)


def assert_exact(res):
    # ker(maps[k]) = im(maps[k+1]); the reverse inclusion is the
    # composite-zero check the Resolution constructor already ran
    ring = res.ring
    for k in range(len(res.maps)):
        ker = kernel_of_map(res.maps[k])
        if k + 1 < len(res.maps):
            gb = module_gb(ring, res.maps[k + 1].columns)
            for v in ker:
                assert not any(module_normal_form(ring, v, gb))
        else:
            assert ker == ()


# ---------------------------------------------------------------------------
# module Groebner bases


def test_module_gb_standard_basis():
    R = PolyRing(2, 2)
    gens = [vec(R, "1", "0"), vec(R, "0", "1")]
    assert module_gb(R, gens) == (vec(R, "1", "0"), vec(R, "0", "1"))


def test_module_gb_rank_one_matches_ideal_gb():
    # modules run without pair criteria, ideals with the product and chain
    # criteria; on rank-1 input both must land on the same reduced basis
    rng = random.Random(SEED)
    cases = [(2, 2, "grevlex"), (3, 2, "grevlex"), (5, 2, "grevlex"),
             (3, 2, "lex"), (2, 3, "grevlex"), (3, 3, "lex"), (5, 3, "grevlex")]
    for p, n, order in cases:
        R = PolyRing(p, n, order)
        for _ in range(5):
            gens = [random_poly(R, rng) for _ in range(n)]
            ideal_gb = Ideal(R, gens).groebner_basis()
            mod_gb = module_gb(R, [(g,) for g in gens])
            assert mod_gb == tuple((g,) for g in ideal_gb)


def test_on_basis_fires_for_ideal_bases_only():
    # the observer's consumers check ideal bases, so module bases stay silent
    seen = []
    lim = EngineLimits(on_basis=lambda ring, basis: seen.append(ring))
    R = PolyRing(3, 2)
    gens = [vec(R, "x1", "x2"), vec(R, "x2^2", "0"), vec(R, "0", "x1 + x2")]
    assert module_gb(R, gens, lim)
    assert syzygies(R, gens, lim)
    assert seen == []
    E = PolyRing(3, 3, "elim-grevlex")
    Ideal(E, ["x1*x3 - x2", "x2^2 - x3"]).groebner_basis(lim)
    assert seen == [E]


def test_module_gb_canonical_under_shuffling():
    rng = random.Random(SEED + 1)
    R = PolyRing(3, 2)
    gens = [vec(R, "x1", "x2"), vec(R, "x2^2", "0"), vec(R, "0", "x1 + x2")]
    base = module_gb(R, gens)
    for _ in range(5):
        variant = []
        for v in gens:
            c = rng.randint(1, R.p - 1)
            variant.append(tuple(g * c for g in v))
        rng.shuffle(variant)
        variant.append((Polynomial.zero(R), Polynomial.zero(R)))
        assert module_gb(R, variant) == base


def test_module_gb_position_over_term():
    # component 0 dominates: a lead in component 0 beats any component 1 lead
    R = PolyRing(2, 2)
    g = module_gb(R, [vec(R, "x1", "x2^3")])
    assert g[0][0] == P(R, "x1")


def test_module_normal_form_properties():
    rng = random.Random(SEED + 2)
    R = PolyRing(3, 2)
    gens = [vec(R, "x1", "x2"), vec(R, "0", "x2^2")]
    gb = module_gb(R, gens)
    for v in gens:
        assert not any(module_normal_form(R, v, gb))
    for _ in range(5):
        w = random_vec(R, rng, 2)
        r = module_normal_form(R, w, gb)
        assert module_normal_form(R, r, gb) == r
        q = random_poly(R, rng, deg=1)
        shifted = tuple(a + q * b for a, b in zip(w, gens[0]))
        assert module_normal_form(R, shifted, gb) == r


def test_module_gb_budgets():
    R = PolyRing(2, 2)
    gens = [vec(R, "x1^2 + x2", "x1"), vec(R, "x2", "x1 + 1"), vec(R, "x1*x2", "x2^2")]
    with pytest.raises(ResourceLimitError):
        module_gb(R, gens, EngineLimits(max_reductions=1))
    with pytest.raises(ResourceLimitError) as ei:
        module_gb(R, gens, EngineLimits(max_basis=1))
    assert ei.value.kind == "module basis size"


# ---------------------------------------------------------------------------
# syzygies


def test_syzygies_of_two_variables_is_koszul():
    R = PolyRing(2, 2)
    syz = syzygies(R, [vec(R, "x1"), vec(R, "x2")])
    assert span_equal(R, syz, [vec(R, "x2", "x1")])


def test_syzygies_substitution_oracle():
    rng = random.Random(SEED + 3)
    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n)
            for rank in (1, 2):
                cols = [random_vec(R, rng, rank) for _ in range(3)]
                syz = syzygies(R, cols)
                for s in syz:
                    acc = [Polynomial.zero(R)] * rank
                    for coef, col in zip(s, cols):
                        for i in range(rank):
                            acc[i] = acc[i] + coef * col[i]
                    assert not any(acc)


def test_syzygies_contain_koszul_relations():
    # for scalar columns (f_i), f_j e_i - f_i e_j is always a syzygy;
    # it must reduce to zero against the computed generators
    rng = random.Random(SEED + 4)
    R = PolyRing(3, 2)
    for _ in range(5):
        fs = [random_poly(R, rng) for _ in range(3)]
        cols = [(f,) for f in fs]
        gb = module_gb(R, syzygies(R, cols)) if syzygies(R, cols) else ()
        for i in range(3):
            for j in range(i + 1, 3):
                k = [Polynomial.zero(R)] * 3
                k[i] = fs[j]
                k[j] = -fs[i]
                if any(k):
                    assert not any(module_normal_form(R, tuple(k), gb))


def test_syzygies_of_independent_columns_empty():
    R = PolyRing(2, 2)
    cols = [vec(R, "x1", "0"), vec(R, "0", "x2")]
    assert syzygies(R, cols) == ()
    assert syzygies(R, []) == ()


def test_syzygies_rejects_mixed_ranks():
    R = PolyRing(2, 2)
    with pytest.raises(ValueError):
        syzygies(R, [vec(R, "x1"), vec(R, "x1", "x2")])


# ---------------------------------------------------------------------------
# matrices and kernels


def test_polymatrix_basics():
    R = PolyRing(2, 2)
    m = PolyMatrix.from_columns(R, 2, [vec(R, "x1", "0"), vec(R, "x2", "1")])
    assert m.cols == 2
    assert m.entry(0, 1) == P(R, "x2")
    assert m.column(0) == vec(R, "x1", "0")
    assert m.apply(vec(R, "1", "x1")) == vec(R, "x1*x2 + x1", "x1")
    assert not m.is_zero()
    assert PolyMatrix(R, 2, ()).is_zero()


def test_polymatrix_compose():
    R = PolyRing(3, 2)
    a = PolyMatrix.from_columns(R, 1, [vec(R, "x1"), vec(R, "x2")])
    b = PolyMatrix.from_columns(R, 2, [vec(R, "x2", "2*x1")])
    c = a.compose(b)
    assert c.rows == 1 and c.cols == 1
    assert c.entry(0, 0) == P(R, "x1*x2 + 2*x1*x2")  # = 3 x1 x2 = 0
    assert c.is_zero()


def test_polymatrix_validation():
    R = PolyRing(2, 2)
    with pytest.raises(ValueError):
        PolyMatrix.from_columns(R, 2, [vec(R, "x1")])
    with pytest.raises(RingMismatchError):
        PolyMatrix.from_columns(R, 1, [(Polynomial.one(PolyRing(3, 2)),)])
    m = PolyMatrix.from_columns(R, 1, [vec(R, "x1")])
    with pytest.raises(ValueError):
        m.apply(vec(R, "x1", "x2"))
    tall = PolyMatrix.from_columns(R, 2, [vec(R, "x1", "x2")])
    with pytest.raises(ValueError):
        tall.compose(tall)


def test_kernel_of_map_frozen():
    R = PolyRing(2, 2)
    m = PolyMatrix.from_columns(R, 1, [vec(R, "x1"), vec(R, "x2")])
    ker = kernel_of_map(m)
    assert span_equal(R, ker, [vec(R, "x2", "x1")])
    inj = PolyMatrix.from_columns(R, 2, [vec(R, "x1", "x2")])
    assert kernel_of_map(inj) == ()
    assert kernel_of_map(PolyMatrix(R, 1, ())) == ()


def test_kernel_vectors_annihilate():
    rng = random.Random(SEED + 5)
    R = PolyRing(5, 2)
    for _ in range(5):
        m = PolyMatrix.from_columns(R, 2, [random_vec(R, rng, 2) for _ in range(3)])
        for v in kernel_of_map(m):
            assert not any(m.apply(v))


# ---------------------------------------------------------------------------
# presentations


def test_quotient_presentation():
    R = PolyRing(2, 2)
    pres = quotient_presentation(Ideal(R, ["x1^2", "x1*x2"]))
    assert pres.rank == 1
    assert pres.shifts == (0,)
    assert pres.column_degrees() == (2, 2)
    ng = quotient_presentation(Ideal(R, ["x1^2 + x2"]))
    assert ng.shifts is None
    with pytest.raises(NonHomogeneousError):
        ng.column_degrees()


def test_presentation_validation():
    R = PolyRing(2, 2)
    rel = PolyMatrix.from_columns(R, 1, [vec(R, "x1")])
    with pytest.raises(ValueError):
        ModulePresentation(R, 2, rel)
    with pytest.raises(ValueError):
        ModulePresentation(R, 1, rel, shifts=(0, 0))
    with pytest.raises(NonHomogeneousError):
        ModulePresentation(R, 1, PolyMatrix.from_columns(R, 1, [vec(R, "x1 + 1")]), shifts=(0,))
    # mixed degrees across a column are fine when the shifts compensate
    m = PolyMatrix.from_columns(R, 2, [vec(R, "x1^2", "x1")])
    pres = ModulePresentation(R, 2, m, shifts=(0, 1))
    assert pres.column_degrees() == (2,)


def test_subquotient_presentation_residue_field():
    R = PolyRing(3, 2)
    pres = subquotient_presentation(R, [vec(R, "1")], [vec(R, "x1"), vec(R, "x2")])
    assert pres.rank == 1
    assert finite_length_data(pres) == (True, 1)


def test_subquotient_presentation_zero_quotient():
    R = PolyRing(2, 2)
    pres = subquotient_presentation(R, [vec(R, "x1")], [vec(R, "x1")])
    assert finite_length_data(pres) == (True, 0)
    empty = subquotient_presentation(R, [], [])
    assert empty.rank == 0


def test_subquotient_presentation_rejects_bad_image():
    R = PolyRing(2, 2)
    with pytest.raises(ValueError):
        subquotient_presentation(R, [vec(R, "x1")], [vec(R, "x2")])
    with pytest.raises(ValueError):
        subquotient_presentation(R, [], [vec(R, "x2")])


# ---------------------------------------------------------------------------
# resolutions


def test_koszul_resolution_of_residue_field():
    for n in (1, 2, 3):
        R = PolyRing(2, n)
        I = Ideal(R, [Polynomial.variable(R, k) for k in range(1, n + 1)])
        res = free_resolution(quotient_presentation(I))
        assert_exact(res)
        mini = minimize_resolution(res)
        assert mini.ranks == tuple(math.comb(n, k) for k in range(n + 1))
        assert mini.length == n


def test_resolution_of_principal_ideal():
    R = PolyRing(3, 2)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1^2"])))
    assert res.ranks == (1, 1)
    assert res.length == 1
    assert_exact(res)


def test_resolution_exactness_random():
    rng = random.Random(SEED + 6)
    for p in (2, 3):
        R = PolyRing(p, 2)
        for _ in range(4):
            gens = [random_poly(R, rng) for _ in range(2)]
            I = Ideal(R, gens)
            if I.is_zero():
                continue
            res = free_resolution(quotient_presentation(I))
            assert_exact(res)


def test_resolution_shifts_graded():
    R = PolyRing(2, 2)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1^2", "x1*x2"])))
    assert res.shifts is not None
    assert res.shifts[0] == (0,)
    assert res.shifts[1] == (2, 2)
    ng = free_resolution(quotient_presentation(Ideal(R, ["x1^2 + x2"])))
    assert ng.shifts is None


def test_resolution_length_budget():
    R = PolyRing(2, 2)
    pres = quotient_presentation(Ideal(R, ["x1", "x2"]))
    with pytest.raises(ResourceLimitError) as ei:
        free_resolution(pres, max_len=1)
    assert ei.value.kind == "resolution length"


def test_resolution_validation():
    R = PolyRing(2, 2)
    a = PolyMatrix.from_columns(R, 1, [vec(R, "x1")])
    with pytest.raises(ValueError):
        Resolution(R, 2, (a,))
    b = PolyMatrix.from_columns(R, 1, [vec(R, "x2")])
    with pytest.raises(ValueError):
        Resolution(R, 1, (a, b))  # x1 * x2 != 0


# ---------------------------------------------------------------------------
# minimization, pd, depth


def test_minimize_cancels_unit_relation():
    # R^2 / (e1 + x1 e2) is free of rank 1
    R = PolyRing(2, 2)
    rel = PolyMatrix.from_columns(R, 2, [vec(R, "1", "x1")])
    pres = ModulePresentation(R, 2, rel, shifts=(1, 0))
    res = free_resolution(pres)
    mini = minimize_resolution(res)
    assert mini.ranks == (1,)
    assert mini.length == 0
    assert projective_dimension(pres) == 0


def test_minimize_removes_redundant_generator():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1", "x1*x2"])  # same ideal as (x1)
    res = free_resolution(quotient_presentation(I))
    mini = minimize_resolution(res)
    assert mini.ranks == (1, 1)
    for m in mini.maps:
        for col in m.columns:
            for g in col:
                assert not (g and g.is_constant())


def test_minimize_preserves_cokernel_length():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1", "x2", "x1*x2"])
    pres = quotient_presentation(I)
    res = minimize_resolution(free_resolution(pres))
    assert res.ranks == (1, 2, 1)
    rebuilt = ModulePresentation(R, 1, res.maps[0])
    assert finite_length_data(rebuilt) == finite_length_data(pres) == (True, 1)


def test_minimize_leaves_minimal_alone():
    R = PolyRing(2, 2)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1^2", "x1*x2"])))
    mini = minimize_resolution(res)
    assert mini.ranks == res.ranks == (1, 2, 1)


def test_pd_of_variable_sequences():
    R = PolyRing(3, 3)
    for s in (1, 2, 3):
        I = Ideal(R, [Polynomial.variable(R, k) for k in range(1, s + 1)])
        pres = quotient_presentation(I)
        assert projective_dimension(pres) == s
        assert depth(pres) == 3 - s


def test_pd_frozen_depth_zero_example():
    # (x1^2, x1 x2) has m as an associated prime, so depth R/I = 0
    R = PolyRing(2, 2)
    pres = quotient_presentation(Ideal(R, ["x1^2", "x1*x2"]))
    assert projective_dimension(pres) == 2
    assert depth(pres) == 0


def test_pd_of_free_module():
    R = PolyRing(2, 2)
    pres = ModulePresentation.free(R, 2, shifts=(0, 1))
    assert projective_dimension(pres) == 0
    assert depth(pres) == 2


def test_pd_requires_grading():
    R = PolyRing(2, 2)
    pres = quotient_presentation(Ideal(R, ["x1^2 + x2"]))
    with pytest.raises(NonHomogeneousError):
        projective_dimension(pres)


# ---------------------------------------------------------------------------
# torsion


def test_h0m_frozen_depth_zero_example():
    R = PolyRing(2, 2)
    tor = module_h0m(quotient_presentation(Ideal(R, ["x1^2", "x1*x2"])))
    assert tor.generators == (vec(R, "x1"),)
    assert tor.finite is True
    assert tor.length == 1


def test_h0m_torsion_free_quotient():
    R = PolyRing(2, 2)
    tor = module_h0m(quotient_presentation(Ideal(R, ["x1"])))
    assert tor.generators == ()
    assert tor.finite is True
    assert tor.length == 0


def test_h0m_of_finite_length_module_is_everything():
    R = PolyRing(2, 2)
    tor = module_h0m(quotient_presentation(Ideal(R, ["x1", "x2"])))
    assert tor.generators == (vec(R, "1"),)
    assert tor.length == 1
    big = module_h0m(quotient_presentation(Ideal(R, ["x1^2", "x2^3"])))
    assert big.generators == (vec(R, "1"),)
    assert big.length == 6


def test_h0m_off_origin():
    # the translate of (x1^2, x1 x2) to the point (1, 1)
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1^2 + 1", "x1*x2 + x1 + x2 + 1"])
    tor = module_h0m(quotient_presentation(I), point=(1, 1))
    assert tor.generators == (vec(R, "x1 + 1"),)
    assert tor.length == 1
    # at the origin the same module is torsion-free
    assert module_h0m(quotient_presentation(I)).length == 0


def test_h0m_rank_two():
    R = PolyRing(2, 2)
    rel = PolyMatrix.from_columns(
        R, 2, [vec(R, "x1", "0"), vec(R, "0", "x1"), vec(R, "0", "x2")]
    )
    tor = module_h0m(ModulePresentation(R, 2, rel))
    assert tor.generators == (vec(R, "0", "1"),)
    assert tor.length == 1


def test_h0m_zero_rank():
    R = PolyRing(2, 2)
    tor = module_h0m(ModulePresentation(R, 0, PolyMatrix(R, 0, ())))
    assert tor.generators == () and tor.length == 0


# ---------------------------------------------------------------------------
# length counting


def test_finite_length_frozen():
    R = PolyRing(2, 2)
    assert finite_length_data(quotient_presentation(Ideal(R, ["x1^2", "x2^3"]))) == (True, 6)
    assert finite_length_data(quotient_presentation(Ideal(R, ["x1^2", "x1*x2", "x2^2"]))) == (
        True,
        3,
    )
    assert finite_length_data(quotient_presentation(Ideal(R, ["x1"]))) == (False, None)
    assert finite_length_data(quotient_presentation(Ideal(R, ["1"]))) == (True, 0)


def test_finite_length_char3_multiplicity():
    # same ideal as the Groebner fixture: three-fold point at (1, 1)
    R = PolyRing(3, 2)
    pres = quotient_presentation(Ideal(R, ["x1^2 + 2*x2", "x1*x2 + 2"]))
    assert finite_length_data(pres) == (True, 3)


def test_finite_length_rank_two():
    R = PolyRing(2, 2)
    rel = PolyMatrix.from_columns(
        R,
        2,
        [vec(R, "x1", "0"), vec(R, "x2", "0"), vec(R, "0", "x1"), vec(R, "0", "x2")],
    )
    assert finite_length_data(ModulePresentation(R, 2, rel)) == (True, 2)


def test_finite_length_ceiling():
    R = PolyRing(2, 2)
    pres = quotient_presentation(Ideal(R, ["x1^10", "x2^10"]))
    with pytest.raises(ResourceLimitError):
        finite_length_data(pres, EngineLimits(max_length=50))
    assert finite_length_data(pres) == (True, 100)
