"""Module Groebner bases, syzygies, resolutions, torsion.

Syzygies are certificates, so every computed generator is re-verified by
direct substitution.  Resolutions are checked for exactness with the
kernel routine run against the next map's span.  free_resolution builds
the minimal resolution in one pass, so no map may hold a constant entry,
and the minimal Betti numbers of classical quotients (Koszul complexes
of variable sequences) are its frozen targets.
"""

import math
import random
from itertools import product

import pytest

from fplocal import groebner, modres
from fplocal.config import EngineLimits
from fplocal.errors import NonHomogeneousError, ResourceLimitError, RingMismatchError
from fplocal.groebner import Ideal, maximal_ideal
from fplocal.modres import (
    ModulePresentation,
    PolyMatrix,
    Resolution,
    depth,
    finite_length_data,
    free_resolution,
    kernel_of_map,
    module_gb,
    module_h0m,
    module_normal_form,
    projective_dimension,
    quotient_presentation,
    subquotient_presentation,
    syzygies,
)
from fplocal.polycore import Polynomial, PolyRing, monomials_of_degree, parse_poly

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


def assert_no_constant_entry(res):
    for m in res.maps:
        for col in m.columns:
            for g in col:
                assert not (g and g.is_constant())


# ---------------------------------------------------------------------------
# module Groebner bases


def test_module_gb_standard_basis():
    R = PolyRing(2, 2)
    gens = [vec(R, "1", "0"), vec(R, "0", "1")]
    assert module_gb(R, gens) == (vec(R, "1", "0"), vec(R, "0", "1"))


def test_module_gb_rank_one_matches_ideal_gb():
    # modules run without the product criterion, ideals with it; on
    # rank-1 input both must land on the same reduced basis
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
        assert res.ranks == tuple(math.comb(n, k) for k in range(n + 1))
        assert res.length == n


def test_resolution_of_principal_ideal():
    R = PolyRing(3, 2)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1^2"])))
    assert res.ranks == (1, 1)
    assert res.length == 1
    assert_exact(res)


def test_one_column_ends_the_resolution_with_no_syzygies(monkeypatch):
    # R -> R^r, a -> a*v, is injective for v != 0: the Koszul resolution of
    # R/(x1, x2, x3), ranks (1, 3, 3, 1), computes the kernels of its
    # two 3-column maps only, and no kernel at all for a principal ideal
    calls = []
    real = modres._syzygies_raw
    monkeypatch.setattr(modres, "_syzygies_raw", lambda *a: calls.append(len(a[0])) or real(*a))
    R = PolyRing(2, 3)
    res = free_resolution(quotient_presentation(maximal_ideal(R)))
    assert res.ranks == (1, 3, 3, 1) and calls == [3, 3]
    assert_exact(res)
    calls.clear()
    assert free_resolution(quotient_presentation(Ideal(R, ["x1^2 + x2"]))).ranks == (1, 1)
    assert calls == []


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
# minimality, pd, depth


def test_minimize_cancels_unit_relation():
    # R^2 / (e1 + x1 e2) is free of rank 1
    R = PolyRing(2, 2)
    rel = PolyMatrix.from_columns(R, 2, [vec(R, "1", "x1")])
    pres = ModulePresentation(R, 2, rel, shifts=(1, 0))
    res = free_resolution(pres)
    assert res.ranks == (1,)
    assert res.length == 0
    assert res.shifts == ((0,),)
    assert projective_dimension(pres) == 0


def test_minimize_removes_redundant_generator():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1", "x1*x2"])  # same ideal as (x1)
    res = free_resolution(quotient_presentation(I))
    assert res.ranks == (1, 1)
    assert_no_constant_entry(res)


def test_minimize_preserves_cokernel_length():
    R = PolyRing(2, 2)
    I = Ideal(R, ["x1", "x2", "x1*x2"])
    pres = quotient_presentation(I)
    res = free_resolution(pres)
    assert res.ranks == (1, 2, 1)
    rebuilt = ModulePresentation(R, 1, res.maps[0])
    assert finite_length_data(rebuilt) == finite_length_data(pres) == (True, 1)


def test_minimize_leaves_minimal_alone():
    R = PolyRing(2, 2)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1^2", "x1*x2"])))
    assert res.ranks == (1, 2, 1)
    assert res.maps[0].columns == ((P(R, "x1^2"),), (P(R, "x1*x2"),))


def random_form(ring, rng, d):
    monos = list(monomials_of_degree(ring.n, d))
    return Polynomial(ring, {a: rng.randint(1, ring.p - 1) for a in rng.sample(monos, 2)})


def test_one_pass_resolution_random():
    # graded and inhomogeneous quotients, some with a constant generator,
    # and rank-2 presentations with a constant relation entry: exact, no
    # constant entry in any map, and the cokernel's length is the input's
    rng = random.Random(SEED + 7)
    cases = []
    for p in (2, 3, 5):
        R = PolyRing(p, 3)
        xs = [Polynomial.variable(R, k) for k in (1, 2, 3)]
        for squares in ([], [x * x for x in xs]):
            gens = [random_form(R, rng, rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
            cases.append(quotient_presentation(Ideal(R, gens + squares)))
            cases.append(quotient_presentation(Ideal(R, [Polynomial.one(R)] + gens)))
            inhom = [random_poly(R, rng) for _ in range(2)]
            if any(inhom):
                cases.append(quotient_presentation(Ideal(R, inhom + squares)))
        c = Polynomial.constant(R, rng.randint(1, p - 1))
        zero = Polynomial.zero(R)
        graded = [(c, random_form(R, rng, 1)), (random_form(R, rng, 1), random_form(R, rng, 2))]
        graded += [(x, zero) for x in xs] + [(zero, x * x) for x in xs]
        cases.append(ModulePresentation(R, 2, PolyMatrix.from_columns(R, 2, graded), (1, 0)))
        loose = [(random_poly(R, rng), c), random_vec(R, rng, 2)]
        cases.append(ModulePresentation(R, 2, PolyMatrix.from_columns(R, 2, loose)))
    assert sum(any(g and g.is_constant() for col in pres.relations.columns for g in col)
               for pres in cases) >= 12
    for pres in cases:
        res = free_resolution(pres)
        assert_exact(res)
        assert_no_constant_entry(res)
        if res.maps:
            rebuilt = ModulePresentation(pres.ring, res.base_rank, res.maps[0])
        else:
            rebuilt = ModulePresentation.free(pres.ring, res.base_rank)
        assert finite_length_data(rebuilt) == finite_length_data(pres)


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


def sparse_vec(R, rng, rank, terms):
    return tuple(random_poly(R, rng, deg=2, terms=terms) for _ in range(rank))


def torsion_presentation(R, rng, rank, point, terms):
    """Random relations plus (x_i - a_i) * v for every variable: v is
    m_a-torsion unless it lies in the span of the other relations."""
    v = sparse_vec(R, rng, rank, terms)
    cols = [sparse_vec(R, rng, rank, terms) for _ in range(rng.randint(0, rank))]
    cols += [tuple(x * g for g in v) for x in maximal_ideal(R, point).gens]
    rng.shuffle(cols)
    return ModulePresentation(R, rank, PolyMatrix.from_columns(R, rank, cols))


def reference_colon_all(N, hs, rank, ring, limits):
    """N : J with no early exit and no known part: the colon by every
    generator, as syzygies modulo N's vectors, and the meets of the
    colons in order, each a self-tagged colon modulo the next one's
    vectors; N itself when the reduced bases agree, as groebner._colon
    returns it."""
    quot = None
    for h in hs:
        cols = [{(c, a): w for a, w in h.items()} for c in range(rank)]
        q = groebner._syzygies_raw(cols, rank, ring, limits, N.vecs).vecs
        if quot is not None:
            tagged = [{**a, **{(rank + c, m): w for (c, m), w in a.items()}} for a in quot]
            q = groebner._divisor_basis(tagged + q, ring, limits).above(rank).vecs
        quot = q
    K = groebner._divisor_basis(quot, ring, limits)
    return N if K.vecs == N.vecs else K


def test_h0m_matches_reference_loop(monkeypatch):
    rng = random.Random(SEED + 40)
    cases = []
    for p in (2, 3, 5):
        for n in (2, 3):
            R = PolyRing(p, n)
            for rank in (1, 2, 3):
                point = tuple(rng.randrange(p) for _ in range(n))
                cases.append((torsion_presentation(R, rng, rank, None, 2), None))
                cases.append((torsion_presentation(R, rng, rank, point, 2), point))
                cols = [sparse_vec(R, rng, rank, 2) for _ in range(rank + 1)]
                rel = PolyMatrix.from_columns(R, rank, cols)
                cases.append((ModulePresentation(R, rank, rel), None))
    got = [module_h0m(pres, point) for pres, point in cases]
    monkeypatch.setattr(modres, "_colon", reference_colon_all)
    want = [module_h0m(pres, point) for pres, point in cases]
    assert sum(1 for t in want if t.generators) >= len(cases) // 3
    for g, w in zip(got, want):
        assert g.generators == w.generators
        assert g.presentation == w.presentation
        assert (g.finite, g.length) == (w.finite, w.length)


def test_h0m_reads_a_free_variable_off_the_leads(monkeypatch):
    # entries free of x3: M is M' (x) F_p[x3], so x3 is a nonzerodivisor
    # on M and divides no lead of the relations' basis; N : m = N is read
    # off the leads, and no syzygy runs
    rng = random.Random(SEED + 41)
    free = []
    for p in (2, 3, 5):
        R2, R = PolyRing(p, 2), PolyRing(p, 3)
        for _ in range(3):
            cols = [
                tuple(Polynomial(R, {a + (0,): c for a, c in g.terms.items()}) for g in col)
                for col in (sparse_vec(R2, rng, 2, 2) for _ in range(3))
            ]
            free.append(ModulePresentation(R, 2, PolyMatrix.from_columns(R, 2, cols)))
    # graded, every variable in a lead, and x2 divides the lead x1*x2 of
    # (x1*x2, x1^2) but not its vector: N : x2 is the engine's at rank 2
    R = PolyRing(3, 2)
    cols = [vec(R, "x1*x2", "x1^2"), vec(R, "x2^2", "x1*x2"), vec(R, "0", "x2^2")]
    graded = ModulePresentation(R, 2, PolyMatrix.from_columns(R, 2, cols))
    syz = []
    for module in (groebner, modres):
        real = module._syzygies_raw
        monkeypatch.setattr(module, "_syzygies_raw", lambda *a, real=real: syz.append(1) or real(*a))
    got = [module_h0m(pres) for pres in free]
    assert all(t.generators == () for t in got) and syz == []
    got.append(module_h0m(graded))
    assert got[-1].generators and syz
    lim = EngineLimits()
    N = groebner._divisor_basis([modres._vec_from_free(c) for c in cols], R, lim)
    x2 = [Polynomial.variable(R, 2).terms]
    assert groebner._colon(N, x2, 2, R, lim).vecs == reference_colon_all(N, x2, 2, R, lim).vecs
    monkeypatch.setattr(modres, "_colon", reference_colon_all)
    want = [module_h0m(pres) for pres in free + [graded]]
    for g, w in zip(got, want):
        assert g.generators == w.generators
        assert g.presentation == w.presentation
        assert (g.finite, g.length) == (w.finite, w.length)


def test_h0m_rank_three_within_a_small_ceiling():
    # one basis of the saturation loop once took more than 100,000
    # reductions on this grevlex presentation; it has no torsion
    R = PolyRing(2, 3)
    cols = [
        vec(R, "x1*x2^2*x3^2 + x1^2*x3", "x3 + 1", "x1^2*x3 + x2^2"),
        vec(R, "x1^2*x2^2*x3", "x3^2", "x1*x2^2*x3^2"),
        vec(R, "x2*x3^2", "0", "x1^2*x2*x3"),
        vec(R, "x1^2*x2^2 + x1^2*x2*x3", "x1^2*x2*x3", "x1*x2*x3^2 + x1*x3^2"),
    ]
    pres = ModulePresentation(R, 3, PolyMatrix.from_columns(R, 3, cols))
    tor = module_h0m(pres, None, EngineLimits(max_reductions=100_000))
    assert tor.generators == ()
    assert (tor.finite, tor.length) == (True, 0)


def test_h0m_torsion_presentation_within_a_small_ceiling():
    # tagging the relations as well as the torsion generators makes one
    # basis of this torsion presentation take 26,310 reductions; with the
    # relations untagged the largest basis of the whole call takes 1,487
    R = PolyRing(3, 2, "lex")
    cols = [
        vec(R, "x2", "2*x1", "x1^2 + 2*x1*x2"),
        vec(R, "x2^2", "2*x1", "2*x1^2"),
        vec(R, "2*x1^2", "x1*x2 + 1", "2*x2 + 2"),
        vec(R, "x1*x2 + 2", "2*x1 + 2", "2*x1^2 + 2"),
        vec(R, "x1*x2", "2*x1", "2*x1"),
    ]
    pres = ModulePresentation(R, 3, PolyMatrix.from_columns(R, 3, cols))
    tor = module_h0m(pres, None, EngineLimits(max_reductions=20000))
    assert tor.generators == (vec(R, "0", "0", "x2^2 + 2"),)
    assert (tor.finite, tor.length) == (True, 1)


# ---------------------------------------------------------------------------
# syzygies modulo a submodule, against full-tag references on the public
# syzygies: every vector gets a tag, and the answer is projected out or
# multiplied back together


def reference_colon(R, gens, f, rank):
    """{v : f*v in span(gens)}: the syzygies of (f*e_c) + gens, projected
    onto the first `rank` tags."""
    zero = Polynomial.zero(R)
    fcols = [tuple(f if i == c else zero for i in range(rank)) for c in range(rank)]
    out = []
    for s in syzygies(R, fcols + list(gens)):
        if any(s[:rank]) and s[:rank] not in out:
            out.append(s[:rank])
    return out


def reference_relations(R, gens, modulo):
    """Relations of span(gens) mod span(modulo): the syzygies of
    gens + modulo, projected onto the first len(gens) tags."""
    u = len(gens)
    out = []
    for s in syzygies(R, list(gens) + [m for m in modulo if any(m)]):
        if any(s[:u]) and s[:u] not in out:
            out.append(s[:u])
    return tuple(out)


def reference_meet(R, A, B, rank):
    """span(A) meet span(B): sum_i s_i * A[i] over the syzygies s of A + B."""
    out = []
    for s in syzygies(R, list(A) + list(B)):
        w = tuple(
            sum((s[i] * a[c] for i, a in enumerate(A)), Polynomial.zero(R)) for c in range(rank)
        )
        if any(w):
            out.append(w)
    return out


def kernel_rings():
    """Seeded inputs for the tagged kernel: rank 1-3 over F_2, F_3, F_5 in
    two and three variables, grevlex and lex; single-term entries where
    dense input would outgrow a module basis."""
    rng = random.Random(SEED + 50)
    for p in (2, 3, 5):
        for n in (2, 3):
            for order in ("grevlex", "lex"):
                for rank in (1, 2, 3):
                    yield PolyRing(p, n, order), rank, 1 if rank * n >= 6 else 2, rng


def raw(vectors):
    return [modres._vec_from_free(v) for v in vectors]


def test_module_colon_matches_full_tag_reference():
    lim = EngineLimits()
    grew = 0
    for R, rank, terms, rng in kernel_rings():
        zero = tuple(Polynomial.zero(R) for _ in range(rank))
        gens = [sparse_vec(R, rng, rank, terms) for _ in range(rank)] + [zero]
        N = groebner._divisor_basis(raw(gens), R, lim)
        for f in (Polynomial.variable(R, rng.randint(1, R.n)), random_poly(R, rng, 1, 2)):
            got = groebner._colon(N, [f.terms], rank, R, lim).vecs
            assert [modres._free_from_vec(v, rank, R) for v in got] == reference_colon(R, gens, f, rank)
            assert got == modres._reduced_basis(got, R, lim)
            # span(gens) <= span(gens) : f, checked without the kernel
            gb = module_gb(R, [modres._free_from_vec(v, rank, R) for v in got])
            assert all(not any(module_normal_form(R, g, gb)) for g in gens)
            grew += gb != module_gb(R, gens)
    assert grew >= 30


def test_subquotient_presentation_matches_full_tag_reference():
    presented = 0
    for R, rank, terms, rng in kernel_rings():
        zero = tuple(Polynomial.zero(R) for _ in range(rank))
        gens = [sparse_vec(R, rng, rank, terms) for _ in range(rng.randint(1, 3))] + [zero]
        modulo = [zero]
        for _ in range(rng.randint(0, 2)):
            coeffs = [random_poly(R, rng, 1, 1) for _ in gens]
            modulo.append(tuple(
                sum((c * g[i] for c, g in zip(coeffs, gens)), Polynomial.zero(R)) for i in range(rank)
            ))
        for mod in (modulo, ()):
            pres = subquotient_presentation(R, gens, mod)
            assert pres.rank == len(gens)
            assert pres.relations.columns == reference_relations(R, gens, mod)
            presented += len(pres.relations.columns) > 1
    assert presented >= 25


def test_module_intersect_matches_full_tag_reference():
    lim = EngineLimits()
    met = 0
    for R, rank, terms, rng in kernel_rings():
        zero = tuple(Polynomial.zero(R) for _ in range(rank))
        A = [sparse_vec(R, rng, rank, terms) for _ in range(rng.randint(1, 2))] + [zero]
        x = Polynomial.variable(R, rng.randint(1, R.n))
        B = [sparse_vec(R, rng, rank, terms), tuple(x * g for g in A[0])]
        for left, right in ((A, B), (B, A), (A, [])):
            right_basis = groebner._divisor_basis(raw(right), R, lim)
            got = groebner._meet(raw(left), right_basis, rank, R, lim).vecs
            want = modres._reduced_basis(raw(reference_meet(R, left, right, rank)), R, lim)
            assert got == want
            met += bool(got)
    assert met >= 50


def reference_eliminate(vecs, rank, R, lim):
    """Unpack the whole basis, then keep the elements whose lead lies at a
    component >= rank, shifted down."""
    return [
        {(c - rank, a): v for (c, a), v in u.items()}
        for u in modres._reduced_basis(vecs, R, lim)
        if next(iter(u))[0] >= rank
    ]


def test_eliminate_matches_unpack_then_filter():
    # the tagged inputs of _syzygies_raw, with and without a submodule;
    # the kept vectors match term for term, lead first
    lim = EngineLimits()
    kept = 0
    for R, rank, terms, rng in kernel_rings():
        cols = raw([sparse_vec(R, rng, rank, terms) for _ in range(rng.randint(1, 3))])
        tagged = [{**col, (rank + j, R.zero_mono()): 1} for j, col in enumerate(cols)]
        for modulo in ((), raw([sparse_vec(R, rng, rank, terms)])):
            vecs = tagged + list(modulo)
            got = groebner._divisor_basis(vecs, R, lim).above(rank).vecs
            want = reference_eliminate(vecs, rank, R, lim)
            assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
            kept += len(got)
    assert groebner._divisor_basis([], PolyRing(2, 2), lim).above(1).vecs == []
    assert kept >= 50


def test_seeded_bases_equal_unseeded():
    # a reduced basis N joins the engine call as a known part, in the
    # shapes the saturation loop gives it (a colon's columns, a meet's
    # self-tagged vectors) and as plain extra vectors; the basis must be
    # the one N's vectors give as input, term for term
    lim = EngineLimits()
    changed = 0
    for R, rank, terms, rng in kernel_rings():
        gens = raw([sparse_vec(R, rng, rank, terms) for _ in range(rank + 1)])
        N = groebner._divisor_basis(gens, R, lim)
        f = random_poly(R, rng, 1, 2)
        colon = [{**{(c, a): w for a, w in f.terms.items()}, (rank + c, R.zero_mono()): 1}
                 for c in range(rank)]
        A = raw([sparse_vec(R, rng, rank, terms) for _ in range(2)])
        meet = [{**a, **{(rank + c, m): w for (c, m), w in a.items()}} for a in A[:1]]
        for vecs in (colon, meet, A, []):
            got = groebner._divisor_basis(vecs, R, lim, known=N).vecs
            want = groebner._divisor_basis(vecs + N.vecs, R, lim).vecs
            assert [list(v.items()) for v in got] == [list(v.items()) for v in want]
            changed += got != N.vecs
        # only the engine's own output may be a known part
        with pytest.raises(ValueError):
            groebner._divisor_basis(colon, R, lim, known=groebner._Divisors(gens, R))
    assert changed >= 80


# ---------------------------------------------------------------------------
# pruning in degree order, against the per-candidate loop it replaced for
# graded input: front to back, drop each generator that lies in the span
# of the remaining ones, with a full module basis of the others each time


def reference_prune(vecs, degs, ring, lim):
    """Indices of the generators the per-candidate loop keeps."""
    rank = 1 + max((c for v in vecs for c, _ in v), default=0)
    cols = [modres._free_from_vec(v, rank, ring) for v in vecs]
    keep = list(range(len(cols)))
    i = 0
    while i < len(keep):
        others = [cols[j] for j in keep if j != keep[i]]
        if others and not any(
            module_normal_form(ring, cols[keep[i]], module_gb(ring, others, lim))
        ):
            keep.pop(i)
        else:
            i += 1
    return keep


def redundant_ideal(R, rng):
    """Forms of degree 1 to 3, and one or two R-combinations of two of
    them inserted at random places, so that some generator is redundant."""
    def multiplier(e):
        return random_form(R, rng, e) if e else Polynomial.constant(R, rng.randint(1, R.p - 1))

    gens = [random_form(R, rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
    for _ in range(rng.randint(1, 2)):
        a, b = rng.sample(gens, 2)
        d = max(a.total_degree(), b.total_degree())
        combo = multiplier(d - a.total_degree()) * a + multiplier(d - b.total_degree()) * b
        gens.insert(rng.randrange(len(gens) + 1), combo)
    return quotient_presentation(Ideal(R, gens))


def pruning_cases():
    rng = random.Random(SEED + 60)
    cases = []
    for p in (2, 3):
        for n in (3, 4):
            R = PolyRing(p, n, "lex" if n == 3 and p == 3 else "grevlex")
            cases += [redundant_ideal(R, rng) for _ in range(6)]
    R = PolyRing(3, 3)
    cases.append(quotient_presentation(Ideal(R, ["x1", "2*x1", "x1*x2"])))
    cases.append(quotient_presentation(Ideal(R, ["x1*x2", "x1*x3", "x1*x2 + x1*x3"])))
    # a shifted rank-2 presentation: the third column is x1 times the
    # first, and the fourth the sum of the first two
    cols = [vec(R, "x2", "x1^2"), vec(R, "x3", "x2^2"), vec(R, "x1*x2", "x1^3"),
            vec(R, "x2 + x3", "x1^2 + x2^2"), vec(R, "0", "x3^2"), vec(R, "x1", "0")]
    cases.append(ModulePresentation(R, 2, PolyMatrix.from_columns(R, 2, cols), (1, 0)))
    return cases


def test_graded_pruning_matches_reference_loop(monkeypatch):
    cases = pruning_cases()
    got = [free_resolution(pres) for pres in cases]
    dropped = []  # per call: how many went, and how many beside a kept one of their degree

    def reference(vecs, degs, ring, lim):
        keep = reference_prune(vecs, degs, ring, lim)
        gone = [i for i in range(len(vecs)) if i not in keep]
        dropped.append((len(gone), sum(1 for i in gone if degs[i] in {degs[k] for k in keep})))
        return keep

    monkeypatch.setattr(modres, "_prune_graded", reference)
    want = [free_resolution(pres) for pres in cases]
    assert sum(1 for d, _ in dropped if d) >= 25
    assert sum(e for _, e in dropped) >= 25
    for g, w in zip(got, want):
        assert g.maps == w.maps
        assert g.shifts == w.shifts
        assert_no_constant_entry(g)


def test_equal_degree_redundancy_keeps_the_later_generators():
    # front to back, the earlier of two dependent generators of one degree goes
    R = PolyRing(3, 3)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1", "2*x1", "x1*x2"])))
    assert res.maps[0].columns == (vec(R, "2*x1"),)
    assert res.ranks == (1, 1)
    res = free_resolution(quotient_presentation(Ideal(R, ["x1*x2", "x1*x3", "x1*x2 + x1*x3"])))
    assert res.maps[0].columns == (vec(R, "x1*x3"), vec(R, "x1*x2 + x1*x3"))
    assert res.ranks == (1, 2, 1)
    assert res.shifts == ((0,), (2, 2), (3,))


def test_graded_pruning_computes_fewer_bases(monkeypatch):
    R = PolyRing(3, 4)
    f = [P(R, s) for s in ("x1^2 + x2*x3", "x1*x2 + 2*x3^2", "x2^2 + x1*x3 + x4^2")]
    calls = []
    divisor_basis = groebner._divisor_basis

    def counted(*args, **kwargs):
        calls.append(1)
        return divisor_basis(*args, **kwargs)

    def pd():
        return projective_dimension(quotient_presentation(Ideal(R, f)))

    monkeypatch.setattr(groebner, "_divisor_basis", counted)
    monkeypatch.setattr(modres, "_divisor_basis", counted)
    length = pd()
    by_degree = len(calls)
    del calls[:]
    monkeypatch.setattr(modres, "_prune_graded", reference_prune)
    assert pd() == length == 3
    # one syzygy basis per level of more than one column (the last level,
    # ranks (1, 3, 3, 1), has none), plus one pruning basis per degree
    # above the lowest, against one per candidate
    assert (by_degree, len(calls)) == (3, 9)


# ---------------------------------------------------------------------------
# module saturation read off a finite staircase


def random_linear_form(R, rng):
    return sum((Polynomial.variable(R, k) * rng.randrange(R.p) for k in range(1, R.n + 1)),
               Polynomial.zero(R))


def finite_presentation(R, rng, rank, d=2):
    """x_k^d * e_c plus a form of degree d at a later component, for every
    c and k: triangular, so R^rank/N has finite length, and graded."""
    cols = []
    for c in range(rank):
        for x in maximal_ideal(R).gens:
            col = [Polynomial.zero(R)] * rank
            col[c] = x ** d
            if c + 1 < rank:
                col[rng.randrange(c + 1, rank)] = random_linear_form(R, rng) * x
            cols.append(tuple(col))
    rng.shuffle(cols)
    return ModulePresentation(R, rank, PolyMatrix.from_columns(R, rank, cols))


def two_point_presentation(R, rng, rank):
    """(x1^2 - x1) * e_c and (x_k - a_k*x1) * e_c: zeros at the origin and
    at (1, a_2, ..., a_n), so no power of x1 kills R^rank/N."""
    xs = maximal_ideal(R).gens
    gens = [xs[0] ** 2 - xs[0]] + [x - Polynomial.constant(R, rng.randrange(R.p)) * xs[0]
                                   for x in xs[1:]]
    cols = []
    for c in range(rank):
        for g in gens:
            col = [Polynomial.zero(R)] * rank
            col[c] = g
            cols.append(tuple(col))
    return ModulePresentation(R, rank, PolyMatrix.from_columns(R, rank, cols))


def h0m_without_the_staircase(monkeypatch, cases):
    """module_h0m by the reference colon loop, with the staircase read off."""
    with monkeypatch.context() as m:
        m.setattr(modres, "_colon", reference_colon_all)
        m.setattr(groebner, "_staircase_corners", lambda N, rank: None)
        return [module_h0m(pres, point) for pres, point in cases]


def test_h0m_of_finite_staircases_matches_reference_loop(monkeypatch):
    rng = random.Random(SEED + 42)
    short, loop = [], []
    for p in (2, 3, 5):
        for order in ("grevlex", "lex"):
            R = PolyRing(p, 2, order)
            for rank in (1, 2, 3):
                short.append((finite_presentation(R, rng, rank), None))
                loop.append((two_point_presentation(R, rng, rank), None))
    # staircases of unequal depth, x*e0 and x^3*e1: x*e0 reduces to -x*e1,
    # which only x^3*e0 would take to zero
    R = PolyRing(3, 1)
    rel = PolyMatrix.from_columns(R, 2, [vec(R, "x1", "x1"), vec(R, "0", "x1^3")])
    short.append((ModulePresentation(R, 2, rel), None))
    colons = []
    real = modres._colon
    monkeypatch.setattr(modres, "_colon", lambda *a: colons.append(1) or real(*a))
    got = [module_h0m(pres, point) for pres, point in short]
    assert colons == []  # every one read off the staircase
    got_loop = [module_h0m(pres, point) for pres, point in loop]
    assert len(colons) >= len(loop)
    want = h0m_without_the_staircase(monkeypatch, short + loop)
    for (pres, _), g, w in zip(short + loop, got + got_loop, want):
        assert g.generators == w.generators
        assert g.presentation == w.presentation
        assert (g.finite, g.length) == (w.finite, w.length)
    # the whole module is torsion: one generator per component, none in N
    for (pres, _), g in zip(short, got):
        assert g.finite and len(g.generators) == pres.rank
        assert g.length == finite_length_data(pres)[1]
    # a second point leaves some of R^rank/N without m-torsion
    for (pres, _), g in zip(loop, got_loop):
        assert g.length < finite_length_data(pres)[1]


def test_h0m_of_the_thin_staircase():
    # the saturation loop took 60 rounds here, and the box below
    # (x1^60, x2^60, x3^60) holds 216,000 monomials
    R = PolyRing(2, 3)
    I = Ideal(R, ["x1^60", "x2^60", "x3^60", "x1*x2", "x1*x3", "x2*x3"])
    tor = module_h0m(quotient_presentation(I), None, EngineLimits(max_rounds=1))
    assert tor.generators == (vec(R, "1"),)
    assert (tor.finite, tor.length) == (True, 178)


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
    # the ceiling bounds the length, not the box below the pure powers
    assert finite_length_data(pres, EngineLimits(max_length=100)) == (True, 100)
    R3 = PolyRing(2, 3)
    thin = quotient_presentation(Ideal(R3, ["x1^60", "x2^60", "x3^60", "x1*x2", "x1*x3", "x2*x3"]))
    assert finite_length_data(thin) == (True, 178)
    with pytest.raises(ResourceLimitError):
        finite_length_data(thin, EngineLimits(max_length=177))


def box_length(pres):
    """The count finite_length_data made before it walked the staircase:
    every monomial of the box below each component's least pure powers
    that no lead divides."""
    R = pres.ring
    rel = [modres._vec_from_free(c) for c in pres.relations.columns if any(c)]
    leads = {}
    for v in modres._reduced_basis(rel, R, EngineLimits()):
        c, a = next(iter(v))
        leads.setdefault(c, []).append(a)
    total = 0
    for c in range(pres.rank):
        L = leads.get(c, [])
        bounds = []
        for k in range(R.n):
            pure = [a[k] for a in L if all(e == 0 for j, e in enumerate(a) if j != k)]
            if not pure:
                return False, None
            bounds.append(min(pure))
        total += sum(1 for b in product(*(range(e) for e in bounds))
                     if not any(all(x <= y for x, y in zip(a, b)) for a in L))
    return True, total


def test_finite_length_walk_matches_box_count():
    rng = random.Random(SEED + 43)
    cases = []
    for _ in range(300):  # random monomial staircases, finite or not
        R = PolyRing(2, rng.randint(1, 3))
        rank = rng.randint(1, 3)
        cols = []
        for c in range(rank):
            for k in range(R.n):
                if rng.random() < 0.9:
                    col = [Polynomial.zero(R)] * rank
                    col[c] = Polynomial.variable(R, k + 1) ** rng.randint(1, 6)
                    cols.append(col)
            for _ in range(rng.randint(0, 3)):
                col = [Polynomial.zero(R)] * rank
                col[c] = Polynomial.monomial(R, tuple(rng.randint(0, 4) for _ in range(R.n)))
                cols.append(col)
        cases.append(ModulePresentation(R, rank, PolyMatrix.from_columns(R, rank, cols)))
    for p in (2, 3, 5):
        for rank in (1, 2, 3):
            R = PolyRing(p, 3)
            cases.append(finite_presentation(R, rng, rank))
            cases.append(two_point_presentation(R, rng, rank))
    finite = 0
    for pres in cases:
        got = finite_length_data(pres)
        assert got == box_length(pres)
        finite += got[0]
    assert finite >= 150


# ---------------------------------------------------------------------------
# the packed matrix product, against an entry-wise reference


def _reference_times(m, v):
    p = m.ring.p
    out = []
    for i in range(m.rows):
        acc = {}
        for j in range(m.cols):
            for a, ca in v[j].terms.items():
                for b, cb in m.columns[j][i].terms.items():
                    mono = tuple(x + y for x, y in zip(a, b))
                    acc[mono] = (acc.get(mono, 0) + ca * cb) % p
        out.append(Polynomial(m.ring, {a: c for a, c in acc.items() if c}))
    return tuple(out)


def _sparse_matrix(ring, rng, rows, cols, deg):
    columns = []
    for j in range(cols):
        if rng.random() < 0.2:
            columns.append(tuple(Polynomial.zero(ring) for _ in range(rows)))
            continue
        columns.append(tuple(
            Polynomial.zero(ring) if rng.random() < 0.3
            else random_poly(ring, rng, deg=deg, terms=rng.randint(1, 4))
            for _ in range(rows)
        ))
    return PolyMatrix.from_columns(ring, rows, columns)


@pytest.mark.parametrize("p", [2, 3, 18446744073709551557])
@pytest.mark.parametrize("n, order", [(1, "grevlex"), (3, "grevlex"), (3, "lex"), (4, "elim-grevlex")])
def test_compose_and_apply_match_entrywise_reference(p, n, order):
    rng = random.Random(f"{SEED}:{p}:{n}:{order}")
    R = PolyRing(p, n, order)
    for _ in range(8):
        r, k, c = rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 3)
        a = _sparse_matrix(R, rng, r, k, deg=rng.choice((2, 40, 300)))
        b = _sparse_matrix(R, rng, k, c, deg=rng.choice((2, 40, 300)))
        ab = a.compose(b)
        assert (ab.rows, ab.cols) == (r, c)
        for j in range(c):
            assert ab.column(j) == _reference_times(a, b.column(j))
            assert a.apply(b.column(j)) == _reference_times(a, b.column(j))


def test_compose_cancels_to_zero_char2():
    R = PolyRing(2, 2)
    a = PolyMatrix.from_columns(R, 1, [vec(R, "x1"), vec(R, "x2")])
    b = PolyMatrix.from_columns(R, 2, [vec(R, "x2", "x1"), vec(R, "0", "0")])
    ab = a.compose(b)
    assert ab.is_zero()
    assert all(not g.terms for col in ab.columns for g in col)


def test_compose_and_apply_reject_other_rings():
    R, S = PolyRing(2, 2), PolyRing(3, 2)
    a = PolyMatrix.from_columns(R, 1, [vec(R, "x1")])
    with pytest.raises(RingMismatchError):
        a.compose(PolyMatrix.from_columns(S, 1, [vec(S, "x2")]))
    with pytest.raises(RingMismatchError):
        a.apply(vec(S, "x2"))


def test_resolution_rejects_maps_that_do_not_compose_to_zero():
    R = PolyRing(3, 2)
    d0 = PolyMatrix.from_columns(R, 1, [vec(R, "x1"), vec(R, "x2")])
    d1 = PolyMatrix.from_columns(R, 2, [vec(R, "x2", "x1")])  # x1*x2 + x2*x1 = 2 x1 x2
    with pytest.raises(ValueError, match="composite of maps 0 and 1"):
        Resolution(R, 1, (d0, d1))
    # the same maps with the sign that makes the composite vanish
    good = PolyMatrix.from_columns(R, 2, [vec(R, "x2", "2*x1")])
    assert Resolution(R, 1, (d0, good)).ranks == (1, 2, 1)
