"""Seeded workloads: the inputs, the calls into fplocal, and the answer
each call must give.

Every input is generated here as plain dicts and handed to fplocal only
as Polynomial objects.  An input at a point a is the translate h(x - a)
of a homogeneous input h at the origin, so that the oracle can check the
answer on the graded ideal (h) in translated coordinates.

Each Op runs one public check of fplocal.localcoh or fplocal.koszul.
The calls go through the module attribute at call time, so the
per-layer tracer, which rebinds module attributes, sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracle as O
from fplocal import config, koszul, localcoh
from fplocal.polycore import Polynomial, PolyRing

# Instances per round, per kind.  A run repeats whole rounds of the same
# operations, so these set the share of each kind in every metric.
# Instances alternate between the origin and a point: two draws average
# out more of the seed's luck than one draw placed twice.
Q1_RANDOM = 64         # random (2,2) pairs in F_3[x1..x5]
Q1_CONSTRUCTED = 8     # g*m + (h) in F_3[x1..x5]
PD_RANDOM_35 = 8       # random (2,2,2) in F_3[x1..x5]
PD_RANDOM_26 = 2       # random (2,2,2) in F_2[x1..x6], the same for every seed (see _pd_resolution)
PD_REGULAR = 12        # regular sequences with leads x1^2, x2^2, x3^2 in F_3[x1..x5]
PD_TIMES_LINEAR = 12   # the same kind of sequence times one common linear form
TC_TWO_VAR = 24        # (g^2, g*h) in F_3[x1, x2]
TC_FINITE = 24         # finite zero sets through the origin in F_2[x1, x2, x3]
TC_PAPER = 24          # (1, 2) in F_3[x1..x4], sum of degrees < n

# How far the oracle checks (I : m)_d == I_d on a q1 pass: every d up to this.
SATURATION_DEGREE = 4
# Largest k tried for m^k * witness inside I.
WITNESS_POWER = 2
# Stages of the top local cohomology certificate.
TOPVAN_STAGES = 3
# Frobenius level cap for the finite zero sets: every level 1..cap is
# tried and none can certify, so the cap sets the work per instance.
FINITE_LEVEL_CAP = 3


@dataclass
class Op:
    """One call into fplocal, with what its answer must satisfy."""

    label: str
    call: Callable[[config.EngineLimits], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right
    limits: config.EngineLimits


# ---------------------------------------------------------------------------
# plain-dict input generation

def _dense(rng, n, d, p) -> dict:
    """Every monomial of degree d with a uniform nonzero coefficient."""
    return {m: rng.randrange(1, p) for m in O.monomials(n, d)}


def _uniform(rng, n, d, p) -> dict:
    """A uniform nonzero form of degree d (coefficients uniform in F_p)."""
    while True:
        t = {m: c for m in O.monomials(n, d) if (c := rng.randrange(p))}
        if t:
            return t


def _placed(rng, k, n, p):
    """The origin for even k, a random nonzero point for odd k."""
    return _point(rng, n, p) if k % 2 else None


def _point(rng, n, p) -> tuple:
    """A nonzero point of F_p^n."""
    while True:
        a = tuple(rng.randrange(p) for _ in range(n))
        if any(a):
            return a


def _below_pure_power(rng, n, v, d, p) -> dict:
    """x_v^d plus every term of degree d below it in grevlex, with
    uniform nonzero coefficients."""
    top = tuple(d if i == v else 0 for i in range(n))
    t = {top: 1}
    for m in O.monomials(n, d):
        if O.grevlex_key(m) < O.grevlex_key(top):
            t[m] = rng.randrange(1, p)
    return t


def _independent_linear_forms(rng, n, p) -> list:
    """n linearly independent linear forms (an invertible change of
    coordinates), rejection-sampled."""
    basis = O.monomials(n, 1)
    while True:
        forms = [_uniform(rng, n, 1, p) for _ in range(n)]
        rows = [[f.get(m, 0) for m in basis] for f in forms]
        rank = 0
        for col in range(n):
            piv = next((r for r in range(rank, n) if rows[r][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            for r in range(n):
                if r != rank and rows[r][col]:
                    c = rows[r][col] * inv
                    rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[rank])]
            rank += 1
        if rank == n:
            return forms


class _Input:
    """A homogeneous generator list h, placed at a point a as h(x - a)."""

    def __init__(self, p, n, h, point=None):
        self.p, self.n = p, n
        self.h = [dict(g) for g in h]
        self.point = point
        self.ring = PolyRing(p, n)

    def polys(self) -> list:
        if self.point is None:
            return [Polynomial(self.ring, g) for g in self.h]
        back = tuple(-c % self.p for c in self.point)
        return [Polynomial(self.ring, O.translate(g, back, self.p)) for g in self.h]

    def to_origin(self, text: str) -> dict:
        """A polynomial printed in the input's coordinates, moved to the
        translated coordinates where the ideal is (h)."""
        w = O.parse(text, self.n, self.p)
        return O.translate(w, self.point, self.p) if self.point else w

    def where(self) -> str:
        return "origin" if self.point is None else "point"


# ---------------------------------------------------------------------------
# answer checks

def _check_q1(inp: _Input, ideal: O.GradedIdeal, must_fail: bool):
    def check(rep) -> Optional[str]:
        if rep.outcome == "pass":
            if must_fail:
                return "pass on a constructed non-saturated ideal"
            if not ideal.saturated_through(SATURATION_DEGREE):
                return f"pass, but (I : m)_d != I_d for some d <= {SATURATION_DEGREE}"
            return None
        if rep.outcome != "fail":
            return f"outcome {rep.outcome}"
        w = inp.to_origin(rep.data["witness"])
        if ideal.contains(w):
            return f"witness {rep.data['witness']} lies in I"
        if ideal.killed_by_power_of_m(w, WITNESS_POWER) is None:
            return f"witness {rep.data['witness']} not killed by m^{WITNESS_POWER}"
        return None
    return check


def _check_pd(n: int, bound: int, known: Optional[int]):
    def check(rep) -> Optional[str]:
        if rep.outcome != "pass":
            return f"outcome {rep.outcome}"
        pd, dep = rep.data["pd"], rep.data["depth"]
        if not 1 <= pd <= n or dep != n - pd or rep.data["bound"] != bound:
            return f"inconsistent report {rep.data}"
        if known is not None and pd != known:
            return f"pd {pd}, known {known}"
        return None
    return check


def _kills(h: list, g: dict, q: int, n: int, p: int) -> bool:
    """(prod h)^(q-1) * g in (h_1^q, ..., h_s^q): the membership a
    certificate at level q asserts, in translated coordinates."""
    prod = {(0,) * n: 1}
    for f in h:
        prod = O.mul(prod, f, p)
    target = O.mul(O.power(prod, q - 1, n, p), g, p)
    return O.GradedIdeal([O.power(f, q, n, p) for f in h], n, p).contains(target)


def _check_propvan_two_var(inp: _Input, g: dict, length: int):
    def check(cert) -> Optional[str]:
        if not cert.torsion_finite or cert.torsion_length != length:
            return f"torsion length {cert.torsion_length}, known {length}"
        if cert.num_torsion_generators < 1:
            return "no torsion found where (g)/I is torsion"
        if cert.level_used is None:
            return None
        if not cert.verdicts or not all(cert.verdicts):
            return f"level {cert.level_used} used with verdicts {cert.verdicts}"
        if not _kills(inp.h, g, inp.p ** cert.level_used, inp.n, inp.p):
            return f"oracle: level {cert.level_used} does not kill the torsion"
        return None
    return check


def _check_topvan(inp: _Input, sat_gen: Optional[dict], ideal: O.GradedIdeal):
    """sat_gen generates the saturation when I has torsion; None when I
    is saturated, and then only a stage-0 pass is right."""
    def check(rep) -> Optional[str]:
        stage = rep.data.get("stage")
        if rep.outcome == "inconclusive":
            return "inconclusive on a saturated ideal" if sat_gen is None else None
        if rep.outcome != "pass":
            return f"outcome {rep.outcome}"
        if stage == 0:
            if sat_gen is not None:
                return "stage 0 pass on an ideal with torsion"
            if not ideal.saturated_through(SATURATION_DEGREE):
                return "stage 0 pass, but the oracle finds torsion"
            return None
        if sat_gen is None or not all(rep.data["memberships"]):
            return f"stage {stage} pass with memberships {rep.data['memberships']}"
        if not _kills(inp.h, sat_gen, inp.p ** stage, inp.n, inp.p):
            return f"oracle: stage {stage} membership fails"
        return None
    return check


def _check_propvan_finite(length: int):
    def check(cert) -> Optional[str]:
        if cert.level_used is not None or cert.outcome == "pass":
            return f"certified a kill on a finite zero set at level {cert.level_used}"
        if cert.retries != FINITE_LEVEL_CAP:
            return f"tried {cert.retries} levels, cap {FINITE_LEVEL_CAP}"
        if cert.num_torsion_generators != 1 or cert.torsion_length != length:
            return f"torsion {cert.num_torsion_generators} gens, length {cert.torsion_length}, known 1, {length}"
        return None
    return check


def _check_propvan_vacuous(ideal: O.GradedIdeal):
    def check(cert) -> Optional[str]:
        if cert.outcome != "pass" or cert.verdicts or cert.num_torsion_generators:
            return f"{cert.outcome} with {cert.num_torsion_generators} torsion generators"
        if not ideal.saturated_through(SATURATION_DEGREE):
            return "vacuous pass, but the oracle finds torsion in R/I"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

def _q1_op(label, inp, ideal, must_fail) -> Op:
    f, pt = inp.polys(), inp.point
    return Op(label, lambda lim: localcoh.question_q_check(f, pt, lim),
              _check_q1(inp, ideal, must_fail), config.EngineLimits())


def _q1_saturation(rng) -> list:
    p, n = 3, 5
    ops = []
    for k in range(Q1_RANDOM):
        h = [_dense(rng, n, 2, p), _dense(rng, n, 2, p)]
        inp = _Input(p, n, h, _placed(rng, k, n, p))
        ops.append(_q1_op(f"q1/random/{inp.where()}/{k}", inp, O.GradedIdeal(h, n, p), False))
    for k in range(Q1_CONSTRUCTED):
        g = _uniform(rng, n, 1, p)
        h = [O.mul(g, {m: 1}, p) for m in O.monomials(n, 1)] + [_dense(rng, n, 2, p)]
        inp = _Input(p, n, h, _placed(rng, k, n, p))
        ops.append(_q1_op(f"q1/constructed/{inp.where()}/{k}", inp, O.GradedIdeal(h, n, p), True))
    return ops


def _pd_op(label, inp, known) -> Op:
    f = inp.polys()
    bound = sum(O.degree(g) for g in inp.h)
    return Op(label, lambda lim: localcoh.pd_bound_check(f, lim),
              _check_pd(inp.n, bound, known), config.EngineLimits())


def _pd_resolution(rng) -> list:
    ops = []
    for k in range(PD_RANDOM_35):
        h = [_dense(rng, 5, 2, 3) for _ in range(3)]
        ops.append(_pd_op(f"pd/random-3-5/{k}", _Input(3, 5, h), None))
    # Uniform F_2 quadrics cost 0.1 s to 2 s each, so two fresh draws
    # would move a run's throughput by a quarter from seed to seed; these
    # come from one fixed stream instead.
    fixed = random.Random("pd-resolution:F_2")
    for k in range(PD_RANDOM_26):
        h = [_uniform(fixed, 6, 2, 2) for _ in range(3)]
        ops.append(_pd_op(f"pd/random-2-6/{k}", _Input(2, 6, h), None))
    # Fixed leads and full supports leave only the coefficients to the
    # seed: with random leads and supports these cost 3 ms to 120 ms and
    # the median instance moved by a fifth between seeds.
    p, n = 3, 5
    for k in range(PD_REGULAR + PD_TIMES_LINEAR):
        h = [_below_pure_power(rng, n, v, 2, p) for v in range(3)]
        kind = "regular"
        if k >= PD_REGULAR:
            ell = _uniform(rng, n, 1, p)
            h = [O.mul(ell, g, p) for g in h]
            kind = "times-linear"
        ops.append(_pd_op(f"pd/{kind}-{p}-{n}/{k}", _Input(p, n, h), len(h)))
    return ops


def _certificate_ops(label, inp, i, prop_check, top_check, prop_limits) -> list:
    f, pt = inp.polys(), inp.point
    return [
        Op(f"{label}/propvan", lambda lim: koszul.verify_prop_van(f, i, pt, None, lim),
           prop_check, prop_limits),
        Op(f"{label}/topvan",
           lambda lim: localcoh.top_lc_vanishing_certificate(f, pt, TOPVAN_STAGES, lim),
           top_check, config.EngineLimits()),
    ]


def _torsion_certificates(rng) -> list:
    ops = []
    p, n = 3, 2
    for k in range(TC_TWO_VAR):
        g = _uniform(rng, n, 1, p)
        zero_of_g = (g.get((0, 1), 0), -g.get((1, 0), 0) % p)  # spans the line g = 0
        while True:
            hh = _uniform(rng, n, 1 + k % 2, p)
            if O.translate(hh, zero_of_g, p).get((0, 0)):
                break  # g does not divide hh, so (g, hh) is m-primary
        h = [O.mul(g, g, p), O.mul(g, hh, p)]
        length = O.GradedIdeal([g, hh], n, p).colength(2 * O.degree(hh) + 2)
        inp = _Input(p, n, h, _placed(rng, k // 2, n, p))
        ops += _certificate_ops(
            f"tc/two-var/{inp.where()}/{k}", inp, 2, _check_propvan_two_var(inp, g, length),
            _check_topvan(inp, g, O.GradedIdeal(h, n, p)), config.EngineLimits())
    p, n = 2, 3
    for k in range(TC_FINITE):
        l1, l2, l3 = _independent_linear_forms(rng, n, p)
        b, c = (1, 2) if k % 2 == 0 else (2, 2)
        f2 = O.power(l2, b, n, p)
        if b > 1:
            f2 = O.add(f2, O.mul(l1, _uniform(rng, n, b - 1, p), p), p)
        f3 = O.add(O.power(l3, c, n, p), O.add(
            O.mul(l1, _uniform(rng, n, c - 1, p), p), O.mul(l2, _uniform(rng, n, c - 1, p), p), p), p)
        h = [l1, f2, f3]  # triangular in (l1, l2, l3): the only zero is the origin
        ideal = O.GradedIdeal(h, n, p)
        length = ideal.colength(sum(O.degree(g) for g in h))
        inp = _Input(p, n, h, _placed(rng, k // 2, n, p))
        ops += _certificate_ops(
            f"tc/finite/{inp.where()}/{k}", inp, 3, _check_propvan_finite(length),
            _check_topvan(inp, {(0,) * n: 1}, ideal), config.EngineLimits(level_cap=FINITE_LEVEL_CAP))
    p, n = 3, 4
    for k in range(TC_PAPER):
        h = [_dense(rng, n, 1, p), _dense(rng, n, 2, p)]
        ideal = O.GradedIdeal(h, n, p)
        inp = _Input(p, n, h, _placed(rng, k, n, p))
        ops += _certificate_ops(
            f"tc/paper/{inp.where()}/{k}", inp, 2, _check_propvan_vacuous(ideal),
            _check_topvan(inp, None, ideal), config.EngineLimits())
    return ops


_WORKLOAD_OPS = {
    "q1-saturation": _q1_saturation,
    "pd-resolution": _pd_resolution,
    "torsion-certificates": _torsion_certificates,
}


def build(workload: str, seed: int) -> list:
    """The operations of one round; the same (workload, seed) always gives
    the same inputs."""
    return _WORKLOAD_OPS[workload](random.Random(f"{workload}:{seed}"))


def warmup(workload: str) -> None:
    """One small fixed instance of the workload's kind, the same for every
    seed, run untimed before the loop."""
    ring = PolyRing(2, 2)
    f = [Polynomial(ring, {(2, 0): 1}), Polynomial(ring, {(1, 1): 1})]
    if workload == "q1-saturation":
        localcoh.question_q_check(f)
    elif workload == "pd-resolution":
        localcoh.pd_bound_check(f)
    else:
        koszul.verify_prop_van(f, 2)
        localcoh.top_lc_vanishing_certificate(f)
