"""Seeded experiment campaigns over random instances.

The seed fully determines the instance stream: trial i draws from
random.Random(f"{seed}:{i}:{p}:{n}"), so any single trial can be re-run
from its report record alone.  Reports are byte-identical for identical
(config, seed); timing is attached only on request since it never
reproduces.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .config import CEILINGS, EngineLimits
from .localcoh import pd_bound_check, question_q_check
from .polycore import (
    Polynomial,
    PolyRing,
    _is_prime,
    monomials_of_degree,
    monomials_up_to_degree,
)

__all__ = ["CampaignConfig", "random_polynomial", "random_instance", "run_trial", "run_campaign"]

KNOWN_CHECKS = ("q1", "pd")


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: the instance family, the checks and the engine
    ceilings.  With workers > 1 the whole config, `limits` included, is
    pickled to each worker process, so its cancel and on_basis hooks
    must pickle too."""

    p: int
    n: int
    degrees: Tuple[int, ...]
    trials: int
    seed: str
    homogeneous: bool = True
    density: float = 0.5
    checks: Tuple[str, ...] = KNOWN_CHECKS
    workers: int = 1
    limits: EngineLimits = field(default_factory=EngineLimits)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not self.degrees or any(d < 1 for d in self.degrees):
            raise ValueError(f"degrees must be a nonempty list of integers >= 1: {self.degrees}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if not self.checks or any(c not in KNOWN_CHECKS for c in self.checks):
            raise ValueError(f"checks must be a nonempty subset of {KNOWN_CHECKS}")
        if not self.homogeneous and "pd" in self.checks:
            raise ValueError("the pd check takes homogeneous generators only: "
                             "drop --inhomogeneous or pass --checks q1")
        cpus = os.cpu_count() or 1
        if not 1 <= self.workers <= cpus:
            raise ValueError(f"workers must be in [1, {cpus}] (the CPU count), got {self.workers}")

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "degrees": list(self.degrees),
            "trials": self.trials,
            "seed": self.seed,
            "homogeneous": self.homogeneous,
            "density": self.density,
            "checks": list(self.checks),
            "workers": self.workers,
            **{name: getattr(self.limits, name) for name in CEILINGS},
        }


def random_polynomial(
    ring: PolyRing,
    degree: int,
    rng: random.Random,
    homogeneous: bool = True,
    density: float = 0.5,
) -> Polynomial:
    """Nonzero polynomial of exactly the requested degree; each basis
    monomial is kept with the given density, coefficients uniform in
    [1, p)."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if homogeneous:
        basis = list(monomials_of_degree(ring.n, degree))
    else:
        basis = list(monomials_up_to_degree(ring.n, degree))
    terms = {}
    for m in basis:
        if rng.random() < density:
            terms[m] = rng.randrange(1, ring.p)
    if not any(sum(m) == degree for m in terms):
        tops = [m for m in basis if sum(m) == degree]
        terms[tops[rng.randrange(len(tops))]] = rng.randrange(1, ring.p)
    return Polynomial(ring, terms, _raw=True)


def _trial_rng(cfg: CampaignConfig, index: int) -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:{cfg.p}:{cfg.n}")


def random_instance(cfg: CampaignConfig, index: int) -> list:
    """The generator list of trial `index`; same (seed, index) always
    yields the same instance."""
    ring = PolyRing(cfg.p, cfg.n)
    rng = _trial_rng(cfg, index)
    return [
        random_polynomial(ring, d, rng, cfg.homogeneous, cfg.density) for d in cfg.degrees
    ]


def run_trial(cfg: CampaignConfig, index: int) -> dict:
    """One seeded trial: run the configured checks on one instance.

    Outcome precedence: resource-limit beats everything; an instance
    violating the degree hypothesis is bucketed hypothesis-violated (its
    pass/fail bears nothing on the question); then fail, then pass.
    """
    gens = random_instance(cfg, index)
    t0 = time.monotonic()
    outcomes = []
    witness: Optional[str] = None
    for check in cfg.checks:
        if check == "q1":
            rep = question_q_check(gens, None, cfg.limits)
        else:
            rep = pd_bound_check(gens, cfg.limits)
        outcomes.append(rep.outcome)
        if rep.outcome == "fail" and witness is None:
            if check == "q1":
                witness = f"q1:{rep.data['witness']}"
            else:
                witness = f"pd:{rep.data['pd']}>{rep.data['bound']}"
    if "resource-limit" in outcomes:
        outcome = "resource-limit"
    elif sum(cfg.degrees) >= cfg.n:
        outcome = "hypothesis-violated"
    elif "fail" in outcomes:
        outcome = "fail"
    else:
        outcome = "pass"
    record = {
        "index": index,
        "gens": [str(g) for g in gens],
        "outcome": outcome,
        "millis": round((time.monotonic() - t0) * 1000.0, 3),
    }
    if witness is not None:
        record["witness"] = witness
    return record


def _trial_star(args) -> dict:
    return run_trial(*args)


def run_campaign(cfg: CampaignConfig, include_timing: bool = False) -> dict:
    """All trials, order-stable by index regardless of worker count."""
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as ex:
            records = list(ex.map(_trial_star, [(cfg, i) for i in range(cfg.trials)]))
    else:
        records = [run_trial(cfg, i) for i in range(cfg.trials)]
    summary = {"pass": 0, "fail": 0, "hypothesis_violated": 0, "resource_limit": 0}
    for r in records:
        key = r["outcome"].replace("-", "_")
        summary[key] = summary.get(key, 0) + 1
        if not include_timing:
            r.pop("millis", None)
    return {"config": cfg.to_json_dict(), "summary": summary, "trials": records}
