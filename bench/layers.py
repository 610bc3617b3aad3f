"""Per-layer spans measured from outside fplocal.

The tracer rebinds public functions of the engine's modules to wrappers
that count calls and time them.  A name is rebound in every fplocal
module that holds the same function object (localcoh, for one, binds
`saturation` itself), otherwise the calls made through that binding
would escape the span.  Self time is the span's duration minus the time
covered by the spans it encloses.

Counts that are not calls come from the results: bases through the
public EngineLimits.on_basis hook, resolution ranks from the returned
Resolution, and Frobenius levels from the certificates.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  Attributes with a dot are class
# attributes.  modres._syzygies_raw is the one kernel under syzygies,
# kernel_of_map, the resolution loop and the presentations, so the
# syzygies span wraps it.
SPANS = (
    ("groebner", "intersect", "groebner.intersect"),
    ("groebner", "exact_div", "groebner.exact_div"),
    ("groebner", "ideal_quotient", "groebner.ideal_quotient"),
    ("groebner", "saturation", "groebner.saturation"),
    ("groebner", "ideals_equal", "groebner.ideals_equal"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "Ideal.groebner_basis", "groebner.Ideal.groebner_basis"),
    ("modres", "_syzygies_raw", "modres.syzygies"),
    ("modres", "free_resolution", "modres.free_resolution"),
    ("modres", "minimize_resolution", "modres.minimize_resolution"),
    ("modres", "module_gb", "modres.module_gb"),
    ("modres", "module_normal_form", "modres.module_normal_form"),
    ("modres", "module_h0m", "modres.module_h0m"),
    ("modres", "subquotient_presentation", "modres.subquotient_presentation"),
    ("koszul", "build_koszul", "koszul.build_koszul"),
    ("koszul", "verify_prop_van", "koszul.verify_prop_van"),
    ("frobenius", "bracket_power", "frobenius.bracket_power"),
    ("frobenius", "frobenius_power", "frobenius.frobenius_power"),
    ("polycore", "Polynomial.__mul__", "polycore.Polynomial.__mul__"),
    ("polycore", "Polynomial.__rmul__", "polycore.Polynomial.__mul__"),
    ("polycore", "Polynomial.__pow__", "polycore.Polynomial.__pow__"),
    ("polycore", "Polynomial.translate", "polycore.Polynomial.translate"),
    ("localcoh", "question_q_check", "localcoh.question_q_check"),
    ("localcoh", "top_lc_vanishing_certificate", "localcoh.top_lc_vanishing_certificate"),
    ("localcoh", "pd_bound_check", "localcoh.pd_bound_check"),
)

COUNTS = (
    "groebner.saturation.rounds",
    "groebner.bases.count",
    "groebner.bases.terms",
    "modres.resolution.rank_sum",
    "koszul.levels_tried",
)


def span_names() -> list:
    return list(dict.fromkeys(name for _, _, name in SPANS))


class Tracer:
    """Call counts and self time per span, plus result-derived counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []

    def on_basis(self, ring, basis) -> None:
        """EngineLimits.on_basis hook: one call per fresh ideal basis."""
        self.counts["groebner.bases.count"] += 1
        self.counts["groebner.bases.terms"] += sum(len(g.terms) for g in basis)

    def _wrap(self, name, fn, observe=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every span target in every loaded fplocal module."""
        mods = {k[len("fplocal."):]: m for k, m in sys.modules.items()
                if k.startswith("fplocal.") and m is not None}
        counts = self.counts

        def resolution(res):
            counts["modres.resolution.rank_sum"] += sum(res.ranks)

        def levels(cert):
            counts["koszul.levels_tried"] += cert.retries + (cert.level_used is not None)

        observers = {"modres.free_resolution": resolution, "koszul.verify_prop_van": levels}
        for modname, attr, name in SPANS:
            owner = mods[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(name, fn, observers.get(name))
            for m in list(mods.values()) + [sys.modules["fplocal"]]:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, wrapped)
        # saturation rounds: one colon by the whole ideal per round
        groebner = mods["groebner"]
        colon = groebner.ideal_quotient_ideal

        def counted(*args, **kwargs):
            counts["groebner.saturation.rounds"] += 1
            return colon(*args, **kwargs)

        groebner.ideal_quotient_ideal = counted

    def snapshot(self) -> dict:
        """Exact counts so far (calls and derived counts), for comparing rounds."""
        out = {f"{n}.calls": self.calls[n] for n in span_names()}
        out.update({n: self.counts[n] for n in COUNTS})
        return out
