"""Command-line front end.  Every subcommand wraps one library operation
and emits a single JSON document to stdout (or --out).

Exit codes: 0 when every reported outcome is a pass, 1 when any check
fails or stays inconclusive, 2 for usage errors and resource ceilings.
Reports contain no timestamps; timing is opt-in via --timings, on the
four subcommands whose reports carry millis (pd, check-q1, check-topvan
and campaign), so that identical inputs produce identical bytes.

Each subcommand takes only the engine ceilings its code reads, as flags
and as FPLOCAL_* variables (see `add` in _build_parser).  Any other
ceiling flag is a usage error, and any other variable is ignored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .campaign import CampaignConfig, run_campaign
from .config import CEILINGS, DEFAULT_LIMITS, EngineLimits
from .errors import (
    HypothesisViolatedError,
    NonHomogeneousError,
    ParseError,
    ResourceLimitError,
    RingMismatchError,
)
from .frobenius import FrobeniusLevel, bracket_power, frobenius_decompose, td_roundtrip_check
from .groebner import Ideal, ideals_equal, maximal_ideal, saturation
from .koszul import build_koszul, koszul_cohomology, verify_prop_van
from .localcoh import pd_bound_check, question_q_check, top_lc_vanishing_certificate
from .modres import free_resolution, quotient_presentation
from .polycore import PolyRing, parse_poly

_OUTCOME_EXIT = {
    "pass": 0,
    "fail": 1,
    "hypothesis-violated": 1,
    "inconclusive": 1,
    "resource-limit": 2,
}


_CEILING_HELP = {
    "max_length": "ceiling on the standard monomials counted in a torsion length "
                  "(check-propvan), or on the component box size q^n (td-check)",
}

# The ceilings a subcommand's code reads, for `add` in _build_parser.
_BASIS = ("max_reductions", "max_basis")
_SATURATE = _BASIS + ("max_rounds",)


def _common_flags(sp, ceilings) -> None:
    # An FPLOCAL_* value is a str default, which argparse converts with
    # `type` only when the flag is absent: a bad value is a usage error
    # (exit 2), and an explicit flag wins.  An empty variable counts as unset.
    for name in ceilings:
        sp.add_argument("--" + name.replace("_", "-"), type=int,
                        default=os.environ.get("FPLOCAL_" + name.upper())
                        or getattr(DEFAULT_LIMITS, name),
                        help=_CEILING_HELP.get(name))
    sp.add_argument("--out", help="write the JSON report to this file instead of stdout")


def _ring_flags(sp, order: bool) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime characteristic")
    sp.add_argument("--n", type=int, required=True, help="number of variables")
    if order:
        sp.add_argument("--order", default="grevlex", choices=("grevlex", "lex"))


def _limits(args) -> EngineLimits:
    # a ceiling the subcommand offers no flag for stays at its default
    given = vars(args)
    return EngineLimits(**{name: given[name] for name in CEILINGS if name in given})


def _ring(args) -> PolyRing:
    return PolyRing(args.p, args.n, args.order)


def _gens(ring: PolyRing, text: str) -> list:
    parts = [s.strip() for s in text.split(",")]
    return [parse_poly(ring, s) for s in parts if s]


def _point(args):
    if getattr(args, "point", None) is None:
        return None
    return tuple(int(c) for c in args.point.split(","))


def _rows(m) -> list:
    return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]


def _emit(args, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gb(args) -> int:
    ring = _ring(args)
    I = Ideal(ring, _gens(ring, args.gens))
    basis = I.groebner_basis(_limits(args))
    _emit(args, {
        "command": "gb", "p": args.p, "n": args.n, "order": args.order,
        "generators": [str(g) for g in I.gens],
        "basis": [str(g) for g in basis],
    })
    return 0


def _cmd_nf(args) -> int:
    ring = _ring(args)
    I = Ideal(ring, _gens(ring, args.gens))
    g = parse_poly(ring, args.poly)
    r = I.normal_form(g, _limits(args))
    _emit(args, {
        "command": "nf", "p": args.p, "n": args.n, "order": args.order,
        "generators": [str(h) for h in I.gens],
        "poly": str(g), "normal_form": str(r), "member": not r,
    })
    return 0


def _cmd_saturate(args) -> int:
    ring = _ring(args)
    lim = _limits(args)
    I = Ideal(ring, _gens(ring, args.gens))
    J = Ideal(ring, _gens(ring, args.by)) if args.by else maximal_ideal(ring)
    S = saturation(I, J, lim)
    _emit(args, {
        "command": "saturate", "p": args.p, "n": args.n, "order": args.order,
        "generators": [str(g) for g in I.gens],
        "by": [str(g) for g in J.gens],
        "saturation": [str(g) for g in S.groebner_basis(lim)],
        "already_saturated": ideals_equal(S, I, lim),
    })
    return 0


def _cmd_frobpow(args) -> int:
    ring = _ring(args)
    I = Ideal(ring, _gens(ring, args.gens))
    lvl = FrobeniusLevel(args.p, args.l)
    Iq = bracket_power(I, lvl)
    _emit(args, {
        "command": "frobpow", "p": args.p, "n": args.n, "l": args.l, "q": lvl.q,
        "generators": [str(g) for g in I.gens],
        "bracket_generators": [str(g) for g in Iq.gens],
    })
    return 0


def _cmd_frobdecomp(args) -> int:
    ring = _ring(args)
    g = parse_poly(ring, args.poly)
    lvl = FrobeniusLevel(args.p, args.l)
    comps = frobenius_decompose(g, lvl)
    _emit(args, {
        "command": "frobdecomp", "p": args.p, "n": args.n, "l": args.l, "q": lvl.q,
        "poly": str(g),
        "components": {
            ",".join(str(i) for i in idx): str(comps.component(idx))
            for idx in comps.indices()
        },
    })
    return 0


def _cmd_koszul(args) -> int:
    ring = _ring(args)
    kx = build_koszul(_gens(ring, args.gens), args.t)
    _emit(args, {
        "command": "koszul", "p": args.p, "n": args.n, "t": args.t,
        "generators": [str(g) for g in kx.f],
        "ranks": [kx.rank(j) for j in range(kx.s + 1)],
        "index_maps": [[list(T) for T in tuples] for tuples in kx.index_maps],
        "differentials": [_rows(m) for m in kx.diffs],
        "dd_zero": True,
    })
    return 0


def _cmd_cohomology(args) -> int:
    ring = _ring(args)
    kx = build_koszul(_gens(ring, args.gens), args.t)
    pres = koszul_cohomology(kx, args.i, _limits(args))
    _emit(args, {
        "command": "cohomology", "p": args.p, "n": args.n, "t": args.t, "i": args.i,
        "generators": [str(g) for g in kx.f],
        "rank": pres.rank,
        "relations": [[str(e) for e in col] for col in pres.relations.columns],
    })
    return 0


def _cmd_resolve(args) -> int:
    ring = _ring(args)
    lim = _limits(args)
    I = Ideal(ring, _gens(ring, args.gens))
    pres = quotient_presentation(I)
    res = free_resolution(pres, lim)
    out = {
        "command": "resolve", "p": args.p, "n": args.n,
        "generators": [str(g) for g in I.gens],
        "ranks": list(res.ranks),
        "maps": [_rows(m) for m in res.maps],
        "graded": pres.shifts is not None,
    }
    if pres.shifts is not None:
        out["minimal_ranks"] = list(res.ranks)
    _emit(args, out)
    return 0


def _cmd_pd(args) -> int:
    ring = _ring(args)
    rep = pd_bound_check(_gens(ring, args.gens), _limits(args))
    _emit(args, rep.to_json_dict(include_timing=args.timings))
    return _OUTCOME_EXIT[rep.outcome]


def _cmd_check_q1(args) -> int:
    ring = _ring(args)
    rep = question_q_check(_gens(ring, args.gens), _point(args), _limits(args))
    _emit(args, rep.to_json_dict(include_timing=args.timings))
    return _OUTCOME_EXIT[rep.outcome]


def _cmd_check_topvan(args) -> int:
    ring = _ring(args)
    rep = top_lc_vanishing_certificate(
        _gens(ring, args.gens), _point(args), args.e_max, _limits(args)
    )
    _emit(args, rep.to_json_dict(include_timing=args.timings))
    return _OUTCOME_EXIT[rep.outcome]


def _cmd_check_propvan(args) -> int:
    ring = _ring(args)
    level = FrobeniusLevel(args.p, args.level) if args.level is not None else None
    cert = verify_prop_van(
        _gens(ring, args.gens), args.i, _point(args), level, _limits(args)
    )
    _emit(args, cert.to_json_dict())
    return _OUTCOME_EXIT[cert.outcome]


def _cmd_td_check(args) -> int:
    ring = _ring(args)
    lvl = FrobeniusLevel(args.p, args.l)
    ok = td_roundtrip_check(
        parse_poly(ring, args.hpoly), parse_poly(ring, args.gpoly), lvl, _limits(args)
    )
    _emit(args, {
        "command": "td-check", "p": args.p, "n": args.n, "l": args.l, "q": lvl.q,
        "hpoly": args.hpoly, "gpoly": args.gpoly, "ok": ok,
    })
    return 0 if ok else 1


def _cmd_campaign(args) -> int:
    cfg = CampaignConfig(
        p=args.p,
        n=args.n,
        degrees=tuple(int(d) for d in args.degrees.split(",")),
        trials=args.trials,
        seed=args.seed,
        homogeneous=not args.inhomogeneous,
        density=args.density,
        checks=tuple(args.checks.split(",")),
        workers=args.workers,
        limits=_limits(args),
    )
    report = run_campaign(cfg, include_timing=args.timings)
    _emit(args, report)
    return 0 if report["summary"]["pass"] == cfg.trials else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fplocal",
        description="Exact characteristic-p commutative algebra checks over F_p.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, ceilings=(), order=True, timings=False):
        # ceiling flags only for the ceilings the subcommand's code reads;
        # --order only where the subcommand builds its ring from it:
        # campaign rings are always grevlex; --timings only where the
        # report carries millis
        sp = sub.add_parser(name, help=help_text)
        _ring_flags(sp, order)
        _common_flags(sp, ceilings)
        if timings:
            sp.add_argument("--timings", action="store_true",
                            help="include wall-clock millis in the report")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("gb", _cmd_gb, "reduced Groebner basis of an ideal", _BASIS)
    sp.add_argument("--gens", required=True, help="comma-separated generators")

    sp = add("nf", _cmd_nf, "normal form of a polynomial mod an ideal", _BASIS)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--poly", required=True)

    sp = add("saturate", _cmd_saturate, "saturation of I by J (default: the maximal ideal)",
             _SATURATE)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--by", default=None, help="generators of J; defaults to x1,...,xn")

    sp = add("frobpow", _cmd_frobpow, "bracket power of an ideal at level l")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = add("frobdecomp", _cmd_frobdecomp, "Frobenius components of a polynomial")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = add("koszul", _cmd_koszul, "Koszul cocomplex differentials on f^t")
    sp.add_argument("--gens", required=True)
    sp.add_argument("--t", type=int, default=1)

    sp = add("cohomology", _cmd_cohomology, "presentation of Koszul cohomology H^i", _BASIS)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--i", type=int, required=True)

    sp = add("resolve", _cmd_resolve, "free resolution of R/I", _BASIS)
    sp.add_argument("--gens", required=True)

    sp = add("pd", _cmd_pd, "projective dimension bound check for R/I", _BASIS,
             timings=True)
    sp.add_argument("--gens", required=True)

    sp = add("check-q1", _cmd_check_q1, "torsion-freeness of R/I at a rational point",
             _SATURATE, timings=True)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--point", default=None, help="comma-separated coordinates")

    sp = add("check-topvan", _cmd_check_topvan, "top local cohomology torsion certificate",
             _SATURATE, timings=True)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--point", default=None)
    sp.add_argument("--e-max", type=int, default=3)

    sp = add("check-propvan", _cmd_check_propvan, "Koszul cohomology torsion kill certificate",
             CEILINGS)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--point", default=None)
    sp.add_argument("--level", type=int, default=None)

    sp = add("td-check", _cmd_td_check, "box-wide component round trip for h*g",
             ("max_length",))
    sp.add_argument("--hpoly", required=True)
    sp.add_argument("--gpoly", required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = add("campaign", _cmd_campaign, "seeded random-instance campaign", _SATURATE,
             order=False, timings=True)
    sp.add_argument("--degrees", required=True, help="comma-separated generator degrees")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", required=True)
    sp.add_argument("--density", type=float, default=0.5)
    sp.add_argument("--checks", default="q1,pd")
    sp.add_argument("--inhomogeneous", action="store_true")
    sp.add_argument("--workers", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 2
    except (ParseError, RingMismatchError, NonHomogeneousError,
            HypothesisViolatedError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
