"""The bench tracer's span targets must exist in fplocal.

`Tracer.install` in bench/layers.py skips a target it cannot find, so a
renamed function would leave its span reading 0 with no error.  This test
loads bench/layers.py as it is and resolves every SPANS entry against the
fplocal modules, the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Targets allowed to be missing, with the reason.
DELETED = "deleted with no program caller; the span goes with ROADMAP item 1's bench change"
KNOWN_MISSING = {
    ("modres", "minimize_resolution"): "deleted when free_resolution began returning "
    "the minimal resolution; the span goes with the next change to the bench",
    ("groebner", "exact_div"): DELETED,
    ("groebner", "intersect"): DELETED,
    ("groebner", "normal_form"): DELETED,
    ("modres", "module_gb"): DELETED,
    ("modres", "module_normal_form"): DELETED,
}


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def resolves(modname, attr):
    owner = importlib.import_module(f"fplocal.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name, None)
        return cls is not None and callable(cls.__dict__.get(meth))
    return callable(getattr(owner, attr, None))


def test_every_span_target_resolves():
    spans = load_layers().SPANS
    assert spans
    missing = {(m, a) for m, a, _ in spans if not resolves(m, a)}
    assert missing <= set(KNOWN_MISSING), sorted(missing - set(KNOWN_MISSING))
