"""Byte stability of the reports: the bench's report digests for seeds 1
to 3 of every workload must equal the reference list in bench/README.md.

Each digest is one untimed round of `bench/run.py --digest` in a fresh
interpreter; the reference lines are parsed from the README, not copied.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^(\S+) seed=(\d+) sha256=([0-9a-f]{64})$")


def reference_digests():
    text = (ROOT / "bench" / "README.md").read_text()
    block = text.split("## Report digests", 1)[1].split("```", 2)[1]
    return [m.groups() for m in map(LINE.match, block.strip().splitlines()) if m]


REFERENCE = reference_digests()


def test_reference_block_lists_every_workload_and_seed():
    workloads = {w for w, _, _ in REFERENCE}
    assert len(workloads) == 3
    assert sorted((w, s) for w, s, _ in REFERENCE) == sorted(
        (w, str(s)) for w in workloads for s in (1, 2, 3)
    )


@pytest.mark.parametrize(
    "workload,seed,digest", REFERENCE, ids=[f"{w}-{s}" for w, s, _ in REFERENCE]
)
def test_report_digest_matches_reference(workload, seed, digest):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", seed, "--digest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == f"{workload} seed={seed} sha256={digest}"
