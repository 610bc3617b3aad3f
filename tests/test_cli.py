"""End-to-end CLI checks: every subcommand is driven through main(argv)
in process, stdout is parsed back as JSON, and exit codes are matched
against the documented outcome mapping.

Determinism matters as much as content: identical invocations must give
byte-identical documents, and --timings is the only sanctioned source of
nondeterminism in a report.
"""

import json
import os

import pytest

from fplocal import campaign
from fplocal.campaign import CampaignConfig
from fplocal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# algebra subcommands


def test_gb(capsys):
    code, doc = run_json(
        capsys, "gb", "--p", "2", "--n", "2", "--gens", "x1^2 + x2, x1*x2"
    )
    assert code == 0
    assert doc["basis"] == ["x1^2 + x2", "x1*x2", "x2^2"]
    assert doc["order"] == "grevlex"


def test_gb_64_bit_prime(capsys):
    code, doc = run_json(
        capsys, "gb", "--p", "1000000000000000003", "--n", "2", "--gens", "x1+x2"
    )
    assert code == 0
    assert doc["basis"] == ["x1 + x2"]


def test_gb_lex_order(capsys):
    code, doc = run_json(
        capsys, "gb", "--p", "2", "--n", "2", "--order", "lex",
        "--gens", "x1^2 + x2, x1*x2",
    )
    assert code == 0
    assert doc["order"] == "lex"
    # lex eliminates: the basis contains a polynomial in x2 alone
    assert any("x1" not in g for g in doc["basis"])


def test_nf(capsys):
    code, doc = run_json(
        capsys, "nf", "--p", "3", "--n", "2",
        "--gens", "x1^2 + 2*x2, x1*x2 + 2", "--poly", "x1^3 + 2",
    )
    assert code == 0
    assert doc["normal_form"] == "0"
    assert doc["member"] is True


def test_saturate(capsys):
    code, doc = run_json(
        capsys, "saturate", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"
    )
    assert code == 0
    assert doc["saturation"] == ["x1"]
    assert doc["by"] == ["x1", "x2"]
    assert doc["already_saturated"] is False


def test_frobpow(capsys):
    code, doc = run_json(
        capsys, "frobpow", "--p", "3", "--n", "2", "--gens", "x1, x2^2", "--l", "1"
    )
    assert code == 0
    assert doc["q"] == 3
    assert doc["bracket_generators"] == ["x1^3", "x2^6"]


def test_frobdecomp(capsys):
    code, doc = run_json(
        capsys, "frobdecomp", "--p", "2", "--n", "2", "--poly", "x1^3 + x1*x2", "--l", "1"
    )
    assert code == 0
    assert doc["components"] == {"1,0": "x1", "1,1": "1"}


def test_koszul(capsys):
    code, doc = run_json(
        capsys, "koszul", "--p", "5", "--n", "2", "--gens", "x1, x2", "--t", "1"
    )
    assert code == 0
    assert doc["ranks"] == [1, 2, 1]
    assert doc["index_maps"] == [[[]], [[1], [2]], [[1, 2]]]
    assert doc["differentials"][0] == [["4*x1"], ["4*x2"]]
    assert doc["differentials"][1] == [["x2", "4*x1"]]
    assert doc["dd_zero"] is True


def test_cohomology(capsys):
    code, doc = run_json(
        capsys, "cohomology", "--p", "2", "--n", "1", "--gens", "x1", "--i", "1"
    )
    assert code == 0
    assert doc["rank"] == 1
    assert doc["relations"] == [["x1"]]


def test_resolve(capsys):
    code, doc = run_json(
        capsys, "resolve", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"
    )
    assert code == 0
    assert doc["ranks"] == [1, 2, 1]
    assert doc["graded"] is True
    assert doc["minimal_ranks"] == [1, 2, 1]


def test_resolve_constant_generator(capsys):
    # R/(1, x1) = 0: the constant relation is cancelled with its generator
    code, out = run(capsys, "resolve", "--p", "2", "--n", "2", "--gens", "1, x1")
    assert code == 0
    assert out == """{
  "command": "resolve",
  "generators": [
    "1",
    "x1"
  ],
  "graded": true,
  "maps": [],
  "minimal_ranks": [
    0
  ],
  "n": 2,
  "p": 2,
  "ranks": [
    0
  ]
}
"""


def test_td_check(capsys):
    code, doc = run_json(
        capsys, "td-check", "--p", "2", "--n", "1",
        "--hpoly", "x1^3", "--gpoly", "x1 + 1", "--l", "2",
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["q"] == 4


# ---------------------------------------------------------------------------
# checker subcommands and exit codes


def test_check_q1_pass_exit0(capsys):
    code, doc = run_json(capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1")
    assert code == 0
    assert doc["outcome"] == "pass"
    assert "millis" not in doc


def test_check_q1_fail_exit1(capsys):
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"
    )
    assert code == 1
    assert doc["outcome"] == "fail"
    assert doc["data"]["witness"] == "x1"


def test_check_q1_resource_limit_exit2(capsys):
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2",
        "--max-reductions", "1",
    )
    assert code == 2
    assert doc["outcome"] == "resource-limit"


def test_check_q1_point(capsys):
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2",
        "--gens", "x1^2 + 1, x1*x2 + x1 + x2 + 1", "--point", "1,1",
    )
    assert code == 1
    assert doc["data"]["witness"] == "x1 + 1"
    assert doc["point"] == [1, 1]


def test_check_topvan_pass(capsys):
    code, doc = run_json(
        capsys, "check-topvan", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"
    )
    assert code == 0
    assert doc["data"]["stage"] == 1


def test_check_topvan_inconclusive_exit1(capsys):
    code, doc = run_json(
        capsys, "check-topvan", "--p", "2", "--n", "2", "--gens", "x1, x2",
        "--e-max", "1",
    )
    assert code == 1
    assert doc["outcome"] == "inconclusive"
    assert doc["data"]["stages_tried"] == 1


def test_check_propvan_vacuous_pass(capsys):
    code, doc = run_json(
        capsys, "check-propvan", "--p", "2", "--n", "2", "--gens", "x1", "--i", "1"
    )
    assert code == 0
    assert doc["check"] == "torsion-vanishing"
    assert doc["outcome"] == "pass"
    assert doc["num_torsion_generators"] == 0


def test_check_propvan_hypothesis_violated_exit1(capsys):
    code, doc = run_json(
        capsys, "check-propvan", "--p", "2", "--n", "2",
        "--gens", "x1^2, x1*x2", "--i", "2",
    )
    assert code == 1
    assert doc["outcome"] == "hypothesis-violated"
    assert doc["verdicts"] == [True]


def test_pd_pass(capsys):
    code, doc = run_json(capsys, "pd", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2")
    assert code == 0
    assert doc["data"] == {"pd": 2, "depth": 0, "bound": 4}


def test_pd_constant_generator(capsys):
    code, doc = run_json(capsys, "pd", "--p", "2", "--n", "2", "--gens", "1, x1")
    assert code == 0
    assert doc["data"] == {"pd": 0, "depth": 2, "bound": 1}


def test_pd_timings_flag(capsys):
    code, doc = run_json(
        capsys, "pd", "--p", "2", "--n", "2", "--gens", "x1, x2", "--timings"
    )
    assert code == 0
    assert isinstance(doc["millis"], float)


# ---------------------------------------------------------------------------
# campaigns


def test_campaign_pass(capsys):
    code, doc = run_json(
        capsys, "campaign", "--p", "2", "--n", "3", "--degrees", "1,1",
        "--trials", "3", "--seed", "cli-t",
    )
    assert code == 0
    assert doc["summary"] == {
        "pass": 3, "fail": 0, "hypothesis_violated": 0, "resource_limit": 0,
    }
    assert [r["index"] for r in doc["trials"]] == [0, 1, 2]
    assert all("millis" not in r for r in doc["trials"])


def test_campaign_config_has_no_e_max(capsys):
    # no campaign check reads e_max, so the config does not carry it
    _, doc = run_json(
        capsys, "campaign", "--p", "2", "--n", "3", "--degrees", "1,1",
        "--trials", "1", "--seed", "cli-t",
    )
    assert "e_max" not in doc["config"]


def test_campaign_hypothesis_violated_exit1(capsys):
    code, doc = run_json(
        capsys, "campaign", "--p", "2", "--n", "2", "--degrees", "1,1",
        "--trials", "2", "--seed", "cli-t",
    )
    assert code == 1
    assert doc["summary"]["hypothesis_violated"] == 2


def test_campaign_byte_identical(capsys):
    argv = ["campaign", "--p", "3", "--n", "3", "--degrees", "2",
            "--trials", "4", "--seed", "cli-rep"]
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_campaign_worker_parity(capsys):
    base = ["campaign", "--p", "2", "--n", "3", "--degrees", "1,1",
            "--trials", "3", "--seed", "cli-w"]
    _, serial = run(capsys, *base)
    _, parallel = run(capsys, *base, "--workers", "2")
    a, b = json.loads(serial), json.loads(parallel)
    assert a["trials"] == b["trials"]
    assert a["summary"] == b["summary"]


def test_campaign_workers_capped_at_cpu_count(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(campaign, "ProcessPoolExecutor", no_pool)
    too_many = (os.cpu_count() or 1) + 1
    with pytest.raises(ValueError, match="workers"):
        CampaignConfig(p=2, n=3, degrees=(1, 1), trials=1, seed="cli-w", workers=too_many)
    code = main(["campaign", "--p", "2", "--n", "3", "--degrees", "1,1",
                 "--trials", "1", "--seed", "cli-w", "--workers", str(too_many)])
    assert code == 2
    assert "workers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing: --out, env defaults, error paths


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["gb", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"]
    _, streamed = run(capsys, *argv)
    target = tmp_path / "report.json"
    code, out = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == streamed


def test_env_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("FPLOCAL_MAX_REDUCTIONS", "1")
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"
    )
    assert code == 2
    assert doc["outcome"] == "resource-limit"
    # an explicit flag still beats the environment
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2",
        "--max-reductions", "1000000",
    )
    assert code == 1
    assert doc["outcome"] == "fail"


@pytest.mark.parametrize("var", ["FPLOCAL_MAX_REDUCTIONS", "FPLOCAL_LEVEL_CAP"])
def test_malformed_env_ceiling_is_a_usage_error(monkeypatch, capsys, var):
    monkeypatch.setenv(var, "abc")
    with pytest.raises(SystemExit) as ei:
        main(["gb", "--p", "2", "--n", "2", "--gens", "x1"])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert "invalid int value: 'abc'" in captured.err
    assert captured.out == ""


def test_flag_beats_malformed_env_ceiling(monkeypatch, capsys):
    monkeypatch.setenv("FPLOCAL_MAX_REDUCTIONS", "abc")
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2",
        "--max-reductions", "1",
    )
    assert code == 2
    assert doc["outcome"] == "resource-limit"
    monkeypatch.setenv("FPLOCAL_MAX_REDUCTIONS", "")  # empty counts as unset
    code, doc = run_json(
        capsys, "check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"
    )
    assert code == 1
    assert doc["outcome"] != "resource-limit"


def test_parse_error_exit2(capsys):
    code = main(["gb", "--p", "2", "--n", "2", "--gens", "x1 + y"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_bad_prime_exit2(capsys):
    code = main(["gb", "--p", "4", "--n", "2", "--gens", "x1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_required_flag_exits(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gb", "--p", "2", "--n", "2"])
    assert exc.value.code == 2


def test_output_is_sorted_and_stable(capsys):
    argv = ["check-q1", "--p", "2", "--n", "2", "--gens", "x1^2, x1*x2"]
    _, out = run(capsys, *argv)
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"



# The report of a propvan input that walks every level up to the default
# cap, as the direct-product level walk printed it.
HEAVY_PROPVAN = """\
{
  "check": "torsion-vanishing",
  "conclusion": "degree hypothesis fails; run is exploratory only",
  "generators": [
    "2*x2 + 2*x3",
    "2*x1 + 2*x2 + x3",
    "x1^2 + 2*x1*x3 + x2*x3 + x3^2"
  ],
  "hypothesis_ok": false,
  "i": 3,
  "level_used": null,
  "n": 3,
  "num_torsion_generators": 1,
  "outcome": "hypothesis-violated",
  "p": 3,
  "point": [
    0,
    0,
    0
  ],
  "retries": 4,
  "s": 3,
  "sum_deg": 4,
  "torsion_finite": true,
  "torsion_length": 2,
  "verdicts": [
    false
  ]
}
"""


def test_check_propvan_heavy_walk_bytes(capsys):
    code, out = run(
        capsys, "check-propvan", "--p", "3", "--n", "3",
        "--gens", "2*x2 + 2*x3, 2*x1 + 2*x2 + x3, x1^2 + 2*x1*x3 + x2*x3 + x3^2", "--i", "3",
    )
    assert code == 1
    assert out == HEAVY_PROPVAN


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_propvan_level_zero_exit2(capsys):
    code, out, err = run_err(
        capsys, "check-propvan", "--p", "3", "--n", "3", "--gens", "x1,x2^2",
        "--i", "2", "--level", "0",
    )
    assert code == 2
    assert out == ""
    assert "level must be >= 1" in err


def test_check_propvan_level_above_cap_exit2(capsys):
    code, out, err = run_err(
        capsys, "check-propvan", "--p", "3", "--n", "3", "--gens", "x1,x2^2",
        "--i", "2", "--level", "7",
    )
    assert code == 2
    assert out == ""
    assert "above the level cap 4" in err


def test_check_topvan_negative_e_max_exit2(capsys):
    code, out, err = run_err(
        capsys, "check-topvan", "--p", "3", "--n", "3", "--gens", "x1,x2^2",
        "--e-max", "-1",
    )
    assert code == 2
    assert out == ""
    assert "e_max must be >= 0" in err
