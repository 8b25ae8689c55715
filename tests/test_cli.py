"""End-to-end command-line checks through main(argv)."""

from __future__ import annotations

import json

import pytest

from quadforms.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert err == ""
    return code, json.loads(out)


def test_reduce_text(capsys):
    code, out, err = run(capsys, ["reduce", "--form", "304,217,155"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "determinant: -31"
    assert lines[1] == "chain: 304,217,155 -> 155,-62,25 -> 25,12,7 -> 7,2,5 -> 5,-2,7"
    assert lines[-1] == "reduced: 5,-2,7"


def test_reduce_returns_canonical_boundary_form(capsys):
    code, out, err = run(capsys, ["reduce", "--form", "2,-1,43"])
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "reduced: 2,1,43"
    code, out, err = run(capsys, ["equivalent", "--form", "3,-1,3", "--form", "3,1,3"])
    assert code == 0 and out.splitlines() == ["properly equivalent: yes"]


def test_reduce_json_envelope(capsys):
    code, blob = run_json(capsys, ["reduce", "--form", "304,217,155"])
    assert code == 0
    assert sorted(blob) == ["command", "input", "result"]
    assert blob["command"] == "reduce"
    assert blob["input"] == "304,217,155"
    result = blob["result"]
    assert result["reduced"] == {"half": [5, -2, 7], "full": [5, -4, 7]}
    assert result["chain"][0] == [304, 217, 155]
    assert result["b_sequence"] == [-62, 12, 2, -2]
    assert result["transformation"] == [1, 0, 0, 1] or len(result["transformation"]) == 4


def test_full_convention_round_trip(capsys):
    code, blob = run_json(capsys, ["reduce", "--form", "304,434,155", "--convention", "full"])
    assert code == 0
    assert blob["result"]["reduced"]["full"] == [5, -4, 7]
    code, out, err = run(capsys, ["reduce", "--form", "1,3,1", "--convention", "full"])
    assert code == 1
    assert err.startswith("error: full-convention middle coefficient")


def test_enumerate_counts(capsys):
    code, blob = run_json(capsys, ["enumerate", "--det", "-85"])
    assert code == 0 and blob["result"]["count"] == 12
    code, blob = run_json(capsys, ["enumerate", "--det", "-85", "--method", "2"])
    assert code == 0 and blob["result"]["count"] == 12
    code, blob = run_json(capsys, ["enumerate", "--det", "79"])
    assert code == 0 and blob["result"]["count"] == 32
    code, out, err = run(capsys, ["enumerate", "--det", "4"])
    assert code == 1 and err.startswith("error:")


def test_period_walk(capsys):
    code, out, err = run(capsys, ["period", "--form", "3,8,-5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "length: 6"
    assert len(lines) == 7


def test_equivalent_verdicts(capsys):
    code, out, _ = run(capsys, ["equivalent", "--form", "2,-4,3", "--form=-13,-6,-2"])
    assert code == 0 and out.strip() == "properly equivalent: yes"
    code, out, _ = run(capsys, ["equivalent", "--form", "10,3,17", "--form", "10,-3,17"])
    assert code == 0 and out.strip() == "properly equivalent: no"


def test_character_profile(capsys):
    code, out, err = run(capsys, ["character", "--form", "10,3,17"])
    assert code == 0 and out.strip() == "N7; N23; 1,4"
    code, out, err = run(capsys, ["character", "--form", "2,0,2"])
    assert code == 1 and err.startswith("error:")


def test_compose_output(capsys):
    code, out, _ = run(capsys, ["compose", "--form", "10,3,11", "--form", "15,2,7"])
    assert code == 0
    assert out.splitlines() == ["determinant: -101", "full: 6,10,21", "composed: 6,5,21"]
    code, out, err = run(capsys, ["compose", "--form", "10,3,11"])
    assert code == 1
    assert "expected 2 --form argument(s), got 1" in err


def test_class_multiples_table(capsys):
    code, out, _ = run(capsys, ["class-multiples", "--form", "3,1,332444", "--n", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1: 3,1,332444"
    assert lines[1] == "2: 9,-2,110815"
    assert lines[-1] == "10: 425,12,2347"
    assert [int(line.split(":")[1].strip().split(",")[0]) for line in lines] == [
        3, 9, 27, 81, 243, 729, 476, 1027, 932, 425,
    ]


def test_sqrtform_solutions(capsys):
    code, out, _ = run(capsys, ["sqrtform", "--form", "3,1,54", "--n", "1", "--mod", "23"])
    assert code == 0
    assert out.splitlines() == ["count: 2", "7,10", "16,13"]
    code, blob = run_json(capsys, ["sqrtform", "--form", "20,10,27", "--n", "3", "--mod", "440"])
    assert code == 0
    assert [150, 9] in blob["result"]["solutions"]


def test_factor_text_and_json(capsys):
    code, out, err = run(capsys, ["factor", "--n", "997331"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "residues: 18"
    assert lines[1] == "survivors: -"
    assert lines[-1] == "997331 = 127 * 7853"
    code, blob = run_json(capsys, ["factor", "--n", "997331", "--multipliers", "1,2,3"])
    assert code == 0
    assert blob["command"] == "factor"
    assert blob["result"]["status"] == "complete"
    assert blob["result"]["factors"] == [[127, 1], [7853, 1]]
    assert blob["result"]["cofactor"] == 1


def test_factor_incomplete_exits_one(capsys):
    code, out, err = run(
        capsys,
        ["factor", "--n", "997331", "--steps", "1", "--multipliers", "1",
         "--window", "1", "--smooth-bound", "2", "--limit", "3"],
    )
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == "incomplete: cofactor 997331 remains"


def test_factor_pipeline_flags(capsys):
    code, blob = run_json(
        capsys, ["factor", "--n", "997331", "--steps", "10", "--class-seed", "3", "--seed", "7"]
    )
    assert code == 0
    assert blob["result"]["status"] == "complete"
    assert blob["result"]["survivors"] == [127]


def test_factor_rejects_a_class_seed_below_one(capsys):
    code, out, err = run(capsys, ["factor", "--n", "1000036000099", "--class-seed", "0"])
    assert code == 1 and out == ""
    assert err.strip() == "error: class_seed_lead must be at least 1"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--n", "997331", "--multipliers", "1,x"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["enumerate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_domain_errors_exit_one(capsys):
    code, out, err = run(capsys, ["reduce", "--form", "0,0,0"])
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, ["reduce", "--form", "1,1"])
    assert code == 1 and err.startswith("error:")
    code, out, err = run(capsys, ["class-multiples", "--form", "2,1,2"])
    assert code == 1 and out == ""
    assert err.strip() == "error: class multiples require a form of content 1"
