import json

import numpy as np
import pytest

from ringforge import GF, RingSpec, classify, equivalent_spec
from ringforge.cli import main

from conftest import prime_spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


# -- classify / congruence -------------------------------------------------

def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "3", "--s", "2", "--t", "2")
    assert code == 0
    d = json.loads(out)
    assert d["class_count"] == 14
    assert d["kind"] == "subspace"
    assert len(d["classes"]) == 14
    assert sum(c["orbit_size"] for c in d["classes"]) == d["total_objects"]


def test_classify_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "--p", "2", "--s", "2", "--t", "1",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rep,orbit_size,contains_compatible,commutative_capable"
    assert len(lines) == 6  # header + five classes


def test_classify_no_frobenius(capsys):
    _, with_f, _ = run_cli(capsys, "classify", "--p", "2", "--r", "2",
                           "--s", "2", "--t", "1")
    _, without, _ = run_cli(capsys, "classify", "--p", "2", "--r", "2",
                            "--s", "2", "--t", "1", "--no-frobenius")
    assert json.loads(with_f)["class_count"] == 6
    assert json.loads(without)["class_count"] == 7


def test_classify_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(classify, "_GROUND_BYTES", 10)
    for argv in (["classify", "--t", "2"], ["congruence"]):
        code, out, err = run_cli(capsys, *argv, "--p", "3", "--s", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ground set of ")
        assert err.rstrip().endswith("(change it with ringforge.classify._GROUND_BYTES)")
    # memory is the one limit: there is no action budget to set
    for argv in (["classify", "--t", "2"], ["congruence"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--p", "3", "--s", "2", "--budget", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 10" in capsys.readouterr().err


def test_congruence_command(capsys):
    code, out, _ = run_cli(capsys, "congruence", "--p", "3", "--s", "2")
    assert code == 0
    d = json.loads(out)
    assert d["class_count"] == 10
    code, out, _ = run_cli(capsys, "congruence", "--p", "3", "--s", "2",
                           "--symmetric-only")
    assert json.loads(out)["class_count"] == 5


# -- count -----------------------------------------------------------------

def test_count_kinds(capsys):
    cases = [
        (["count", "--p", "3", "--kind", "congruence", "--s", "2"], 10),
        (["count", "--p", "2", "--kind", "subspaces", "--s", "2", "--t", "2"], 35),
        (["count", "--p", "2", "--r", "2", "--kind", "s1", "--lambda", "1"], 4),
        (["count", "--p", "2", "--r", "2", "--kind", "t-full", "--s", "2",
          "--lambda", "1"], 6),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["value"] == expected


def test_count_predicted(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "3", "--kind", "predicted",
                           "--s", "2", "--t", "2")
    assert code == 0
    d = json.loads(out)
    assert (d["value"], d["status"], d["commutative"]) == (14, "verified", 3)


def test_count_predicted_not_covered(capsys):
    code, _, err = run_cli(capsys, "count", "--p", "3", "--kind", "predicted",
                           "--s", "3", "--t", "2")
    assert code == 2
    assert "error:" in err


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--p", "5", "--kind", "congruence",
                           "--s", "2", "--format", "csv")
    assert code == 0
    assert "value,12" in out.replace('"', "")


# -- iso -------------------------------------------------------------------

def test_iso_isomorphic_pair(capsys, tmp_path):
    a = prime_spec(3, [[[1, 0], [0, 2]]])
    d = prime_spec(3, [[[2, 0], [0, 1]]])
    left = write_spec(tmp_path, "a.json", a)
    right = write_spec(tmp_path, "d.json", d)
    code, out, _ = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert code == 0
    res = json.loads(out)
    assert set(res) == {"isomorphic", "witness"}
    assert res["isomorphic"] is True
    w = res["witness"]
    assert set(w) == {"sigma", "C", "B", "v_perm"}


def test_iso_twisted_pair_has_no_mode_option(capsys, tmp_path):
    F4 = GF(2, 2)
    a = RingSpec(F4, 1, 1, 1, np.array([[[2]]]), (1,), (0, 1))
    d = RingSpec(F4, 1, 1, 1, np.array([[[3]]]), (1,), (0, 1))
    left = write_spec(tmp_path, "a.json", a)
    right = write_spec(tmp_path, "d.json", d)
    code, out, _ = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert code == 0
    assert json.loads(out)["witness"] == {"sigma": 0, "C": [[1]], "B": [[2]],
                                          "v_perm": [0]}
    with pytest.raises(SystemExit):
        main(["iso", "--left", left, "--right", right, "--mode", "central"])


def test_iso_twisted_witness_off_the_fixed_subfield(capsys, tmp_path):
    F9 = GF(3, 2)
    a = RingSpec(F9, 2, 1, 0, np.array([[[3, 8], [0, 2]]]), (1, 1), (0,))
    d = equivalent_spec(a, [[2, 2], [3, 4]], sigma_e=1, B=[[5]])
    left = write_spec(tmp_path, "a.json", a)
    right = write_spec(tmp_path, "d.json", d)
    code, out, _ = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert code == 0
    assert '"isomorphic": true' in out


def test_iso_budget_error_names_only_the_variable(capsys, tmp_path, monkeypatch):
    # the one limit on the search is classify._GROUND_BYTES; ringforge iso
    # has no flag for it.  256 bytes admit the span invariant of one point
    # and its image block, not the orbit search
    monkeypatch.setattr(classify, "_GROUND_BYTES", 256)
    left = write_spec(tmp_path, "a.json", prime_spec(3, [[[1, 0], [0, 0]]]))
    right = write_spec(tmp_path, "d.json", prime_spec(3, [[[0, 0], [0, 1]]]))
    code, out, err = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert code == 2 and out == ""
    assert err.startswith("error: orbit closure level")
    assert err.rstrip().endswith("(change it with ringforge.classify._GROUND_BYTES)")


def test_iso_distinct_classes(capsys, tmp_path):
    a = prime_spec(3, np.eye(2, dtype=np.int64))
    d = prime_spec(3, [[[0, 1], [2, 0]]])
    left = write_spec(tmp_path, "a.json", a)
    right = write_spec(tmp_path, "d.json", d)
    code, out, _ = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert code == 0
    assert json.loads(out)["isomorphic"] is False


def test_iso_invariant_mismatch_is_a_clean_no(capsys, tmp_path):
    a = prime_spec(2, [[1]])
    d = prime_spec(2, np.eye(2, dtype=np.int64))
    left = write_spec(tmp_path, "a.json", a)
    right = write_spec(tmp_path, "d.json", d)
    code, out, _ = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert code == 0
    res = json.loads(out)
    assert res["isomorphic"] is False
    assert res["witness"] is None


@pytest.mark.parametrize("pair", ["dead index as annihilator", "GF(9) moduli"])
def test_iso_refuses_presentations_it_cannot_compare(capsys, tmp_path, pair):
    # both pairs are isomorphic: no answer is printed, and the exit is 2
    if pair == "GF(9) moduli":
        a, d = (RingSpec(GF(3, 2, modulus=m), 1, 1, 0, np.array([[[1]]], np.int64), (0,), (0,))
                for m in ((1, 0, 1), (2, 1, 1)))
    else:
        a, d = prime_spec(2, [[1, 0], [0, 0]]), prime_spec(2, [[1]], lam=1)
    left = write_spec(tmp_path, "a.json", a)
    right = write_spec(tmp_path, "d.json", d)
    code, out, err = run_cli(capsys, "iso", "--left", left, "--right", right)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_iso_missing_file(capsys, tmp_path):
    a = write_spec(tmp_path, "a.json", prime_spec(2, [[1]]))
    code, _, err = run_cli(capsys, "iso", "--left", a, "--right",
                           str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


# -- ring ------------------------------------------------------------------

def test_ring_report(capsys, tmp_path):
    path = write_spec(tmp_path, "r8.json", prime_spec(2, [[1]]))
    code, out, _ = run_cli(capsys, "ring", "--spec", path,
                           "--axioms", "exhaustive", "--table")
    assert code == 0
    d = json.loads(out)
    assert d["structure"]["order"] == 8
    assert d["structure"]["radical_dims"] == [2, 1, 1]
    assert d["axioms"]["ok"] is True
    assert np.asarray(d["table"]).shape == (8, 8)
    assert d["spec"]["lambda"] == 0


def test_ring_invalid_spec(capsys, tmp_path):
    bad = RingSpec.from_dict({"p": 3, "s": 2, "t": 2, "lambda": 0,
                              "matrices": [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_dict()))
    code, _, err = run_cli(capsys, "ring", "--spec", str(path))
    assert code == 2
    assert "linearly dependent" in err


def _spec_without(tmp_path, name, field):
    d = prime_spec(2, [[1]]).to_dict()
    del d[field]
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def test_ring_spec_missing_field(capsys, tmp_path):
    path = _spec_without(tmp_path, "no_s.json", "s")
    code, _, err = run_cli(capsys, "ring", "--spec", path)
    assert code == 2
    assert err.startswith("error:") and "field(s) s" in err


def test_iso_spec_missing_field(capsys, tmp_path):
    a = write_spec(tmp_path, "a.json", prime_spec(2, [[1]]))
    d = _spec_without(tmp_path, "no_matrices.json", "matrices")
    code, _, err = run_cli(capsys, "iso", "--left", a, "--right", d)
    assert code == 2
    assert err.startswith("error:") and "field(s) matrices" in err


# -- reps ------------------------------------------------------------------

def test_reps_bilinear(capsys):
    code, out, _ = run_cli(capsys, "reps", "--p", "3", "--s", "2")
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 10
    assert len(d["reps"]) == 10


def test_reps_symmetric_csv(capsys):
    code, out, _ = run_cli(capsys, "reps", "--p", "3", "--s", "3",
                           "--kind", "symmetric", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,rep"
    assert len(lines) == 7  # header + six representatives


def test_reps_bad_size(capsys):
    code, _, err = run_cli(capsys, "reps", "--p", "3", "--s", "4")
    assert code == 2
    assert "error:" in err


# -- verify ----------------------------------------------------------------

def test_verify_fast_table(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "fast")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12  # eleven checks and a summary
    assert all(" PASS " in line for line in lines[:-1])
    assert lines[-1].startswith("all checks passed (11/11)")


def test_verify_fast_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "fast",
                           "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["ok"] is True
    assert len(d["checks"]) == 11
    assert all(c["status"] == "PASS" for c in d["checks"])
    assert all(c["seconds"] >= 0 for c in d["checks"])


def test_verify_csv_header(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "fast",
                           "--format", "csv")
    assert code == 0
    assert out.split("\n")[0] == "name,expected,measured,status,seconds,source"
