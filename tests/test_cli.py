"""Command-line surface: schemas, formats, exit codes."""

import json

import pytest

from regori.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--output", "json", *argv)
    return code, json.loads(out)


def test_stratum_exists_json(capsys):
    code, payload = run_json(capsys, "stratum-exists", "H(10^5)")
    assert code == 0
    assert payload["stratum"] == "H(10^5)"
    assert payload["status"] == "exists"
    assert payload["witness"] == "sd(11,5,3)"
    assert payload["generators"] == [[1, 0], [0, 1]]


def test_stratum_exists_psl_beyond_closure_cap(capsys):
    # PSL(2,107) is past --sl2-cap; the answer needs no closure
    code, payload = run_json(capsys, "stratum-exists", "H(53^11342)")
    assert code == 0
    assert payload["witness"] == "psl(107,108)"
    assert payload["generators"] == [[5, 47, 7, 66], [0, 1, 106, 0]]


def test_stratum_exists_large_strata_answer_fast(capsys):
    import time

    for stratum, witness, gens in (
        ("H(10^200000)", "dp(sd(11,2,10),c(100000))", [[[1, 0], 1], [[0, 1], 0]]),
        ("H(5^63004760)", "sd(12,31502380,11)", [[1, 0], [0, 1]]),
    ):
        start = time.perf_counter()
        code, payload = run_json(capsys, "stratum-exists", stratum)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert (payload["stratum"], payload["witness"], payload["generators"]) == (
            stratum, witness, gens)
        assert elapsed < 0.3, f"{stratum} took {elapsed:.2f} s"


def test_stratum_exists_not_exists(capsys):
    code, payload = run_json(capsys, "stratum-exists", "H(1,2)")
    assert code == 0
    assert payload["status"] == "not_exists"
    assert payload["reason"] == "non_uniform"


def test_stratum_whitespace_and_caret_one(capsys):
    code, payload = run_json(capsys, "stratum-exists", "H( 2^1 , 2 )")
    assert code == 0
    assert payload["stratum"] == "H(2^2)"


def test_t_of_g_exact_schema(capsys):
    code, payload = run_json(capsys, "t-of-g", "26")
    assert code == 0
    assert payload == {
        "g": 26,
        "status": "exact",
        "t": 55,
        "m": 10,
        "witness": "sd(11,5,3)",
    }


def test_t_of_g_interval_schema(capsys):
    code, payload = run_json(capsys, "t-of-g", "126")
    assert code == 0
    assert payload["status"] == "interval"
    assert payload["lower"] == 275
    assert payload["upper"] == 300
    assert payload["first_unknown_m"] == 5


def test_t_of_g_infinite_m(capsys):
    code, payload = run_json(capsys, "t-of-g", "36")
    assert code == 0
    assert payload["m"] == "inf"
    assert payload["t"] == 70


def test_progression_json(capsys):
    code, payload = run_json(capsys, "progression", "5")
    assert code == 0
    assert payload == {"modulus": 72, "residues": [11, 13, 59, 61]}


def test_progression_rejects_bad_m(capsys):
    code = main(["progression", "7"])
    assert code == 2


def test_one_cylinder(capsys):
    code, payload = run_json(capsys, "one-cylinder", "3")
    assert code == 0
    assert payload["stratum"] == "H(1^4)"
    assert payload["translations"] == 4
    assert payload["origami"].startswith("8;")


def test_regular_origami(capsys):
    code, payload = run_json(capsys, "regular-origami", "--group", "sd(11,5,3)")
    assert code == 0
    assert payload["stratum"] == "H(10^5)"
    assert payload["genus"] == 26
    assert payload["translations"] == 55


def test_regular_origami_rejects_out_of_range_gens(capsys):
    for gens in ("0,99", "-1,1", "1,4"):
        assert main(["regular-origami", "--group", "c(4)", f"--gens={gens}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gens indices must lie in 0..3" in captured.err
    code, payload = run_json(capsys, "regular-origami", "--group", "c(4)", "--gens", "1,3")
    assert code == 0 and payload["generators"] == [1, 3]


def test_regular_origami_rejects_malformed_gens(capsys):
    for gens in ("", "1", "a,b", "1,2,3"):
        assert main(["regular-origami", "--group", "c(4)", f"--gens={gens}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gens takes two comma-separated element indices x,y" in captured.err


def test_regular_origami_rejects_malformed_descriptors(capsys):
    for group, usage in (
        ("c()", "c(N)"),
        ("dp(c(5))", "dp(DESC,c(K))"),
        ("c(sd(11,5,3))", "c(N)"),
        ("sd(11,5)", "sd(M,N,D)"),
        ("psl(11)", "psl(P,D)"),
        ("klein(7,1)", "klein(L)"),
    ):
        assert main(["regular-origami", "--group", group]) == 2, group
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad descriptor {group!r}: expected {usage}\n"


def test_psl_pair(capsys):
    code, payload = run_json(capsys, "psl-pair", "11", "12")
    assert code == 0
    assert payload["A"] == "[[1,2],[0,1]]@11"
    assert payload["closure_order"] == 1320


def test_semidirect_exists(capsys):
    code, payload = run_json(capsys, "semidirect-exists", "11", "5")
    assert code == 0
    assert payload["witness"] == {"m": 11, "n": 5, "d": 3}
    code, payload = run_json(capsys, "semidirect-exists", "9", "5")
    assert payload["status"] == "not_exists"


def test_enumerate(capsys):
    code, payload = run_json(capsys, "enumerate", "6")
    assert code == 0
    assert payload["count"] == 2
    strata = {w["stratum"] for w in payload["witnesses"]}
    assert strata == {"H()", "H(2^2)"}


def test_enumerate_rejects_nonpositive_n(capsys):
    for n in ("0", "-3"):
        assert main(["enumerate", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "square count must be at least 1" in captured.err


@pytest.mark.parametrize("argv, flag, low", [
    (["--enum-budget", "-3", "enumerate", "8"], "--enum-budget", 1),
    (["enumerate", "8", "--enum-budget", "0"], "--enum-budget", 1),
    (["--closure-budget", "-1", "regular-origami", "--group", "c(5)"], "--closure-budget", 1),
    (["--sl2-cap", "-1", "psl-pair", "11", "12"], "--sl2-cap", 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_budgets_below_their_floor_are_usage_errors(capsys, argv, flag, low):
    # the flag is blamed at parse time, not the input it would bound
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {flag}: must be at least {low}, got " in err


def test_budgets_at_their_floor_are_accepted(capsys):
    assert run(capsys, "--enum-budget", "1", "enumerate", "1")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["--closure-budget", "many", "regular-origami", "--group", "c(5)"])
    assert exc.value.code == 2
    assert "argument --closure-budget: invalid int value: 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enumerate", "6", "--workers", "2"],
    ["t-of-g", "26", "--budget", "0"],
    ["table", "appendix-a", "--budget", "1"],
], ids=" ".join)
def test_removed_enumeration_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_enumerate_ignores_worker_env(capsys, monkeypatch):
    expected = run(capsys, "enumerate", "12")
    monkeypatch.setenv("REGORI_WORKERS", "0")
    assert run(capsys, "enumerate", "12") == expected


def test_one_cylinder_obeys_closure_budget(capsys):
    code, out = run(capsys, "--closure-budget", "100", "one-cylinder", "26")
    assert code == 0 and "translations: 50" in out
    assert main(["--closure-budget", "100", "one-cylinder", "27"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "square count 104 beyond --closure-budget 100" in captured.err


def test_enumerate_csv(capsys):
    code, out = run(capsys, "--output", "csv", "enumerate", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stratum,group_order,commutator_order,origami"
    assert len(lines) == 3


def test_table_summary(capsys):
    code, payload = run_json(capsys, "table", "summary-gm", "--m-max", "25")
    assert code == 0
    assert payload["all_match"] is True


def test_table_appendix_rows(capsys):
    code, payload = run_json(capsys, "table", "appendix-a", "--rows", "26,122")
    assert code == 0
    assert payload["all_match"] is True


def test_table_unknown_or_empty_rows_are_usage_errors(capsys):
    assert main(["table", "appendix-a", "--rows", "26,27"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: no reference row for genus 27; known genera: 26, 122, ")
    assert main(["table", "appendix-a", "--rows="]) == 2
    assert capsys.readouterr().out == ""


def test_verify_appendix_b(capsys):
    code, payload = run_json(capsys, "verify-appendix-b", "21", "8")
    assert code == 0
    assert payload["mismatches"] == []


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["t-of-g"])  # missing argument
    assert exc.value.code == 2


def test_table_mismatch_exit_code(capsys, monkeypatch):
    from regori import tables

    wrong = dict(tables.SMALL_GENUS_ROWS)
    wrong[26] = (56, 10, "H(10^5)", "Z/11 : Z/5", True)
    monkeypatch.setattr(tables, "SMALL_GENUS_ROWS", wrong)
    code, payload = run_json(capsys, "table", "appendix-a", "--rows", "26")
    assert code == 1
    assert payload["all_match"] is False


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = main(["--output", "json", "--out", str(target), "t-of-g", "26"])
    assert code == 0
    assert json.loads(target.read_text())["t"] == 55


def test_out_file_that_cannot_be_opened(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["--out", str(target), "progression", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {target}")


def test_ranges_that_check_nothing_are_rejected(capsys):
    for argv, message in (
        (["verify-appendix-b", "-1", "3"], "need umax >= 3 and lmax >= 1"),
        (["verify-appendix-b", "2", "8"], "need umax >= 3 and lmax >= 1"),
        (["verify-appendix-b", "21", "0"], "need umax >= 3 and lmax >= 1"),
        (["table", "summary-gm", "--m-max", "0"], "--m-max must be at least 1"),
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    code, payload = run_json(capsys, "verify-appendix-b", "3", "1")
    assert (code, payload["checked"]) == (0, 1)
    code, payload = run_json(capsys, "table", "summary-gm", "--m-max", "1")
    assert (code, len(payload["rows"])) == (0, 1)


def test_json_determinism(capsys):
    _, first = run(capsys, "--output", "json", "t-of-g", "122")
    _, second = run(capsys, "--output", "json", "t-of-g", "122")
    assert first == second


def test_text_output(capsys):
    code, out = run(capsys, "t-of-g", "26")
    assert code == 0
    assert "t: 55" in out


def test_flags_accepted_after_subcommand(capsys):
    code, out = run(capsys, "t-of-g", "26", "--output", "json")
    assert code == 0
    assert json.loads(out)["t"] == 55
