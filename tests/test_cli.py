"""Command-line interface: outputs, exit codes, JSON plumbing, determinism."""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from permahank import cli
from permahank.cli import main
from permahank.verify import Case, VerificationReport, alphas


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_gen_exact_output(capsys):
    rc, out, err = run(capsys, "gen", "--m", "2", "--n", "3")
    assert rc == 0 and err == ""
    assert out == "x1*x3 + x2^2\nx1*x4 + x2*x3\nx2*x4 + x3^2\n"


def test_gen_normalizes_shape(capsys):
    rc, out, _ = run(capsys, "gen", "--m", "3", "--n", "2")
    assert rc == 0
    assert out.splitlines()[0] == "x1*x3 + x2^2"


def test_classify_outputs(capsys):
    rc, out, _ = run(capsys, "classify", "--m", "3", "--n", "5")
    assert rc == 0 and out == "embedded: false\n"
    rc, out, _ = run(capsys, "classify", "--m", "3", "--n", "3")
    assert rc == 0 and out == "embedded: true\n"


def test_classify_json(capsys):
    rc, out, _ = run(capsys, "classify", "--m", "3", "--n", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"m": 3, "n": 3, "char": 0, "embedded": True}


def test_nf_sign(capsys):
    rc, out, _ = run(capsys, "nf", "x1*x5", "--m", "3", "--n", "3")
    assert rc == 0 and out == "-x3^2\n"


def test_nf_json(capsys):
    rc, out, _ = run(
        capsys, "nf", "x1*x5", "--m", "3", "--n", "3", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["normal_form"] == "-x3^2"
    assert doc["input"] == "x1*x5"
    assert doc["vars"] == 5 and doc["order"] == "lex"


def test_char_2_rejected(capsys):
    rc, out, err = run(capsys, "gen", "--m", "2", "--n", "3", "--char", "2")
    assert rc == 2 and out == ""
    assert "characteristic 2" in err


def test_composite_char_rejected(capsys):
    rc, _, err = run(capsys, "gb", "--m", "2", "--n", "3", "--char", "9")
    assert rc == 2 and "prime" in err


def test_two_by_two_rejected_for_decompose_and_verify(capsys):
    for verb in ("decompose", "classify"):
        rc, _, err = run(capsys, verb, "--m", "2", "--n", "2")
        assert rc == 2
        assert "2x2 permanental ideal is prime" in err
    rc, _, err = run(capsys, "verify", "--m", "2", "--n", "2")
    assert rc == 2 and "2x2 permanental ideal is prime" in err


def test_gb_still_works_on_2x2(capsys):
    # the principal 2x2 case is fine for plain basis computation
    rc, out, _ = run(capsys, "gb", "--m", "2", "--n", "2")
    assert rc == 0 and out == "x1*x3 + x2^2\n"


def test_verify_budget(capsys):
    rc, _, err = run(capsys, "verify", "--m", "9", "--n", "9")
    assert rc == 2 and "--max-vars" in err
    rc, out, _ = run(
        capsys, "verify", "--m", "7", "--n", "7", "--max-vars", "13", "--check", "assoc"
    )
    assert rc == 0 and "assoc.maximal" in out


def test_verify_budget_of_40_variables(capsys, monkeypatch):
    # 2x39, 13x28 and 20x21 need 40 variables each, 2x40 needs 41; run_all
    # only records the grid, so nothing of the 40-variable work is done
    grids = []
    monkeypatch.setattr("permahank.cli.run_all", lambda grid, char, checks: grids.append(grid) or [])
    rc, out, _ = run(capsys, "verify", "--grid", "2x39,13x28,21x20", "--max-vars", "40")
    assert rc == 0 and out == "0/0 checks passed\n"
    assert grids == [[(2, 39), (13, 28), (20, 21)]]
    rc, out, err = run(capsys, "verify", "--grid", "2x39,2x40", "--max-vars", "40")
    assert rc == 2 and out == "" and "2x40 needs 41 variables" in err
    assert len(grids) == 1


def test_verify_has_no_samples_option(capsys):
    # primary.components is a proof and samples nothing
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "2", "--n", "3", "--check", "primary", "--samples", "1"])
    assert exc.value.code == 2 and "--samples" in capsys.readouterr().err


def test_verify_max_vars_below_four_rejected(capsys):
    # below 4 variables no shape is left, so the run would pass vacuously
    for value in ("3", "0", "-1"):
        for fmt in ("text", "json"):
            rc, out, err = run(capsys, "verify", "--max-vars", value, "--format", fmt)
            assert rc == 2 and out == "" and "--max-vars" in err
    rc, out, _ = run(capsys, "verify", "--max-vars", "4", "--check", "lemmas")
    assert rc == 0 and out.endswith("3/3 checks passed\n")


def test_verify_default_grid_over_4096_variables_rejected(capsys, monkeypatch):
    # no ring has more than 4096 variables, and the default grid of budget K
    # lists about K^2/4 shapes, so a larger budget is refused before the grid
    # is built; a grid or a shape keeps any budget.  Both stand-ins record
    # their calls, so no shape is built or checked.
    built, grids = [], []
    monkeypatch.setattr("permahank.cli.default_grid", lambda k: built.append(k) or [])
    monkeypatch.setattr("permahank.cli.run_all", lambda grid, char, checks: grids.append(grid) or [])
    for value in ("4097", "100000"):
        for fmt in ("text", "json"):
            rc, out, err = run(capsys, "verify", "--max-vars", value, "--format", fmt)
            assert rc == 2 and out == "" and "--max-vars" in err and "4096" in err
            assert "Traceback" not in err
    assert built == [] and grids == []
    rc, out, _ = run(capsys, "verify", "--max-vars", "4096")
    assert rc == 0 and out == "0/0 checks passed\n" and built == [4096]
    rc, _, _ = run(capsys, "verify", "--grid", "2x3,3x3", "--max-vars", "100000")
    assert rc == 0
    rc, _, _ = run(capsys, "verify", "--m", "3", "--n", "2", "--max-vars", "100000")
    assert rc == 0
    assert grids == [[], [(2, 3), (3, 3)], [(2, 3)]]


def test_verify_text_table(capsys):
    rc, out, _ = run(capsys, "verify", "--grid", "2x3", "--check", "decomp")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("(2,3) decomp.main")
    assert "pass" in lines[0]
    assert lines[-1] == "1/1 checks passed"


def test_verify_json_reports(capsys):
    rc, out, _ = run(
        capsys, "verify", "--grid", "3x3", "--check", "assoc", "--format", "json"
    )
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 1
    rep = reports[0]
    assert rep["claim"] == "assoc.maximal"
    assert rep["status"] == "pass"
    assert rep["detail"] == "alpha=x1*x3*x5"
    assert isinstance(rep["millis"], int)


def test_verify_grid_parsing(capsys):
    rc, out, _ = run(capsys, "verify", "--grid", "2x3,3x3", "--check", "gb")
    assert rc == 0
    assert out.count("gb.") == 2
    rc, _, err = run(capsys, "verify", "--grid", "2x")
    assert rc == 2 and "grid" in err
    rc, _, err = run(capsys, "verify", "--grid", "2x3", "--m", "2", "--n", "3")
    assert rc == 2


def test_verify_failure_exit_code(capsys, monkeypatch):
    bad = VerificationReport("gb.2xn", 2, 3, "fail", {"kind": "synthetic"}, "", 1)
    monkeypatch.setattr("permahank.verify.run_case", lambda *a, **k: [bad])
    rc, out, _ = run(capsys, "verify", "--grid", "2x3")
    assert rc == 1
    assert "FAIL" in out and "synthetic" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_saturation_cap_is_an_error_not_a_traceback(capsys, monkeypatch):
    # both verbs saturate; the 3x4 chains stabilize at exponent 2, so a cap
    # of 1 stops them
    monkeypatch.setattr("permahank.ideal_ops.SATURATION_CAP", 1)
    for argv in (
        ["decompose", "--m", "3", "--n", "4"],
        ["verify", "--m", "3", "--n", "4", "--check", "decomp"],
    ):
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err


def test_verify_char_p(capsys):
    rc, out, _ = run(
        capsys, "verify", "--grid", "2x4", "--check", "gb", "--char", "32003"
    )
    assert rc == 0 and "pass" in out


def test_json_pipeline(tmp_path, capsys):
    doc = tmp_path / "ideal.json"
    rc, _, _ = run(
        capsys, "gen", "--m", "2", "--n", "3", "--format", "json", "--out", str(doc)
    )
    assert rc == 0
    data = json.loads(doc.read_text())
    assert data["vars"] == 4 and data["m"] == 2 and data["n"] == 3
    rc, out, _ = run(capsys, "gb", "--in", str(doc))
    assert rc == 0
    assert out.splitlines()[0] == "x1*x3 + x2^2"
    assert len(out.splitlines()) == 7


def test_gb_json_round_trips(tmp_path, capsys):
    a = tmp_path / "a.json"
    rc, _, _ = run(
        capsys, "gb", "--m", "2", "--n", "4", "--format", "json", "--out", str(a)
    )
    assert rc == 0
    # feeding a reduced basis back in reproduces it
    rc, out, _ = run(capsys, "gb", "--in", str(a), "--format", "json")
    assert json.loads(out)["generators"] == json.loads(a.read_text())["generators"]


def test_gb_rejects_shape_and_file_together(tmp_path, capsys):
    doc = tmp_path / "i.json"
    doc.write_text(json.dumps({"vars": 2, "generators": ["x1"]}))
    rc, _, err = run(capsys, "gb", "--in", str(doc), "--m", "2", "--n", "3")
    assert rc == 2 and "not both" in err


def test_gb_deglex(capsys):
    rc, out, _ = run(capsys, "gb", "--m", "2", "--n", "3", "--order", "deglex")
    assert rc == 0
    # same seven elements as the lex basis here, sorted by degree first
    assert out.splitlines() == [
        "x2^4",
        "x3^4",
        "x2^2*x3",
        "x2*x3^2",
        "x1*x3 + x2^2",
        "x1*x4 + x2*x3",
        "x2*x4 + x3^2",
    ]


def test_in_takes_the_file_order_unless_order_is_given(tmp_path, capsys):
    doc = tmp_path / "i.json"
    ideal = {"vars": 2, "generators": ["x1 - x2^2"]}
    doc.write_text(json.dumps({**ideal, "order": "deglex"}))
    assert run(capsys, "gb", "--in", str(doc)) == (0, "x2^2 - x1\n", "")
    assert run(capsys, "nf", "x2^2", "--in", str(doc)) == (0, "x1\n", "")
    for argv in (["gb"], ["nf", "x2^2"]):
        rc, out, _ = run(capsys, *argv, "--in", str(doc), "--format", "json")
        assert rc == 0 and json.loads(out)["order"] == "deglex"
    # an explicit --order wins over the file's
    assert run(capsys, "gb", "--in", str(doc), "--order", "lex") == (0, "x1 - x2^2\n", "")
    assert run(capsys, "nf", "x2^2", "--in", str(doc), "--order", "lex") == (0, "x2^2\n", "")
    # a file without "order" is lex
    doc.write_text(json.dumps(ideal))
    assert run(capsys, "gb", "--in", str(doc)) == (0, "x1 - x2^2\n", "")
    assert run(capsys, "nf", "x2^2", "--in", str(doc)) == (0, "x2^2\n", "")
    assert run(capsys, "gb", "--in", str(doc), "--order", "deglex") == (0, "x2^2 - x1\n", "")


@pytest.mark.parametrize("generators", [[], ["0"]])
def test_zero_ideal_from_a_file(tmp_path, capsys, generators):
    # the zero ideal's basis is empty, and a normal form modulo it is the input
    doc = tmp_path / "zero.json"
    doc.write_text(json.dumps({"vars": 3, "generators": generators}))
    assert run(capsys, "gb", "--in", str(doc)) == (0, "", "")
    assert run(capsys, "nf", "x2^2 - 3*x1", "--in", str(doc)) == (0, "-3*x1 + x2^2\n", "")
    rc, out, _ = run(capsys, "gb", "--in", str(doc), "--format", "json")
    assert rc == 0 and json.loads(out) == {"vars": 3, "char": 0, "order": "lex", "generators": []}
    rc, out, _ = run(capsys, "nf", "x2^2 - 3*x1", "--in", str(doc), "--format", "json")
    assert rc == 0 and json.loads(out) == {
        "vars": 3,
        "char": 0,
        "order": "lex",
        "input": "-3*x1 + x2^2",
        "normal_form": "-3*x1 + x2^2",
    }


def test_unknown_order_is_a_usage_error(tmp_path, capsys):
    doc = tmp_path / "i.json"
    doc.write_text(json.dumps({"vars": 2, "order": "revlex", "generators": ["x1"]}))
    for argv in (["gb"], ["nf", "x1"], ["gb", "--order", "lex"]):
        rc, out, err = run(capsys, *argv, "--in", str(doc))
        assert rc == 2 and out == "" and "unknown monomial order 'revlex'" in err
    with pytest.raises(SystemExit) as exc:
        main(["gb", "--m", "2", "--n", "3", "--order", "revlex"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", ["vars", "char"])
def test_json_booleans_are_not_integers(tmp_path, capsys, field, value):
    # JSON true and false load as bool, an int subclass; neither is a count or a field
    doc = tmp_path / "i.json"
    doc.write_text(json.dumps({"vars": 2, "char": 0, "generators": ["x1"], field: value}))
    rc, out, err = run(capsys, "gb", "--in", str(doc))
    want = {"vars": "'vars' must be a positive integer", "char": "'char' must be an integer"}
    assert rc == 2 and out == "" and want[field] in err


def test_colon_command(capsys):
    rc, out, _ = run(capsys, "colon", "x4^2", "--m", "2", "--n", "3")
    assert rc == 0
    assert out.splitlines() == [
        "x1^2",
        "x1*x2",
        "x1*x3",
        "x1*x4 + x2*x3",
        "x2^2",
        "x2*x3^2",
        "x2*x4 + x3^2",
        "x3^4",
    ]


def test_intersect_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"vars": 4, "generators": ["x1", "x2"]}))
    b.write_text(json.dumps({"vars": 4, "generators": ["x3", "x4"]}))
    rc, out, _ = run(capsys, "intersect", "--in", str(a), "--in", str(b))
    assert rc == 0
    assert out.splitlines() == ["x1*x3", "x1*x4", "x2*x3", "x2*x4"]


def test_intersect_needs_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"vars": 2, "generators": ["x1"]}))
    rc, _, err = run(capsys, "intersect", "--in", str(a))
    assert rc == 2 and "two" in err


def test_intersect_ring_mismatch(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"vars": 2, "generators": ["x1"]}))
    b.write_text(json.dumps({"vars": 3, "generators": ["x1"]}))
    rc, _, err = run(capsys, "intersect", "--in", str(a), "--in", str(b))
    assert rc == 2 and "different rings" in err


def test_decompose_text(capsys):
    rc, out, _ = run(capsys, "decompose", "--m", "2", "--n", "3")
    assert rc == 0
    assert out.startswith("Q1:\n")
    assert "q1_stab: 2" in out
    assert "q2_stab: 1" in out
    assert "j_redundant: true" in out


def test_decompose_json(capsys):
    rc, out, _ = run(capsys, "decompose", "--m", "3", "--n", "3", "--format", "json")
    doc = json.loads(out)
    assert doc["q1_stab"] == 2 and doc["q2_stab"] == 2
    assert doc["j_redundant"] is False
    assert "x1" in doc["q1"][0]
    assert doc["vars"] == 5 and doc["order"] == "lex"


def test_closed_form_command(capsys):
    rc, out, _ = run(capsys, "closed-form", "--m", "2", "--n", "3")
    assert rc == 0 and len(out.splitlines()) == 7
    rc, out, _ = run(
        capsys, "closed-form", "--m", "3", "--n", "5", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["class"] == "general"
    assert len(doc["generators"]) == 29


def test_parse_error_is_usage_error(capsys):
    rc, _, err = run(capsys, "nf", "x1 +", "--m", "2", "--n", "3")
    assert rc == 2 and "error:" in err


def test_denominator_divisible_by_the_characteristic_is_usage_error(tmp_path, capsys):
    want = "error: denominator 3 is divisible by the characteristic 3 (position 2)\n"
    rc, out, err = run(capsys, "nf", "1/3*x1", "--m", "2", "--n", "3", "--char", "3")
    assert (rc, out, err) == (2, "", want)
    doc = tmp_path / "i.json"
    doc.write_text(json.dumps({"vars": 2, "char": 3, "generators": ["x1", "1/3*x2"]}))
    assert run(capsys, "gb", "--in", str(doc)) == (2, "", want)
    rc, _, err = run(capsys, "nf", "1/32003", "--m", "2", "--n", "3", "--char", "32003")
    assert rc == 2 and "denominator 32003 is divisible by the characteristic 32003" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, "gb", "--in", "/nonexistent/path.json")
    assert rc == 2


def test_text_output_is_deterministic(capsys):
    argv = ["verify", "--grid", "2x3,2x4", "--check", "gb"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_json_deterministic_modulo_millis(capsys):
    argv = ["verify", "--grid", "2x3", "--check", "decomp", "--format", "json"]
    main(argv)
    a = json.loads(capsys.readouterr().out)
    main(argv)
    b = json.loads(capsys.readouterr().out)
    for rep in a + b:
        rep.pop("millis")
    assert a == b


def test_one_parser_serves_consecutive_calls(capsys):
    # main() builds its parser once per process; each call must still behave
    # as on a parser of its own, an argparse error included
    argvs = [
        ["verify", "--grid", "2x3", "--check", "decomp", "--format", "json"],
        ["verify", "--grid", "3x3", "--check", "assoc"],
        ["gb", "--m", "2", "--n", "3"],
        ["verify", "--max-vars", "many"],
    ] * 2

    def outcome(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out, err = capsys.readouterr()
        return rc, re.sub(r'"millis": \d+', '"millis": 0', out), err

    cli._build_parser.cache_clear()
    shared = [outcome(argv) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 2] * 2
    assert "invalid int value: 'many'" in shared[3][2]


# sha256 of `verify --grid SHAPE --format json` with every "millis" entry
# removed, recorded before reducers were shared across membership loops.  The
# reports carry no field, so Q and GF(32003) must both give the same bytes.
VERIFY_JSON_SHA256 = {
    "2x3": "f746de9463b402fb38194a159c02121b4b2b47fcd8299b4e375fe4292d14aafe",
    "3x3": "154346f9bc53cd24e6de2f7d8561f5007a7584f66d80447dc96eb0ab73376498",
    "3x4": "8e3a74af9bac2a05eed9decdcf736ee63e7c42c945710c27740abf02ae314b7f",
    "2x6": "e45e838fd1ffafcbae8ae4e1b33155d307c731138ba7b4258bbba28c007b7d69",
    "4x5": "84a18a100ba9e4d2198e9cbb1b7bbbd871475bb1bd51ac969f69795948fa32e0",
}


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("shape", sorted(VERIFY_JSON_SHA256))
def test_verify_json_matches_recorded_digest(capsys, shape, char):
    rc, out, _ = run(capsys, "verify", "--grid", shape, "--char", str(char), "--format", "json")
    assert rc == 0
    stripped, removed = re.subn(r',\n *"millis": \d+', "", out)
    assert removed == len(json.loads(out))
    assert hashlib.sha256(stripped.encode()).hexdigest() == VERIFY_JSON_SHA256[shape]


# sha256 of the text of `colon F --m M --n N --char C` for the five divisors
# below, concatenated, recorded while a colon by a monomial of several
# variables still went one variable at a time.  2x6 prints a coefficient
# that differs between the fields.
COLON_TEXT_SHA256 = {
    ("2x6", 0): "2418d8100a7f9105e5e77dbcfefd7a53f3afdcd6802376dd2285d4e56e9e57e2",
    ("2x6", 32003): "7b92d3e8c5b185a2d04fba9a2bc53645e674e0f8c71ac77b8f66cdd4b8adff6d",
    ("3x3", 0): "a888acbef8bbd667b28e7666219c49fdcb0bc147cba6b2c7e00872e99dfdaa57",
    ("3x3", 32003): "a888acbef8bbd667b28e7666219c49fdcb0bc147cba6b2c7e00872e99dfdaa57",
    ("3x4", 0): "635e5379f53781643eecec618a4298e5d17b44ac8742f65be42f3f36fa91a943",
    ("3x4", 32003): "635e5379f53781643eecec618a4298e5d17b44ac8742f65be42f3f36fa91a943",
    ("4x4", 0): "51234559d6bb5e7065c4b3898802040b9660d52eee461669412bd7926a2a46f3",
    ("4x4", 32003): "51234559d6bb5e7065c4b3898802040b9660d52eee461669412bd7926a2a46f3",
}


@pytest.mark.parametrize("shape,char", sorted(COLON_TEXT_SHA256))
def test_colon_text_matches_recorded_digest(capsys, shape, char):
    m, n = map(int, shape.split("x"))
    N = m + n - 1
    alpha = str(alphas(Case(m, n, char))[0])
    out = ""
    for f in ("x1*x2", f"x2*x{N}^2", f"x1^2*x3*x{N}", alpha, "1 + x1"):
        rc, text, _ = run(capsys, "colon", f, "--m", str(m), "--n", str(n), "--char", str(char))
        assert rc == 0
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == COLON_TEXT_SHA256[shape, char]


def test_output_digests_script_on_2x3(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["--grid", "2x3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * 17 and not any("exit" in line for line in lines)
    digests = dict(reversed(line.split("  ", 1)) for line in lines)
    for char in (0, 32003):
        got = digests[f"verify --grid 2x3 --char {char} --format json"]
        assert got == VERIFY_JSON_SHA256["2x3"]
        # (P2 : 1 + x1) = P2, so its text is the lex basis
        shape = f"--m 2 --n 3 --char {char}"
        assert digests[f"colon 1 + x1 {shape}"] == digests[f"gb {shape} --order lex"]


def run_module(*argv):
    """`python -m permahank.cli` in a subprocess that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "permahank.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_script_entry_point():
    out = run_module("gen", "--m", "2", "--n", "3")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "x1*x3 + x2^2"


def test_usage_error_from_argparse():
    out = run_module("frobnicate")
    assert out.returncode == 2
