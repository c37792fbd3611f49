import json
import os
import warnings
from pathlib import Path

import pytest

from gcstar.cli import main
from gcstar.fixtures import bmodel_family
from gcstar.gluing import glue
from gcstar.serialization import groupoid_to_dict

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


def fixture(name):
    return str(FIXTURES / name)


def test_validate_clean_and_broken(capsys):
    assert run("validate", fixture("pair3.json")) == 0
    out = capsys.readouterr().out
    assert "ok: true" in out
    assert "seed:" not in out   # a deterministic command has no seed to echo
    assert run("validate", fixture("broken_pair3.json")) == 1


def test_unit_arrow_for_a_stray_label_fails_validation(tmp_path, capsys):
    data = json.loads((FIXTURES / "pair3.json").read_text())
    data["unit_arrows"]["ghost"] = 0
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(data))
    assert run("validate", path) == 1
    out = capsys.readouterr().out
    assert "ok: false" in out and "unit arrow given for 'ghost'" in out
    assert run("spectrum", path) == 2


def test_missing_input_is_exit_2(capsys):
    assert run("validate", "does-not-exist.json") == 2


@pytest.mark.parametrize("first_id", [0.5, True, "duplicate"])
def test_malformed_arrow_ids_are_exit_2(tmp_path, capsys, first_id):
    data = json.loads((FIXTURES / "pair3.json").read_text())
    if first_id == "duplicate":
        data["arrows"].append(dict(data["arrows"][0]))
    else:
        data["arrows"][0]["id"] = first_id
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run("validate", path) == 2
    assert "arrow" in capsys.readouterr().err


def test_fixture_directory_env_var(monkeypatch):
    monkeypatch.setenv("GCSTAR_FIXTURES", str(FIXTURES))
    assert run("validate", "pair3.json") == 0


def test_spectrum_report(capsys):
    assert run("spectrum", fixture("disjoint_pair_z2.json")) == 0
    out = capsys.readouterr().out
    assert "blocks: 3" in out
    assert "sum-of-squared-dims" not in out


@pytest.mark.parametrize("argv", [
    ("spectrum",), ("verify-decomposition", "--cover", fixture("cover_two_points.json"))])
def test_spectrum_commands_refuse_a_groupoid_that_fails_validation(argv, capsys):
    assert run(argv[0], fixture("broken_pair3.json"), *argv[1:]) == 2
    assert "input error: groupoid fails validation" in capsys.readouterr().err


def test_verify_decomposition_exit_codes(tmp_path, capsys):
    assert run("verify-decomposition", fixture("disjoint_pair_z2.json"),
               "--cover", fixture("cover_disjoint.json")) == 0
    bad = tmp_path / "bad_cover.json"
    bad.write_text(json.dumps([["1"]]))
    assert run("verify-decomposition", fixture("disjoint_pair_z2.json"),
               "--cover", str(bad)) == 2


def test_induction_checks(capsys):
    assert run("induction-checks", fixture("pair3.json"),
               "--subsets", fixture("subsets_induction.json"),
               "--trials", "3") == 0
    out = capsys.readouterr().out
    assert out.count("unitary: true") == 2 and out.count("ok: true") == 2
    assert out.count("regular-consistency: ") == 2
    assert "unitary-residual" not in out and "bijection-onto-complement" not in out


def test_glue_success_and_emission(tmp_path, capsys):
    emitted = tmp_path / "glued.json"
    assert run("glue", fixture("gluing_bmodel.json"), "--emit", emitted) == 0
    out = capsys.readouterr().out
    assert "arrows: 11" in out
    assert "reductions-isomorphic-to-pieces: true" in out
    assert json.loads(emitted.read_text()) == groupoid_to_dict(glue(bmodel_family()))


def test_glue_failures(capsys):
    assert run("glue", fixture("gluing_faulty.json")) == 1
    out = capsys.readouterr().out
    assert "cocycle" in out
    assert run("glue", fixture("gluing_unliftable.json")) == 1
    out = capsys.readouterr().out
    assert "lifting" in out


def test_glue_refuses_a_malformed_piece_as_input(tmp_path, capsys):
    data = json.loads((FIXTURES / "gluing_nested.json").read_text())
    compose = data["pieces"][0]["compose"]
    data["pieces"][0]["compose"] = [e for e in compose if e[:2] != [1, 3]]
    assert len(data["pieces"][0]["compose"]) == len(compose) - 1
    path = tmp_path / "malformed_piece.json"
    path.write_text(json.dumps(data))
    assert run("glue", path) == 2
    assert "piece 0 fails validation: [compose-domain]" in capsys.readouterr().err


def test_glue_reports_a_wrong_product_in_a_piece_before_reducing_it(tmp_path, capsys):
    # the unit product 4*4 inside the overlap redirected to arrow 0: the
    # piece's own validation speaks first, not the overlap reduction
    data = json.loads((FIXTURES / "gluing_nested.json").read_text())
    compose = data["pieces"][0]["compose"]
    data["pieces"][0]["compose"] = [[4, 4, 0] if e[:2] == [4, 4] else e for e in compose]
    assert [4, 4, 0] in data["pieces"][0]["compose"]
    path = tmp_path / "wrong_product.json"
    path.write_text(json.dumps(data))
    assert run("glue", path) == 2
    assert capsys.readouterr().err == ("input error: piece 0 fails validation: "
                                       "[product-endpoints] 4*4 = 0 has wrong endpoints\n")


def test_glue_refuses_an_overlap_map_for_a_missing_piece(tmp_path, capsys):
    data = json.loads((FIXTURES / "gluing_nested.json").read_text())
    data["isos"].append({"src": 5, "dst": 0, "map": [[4, 4]]})
    path = tmp_path / "stray_map.json"
    path.write_text(json.dumps(data))
    assert run("glue", path) == 2
    assert "non-overlapping pairs [(5, 0)]" in capsys.readouterr().err


def test_fredholm_command(capsys):
    assert run("fredholm", fixture("band_laplacian_shifted.json"),
               "--sizes", "64,128,256") == 0
    out = capsys.readouterr().out
    assert "fredholm: true" in out
    assert "minus-min-modulus: 1" in out
    assert "conjunction-identity" not in out
    assert "CONSISTENT-FREDHOLM" in out

    assert run("fredholm", fixture("band_laplacian.json"),
               "--sizes", "64,128,256") == 0
    out = capsys.readouterr().out
    assert "fredholm: false" in out
    assert "CONSISTENT-NONFREDHOLM" in out


@pytest.mark.parametrize("name, rows", [
    # a shift-dominated band: one index artifact per section, Fredholm
    ("band_shift_complex.json",
     ["fredholm: true", "minus-min-modulus: 1.4955643531",
      "plus-min-modulus: 1.80429988889", "left-fredholm: true", "right-fredholm: true",
      "counts-below-eps: [1, 1, 1]", "counts-below-window: [1, 1, 1]",
      "window: 0.0518968445695", "flag: CONSISTENT-FREDHOLM", "ok: true"]),
    # the plus symbol vanishes at theta = 0, a point of the scan grid
    ("band_critical_complex.json",
     ["fredholm: false", "minus-min-modulus: 2.5749195116", "plus-min-modulus: 0",
      "left-fredholm: true", "right-fredholm: false",
      "counts-below-eps: [0, 0, 0]", "counts-below-window: [7, 14, 27]",
      "window: 0.0818199576267", "flag: CONSISTENT-NONFREDHOLM", "ok: true"]),
])
def test_fredholm_command_on_general_bands(name, rows, capsys):
    # bandwidth 2, complex and not Hermitian: the sections go through the
    # block cyclic reduction, not the Sturm counter
    assert run("fredholm", fixture(name)) == 0
    out = capsys.readouterr().out.splitlines()
    assert [row for row in rows if row not in out] == []


@pytest.mark.parametrize("where, text, message", [
    ("limit_plus", "[NaN, 0.0]", "not finite"),
    ("limit_plus", "Infinity", "not finite"),
    ("limit_minus", "[0.0, -Infinity]", "not finite"),
    ("core", "[[0, NaN, 0.0]]", "not finite"),
    ("limit_plus", "1" + "0" * 400, "too large"),
])
def test_non_finite_band_coefficients_are_input_errors(tmp_path, capsys, where, text,
                                                       message):
    # json.load reads NaN and Infinity; no grid refinement can scan such a symbol
    data = json.loads(Path(fixture("band_laplacian.json")).read_text())
    data["diagonals"]["0"][where] = "@"
    path = tmp_path / "band.json"
    path.write_text(json.dumps(data).replace('"@"', text))
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # nor may a numpy warning leak out
        assert run("fredholm", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and message in err


@pytest.mark.parametrize("key, record, message", [
    # index 0 overridden twice in one core: neither value may silently win
    ("0", {"limit_minus": -2.0, "limit_plus": -2.0, "core": [[0, 5, 0], [0, 7, 0]]},
     "repeated core index 0"),
    # "+1" names the offset of the fixture's "1"
    ("+1", {"limit_minus": 2.0, "limit_plus": 2.0}, "repeated diagonal offset 1"),
])
def test_repeated_band_entries_are_input_errors(tmp_path, capsys, key, record, message):
    data = json.loads(Path(fixture("band_laplacian.json")).read_text())
    data["diagonals"][key] = record
    path = tmp_path / "band.json"
    path.write_text(json.dumps(data))
    assert run("fredholm", path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:") and message in err


def test_model_command(tmp_path, capsys):
    data = tmp_path / "symbol.dat"
    assert run("model", "--spec", fixture("model_b.json"),
               "--grid", "8192", "--emit-data", data) == 0
    out = capsys.readouterr().out
    assert "invertible: true" in out
    assert "matches-closed-form: true" in out
    assert data.read_text().startswith("# theta abs_symbol")

    assert run("model", "--geometry", "b", "--coefficients", "0,0,1",
               "--grid", "8192") == 0
    out = capsys.readouterr().out
    assert "invertible: false" in out


def test_model_requires_a_spec_source():
    assert run("model") == 2


@pytest.mark.parametrize("flag, value", [("--geometry", "cusp"), ("--coefficients", "1,0,1"),
                                         ("--r", "3"), ("--n", "32"), ("--h", "0.2")])
def test_model_spec_excludes_model_flags(flag, value, capsys):
    # the spec file states every model parameter; a flag beside it would be ignored
    assert run("model", "--spec", fixture("model_b.json"), flag, value) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"input error: --spec excludes {flag}\n"


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    for out in (out1, out2):
        assert run("verify-decomposition", fixture("disjoint_pair_z2.json"),
                   "--cover", fixture("cover_disjoint.json"),
                   "--seed", "5", "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_suite_stdout_holds_no_timings(monkeypatch, capsys):
    import gcstar.cli as cli
    from gcstar.suite import CriterionResult

    outputs = []
    for elapsed in (0.04, 7.3):
        results = [CriterionResult(1, "algebra-axioms", True, "worst 1e-15", elapsed),
                   CriterionResult(2, "spectrum-decomposition", False, "1 failed", elapsed)]
        monkeypatch.setattr(cli, "run_suite", lambda seed, results=results: results)
        assert run("suite", "--seed", "3") == 1
        captured = capsys.readouterr()
        outputs.append(captured.out)
        assert f"{elapsed:.1f}s" in captured.err  # timings go to the side channel
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == "criterion 1 [algebra-axioms]: PASS (worst 1e-15)"


def test_report_schema_header(tmp_path):
    out = tmp_path / "r.txt"
    assert run("spectrum", fixture("pair3.json"), "--out", out) == 0
    assert out.read_text().startswith("report-schema: 1\n")


def test_bad_tolerance_is_input_error():
    assert run("fredholm", fixture("band_laplacian.json"), "--tol-symbol", "-1") == 2


def test_flags_only_on_the_subcommands_that_read_them():
    for argv in (("induction-checks", fixture("pair3.json"), "--subsets",
                  fixture("subsets_induction.json"), "--tol-norm", "1e-9"),
                 ("validate", fixture("pair3.json"), "--seed", "0"),
                 ("fredholm", fixture("band_laplacian.json"), "--seed", "0"),
                 ("suite", "--eps", "1e-3"),
                 ("validate", fixture("pair3.json"), "--grid", "0"),
                 ("model", "--spec", fixture("model_b.json"), "--sizes", "64,128")):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2


def test_console_script_entry_point():
    import shutil
    import subprocess
    import sys

    exe = shutil.which("gcstar")
    # without an installed console script, run the module the script calls
    command = [exe] if exe else [sys.executable, "-m", "gcstar.cli"]
    proc = subprocess.run(command + ["validate", fixture("pair3.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ok: true" in proc.stdout


def test_inconclusive_symbol_scan_is_exit_2(tmp_path, capsys):
    import numpy as np

    from gcstar.serialization import dump_json

    # the symbol e^{i theta} - z, with z off the scan grid
    z = [-np.cos(0.522), -np.sin(0.522)]
    path = tmp_path / "dodgy.json"
    dump_json(path, {"diagonals": {"1": {"limit_minus": 1.0, "limit_plus": 1.0},
                                   "0": {"limit_minus": z, "limit_plus": z}}})
    assert run("fredholm", str(path), "--sizes", "64,128,256") == 2
    assert "refine grid" in capsys.readouterr().err


def test_repeated_sizes_are_exit_2(capsys):
    assert run("fredholm", fixture("band_laplacian.json"), "--sizes", "64,64") == 2
    assert "increasing" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("fredholm", fixture("band_laplacian.json"), "--eps", "nan"),
    ("fredholm", fixture("band_laplacian_shifted.json"), "--eps", "inf"),
    ("fredholm", fixture("band_laplacian.json"), "--tol-symbol", "inf"),
    ("fredholm", fixture("band_laplacian.json"), "--grid", "0"),
    ("suite", "--seed", "-1"),
    ("spectrum", fixture("pair3.json"), "--seed", "-1"),
    # with no function drawn, every norm row would pass vacuously
    ("induction-checks", fixture("pair3.json"), "--subsets",
     fixture("subsets_induction.json"), "--trials", "0"),
    ("induction-checks", fixture("pair3.json"), "--subsets",
     fixture("subsets_induction.json"), "--trials", "-2"),
    # no grid refinement can scan a symbol with a NaN or infinite coefficient
    ("model", "--geometry", "b", "--coefficients", "nan,1"),
    ("model", "--geometry", "b", "--coefficients", "1,inf"),
    ("model", "--geometry", "b", "--coefficients", "1,abc"),
    ("model", "--geometry", "b", "--coefficients", "1,2", "--h", "nan"),
    ("model", "--geometry", "cusp", "--coefficients", "1,2", "--r", "inf"),
    ("fredholm", fixture("band_laplacian.json"), "--sizes", "0,512"),
])
def test_non_finite_tolerances_and_negative_seeds_are_exit_2(argv, capsys):
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before any check runs
    assert err.startswith("input error:") and "Traceback" not in err


def test_groupoid_commands_leave_scipy_unloaded():
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    script = "\n".join([
        "import sys",
        "from gcstar.cli import main",
        f"assert main(['validate', {fixture('pair3.json')!r}]) == 0",
        f"assert main(['spectrum', {fixture('pair3.json')!r}]) == 0",
        f"assert main(['glue', {fixture('gluing_nested.json')!r}]) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
