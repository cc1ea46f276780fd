import csv
import json
import math
import sys
import time

import numpy as np
import pytest

from rankone.adversary import FoolingFamily
from rankone.cli import ADVERSARY_STRATEGIES, _adversary_strategy, main
from rankone.dispersion import dispersion_lower_estimate, exact_dispersion, uniform_pointset
from rankone.search import (SubsetSearchParams, run_search, search_subset,
                            search_uniform_multi)
from rankone.specs import tensor_from_spec
from rankone.tensor import QueryOracle, RankOneTensor
from rankone.univariate import polynomial_factor


def run(args):
    return main(args)


# one short pipeline trial at d = 3, in the tractable regime
APPROX_CONFIG = {"r": 5, "M": 10.0, "d": 3, "eps": 0.1, "family": "shifted_smooth",
                 "trials": 1, "seed": 1, "grid": 801, "samples": 200}


def _assert_rewrite_matches_fresh(tmp_path, longer, shorter, files):
    """Files under --out are rewritten in place and cut to their new length:
    a shorter run over a longer run's files leaves no stale tail."""
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    assert run(longer + ["--out", str(again)]) == 0
    old = (again / files[0]).read_bytes()
    assert run(shorter + ["--out", str(again)]) == 0
    assert run(shorter + ["--out", str(fresh)]) == 0
    assert len(old) > len((fresh / files[0]).read_bytes())
    for f in files:
        assert (again / f).read_bytes() == (fresh / f).read_bytes()


class TestExitCodes:
    def test_plan_success(self, capsys):
        assert run(["plan", "--r", "5", "--M", "10", "--d", "5",
                    "--eps", "0.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "trivial_M_small"

    @pytest.mark.parametrize("argv,code", [
        (["--r", "1", "--M", "1e308", "--d", "10", "--eps", "1e-300"], 3),
        (["--r", "171", "--M", "10", "--d", "3", "--eps", "0.1"], 0),
        (["--r", "151", "--M", "1e300", "--d", "3", "--eps", "0.1"], 3),
        (["--r", "2", "--M", "nan", "--d", "3", "--eps", "0.1"], 3),
    ], ids=["n2-past-float-range", "factorial-past-float-range", "subset-past-float-range",
            "nan-M"])
    def test_plan_at_the_float_range(self, capsys, argv, code):
        # each ends in a plan or a documented exit code, never a traceback;
        # a NaN M once leaked "cannot convert float NaN to integer" (exit 2)
        assert run(["plan"] + argv) == code
        if code == 0:
            assert json.loads(capsys.readouterr().out)["n2"] == 1 + 3 * 171

    def test_plan_takes_no_seed(self, capsys):
        # a plan draws nothing; --seed was accepted and never read
        with pytest.raises(SystemExit) as exc:
            run(["plan", "--r", "5", "--M", "10", "--d", "5", "--eps", "0.1", "--seed", "1"])
        assert exc.value.code == 2

    def test_det_plan_past_the_float_range(self, tmp_path, capsys):
        # n_disp_upper once took math.ceil(inf): an OverflowError traceback
        argv = ["--r", "1", "--M", "3", "--d", "100000", "--eps", "0.1", "--V", "1e-300"]
        assert run(["plan", *argv, "--deterministic"]) == 0
        assert json.loads(capsys.readouterr().out)["n1"] == math.ceil(sys.float_info.max)
        # so an approx run refuses that plan, before trial 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1, "M": 3.0, "d": 100000, "eps": 0.1, "V": 1e-300,
                                   "family": "box_support", "strategy": "det"}))
        assert run(["approx", "--config", str(cfg)]) == 3
        assert "past MAX_PLANNED_N1" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert run(["search", "--config", "/nonexistent.json",
                    "--strategy", "single"]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["search", "--config", str(bad), "--strategy", "single"]) == 2

    @pytest.mark.parametrize("case", ["out-is-a-file", "out-below-a-file",
                                      "config-is-a-directory"])
    def test_os_errors_exit_2(self, tmp_path, capsys, case):
        # each once ended in a traceback (exit 1): FileExistsError after
        # every trial had run, NotADirectoryError and IsADirectoryError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(APPROX_CONFIG))
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        argv = {"out-is-a-file": ["--config", str(cfg), "--out", str(a_file)],
                "out-below-a-file": ["--config", str(cfg), "--out", str(a_file / "sub")],
                "config-is-a-directory": ["--config", str(tmp_path)]}[case]
        assert run(["approx", *argv]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert a_file.read_text() == ""

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["no-seed", "seed"])
    @pytest.mark.parametrize("raw", [[1, 2], "cfg", 5], ids=["list", "str", "int"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, raw, seed):
        # a list once ended in a TypeError traceback with --seed, and without
        # it exited 2 with "unknown config fields: [1, 2]"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run(["approx", "--config", str(cfg), *seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: a config must be a JSON object, got ")
        assert type(raw).__name__ in err

    def test_precondition_error(self, capsys):
        # adversary det with n >= 2^d violates the theorem's hypothesis
        assert run(["adversary", "--mode", "det", "--d", "2", "--n", "4"]) == 3

    @pytest.mark.parametrize("extra", [{"bogus": 1}, {"strategy": "nope"}, {"trials": -1}],
                             ids=["unknown-field", "unknown-strategy", "negative-trials"])
    def test_malformed_experiment_config(self, tmp_path, capsys, extra):
        # a negative trials once exited 3, the only bad config field that did
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10.0, "d": 3, "eps": 0.1,
                                   "family": "shifted_smooth", **extra}))
        assert run(["approx", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["r", "M", "d", "eps"])
    def test_experiment_config_missing_a_field(self, tmp_path, capsys, missing):
        raw = {"r": 5, "M": 10.0, "d": 3, "eps": 0.1, "family": "shifted_smooth"}
        del raw[missing]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run(["approx", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"'{missing}'" in err

    def test_approx_takes_no_trials_option(self, tmp_path, capsys):
        # the config's "trials" is the one place to set it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10.0, "d": 3, "eps": 0.1,
                                   "family": "shifted_smooth"}))
        with pytest.raises(SystemExit) as exc:
            run(["approx", "--config", str(cfg), "--trials", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("extra", [
        {"grid": 0, "samples": 0}, {"grid": 1}, {"samples": 0}, {"grid": 801.0},
        {"samples": True}], ids=["grid-and-samples-0", "grid-1", "samples-0",
                                 "grid-float", "samples-bool"])
    def test_bracket_sizes_that_measure_nothing(self, tmp_path, capsys, extra):
        # grid 0 and samples 0 once gave error_upper 0.0 and every trial
        # within eps, with nothing measured
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10.0, "d": 10, "eps": 0.1,
                                   "family": "shifted_smooth", "trials": 3, **extra}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "trials.csv").exists()

    @pytest.mark.parametrize("extra, code", [({}, 3), ({"n1": 50}, 0),
                                             ({"strategy": "single"}, 0)],
                             ids=["planned", "n1-set", "single-draw"])
    def test_plan_out_of_reach(self, tmp_path, capsys, extra, code):
        # this setting plans n1 = 4.86e12 subset-search iterations, and f
        # vanishes where they look: the run once went on for minutes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 3, "M": 10.0, "d": 10, "eps": 0.1,
                                   "family": "offcenter_triangle", "trials": 2,
                                   "grid": 801, "samples": 200, **extra}))
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == code
        if code == 3:  # refused before trial 0
            assert time.perf_counter() - start < 1.0
            assert "set n1 explicitly" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("row", ["0.5,nan", "inf,0.5"])
    def test_non_finite_points_file(self, tmp_path, capsys, row):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0.2,0.3\n{row}\n")
        assert run(["dispersion", "--points", str(pts)]) == 3
        captured = capsys.readouterr()
        assert "dispersion" not in captured.out
        assert "finite" in captured.err

    @pytest.mark.parametrize("text, message", [
        ("", "no points"), ("\n\n", "no points"),
        ("0.2,0.3\n0.4\n", "different numbers of coordinates")],
        ids=["empty", "blank-lines", "ragged"])
    def test_malformed_points_file(self, tmp_path, capsys, text, message):
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        assert run(["dispersion", "--points", str(pts)]) == 3
        captured = capsys.readouterr()
        assert "dispersion" not in captured.out
        assert str(pts) in captured.err and message in captured.err

    @pytest.mark.parametrize("factor", [
        {"kind": "trig", "amplitude": "0.05", "frequency": True},
        {"kind": "polynomial-piecewise", "coefficients": ["1", True, 0.1]}],
        ids=["trig", "polynomial"])
    def test_non_numeric_factor_fields_refused(self, tmp_path, capsys, factor):
        # float() and np.asarray once read these, and the search exited 0
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 2, "M": 3.0, "replicate": True,
                                    "factor": factor}))
        assert run(["search", "--config", str(spec), "--strategy", "single"]) == 2
        assert "factor spec field" in capsys.readouterr().err

    def test_non_numeric_witness_box_refused(self, tmp_path, capsys):
        # np.asarray once read these, and the search exited 0
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 2, "M": 3.0, "replicate": True,
                                    "factor": {"kind": "trig", "amplitude": 0.05,
                                               "frequency": 1, "offset": 0.5},
                                    "witness_box": {"lower": ["0.1", False],
                                                    "upper": [True, "0.4"]}}))
        assert run(["search", "--config", str(spec), "--strategy", "single"]) == 2
        assert "witness_box field 'lower'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ([1, 2], "tensor spec must"),
        ({"d": 2, "r": 1, "M": 1.0, "factors": [5, 5]}, "'factors'"),
        ({"d": 2, "r": 1, "M": 1.0, "factors": 5}, "'factors'"),
        ({"d": 2, "r": 1, "M": 1.0, "replicate": True, "factor": 5}, "'factor'"),
        ({"d": 2, "r": 1, "M": 1.0, "replicate": True, "factors": []}, "'factors'"),
    ], ids=["spec-list", "factors-ints", "factors-int", "factor-int", "replicate-empty"])
    def test_malformed_spec_containers_refused(self, tmp_path, capsys, spec, field):
        # each of these once ended in a traceback (exit 1)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec))
        assert run(["search", "--config", str(path), "--strategy", "single"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and field in err

    def test_replicate_string_refused(self, tmp_path, capsys):
        # "false" once read as true, and the search ran on two left bumps
        left, right = ({"kind": "bump", "orientation": o} for o in ("left", "right"))
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"d": 2, "r": 1, "M": 2.0, "replicate": "false",
                                    "factor": left, "factors": [left, right]}))
        assert run(["search", "--config", str(path), "--strategy", "single"]) == 2
        assert "'replicate' must be true or false" in capsys.readouterr().err

    def test_nan_center_refused_before_any_query(self, tmp_path, capsys):
        # the NaN once passed the cube check: recover queried every line,
        # then exited 2 on an "inverted" bracket (nan > upper)
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 3, "r": 2, "M": 20.0, "replicate": True,
                                    "factor": {"kind": "trig", "amplitude": 0.3,
                                               "frequency": 1.0, "offset": 0.6}}))
        out = tmp_path / "out"
        assert run(["recover", "--config", str(spec), "--z", "nan,0.5,0.5",
                    "--budget", "61", "--out", str(out)]) == 2
        assert "outside the unit cube" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("boxes", ["0", "-5"])
    def test_estimate_without_boxes_refused(self, capsys, boxes):
        # it once printed a lower estimate of 0.0 and exited 0
        assert run(["dispersion", "--estimate", "--boxes", boxes, "--n", "10",
                    "--d", "2"]) == 3
        captured = capsys.readouterr()
        assert "dispersion" not in captured.out and "boxes" in captured.err

    def test_unknown_factor_kind(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 1, "M": 1.0, "replicate": True,
                                    "factor": {"kind": "nope"}}))
        assert run(["search", "--config", str(spec), "--strategy", "single"]) == 2

    @pytest.mark.parametrize("field, value", [("d", 2.5), ("r", 2.9), ("d", True),
                                              ("r", "2")])
    def test_fractional_spec_dimensions_refused(self, tmp_path, capsys, field, value):
        # int() once truncated these, so "d": 2.5 ran a 2-D search and exited 0
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 2, "M": 3.0, "replicate": True,
                                    "factor": {"kind": "trig", "amplitude": 0.05,
                                               "frequency": 1, "offset": 0.5},
                                    field: value}))
        assert run(["search", "--config", str(spec), "--strategy", "single"]) == 2
        assert f"tensor spec field '{field}' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["search", "--strategy", "single"],
        ["recover", "--z", "0.3,0.6", "--budget", "21"]], ids=["search", "recover"])
    @pytest.mark.parametrize("field, value", [
        ("M", True), ("M", float("nan")), ("M", float("inf")), ("M", -5), ("M", "10"),
        ("V", True), ("V", "0.5")])
    def test_non_numeric_spec_bounds_refused(self, tmp_path, capsys, command, field, value):
        # float() once read these, so "M": true ran at M = 1 and exited 0
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 2, "M": 3.0, "replicate": True,
                                    "factor": {"kind": "trig", "amplitude": 0.05,
                                               "frequency": 1, "offset": 0.5},
                                    field: value}))
        assert run(command[:1] + ["--config", str(spec)] + command[1:]) == 2
        assert f"tensor spec field '{field}' must be" in capsys.readouterr().err

    @pytest.mark.parametrize("config_d, spec_d", [(2, 6), (6, 2)])
    def test_spec_and_config_dimensions_must_agree(self, tmp_path, capsys, config_d, spec_d):
        # the run plans n2 with the config's d: at d = 2 against a 6-D spec
        # it exited 3 naming neither field, at d = 6 against a 2-D spec it
        # spent a 6-D budget on 2 lines and exited 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r": 2, "M": 3.0, "d": config_d, "eps": 0.1, "n1": 5, "trials": 1,
            "tensor_spec": {"d": spec_d, "r": 2, "M": 3.0, "replicate": True,
                            "factor": {"kind": "trig", "amplitude": 0.05,
                                       "frequency": 1, "offset": 0.5}}}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"config error: tensor_spec d = {spec_d} differs from the config's "
                f"d = {config_d}") in capsys.readouterr().err
        assert not out.exists()

    def test_table_past_r1_refused(self, tmp_path, capsys):
        # a piecewise-linear table has no bounded second derivative, so no
        # error bracket holds for it at r = 2
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "d": 2, "r": 2, "M": 8.0, "replicate": True,
            "factor": {"kind": "explicit-table", "ts": [0, 0.5, 1],
                       "values": [0.2, 1.0, 0.2], "sup_bound": 1.0,
                       "deriv_bound": 1.6}}))
        out = tmp_path / "out"
        assert run(["recover", "--config", str(spec), "--z", "0.5,0.5",
                    "--budget", "41", "--out", str(out)]) == 2
        assert "piecewise-linear" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        {"r": "5"}, {"r": 2.5}, {"d": 3.0}, {"eps": "0.1"}, {"trials": "1"},
        {"tensor_spec": 5}, {"n1": 2.5}, {"seed": True}, {"M": None},
        {"strategy": None}, {"family": ["shifted_smooth"]}],
        ids=["r-str", "r-float", "d-float", "eps-str", "trials-str", "tensor_spec-int",
             "n1-float", "seed-bool", "M-null", "strategy-null", "family-list"])
    def test_mistyped_experiment_config(self, tmp_path, capsys, extra):
        # each of these once ended in a TypeError traceback (exit 1) or,
        # for n1 = 2.5, ran
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10.0, "d": 3, "eps": 0.1,
                                   "family": "shifted_smooth", "trials": 2,
                                   "grid": 801, "samples": 200, **extra}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {next(iter(extra))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_integers_accepted_as_reals(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10, "d": 3, "eps": 0.1, "p": 0.5,
                                   "family": "shifted_smooth", "trials": 1, "n1": None,
                                   "grid": 801, "samples": 200}))
        assert run(["approx", "--config", str(cfg)]) == 0

    def test_bump_peak_inside_the_cube_refused(self, tmp_path, capsys):
        # a left bump on [0.33, 0.93] jumps from 0 to 1 at 0.33, so it is
        # outside the class whatever derivative bound it declares
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 1, "M": 4.0, "replicate": True,
                                    "factor": {"kind": "bump", "orientation": "left",
                                               "interval": [0.33, 0.93]}}))
        assert run(["recover", "--config", str(spec), "--z", "0.4,0.4",
                    "--budget", "81"]) == 3
        assert "peak end" in capsys.readouterr().err

    @pytest.mark.parametrize("command, spec", [
        (["search", "--strategy", "single"],
         {"d": 2, "r": 200, "M": 1.0, "replicate": True,
          "factor": {"kind": "bump", "orientation": "left"}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 2, "M": 1.0, "replicate": True,
          "factor": {"kind": "bump", "orientation": "left", "interval": [0.0, 1e-200]}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 2, "M": 1.0, "replicate": True,
          "factor": {"kind": "trig", "amplitude": 0.3, "frequency": 1e300, "offset": 0.6}}),
        (["recover", "--z", "0.3,0.6", "--budget", "21"],
         {"d": 2, "r": 2, "M": 1.0, "replicate": True,
          "factor": {"kind": "trig", "amplitude": 0.3, "frequency": 1e300, "offset": 0.6}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 1, "M": 1.0, "replicate": True,
          "factor": {"kind": "trig", "amplitude": 1e308, "frequency": 0.0, "offset": 1e308}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 1, "M": 1.0, "replicate": True,
          "factor": {"kind": "trig", "amplitude": 0.0, "frequency": 0.0, "offset": 1e200}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 1, "M": 1.0, "replicate": True,
          "factor": {"kind": "polynomial-piecewise", "coefficients": [1e308, 1e308]}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 1, "M": 1.0, "replicate": True,
          "factor": {"kind": "polynomial-piecewise", "coefficients": [0, 0, 1e308, 1e308]}}),
        (["search", "--strategy", "single"],
         {"d": 2, "r": 1, "M": 1.0, "replicate": True,
          "factor": {"kind": "polynomial-piecewise",
                     "coefficients": [0, 1e308, -1e308, 1e308]}}),
    ], ids=["bump-r200", "bump-h-underflow", "trig-search", "trig-recover", "trig-sup-bound",
            "sup-bound-product", "polynomial-sup-bound", "polynomial-derivative-overflows",
            "polynomial-derivative-bound"])
    def test_spec_bounds_past_the_float_range(self, tmp_path, capsys, command, spec):
        # r!/h^r and (2 pi k)^r once ended in OverflowError or
        # ZeroDivisionError tracebacks (exit 1); a sup bound |a| + |c| of inf,
        # a product of in-range sup bounds past the range, and a polynomial's
        # sup bound of inf once let search print "value": Infinity, which is
        # not JSON, and exit 0; a polynomial whose derivative's coefficients
        # overflow once exited 2 with numpy's LinAlgError
        path = tmp_path / "t.json"
        path.write_text(json.dumps(spec))
        assert run([command[0], "--config", str(path), *command[1:]]) == 3
        err = capsys.readouterr().err
        assert "past the float range" in err and err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["ran", "det"])
    def test_adversary_past_the_float_range(self, capsys, mode):
        # M = 2^r r! leaves the float range at r = 151
        argv = ["adversary", "--mode", mode, "--d", "3", "--n", "3", "--trials", "2"]
        assert run(argv + ["--r", "150"]) == 0
        assert run(argv + ["--r", "151"]) == 3
        assert "past the float range" in capsys.readouterr().err

    @pytest.mark.parametrize("family, r", [("shifted_smooth", 171), ("trig_smooth", 400)])
    def test_families_past_the_float_range(self, tmp_path, capsys, family, r):
        # M / r! and (2 pi)^r once raised OverflowError
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": r, "M": 10.0, "eps": 0.1, "d": 3, "family": family,
                                   "trials": 2, "seed": 3}))
        assert run(["approx", "--config", str(cfg)]) == 3
        assert "float range" in capsys.readouterr().err

    def test_many_small_pieces_at_high_order(self, tmp_path):
        # r = 160 on 625 pieces: the barycentric weights 1/prod (x_i - x_l)
        # once overflowed, and the bracket came out NaN (exit 2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 160, "M": 10.0, "eps": 0.1, "d": 2,
                                   "family": "trig_smooth", "trials": 1, "n2": 100000,
                                   "grid": 801, "samples": 200}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_error_upper"] == pytest.approx(1.6087131626818518e-13, rel=1e-6)

    def test_spec_support_volume_must_match_config(self, tmp_path, capsys):
        # the run was planned with the config's V = 0.3 and exited 0
        spec = {"d": 2, "r": 1, "M": 3.0, "V": 0.04, "replicate": True,
                "factor": {"kind": "bump", "orientation": "left", "interval": [0.0, 0.4]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1, "M": 3.0, "eps": 0.1, "d": 2, "V": 0.3,
                                   "trials": 1, "tensor_spec": spec}))
        assert run(["approx", "--config", str(cfg)]) == 2
        assert "tensor_spec V = 0.04" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [2500, 2600])
    def test_subnormal_upper_end_refused(self, tmp_path, capsys, d):
        # f(z*) is subnormal: d = 2500 exited 0 with an upper end of 7.07e-314,
        # d = 2600 exited 2 with "error bracket inverted (5e-324 > 0.0)"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10.0, "eps": 0.1, "d": d,
                                   "family": "trig_smooth", "trials": 1, "grid": 101,
                                   "samples": 1, "seed": 0}))
        assert run(["approx", "--config", str(cfg)]) == 3
        assert "outside the normal float range" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, code", [(1e-170, 3), (1e-160, 3), (0.0, 0)],
                             ids=["miss", "hit", "zero"])
    def test_upper_end_of_constant_factors(self, tmp_path, capsys, offset, code):
        # f = offset^2: at 1e-170 it rounds to 0.0 and phase 1 misses, at
        # 1e-160 it is subnormal and phase 1 hits; both once exited 0 with an
        # upper end of 0.0.  An identically zero f has the exact upper end 0.0
        spec = {"d": 2, "r": 1, "M": 0.01, "replicate": True,
                "factor": {"kind": "trig", "amplitude": 0.0, "frequency": 1.0,
                           "offset": offset}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1, "M": 0.01, "eps": 0.1, "d": 2, "trials": 2,
                                   "tensor_spec": spec}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            assert "outside the normal float range" in capsys.readouterr().err
        else:
            summary = json.loads((out / "summary.json").read_text())
            assert summary["found"] == 0 and summary["max_error_upper"] == 0.0

    @pytest.mark.parametrize("zero_at", [0, 2])
    def test_a_zero_factor_makes_the_upper_end_exact(self, tmp_path, zero_at):
        # prod_i sup_bound_i is 0.0 because a factor is zero, not because
        # tiny factors underflowed: the zero output is exact, and exits 0
        factors = [{"kind": "trig", "amplitude": 0.0, "frequency": 1.0, "offset": 1e-200}
                   for _ in range(3)]
        factors[zero_at]["offset"] = 0.0
        spec = {"d": 3, "r": 1, "M": 0.01, "factors": factors}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1, "M": 0.01, "eps": 0.1, "d": 3, "trials": 2,
                                   "tensor_spec": spec}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["found"] == 0 and summary["max_error_upper"] == 0.0

    def test_budget_error(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "d": 3, "r": 3, "M": 1.0, "replicate": True,
            "factor": {"kind": "polynomial-piecewise",
                       "coefficients": [0.5, 0.1]}}))
        assert run(["recover", "--config", str(spec), "--z", "0.5,0.5,0.5",
                    "--budget", "5"]) == 3


class TestOutputs:
    def test_approx_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r": 5, "M": 10.0, "d": 3, "eps": 0.1,
            "family": "shifted_smooth", "trials": 3, "seed": 1,
            "grid": 801, "samples": 200}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert lines[0].startswith("trial,seed,queries_phase1")
        assert len(lines) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trials"] == 3

    def test_subset_search_with_wide_window_stays_in_cube(self, tmp_path, capsys,
                                                          monkeypatch):
        # r=4, M=10, eps=0.1 plans the subset search with delta* = 0.553,
        # whose window [1/2 - delta*, 1/2 + delta*] leaves the cube
        queries = []

        def logged(method):
            def query(self, x):
                queries.append(np.array(x, ndmin=2))
                return method(self, x)
            return query

        for name in ("evaluate", "evaluate_batch"):
            monkeypatch.setattr(QueryOracle, name, logged(getattr(QueryOracle, name)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r": 4, "M": 10.0, "d": 10, "eps": 0.1,
            "family": "shifted_smooth", "trials": 3, "seed": 7,
            "grid": 801, "samples": 200}))
        out = tmp_path / "out"
        assert run(["approx", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["plan"]["regime"] == "subset_search"
        assert summary["found"] == 3
        X = np.vstack(queries)
        assert X.shape[1] == 10 and np.all((X >= 0.0) & (X <= 1.0))

    @pytest.mark.parametrize("argv, expected", [
        ("--r 5 --M 10 --d 5 --eps 0.1",
         {"regime": "trivial_M_small", "n1": 1, "n2": 26, "success_prob_lower": 1.0,
          "inputs": {"r": 5, "M": 10.0, "d": 5, "eps": 0.1, "V": None, "p": 0.5}}),
        ("--r 2 --M 5 --d 3 --eps 0.5",
         {"regime": "subset_search", "n1": 920775, "n2": 13,
          "success_prob_lower": 0.5000003585530866,
          "inputs": {"r": 2, "M": 5.0, "d": 3, "eps": 0.5, "V": None, "p": 0.5},
          "subset_params": {"delta_star": 0.07008771254956903, "d_star": 4,
                            "alpha": 4.696784962986374, "c_prob": 7627.668981262186}}),
        ("--r 1 --M 2 --d 5 --eps 0.1 --V 0.3",
         {"regime": "support_class_random", "n1": 2, "n2": 261, "success_prob_lower": 0.51,
          "inputs": {"r": 1, "M": 2.0, "d": 5, "eps": 0.1, "V": 0.3, "p": 0.5}}),
        ("--r 1 --M 2 --d 5 --eps 0.1 --V 0.3 --deterministic",
         {"regime": "support_class_deterministic", "n1": 1450, "n2": 261,
          "success_prob_lower": 1.0,
          "inputs": {"r": 1, "M": 2.0, "d": 5, "eps": 0.1, "V": 0.3, "p": 0.5}}),
        ("--r 1 --M 2 --d 5 --eps 0.1 --p 0.25",
         {"regime": "intractable", "n1": 32, "n2": 261, "success_prob_lower": 0.0,
          "inputs": {"r": 1, "M": 2.0, "d": 5, "eps": 0.1, "V": None, "p": 0.25}}),
    ], ids=["trivial", "subset", "support-random", "support-deterministic", "intractable"])
    def test_plan_json_pinned(self, tmp_path, capsys, argv, expected):
        out = tmp_path / "plan"
        assert run(["plan", *argv.split(), "--out", str(out)]) == 0
        assert (out / "plan.json").read_text() == json.dumps(expected, indent=2) + "\n"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "r": 5, "M": 10.0, "d": 3, "eps": 0.1,
            "family": "shifted_smooth", "trials": 3, "seed": 1,
            "grid": 801, "samples": 200}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["approx", "--config", str(cfg), "--out", str(out)])
            outs.append((out / "trials.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_approx_rewrite_over_a_longer_file(self, tmp_path, capsys):
        argv = {}
        for trials in (3, 1):
            cfg = tmp_path / f"trials{trials}.json"
            cfg.write_text(json.dumps({**APPROX_CONFIG, "trials": trials}))
            argv[trials] = ["approx", "--config", str(cfg)]
        _assert_rewrite_matches_fresh(tmp_path, argv[3], argv[1],
                                      ["trials.csv", "summary.json"])

    def test_adversary_rewrite_over_a_longer_file(self, tmp_path, capsys):
        argv = ["adversary", "--mode", "ran", "--d", "4", "--n", "8", "--trials"]
        _assert_rewrite_matches_fresh(tmp_path, argv + ["50"], argv + ["5"],
                                      ["adversary_trials.csv", "adversary.json"])

    def test_recover_byte_identical_reruns(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "d": 3, "r": 3, "M": 60.0,
            "factors": [{"kind": "trig", "amplitude": 0.4, "frequency": 0.5,
                         "phase": 0.3, "offset": 0.5},
                        {"kind": "polynomial-piecewise",
                         "coefficients": [0.5, 0.2, -0.1, 0.05]},
                        {"kind": "trig", "amplitude": 0.3, "frequency": 1.0,
                         "phase": 0.1, "offset": 0.6}]}))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["recover", "--config", str(spec), "--z", "0.3,0.6,0.2",
                        "--budget", "91", "--out", str(out)]) == 0
            outs.append([(out / f).read_bytes() for f in ("approximant.json", "error.csv")])
        assert outs[0] == outs[1]
        axes = json.loads(outs[0][0])["axes"]
        assert len(axes) == 3 and all(len(a["coefficients"]) == 10 for a in axes)

    def test_recover_prints_one_json_object(self, tmp_path, capsys):
        # stdout once ended in a text line after the JSON, so json.load of it
        # failed with "Extra data"; the bracket and query count now sit in the
        # object, with the values error.csv holds under --out
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 1, "M": 1.0, "replicate": True,
                                    "factor": {"kind": "polynomial-piecewise",
                                               "coefficients": [0.5, 0.2]}}))
        argv = ["recover", "--config", str(spec), "--z", "0.3,0.6", "--budget", "11"]
        assert run(argv) == 0
        obj = json.loads(capsys.readouterr().out)
        assert list(obj) == ["center_value", "axes", "error_upper", "error_lower", "queries"]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "approximant.json").read_text()) == obj
        with open(out / "error.csv") as fh:
            row, = csv.DictReader(fh)
        assert row == {k: repr(obj[k]) for k in ("error_upper", "error_lower", "queries")}
        assert obj["queries"] == 11 and 0 <= obj["error_lower"] <= obj["error_upper"]

    @pytest.mark.parametrize("n, d, seed", [(40, 2, 0), (20, 3, 5)])
    def test_dispersion_of_uniform_points(self, capsys, n, d, seed):
        argv = ["dispersion", "--generator", "uniform", "--n", str(n), "--d", str(d),
                "--seed", str(seed)]
        ps = uniform_pointset(n, d, seed)
        assert run(argv) == 0
        res = exact_dispersion(ps)
        assert json.loads(capsys.readouterr().out) == {
            "dispersion": res.value, "n": n, "d": d,
            "witness_box": {"lower": res.witness_box.lower.tolist(),
                            "upper": res.witness_box.upper.tolist()}}
        assert run(argv + ["--estimate", "--boxes", "500"]) == 0
        value = dispersion_lower_estimate(ps, boxes=500, seed=seed)
        assert json.loads(capsys.readouterr().out) == {
            "dispersion_lower_estimate": value, "n": n, "d": d}
        assert 0 < value <= res.value

    def test_dispersion_export_roundtrip(self, tmp_path, capsys):
        exported = tmp_path / "pts.csv"
        assert run(["dispersion", "--generator", "halton", "--n", "10",
                    "--d", "2", "--export", str(exported)]) == 0
        first = capsys.readouterr().out
        assert run(["dispersion", "--points", str(exported)]) == 0
        second = capsys.readouterr().out
        v1 = json.loads(first[first.index("{"):])
        v2 = json.loads(second[second.index("{"):])
        assert v1["dispersion"] == v2["dispersion"]

    def test_search_json(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({
            "d": 2, "r": 1, "M": 1.0, "replicate": True,
            "factor": {"kind": "polynomial-piecewise",
                       "coefficients": [0.5, 0.2]}}))
        assert run(["search", "--config", str(spec),
                    "--strategy", "single"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"] is True and out["queries_used"] == 1

    def test_adversary_ran_outputs(self, tmp_path, capsys):
        out = tmp_path / "adv"
        assert run(["adversary", "--mode", "ran", "--d", "4", "--n", "8",
                    "--trials", "20", "--strategy", "zero",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "adversary.json").read_text())
        assert summary["rms_error"] == pytest.approx(1.0)
        lines = (out / "adversary_trials.csv").read_text().strip().splitlines()
        assert len(lines) == 21

    @pytest.mark.parametrize("strategy", ["zero", "halton-scan", "uniform-recover"])
    def test_adversary_det_runs_every_strategy(self, tmp_path, capsys, strategy):
        # uniform-recover was once refused in det mode (exit 3)
        out = tmp_path / "adv"
        assert run(["adversary", "--mode", "det", "--d", "4", "--n", "15",
                    "--strategy", strategy, "--out", str(out)]) == 0
        summary = json.loads((out / "adversary.json").read_text())
        assert summary["mode"] == "det" and summary["certified_error_lower"] >= 1.0
        assert 0 <= summary["untouched_orthant"] < 16

    def test_adversary_ran_halton_scan(self, tmp_path, capsys):
        # halton-scan was once refused in ran mode (exit 3); it never
        # recovers, so every trial errs by sup|f| = 1
        out = tmp_path / "adv"
        assert run(["adversary", "--mode", "ran", "--d", "6", "--n", "32",
                    "--trials", "30", "--strategy", "halton-scan",
                    "--out", str(out)]) == 0
        summary = json.loads((out / "adversary.json").read_text())
        assert summary["rms_error"] == 1.0 and summary["passes_floor"] is True
        lines = (out / "adversary_trials.csv").read_text().splitlines()
        assert lines[0] == "trial,error" and lines[1:] == [f"{t},1.0" for t in range(30)]

    def test_adversary_ran_up_to_d_64(self, capsys):
        # d = 64 once exited 2 with numpy's "high is out of bounds for
        # int64", from drawing the orthant index 0 <= k < 2^64
        argv = ["adversary", "--mode", "ran", "--n", "4", "--trials", "3"]
        assert run(argv + ["--d", "64"]) == 0
        assert json.loads(capsys.readouterr().out)["rms_error"] == 1.0
        assert run(argv + ["--d", "65"]) == 3
        assert "needs d <= 64" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("mode", ["det", "ran"])
    @pytest.mark.parametrize("strategy", ["zero", "halton-scan", "uniform-recover"])
    def test_adversary_refuses_a_budget_below_one(self, tmp_path, capsys, strategy, mode, n):
        # zero once exited 0 here, with "n": -1 in adversary.json
        out = tmp_path / "adv"
        assert run(["adversary", "--mode", mode, "--d", "4", f"--n={n}", "--trials", "5",
                    "--strategy", strategy, "--out", str(out)]) == 3
        assert "--n must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_det_form_runs_the_strategy_at_seed_0(self):
        det, ran = _adversary_strategy("uniform-recover", 4)
        logs = []
        for strategy in (det, lambda oracle: ran(oracle, 0)):
            oracle = QueryOracle(FoolingFamily(d=4, r=1).zero_member(), budget=15, log=True)
            assert strategy(oracle) is None
            logs.append(np.array(oracle.query_log))
        assert len(logs[0]) == 7
        np.testing.assert_array_equal(logs[0], logs[1])

    @pytest.mark.parametrize("budget", [3, 5, 6])
    def test_uniform_recover_needs_a_phase_2_budget(self, budget):
        # the search hits at its first query on a nonzero constant; the
        # budget - 1 queries left recover only if they reach min_budget(2, 1) = 5,
        # otherwise the output is zero
        t = RankOneTensor(factors=(polynomial_factor([0.5], 1),) * 2, r=1, M=1.0)
        oracle = QueryOracle(t, budget=budget)
        out = ADVERSARY_STRATEGIES["uniform-recover"](oracle, 0)
        assert (out is None) == (budget - 1 < 5)
        assert oracle.query_count == (1 if out is None else budget)

    @pytest.mark.parametrize("argv, files", [
        (["curves", "--d", "2", "--r", "2", "--budgets", "12,24,48,96"],
         ["curve.csv", "curve.json"]),
        (["adversary", "--mode", "ran", "--d", "4", "--n", "8", "--trials", "5"],
         ["adversary_trials.csv", "adversary.json"]),
        (["recover", "--z", "0.3,0.6", "--budget", "11"],
         ["approximant.json", "error.csv"]),
    ], ids=["curves", "adversary", "recover"])
    def test_each_file_under_out_is_announced(self, tmp_path, capsys, argv, files):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 1, "M": 1.0, "replicate": True,
                                    "factor": {"kind": "polynomial-piecewise",
                                               "coefficients": [0.5, 0.2]}}))
        if argv[0] == "recover":
            argv = argv + ["--config", str(spec)]
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote {out / f}" for f in files]
        assert sorted(f.name for f in out.iterdir()) == sorted(files)

    def test_curves_outputs_slope(self, tmp_path, capsys):
        out = tmp_path / "cv"
        assert run(["curves", "--d", "2", "--r", "2",
                    "--budgets", "12,24,48,96", "--out", str(out)]) == 0
        summary = json.loads((out / "curve.json").read_text())
        assert summary["slope"] < -1.5


# nonzero exactly where every coordinate exceeds 1/2: a hit has probability 1/16
BUMP_SPEC = {"d": 4, "r": 1, "M": 1.9, "replicate": True,
             "factor": {"kind": "bump", "orientation": "right"}}


class TestSearchStrategies:
    """`rankone search` reports what the matching direct call returns."""

    @pytest.mark.parametrize("argv, direct", [
        (["--strategy", "multi"],
         lambda o: search_uniform_multi(o, 100, 5)),
        (["--strategy", "subset"],
         lambda o: search_subset(o, SubsetSearchParams.from_problem(1, 1.9, 0.2),
                                 100, 5)),
        (["--strategy", "det"],
         lambda o: run_search("det", o, 100, 5)),
    ], ids=["multi", "subset", "det-halton"])
    def test_matches_direct_call(self, tmp_path, capsys, argv, direct):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(BUMP_SPEC))
        assert run(["search", "--config", str(spec), "--n1", "100",
                    "--eps", "0.2", "--seed", "5", *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        oracle = QueryOracle(tensor_from_spec(BUMP_SPEC))
        expected = direct(oracle)
        assert expected.found and out["found"]
        assert out["z_star"] == expected.z_star.tolist()
        assert out["value"] == expected.value
        assert out["queries_used"] == oracle.query_count
        assert out["iterations"] == expected.iterations

    def test_det_past_any_buildable_prefix(self, tmp_path, capsys):
        # the scan builds its chunks as it goes: n1 = 10^12 once asked for
        # all 10^12 points up front (7.3 TiB) and hit at iteration 47
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(BUMP_SPEC))
        assert run(["search", "--config", str(spec), "--strategy", "det",
                    "--n1", "1000000000000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["found"] and out["iterations"] == 47
        assert out["queries_used"] == 63  # the chunks of 1, 2, ..., 32 points
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 1, "M": 1.9, "eps": 0.1, "d": 4, "tensor_spec": BUMP_SPEC,
                                   "strategy": "det", "n1": 10 ** 12, "trials": 1,
                                   "grid": 801, "samples": 200}))
        assert run(["approx", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "trials.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["found"] == "true" and row["queries_phase1"] == "63"

    def test_pointset_option_refused(self, tmp_path, capsys):
        # det scans the Halton prefix only; --pointset uniform once scanned
        # a set drawn from --seed
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(BUMP_SPEC))
        with pytest.raises(SystemExit) as exc:
            run(["search", "--config", str(spec), "--strategy", "det",
                 "--pointset", "uniform"])
        assert exc.value.code == 2
