import json

import pytest

from rankone.cli import main
from rankone.dispersion import halton, uniform_pointset
from rankone.search import (SubsetSearchParams, search_deterministic,
                            search_subset, search_uniform_multi)
from rankone.specs import tensor_from_spec
from rankone.tensor import QueryOracle


def run(args):
    return main(args)


class TestExitCodes:
    def test_plan_success(self, capsys):
        assert run(["plan", "--r", "5", "--M", "10", "--d", "5",
                    "--eps", "0.1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["regime"] == "trivial_M_small"

    def test_missing_config_file(self, capsys):
        assert run(["search", "--config", "/nonexistent.json",
                    "--strategy", "single"]) == 2

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["search", "--config", str(bad), "--strategy", "single"]) == 2

    def test_precondition_error(self, capsys):
        # adversary det with n >= 2^d violates the theorem's hypothesis
        assert run(["adversary", "--mode", "det", "--d", "2", "--n", "4"]) == 3

    @pytest.mark.parametrize("extra", [{"bogus": 1}, {"strategy": "nope"}],
                             ids=["unknown-field", "unknown-strategy"])
    def test_malformed_experiment_config(self, tmp_path, capsys, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 5, "M": 10.0, "d": 3, "eps": 0.1,
                                   "family": "shifted_smooth", **extra}))
        assert run(["approx", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.5,nan", "inf,0.5"])
    def test_non_finite_points_file(self, tmp_path, capsys, row):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0.2,0.3\n{row}\n")
        assert run(["dispersion", "--points", str(pts)]) == 3
        captured = capsys.readouterr()
        assert "dispersion" not in captured.out
        assert "finite" in captured.err

    def test_unknown_factor_kind(self, tmp_path, capsys):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps({"d": 2, "r": 1, "M": 1.0, "replicate": True,
                                    "factor": {"kind": "nope"}}))
        assert run(["search", "--config", str(spec), "--strategy", "single"]) == 2

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
    """`rankone search` reports what the matching search_* call returns."""

    @pytest.mark.parametrize("argv, direct", [
        (["--strategy", "multi"],
         lambda o: search_uniform_multi(o, 100, 5)),
        (["--strategy", "subset"],
         lambda o: search_subset(o, SubsetSearchParams.from_problem(1, 1.9, 0.2),
                                 100, 5)),
        (["--strategy", "det", "--pointset", "halton"],
         lambda o: search_deterministic(o, halton(100, 4))),
        (["--strategy", "det", "--pointset", "uniform"],
         lambda o: search_deterministic(o, uniform_pointset(100, 4, 5))),
    ], ids=["multi", "subset", "det-halton", "det-uniform"])
    def test_matches_direct_call(self, tmp_path, capsys, argv, direct):
        spec = tmp_path / "t.json"
        spec.write_text(json.dumps(BUMP_SPEC))
        assert run(["search", "--config", str(spec), "--n1", "100",
                    "--eps", "0.2", "--seed", "5", *argv]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = direct(QueryOracle(tensor_from_spec(BUMP_SPEC)))
        assert expected.found and out["found"]
        assert out["z_star"] == expected.z_star.tolist()
        assert out["value"] == expected.value
        assert out["queries_used"] == expected.queries_used
        assert out["iterations"] == expected.iterations
