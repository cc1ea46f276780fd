import numpy as np
import pytest

from rankone.errors import ConfigError, ParameterError
from rankone.recovery import RecoveryConfig, recover
from rankone.specs import approximant_to_dict, factor_from_spec, tensor_from_spec
from rankone.tensor import QueryOracle


class TestFactorFromSpec:
    def test_bump(self):
        f = factor_from_spec({"kind": "bump", "orientation": "left"}, 2)
        assert float(f(0.0)) == pytest.approx(1.0)

    def test_trig(self):
        f = factor_from_spec({"kind": "trig", "amplitude": 0.2,
                              "frequency": 1.0, "offset": 0.7}, 1)
        assert float(f(0.0)) == pytest.approx(0.7)

    def test_polynomial(self):
        f = factor_from_spec({"kind": "polynomial-piecewise",
                              "coefficients": [0.5, 0.5]}, 1)
        assert float(f(1.0)) == pytest.approx(1.0)

    def test_table(self):
        f = factor_from_spec({"kind": "explicit-table", "ts": [0, 1],
                              "values": [0, 1], "sup_bound": 1.0,
                              "deriv_bound": 1.0}, 1)
        assert float(f(0.5)) == pytest.approx(0.5)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            factor_from_spec({"kind": "mystery"}, 1)

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "trig", "amplitude": "0.05", "frequency": 1.0}, "amplitude"),
        ({"kind": "trig", "amplitude": 0.05, "frequency": True}, "frequency"),
        ({"kind": "trig", "amplitude": 0.05, "frequency": 1.0, "phase": None}, "phase"),
        ({"kind": "trig", "amplitude": 0.05, "frequency": 1.0, "offset": float("nan")},
         "offset"),
        ({"kind": "polynomial-piecewise", "coefficients": ["1", True, 0.1]},
         "coefficients"),
        ({"kind": "polynomial-piecewise", "coefficients": 0.5}, "coefficients"),
        ({"kind": "explicit-table", "ts": [0, "1"], "values": [0, 1], "sup_bound": 1.0,
          "deriv_bound": 1.0}, "ts"),
        ({"kind": "explicit-table", "ts": [0, 1], "values": [False, 1], "sup_bound": 1.0,
          "deriv_bound": 1.0}, "values"),
        ({"kind": "explicit-table", "ts": [0, 1], "values": [0, 1], "sup_bound": "1",
          "deriv_bound": 1.0}, "sup_bound"),
        ({"kind": "explicit-table", "ts": [0, 1], "values": [0, 1], "sup_bound": 1.0,
          "deriv_bound": float("inf")}, "deriv_bound"),
        ({"kind": "bump", "orientation": "left", "interval": [0, "0.5"]}, "interval"),
        ({"kind": "bump", "orientation": "left", "interval": [0.0]}, "interval"),
        ({"kind": "bump", "orientation": "right", "interval": [0.5, 1, 2]}, "interval"),
    ], ids=["trig-amplitude-str", "trig-frequency-bool", "trig-phase-null",
            "trig-offset-nan", "poly-mixed", "poly-scalar", "table-ts", "table-values",
            "table-sup-bound", "table-deriv-bound", "bump-str", "bump-short", "bump-long"])
    def test_non_numeric_fields_refused(self, spec, field):
        # float() and np.asarray once read strings and bools as numbers
        with pytest.raises(ConfigError, match=f"factor spec field '{field}'"):
            factor_from_spec(spec, 1)

    def test_integers_and_huge_integers(self):
        f = factor_from_spec({"kind": "trig", "amplitude": 1, "frequency": 2,
                              "phase": 0, "offset": 3}, 1)
        assert f.params == (1.0, 2.0, 0.0, 3.0)
        with pytest.raises(ConfigError, match="'amplitude'"):
            factor_from_spec({"kind": "trig", "amplitude": 10 ** 400, "frequency": 1}, 1)


class TestTensorFromSpec:
    def test_replicate(self):
        t = tensor_from_spec({"d": 3, "r": 1, "M": 2.0, "replicate": True,
                              "factor": {"kind": "bump", "orientation": "left"}})
        assert t.d == 3 and t.value(np.zeros(3)) == pytest.approx(1.0)

    def test_explicit_factors(self):
        t = tensor_from_spec({
            "d": 2, "r": 1, "M": 2.0,
            "factors": [{"kind": "bump", "orientation": "left"},
                        {"kind": "bump", "orientation": "right"}]})
        assert t.value(np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_factor_count_mismatch(self):
        with pytest.raises(ParameterError):
            tensor_from_spec({"d": 3, "r": 1, "M": 1.0,
                              "factors": [{"kind": "bump", "orientation": "left"}]})

    @pytest.mark.parametrize("spec, message", [
        ([1, 2], "tensor spec must be an object"),
        ({"d": 2, "r": 1, "M": 1.0, "factors": [5, 5]},
         "tensor spec field 'factors' must be a list of objects"),
        ({"d": 2, "r": 1, "M": 1.0, "factors": 5},
         "tensor spec field 'factors' must be a list of objects"),
        ({"d": 2, "r": 1, "M": 1.0, "replicate": True, "factor": 5},
         "tensor spec field 'factor' must be an object"),
        ({"d": 2, "r": 1, "M": 1.0, "replicate": True, "factors": []},
         "needs a 'factor' or a non-empty 'factors'"),
        ({"d": 2, "r": 1, "M": 1.0, "replicate": True},
         "needs a 'factor' or a non-empty 'factors'"),
    ], ids=["spec-list", "factors-ints", "factors-int", "factor-int", "replicate-empty",
            "replicate-none"])
    def test_malformed_containers_refused(self, spec, message):
        # these once raised AttributeError, TypeError or IndexError
        with pytest.raises(ConfigError, match=message):
            tensor_from_spec(spec)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
    def test_replicate_must_be_a_bool(self, value):
        # "false" once read as true: a left factor and factors [left, right]
        # built two left bumps
        left, right = ({"kind": "bump", "orientation": o} for o in ("left", "right"))
        with pytest.raises(ConfigError, match="'replicate' must be true or false"):
            tensor_from_spec({"d": 2, "r": 1, "M": 2.0, "replicate": value,
                              "factor": left, "factors": [left, right]})

    def test_replicate_false_uses_factors(self):
        left, right = ({"kind": "bump", "orientation": o} for o in ("left", "right"))
        t = tensor_from_spec({"d": 2, "r": 1, "M": 2.0, "replicate": False,
                              "factor": left, "factors": [left, right]})
        assert t.value(np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_replicate_from_first_of_factors(self):
        bump = {"kind": "bump", "orientation": "left"}
        t = tensor_from_spec({"d": 3.0, "r": 1, "M": 2.0, "replicate": True,
                              "factors": [bump]})
        assert t.d == 3 and t.value(np.zeros(3)) == pytest.approx(1.0)

    def test_missing_field(self):
        with pytest.raises(ParameterError):
            tensor_from_spec({"d": 2, "r": 1})

    def test_witness_box(self):
        t = tensor_from_spec({"d": 2, "r": 1, "M": 2.0, "V": 0.04,
                              "replicate": True,
                              "factor": {"kind": "bump", "orientation": "left"},
                              "witness_box": {"lower": [0.1, 0.1],
                                              "upper": [0.4, 0.4]}})
        assert t.support_volume == 0.04
        assert t.witness_box.volume == pytest.approx(0.09)

    @pytest.mark.parametrize("box, message", [
        ({"lower": ["0.1", False], "upper": [True, "0.4"]}, "witness_box field 'lower'"),
        ({"lower": [0.1, 0.1], "upper": [True, 0.4]}, "witness_box field 'upper'"),
        ({"lower": [0.1, float("nan")], "upper": [0.4, 0.4]}, "witness_box field 'lower'"),
        ({"lower": 0.1, "upper": [0.4, 0.4]}, "witness_box field 'lower'"),
        ([0.1, 0.4], "'witness_box' must be an object"),
    ], ids=["mixed", "upper-bool", "lower-nan", "lower-scalar", "not-an-object"])
    def test_witness_box_non_numbers_refused(self, box, message):
        # np.asarray once read strings and bools as numbers, and a list
        # in place of the object raised a TypeError
        with pytest.raises(ConfigError, match=message):
            tensor_from_spec({"d": 2, "r": 1, "M": 2.0, "replicate": True,
                              "factor": {"kind": "bump", "orientation": "left"},
                              "witness_box": box})


class TestApproximantSerialization:
    def test_roundtrip_fields(self):
        t = tensor_from_spec({"d": 2, "r": 2, "M": 1.0, "replicate": True,
                              "factor": {"kind": "polynomial-piecewise",
                                         "coefficients": [0.5, 0.3]}})
        ap = recover(QueryOracle(t), np.full(2, 0.4),
                     RecoveryConfig(r=2, budget_n2=21))
        obj = approximant_to_dict(ap)
        assert obj["center_value"] == pytest.approx(t.value(np.full(2, 0.4)))
        assert len(obj["axes"]) == 2
        axis = obj["axes"][0]
        assert len(axis["coefficients"]) == len(axis["breakpoints"]) - 1
        assert all(len(piece) == 2 for piece in axis["nodes"])

    def test_coefficients_reproduce_interpolant(self):
        t = tensor_from_spec({"d": 2, "r": 3, "M": 1.0, "replicate": True,
                              "factor": {"kind": "trig", "amplitude": 0.2,
                                         "frequency": 1.0, "offset": 0.7}})
        ap = recover(QueryOracle(t), np.full(2, 0.4),
                     RecoveryConfig(r=3, budget_n2=37))
        g = ap.line_interpolants
        for i, axis in enumerate(approximant_to_dict(ap)["axes"]):
            bps = axis["breakpoints"]
            assert len(axis["coefficients"]) == g.pieces == 6
            np.testing.assert_array_equal(axis["values"], g.values[i])
            for lo, hi, coef in zip(bps[:-1], bps[1:], axis["coefficients"]):
                assert len(coef) == 3
                ts = np.linspace(lo, hi, 50, endpoint=False)
                local = np.polynomial.Polynomial(coef)(ts - 0.5 * (lo + hi))
                np.testing.assert_allclose(local, g(np.tile(ts[:, None], 2))[:, i],
                                           rtol=0, atol=1e-10)
