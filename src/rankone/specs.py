"""JSON specifications for factors and tensors.

The on-disk format consumed by the CLI: a factor is a tagged record
with a ``kind`` plus its parameters and declared bounds, a tensor spec
wraps d factors (or one factor with ``replicate: true``) together with
the class parameters.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from .errors import FLOAT_MAX, ConfigError
from .tensor import Box, RankOneTensor
from .univariate import (UnivariateFactor, make_bump, polynomial_factor,
                         table_factor, trig_factor)


def factor_from_spec(spec: Dict[str, Any], r: int) -> UnivariateFactor:
    kind = spec.get("kind")
    if kind == "bump":
        interval = _numbers(spec, "interval", (0.0, 1.0))
        if len(interval) != 2:
            raise ConfigError(f"factor spec field 'interval' must hold two numbers, "
                              f"got {interval!r}")
        return make_bump(r, spec["orientation"], tuple(interval))
    if kind == "trig":
        return trig_factor(_number(spec, "amplitude"), _number(spec, "frequency"),
                           _number(spec, "phase", 0.0), _number(spec, "offset", 0.0), r)
    if kind == "polynomial-piecewise":
        return polynomial_factor(_numbers(spec, "coefficients"), r)
    if kind == "explicit-table":
        return table_factor(_numbers(spec, "ts"), _numbers(spec, "values"),
                            _number(spec, "sup_bound"), _number(spec, "deriv_bound"), r)
    raise ConfigError(f"unknown factor kind {kind!r}")


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    return _real(value) and abs(value) <= FLOAT_MAX


# float() and np.asarray would read "0.05" as 0.05 and true as 1.0
def _number(spec: Dict[str, Any], key: str, default=None):
    value = spec[key] if default is None else spec.get(key, default)
    if not _finite(value):
        raise ConfigError(f"factor spec field {key!r} must be a finite number, got {value!r}")
    return value


def _numbers(spec: Dict[str, Any], key: str, default=None, owner="factor spec"):
    values = spec[key] if default is None else spec.get(key, default)
    if not (isinstance(values, (list, tuple)) and all(map(_finite, values))):
        raise ConfigError(f"{owner} field {key!r} must be a list of finite numbers, "
                          f"got {values!r}")
    return values


def tensor_from_spec(spec: Dict[str, Any]) -> RankOneTensor:
    """Build a tensor from {"d", "r", "M", "V", "factors" | "factor"+replicate}."""
    if not isinstance(spec, dict):
        raise ConfigError(f"tensor spec must be an object, got {spec!r}")
    try:
        d, r, M = spec["d"], spec["r"], spec["M"]
    except KeyError as exc:
        raise ConfigError(f"tensor spec missing field {exc}")
    V = spec.get("V")
    # float() would read true as 1 and "10" as 10
    if not _finite(M) or M < 0:
        raise ConfigError(f"tensor spec field 'M' must be a finite number >= 0, got {M!r}")
    if V is not None and not _real(V):
        raise ConfigError(f"tensor spec field 'V' must be a number, got {V!r}")
    for key, value in (("d", d), ("r", r)):  # int() would truncate 2.5 to 2
        whole = isinstance(value, int) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not whole:
            raise ConfigError(f"tensor spec field {key!r} must be an integer, got {value!r}")
    d, r = int(d), int(r)
    fspecs = spec.get("factors", [])
    if not (isinstance(fspecs, list) and all(isinstance(fs, dict) for fs in fspecs)):
        raise ConfigError(f"tensor spec field 'factors' must be a list of objects, "
                          f"got {fspecs!r}")
    replicate = spec.get("replicate", False)
    if not isinstance(replicate, bool):  # "false" would read as true
        raise ConfigError(f"tensor spec field 'replicate' must be true or false, "
                          f"got {replicate!r}")
    if replicate:
        fspec = spec.get("factor") or (fspecs[0] if fspecs else None)
        if fspec is None:
            raise ConfigError("a replicated tensor spec needs a 'factor' or a "
                              "non-empty 'factors'")
        if not isinstance(fspec, dict):
            raise ConfigError(f"tensor spec field 'factor' must be an object, got {fspec!r}")
        fspecs = [fspec] * d
    elif len(fspecs) != d:
        raise ConfigError(f"expected {d} factor specs, got {len(fspecs)}")
    factors = tuple(factor_from_spec(fs, r) for fs in fspecs)
    wb = spec.get("witness_box")
    if wb is not None and not isinstance(wb, dict):
        raise ConfigError(f"tensor spec field 'witness_box' must be an object, got {wb!r}")
    witness = None if wb is None else Box(_numbers(wb, "lower", owner="witness_box"),
                                          _numbers(wb, "upper", owner="witness_box"))
    return RankOneTensor(factors=factors, r=r, M=float(M),
                         support_volume=None if V is None else float(V),
                         witness_box=witness)


def approximant_to_dict(approx) -> Dict[str, Any]:
    """Serialize a reconstruction: breakpoints and local coefficients per axis.

    Each piece's coefficients are those of its interpolating polynomial
    in the local variable (t - piece midpoint), ascending order.
    """
    g = approx.line_interpolants
    deg = g.nodes.shape[1] - 1
    local = g.nodes - 0.5 * (g.breakpoints[:-1] + g.breakpoints[1:])[:, None]
    breakpoints, nodes = g.breakpoints.tolist(), g.nodes.tolist()
    axes = []
    for line in g.values:
        coefficients = []
        for x, values in zip(local, line):
            coef = np.polynomial.Polynomial.fit(x, values, deg=deg, domain=[]).coef
            coefficients.append(np.pad(coef, (0, deg + 1 - len(coef))).tolist())
        axes.append({"breakpoints": breakpoints, "coefficients": coefficients,
                     "nodes": nodes, "values": line.tolist()})
    return {"center_value": float(approx.center_value), "axes": axes}
