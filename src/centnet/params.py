"""Tunable-parameter bags and the per-node score container."""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import GraphInputError
from .graph import params_digest


@dataclass(frozen=True)
class ScoreVector:
    """Per-node finite real scores keyed by dense node id."""

    values: tuple
    metric_id: str
    params_digest: str = "{}"

    def __post_init__(self):
        try:
            arr = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise GraphInputError(f"{self.metric_id}: {exc}") from exc
        if arr.ndim != 1:
            raise GraphInputError(f"{self.metric_id}: not one score per node")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise GraphInputError(f"{self.metric_id}: non-finite score "
                                  f"{arr[bad[0]]} at node {bad[0]}")
        object.__setattr__(self, "values", tuple(arr.tolist()))

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def score_vector(metric_id: str, values, params: dict | None = None) -> ScoreVector:
    """A ScoreVector of a sequence or array of scores, converted once."""
    return ScoreVector(values, metric_id, params_digest(params or {}))


def _check(cond: bool, msg: str):
    if not cond:
        raise GraphInputError(msg)


def _is(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


class _Params:
    """What the parameter dataclasses share: construction from overrides
    that refuses unknown names, and a check of each field's kind that
    runs before any bound check compares a value. `_WHAT` names the
    kind of parameter in errors."""

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_overrides(cls, overrides: dict):
        unknown = set(overrides) - cls.field_names()
        if unknown:
            raise GraphInputError(
                f"unknown {cls._WHAT} parameter(s): "
                f"{', '.join(sorted(unknown))}")
        return cls(**overrides)

    def _check_kinds(self):
        """An int field takes a non-bool Integral and a float field a
        non-bool Real; an optional one also takes None."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": Integral, "float": Real}.get(
                f.type.removesuffix(" | None"))
            if kind is None or (value is None and f.type.endswith("None")):
                continue
            _check(_is(value, kind), f"{f.name} must be "
                   f"{'an integer' if kind is Integral else 'a number'}, "
                   f"got {value!r}")


@dataclass
class MetricParams(_Params):
    """Free parameters the metric formulas leave open.

    alpha/beta are interpreted per metric and default to the metric's
    documented value when left as None (e.g. hybrid degree 1000/0.1,
    Katz 0.85/lambda_max and 1, PageRank 0.85 and 1).
    """

    h: int = 2                     # hop radius: volume, flow pair cap
    p: float = 0.05                # spreading probability
    alpha: float | None = None
    beta: float | None = None
    q: float = 0.1                 # diffusion passing probability
    T: int = 10                    # diffusion iterations
    lambda_mdd: float = 0.7        # mixed degree decomposition weight
    L: float = 3                   # L-betweenness path-length cap (a length)
    delta_decay: float = 0.5       # residual/decay closeness base
    tol: float = 1e-10
    max_iter: int = 100000
    percolation_states: list[float] | None = None
    si_beta: float = 0.05          # AHP's SI sub-model
    si_steps: int = 5
    si_runs: int = 100
    sample_count: int = 1000       # delta-hyperbolicity triples
    rng_seed: int = 0

    _WHAT = "metric"

    def __post_init__(self):
        self._check_kinds()
        _check(0.0 <= self.p <= 1.0, "p must lie in [0,1]")
        _check(0.0 < self.q <= 1.0, "q must lie in (0,1]")
        _check(0.0 <= self.lambda_mdd <= 1.0, "lambda_mdd must lie in [0,1]")
        _check(0.0 <= self.si_beta <= 1.0, "si_beta must lie in [0,1]")
        _check(self.tol > 0.0, "tol must be positive")
        _check(self.max_iter >= 1, "max_iter must be >= 1")
        for name in ("h", "T", "L", "si_steps", "si_runs",
                     "sample_count"):
            _check(getattr(self, name) >= 1, f"{name} must be >= 1")
        states = self.percolation_states
        if states is not None:
            _check(isinstance(states, (list, tuple, np.ndarray)) and
                   all(_is(x, Real) for x in states),
                   f"percolation_states must be a list of numbers, "
                   f"got {states!r}")
            _check(all(0.0 <= x <= 1.0 for x in states),
                   "percolation states must lie in [0,1]")


@dataclass
class GroupSelectParams(_Params):
    """Knobs for the seed-set selection strategies."""

    budget: int = 10           # paper's experiments select groups of 10
    t_td: int = 4              # degree-distance threshold distance
    theta: float = 3.0         # FIDD common-neighbor threshold
    beta_inf: float = 0.1      # SIDD influence threshold
    p: float = 0.05            # activation/propagation probability
    omega: float = 0.05        # punishment weaken factor
    r: int = 2                 # punishment radius
    ell: int = 2               # collective-influence ball radius

    _WHAT = "selection"

    def __post_init__(self):
        self._check_kinds()
        _check(self.budget >= 1, "budget must be >= 1")
        _check(self.t_td >= 1, "t_td must be >= 1")
        _check(self.theta >= 0.0, "theta must be non-negative")
        _check(self.beta_inf >= 0.0, "beta_inf must be non-negative")
        _check(0.0 <= self.p <= 1.0, "p must lie in [0,1]")
        _check(0.0 <= self.omega <= 1.0, "omega must lie in [0,1]")
        _check(self.r >= 2, "r must be >= 2")
        _check(self.ell >= 1, "ell must be >= 1")
