"""Shared domain types and invariant checks. No algorithms live here."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"


class HygecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(HygecError):
    pass


def _check_numbers(obj) -> None:
    """Refuse a wrong-typed value in each `int` or `float` field of a dataclass, by
    the field's annotation: `X`, `X | None` or `tuple[X, ...]`. An int field takes a
    finite whole number, stored as an `int` (a tuple of them); a float field takes a
    finite real, kept as given. A bool (JSON's true), NaN, Infinity or text is neither."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None").removeprefix("tuple[").removesuffix(", ...]")
        if kind in ("int", "float") and value is not None:
            many = f.type.startswith("tuple[")
            for v in value if many else [value]:
                real = isinstance(v, numbers.Real) and not isinstance(v, bool)
                if not (real and -math.inf < v < math.inf) or kind == "int" and v != int(v):
                    raise InvalidParameter(f"{f.name} must be a finite {kind}, not {v!r}")
            if kind == "int":
                object.__setattr__(obj, f.name, tuple(map(int, value)) if many else int(value))


@dataclass(frozen=True)
class GroupStructure:
    """Partition of the flat index range 0..N into K contiguous groups."""

    group_sizes: tuple[int, ...]

    def __post_init__(self):
        _check_numbers(self)
        if len(self.group_sizes) < 1:
            raise InvalidParameter("need at least one group")
        if any(s < 1 for s in self.group_sizes):
            raise InvalidParameter("every group must have at least one element")

    @property
    def k(self) -> int:
        return len(self.group_sizes)

    @property
    def n(self) -> int:
        return sum(self.group_sizes)

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start index of each group; offsets[k] .. offsets[k]+N_k covers group k."""
        return np.concatenate(([0], np.cumsum(self.group_sizes)[:-1])).astype(np.intp)

    @cached_property
    def group_of(self) -> np.ndarray:
        """group_of[i] = index of the group containing flat index i."""
        return np.repeat(np.arange(self.k), self.group_sizes)

    @staticmethod
    def even(n: int, k: int) -> "GroupStructure":
        """Split 0..n into k groups as evenly as possible (first n % k groups get one extra)."""
        if k < 1 or n < k:
            raise InvalidParameter(f"cannot split {n} indices into {k} nonempty groups")
        base, extra = divmod(n, k)
        return GroupStructure(tuple(base + (1 if i < extra else 0) for i in range(k)))


@dataclass(frozen=True)
class Channel:
    """Output model: linear-AWGN, or a B-bit uniform mid-rise quantizer over AWGN.

    The quantizer has 2^B cells over [-clip_range, clip_range] with the two
    outer cells unbounded; observations are stored as integer cell indices.
    """

    kind: str  # "linear" | "quantized"
    noise_var: float
    bits: int | None = None
    clip_range: float | None = None

    def __post_init__(self):
        _check_numbers(self)
        if self.kind not in ("linear", "quantized"):
            raise InvalidParameter(f"unknown channel kind {self.kind!r}")
        if not self.noise_var >= 0:
            raise InvalidParameter("noise_var must be nonnegative")
        if self.kind == "linear" and (self.bits is not None or self.clip_range is not None):
            raise InvalidParameter("a linear channel takes no bits or clip_range")
        if self.kind == "quantized":
            # at most 16 bits: the 2^B cell edges are held in memory
            if self.bits is None or not 1 <= self.bits <= 16:
                raise InvalidParameter("quantized channel needs 1 <= bits <= 16")
            if self.clip_range is None or not self.clip_range > 0:
                raise InvalidParameter("quantized channel needs clip_range > 0")

    @staticmethod
    def linear_awgn(noise_var: float) -> "Channel":
        return Channel("linear", noise_var)

    @staticmethod
    def quantized(noise_var: float, bits: int, clip_range: float) -> "Channel":
        return Channel("quantized", noise_var, bits, clip_range)

    @property
    def n_cells(self) -> int:
        if self.bits is None:
            raise InvalidParameter("a linear channel has no quantizer cells")
        return 1 << self.bits

    @cached_property
    def edges(self) -> np.ndarray:
        """Cell edges, length 2^B + 1; edges[0] = -inf, edges[-1] = +inf."""
        cells, c = self.n_cells, self.clip_range
        inner = np.linspace(-c, c, cells + 1)[1:-1]
        return np.concatenate(([-np.inf], inner, [np.inf]))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Map real values to cell indices in 0..2^B-1, by the same `edges` that
        `cell_bounds` reads, so edges[y] <= value < edges[y + 1]."""
        if np.any(np.isnan(values)):
            raise InvalidParameter("cannot quantize NaN")
        return np.searchsorted(self.edges[1:-1], values, side="right")

    def cell_bounds(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper edges of the cells indexed by the integer array y."""
        if np.any((y < 0) | (y >= self.n_cells)):
            raise InvalidParameter("cell index out of range")
        return self.edges[y], self.edges[y + 1]


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One recovery problem: measurement matrix, observation, and the generative model.
    Its arrays' dtypes are fixed at construction; it compares and hashes by identity."""

    H: np.ndarray
    y: np.ndarray
    groups: GroupStructure
    channel: Channel
    sigma_x_sq: float
    x_true: np.ndarray | None = None
    xi_true: np.ndarray | None = None
    true_rho: float | None = None

    def __post_init__(self):  # the first violated invariant raises its named error
        _check_numbers(self)
        if not isinstance(self.H, np.ndarray) or self.H.ndim != 2:
            raise InvalidParameter("H must be a 2-d numpy array")
        m, n = self.H.shape
        y, x, xi = map(np.asarray, (self.y, self.x_true, self.xi_true))
        for name, value in (("H", self.H), ("y", y), ("x_true", x), ("xi_true", xi)):
            if getattr(self, name) is not None and value.dtype.kind not in "biuf":
                raise InvalidParameter(f"{name} must hold real numbers, not {value.dtype}")
        if y.shape != (m,):
            raise InvalidParameter(f"y must have length {m}")
        if self.groups.n != n:
            raise InvalidParameter(f"group sizes sum to {self.groups.n}, expected {n}")
        if self.x_true is not None and x.shape != (n,):
            raise InvalidParameter(f"x_true must have length {n}")
        if self.xi_true is not None:
            if xi.shape != (self.groups.k,):
                raise InvalidParameter(f"xi_true must have length {self.groups.k}")
            if np.any((xi != 0) & (xi != 1)):
                raise InvalidParameter("xi_true must hold 0/1 group indicators")
            if self.x_true is not None:
                bad = (x != 0) & (xi[self.groups.group_of] == 0)
                if np.any(bad):  # name the first such group
                    k = self.groups.group_of[np.argmax(bad)]
                    raise InvalidParameter(f"group {k} is inactive but x_true is nonzero there")
        quantized = self.channel.kind == "quantized"
        if quantized and np.any((y % 1 != 0) | (y < 0) | (y >= self.channel.n_cells)):
            raise InvalidParameter("quantized observations must be valid cell indices")
        if self.true_rho is not None and not 0 < self.true_rho < 1:
            raise InvalidParameter("true_rho must lie in (0, 1)")
        if not self.sigma_x_sq > 0:
            raise InvalidParameter("sigma_x_sq must be positive")
        # float64 values, int64 cell indices and indicators; an array in that form is kept
        forms = (("H", self.H, np.float64), ("y", y, np.int64 if quantized else np.float64),
                 ("x_true", x, np.float64), ("xi_true", xi, np.int64))
        for name, value, dtype in forms:
            if getattr(self, name) is not None:
                object.__setattr__(self, name, value.astype(dtype, copy=False))

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


class Moments(NamedTuple):
    """A Gaussian message or marginal: its mean and its variance."""

    mean: np.ndarray | float
    var: np.ndarray | float


@dataclass(eq=False)
class GecState:
    """Message state owned by a single recovery run: five `Moments` messages and
    one refresh rule.

    For z and for x, a prior-side and a likelihood-side Gaussian message
    (`z_pri`, `z_lik`, `x_pri`, `x_lik`), each replaced in a sweep only by
    `engine._refresh`; the current posterior of x (`x_post`), the spike-slab
    denoiser's output; and the per-element activity messages as prior
    log-odds (`llr_hat`).

    `gram` is the Gram H^T diag(1/z_lik.var) H of `z_lik`, in LAPACK's rectangular
    full packed (RFP) storage, None only before a quantized run's first sweep.
    On the linear channel `z_lik` is the channel's own N(y, noise_var); no sweep
    writes it or `gram`, or reads or updates `z_pri`. `t` counts the completed
    sweeps.
    """

    z_pri: Moments
    z_lik: Moments
    x_pri: Moments
    x_lik: Moments
    x_post: Moments
    llr_hat: np.ndarray
    gram: np.ndarray | None = None
    t: int = 0

    def all_finite(self) -> bool:  # not the Gram, which H and the scanned z_lik fix
        values = (getattr(self, f.name) for f in fields(self) if f.name not in ("gram", "t"))
        arrays = (a for v in values for a in (v if isinstance(v, Moments) else (v,)))
        return all(np.all(np.isfinite(a)) for a in arrays)


@dataclass
class RecoveryReport:
    """Per-run bookkeeping: traces, iteration counts, and how the run ended.

    `inner_counts` holds the sweeps of each inner run, one entry per run (one
    for a known-rate run, one per outer iteration for EM). `failure` names the
    error behind a numerical_failure termination, with its message and the
    sweep it happened in; it is None otherwise.
    """

    nmse_trace: list[float] = field(default_factory=list)
    rho_trace: list[float] = field(default_factory=list)
    termination: str = MAX_ITERATIONS
    inner_counts: list[int] = field(default_factory=list)
    failure: str | None = None

    @property
    def inner_iterations(self) -> int:
        """Sweeps over all inner runs."""
        return sum(self.inner_counts)
