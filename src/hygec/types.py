"""Shared domain types and invariant checks. No algorithms live here."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
NUMERICAL_FAILURE = "numerical_failure"


class HygecError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HygecError):
    pass


class GroupCoverage(HygecError):
    pass


class SupportViolation(HygecError):
    pass


class InvalidParameter(HygecError):
    pass


@dataclass(frozen=True)
class GroupStructure:
    """Partition of the flat index range 0..N into K contiguous groups."""

    group_sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "group_sizes", tuple(int(s) for s in self.group_sizes))
        if len(self.group_sizes) < 1:
            raise GroupCoverage("need at least one group")
        if any(s < 1 for s in self.group_sizes):
            raise GroupCoverage("every group must have at least one element")

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
            raise GroupCoverage(f"cannot split {n} indices into {k} nonempty groups")
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
        if self.kind not in ("linear", "quantized"):
            raise InvalidParameter(f"unknown channel kind {self.kind!r}")
        if not self.noise_var >= 0:
            raise InvalidParameter("noise_var must be nonnegative")
        if self.kind == "quantized":
            if self.bits is None or not 1 <= self.bits <= 16:  # 2^B cells are held in memory
                raise InvalidParameter("quantized channel needs 1 <= bits <= 16")
            if self.clip_range is None or not self.clip_range > 0:
                raise InvalidParameter("quantized channel needs clip_range > 0")

    @staticmethod
    def linear_awgn(noise_var: float) -> "Channel":
        return Channel("linear", float(noise_var))

    @staticmethod
    def quantized(noise_var: float, bits: int, clip_range: float) -> "Channel":
        return Channel("quantized", float(noise_var), int(bits), float(clip_range))

    @property
    def n_cells(self) -> int:
        return 1 << self.bits

    @cached_property
    def edges(self) -> np.ndarray:
        """Cell edges, length 2^B + 1; edges[0] = -inf, edges[-1] = +inf."""
        c = self.clip_range
        inner = np.linspace(-c, c, self.n_cells + 1)[1:-1]
        return np.concatenate(([-np.inf], inner, [np.inf]))

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Map real values to cell indices in 0..2^B-1, by the same `edges` that
        `cell_bounds` reads, so edges[y] <= value < edges[y + 1]."""
        if np.any(np.isnan(values)):
            raise InvalidParameter("cannot quantize NaN")
        return np.searchsorted(self.edges[1:-1], values, side="right")

    def cell_bounds(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper edges of the cells indexed by y."""
        y = np.asarray(y, dtype=np.int64)
        if np.any(y < 0) or np.any(y >= self.n_cells):
            raise InvalidParameter("cell index out of range")
        return self.edges[y], self.edges[y + 1]


@dataclass(frozen=True)
class ProblemInstance:
    """One recovery problem: measurement matrix, observation, and the generative model."""

    H: np.ndarray
    y: np.ndarray
    groups: GroupStructure
    channel: Channel
    sigma_x_sq: float
    x_true: np.ndarray | None = None
    xi_true: np.ndarray | None = None
    true_rho: float | None = None

    def __post_init__(self):  # the first violated invariant raises its named error
        H = np.asarray(self.H)
        if H.ndim != 2:
            raise DimensionMismatch("H must be a 2-d matrix")
        m, n = H.shape
        if np.asarray(self.y).shape != (m,):
            raise DimensionMismatch(f"y must have length {m}")
        if self.groups.n != n:
            raise GroupCoverage(f"group sizes sum to {self.groups.n}, expected {n}")
        if self.x_true is not None and np.asarray(self.x_true).shape != (n,):
            raise DimensionMismatch(f"x_true must have length {n}")
        if self.xi_true is not None:
            xi = np.asarray(self.xi_true)
            if xi.shape != (self.groups.k,):
                raise DimensionMismatch(f"xi_true must have length {self.groups.k}")
            if self.x_true is not None:
                bad = (np.asarray(self.x_true) != 0) & (xi[self.groups.group_of] == 0)
                if np.any(bad):  # name the first such group
                    k = self.groups.group_of[np.argmax(bad)]
                    raise SupportViolation(f"group {k} is inactive but x_true is nonzero there")
        if self.channel.kind == "quantized":
            y = np.asarray(self.y)
            if np.any(y % 1 != 0) or np.any(y < 0) or np.any(y >= self.channel.n_cells):
                raise DimensionMismatch("quantized observations must be valid cell indices")
        if self.true_rho is not None and not 0 < self.true_rho < 1:
            raise InvalidParameter("true_rho must lie in (0, 1)")
        if not self.sigma_x_sq > 0:
            raise InvalidParameter("sigma_x_sq must be positive")

    @property
    def m(self) -> int:
        return self.H.shape[0]

    @property
    def n(self) -> int:
        return self.H.shape[1]


@dataclass
class GecState:
    """Message state owned by a single recovery run.

    Mean/variance pairs for z and x, each split into the prior-side and
    likelihood-side Gaussian messages, plus the activity messages and the
    current posterior estimate of x.

    On the linear channel `init_state` sets the z-likelihood message to the
    channel's own N(y, noise_var) and its packed Gram `gram`, and no sweep
    writes either; (m_z_pri, v_z_pri) keep their `init_state` values, as no
    sweep reads or updates them there. On the quantized channel `gram` is None.
    `t` counts the completed sweeps.
    """

    m_z_pri: np.ndarray
    v_z_pri: np.ndarray
    m_z_lik: np.ndarray
    v_z_lik: np.ndarray
    m_x_pri: np.ndarray
    v_x_pri: np.ndarray
    m_x_lik: np.ndarray
    v_x_lik: np.ndarray
    rho_hat: np.ndarray
    x_pos: np.ndarray
    v_x_pos: np.ndarray
    gram: np.ndarray | None = None
    t: int = 0

    def all_finite(self) -> bool:  # the Gram is fixed before the first sweep: not scanned
        arrays = (getattr(self, f.name) for f in fields(self) if f.name not in ("gram", "t"))
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
    termination: str = CONVERGED
    inner_counts: list[int] = field(default_factory=list)
    failure: str | None = None

    @property
    def inner_iterations(self) -> int:
        """Sweeps over all inner runs."""
        return sum(self.inner_counts)
