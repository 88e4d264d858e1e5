"""Synthetic problem generation: matrices, group-sparse signals, channel outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Channel, GroupStructure, InvalidParameter, _check_numbers


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for drawing a measurement matrix.

    kind "iid": entries N(0, 1/M).
    kind "conditioned": H = U diag(s) V^T with Haar factors and a geometric
    singular-value profile whose extreme ratio equals kappa.
    """

    kind: str  # "iid" | "conditioned"
    m: int
    n: int
    kappa: float = 1.0

    def __post_init__(self):
        _check_numbers(self)
        if self.kind not in ("iid", "conditioned"):
            raise InvalidParameter(f"unknown matrix kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise InvalidParameter("matrix dimensions must be positive")
        if self.m > self.n:
            raise InvalidParameter("need m <= n")
        if self.kind == "conditioned":
            if not self.kappa >= 1:
                raise InvalidParameter("kappa must be >= 1")
            if self.m == 1 and self.kappa != 1:
                raise InvalidParameter("a 1-row matrix cannot have kappa > 1")
            with np.errstate(over="ignore"):  # an overflowing sum of squares scales s to all 0
                if not geometric_spectrum(self.m, self.kappa).all():
                    raise InvalidParameter(f"kappa must keep sum(s**2) finite, not {self.kappa!r}")


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign-corrected R diagonal."""
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def geometric_spectrum(m: int, kappa: float) -> np.ndarray:
    """M singular values in geometric progression, max/min = kappa, sum of squares = M;
    a checked `MatrixSpec` asks for none whose sum overflows, nor one value with kappa > 1."""
    s = np.geomspace(kappa, 1.0, m)
    return s * np.sqrt(m / np.sum(s**2))


def gen_matrix(spec: MatrixSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.kind == "iid":
        H = rng.standard_normal((spec.m, spec.n))
        H /= np.sqrt(spec.m)
        return H
    s = geometric_spectrum(spec.m, spec.kappa)
    u = haar_orthogonal(spec.m, rng)
    v = haar_orthogonal(spec.n, rng)
    return (u * s) @ v[: spec.m, :]


def gen_group_sparse_signal(
    groups: GroupStructure, rho: float, sigma_x_sq: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, xi): per-group Bernoulli(rho) indicators, active groups N(0, sigma_x_sq).

    Draw order is fixed (indicators first, then a full-length normal vector)
    so seeded streams stay reproducible across group layouts.
    """
    if not 0 < rho < 1:
        raise InvalidParameter("rho must lie in (0, 1)")
    if not sigma_x_sq > 0:
        raise InvalidParameter("sigma_x_sq must be positive")
    xi = (rng.random(groups.k) < rho).astype(np.int64)
    x = rng.standard_normal(groups.n) * np.sqrt(sigma_x_sq)
    x *= np.repeat(xi, groups.group_sizes)
    return x, xi


def apply_channel(
    H: np.ndarray, x: np.ndarray, channel: Channel, rng: np.random.Generator
) -> np.ndarray:
    """Push x through the channel: y = Hx + w, optionally quantized to cell indices.

    Noise is drawn even when noise_var == 0 so streams match across noise levels.
    Hx is a numpy einsum, as in the engine's LMMSE step: its own C loops call
    no BLAS routine, so building an instance does not wake numpy's BLAS thread
    pool right before a solve.
    """
    z = np.einsum("ij,j->i", H, x)
    w = rng.standard_normal(z.shape[0]) * np.sqrt(channel.noise_var)
    out = z + w
    if channel.kind == "quantized":
        return channel.quantize(out)
    return out


def signal_power(H: np.ndarray, rho: float, sigma_x_sq: float) -> float:
    """Per-measurement power of Hx for the group-sparse source: rho * sigma_x_sq * ||H||_F^2 / M.

    ||H||_F^2 is einsum's sum of squares: no copy of H in any layout, and no BLAS call.
    """
    return rho * sigma_x_sq * float(np.einsum("ij,ij->", H, H)) / H.shape[0]


def snr_to_noise_var(H: np.ndarray, rho: float, sigma_x_sq: float, snr_db: float) -> float:
    """Noise variance giving the requested SNR for the group-sparse source."""
    return signal_power(H, rho, sigma_x_sq) / snr_ratio(snr_db)


def snr_ratio(snr_db: float) -> float:
    """10^(snr_db/10), refused unless a finite positive float64: Python's power raises
    OverflowError above about 3082 dB and returns 0.0 below about -3236 dB."""
    try:
        if (ratio := 10.0 ** (snr_db / 10.0)) > 0:
            return ratio
    except OverflowError:
        pass
    raise InvalidParameter(f"snr_db must give a finite positive 10^(snr_db/10), not {snr_db!r}")


def default_clip_range(H: np.ndarray, rho: float, sigma_x_sq: float, noise_var: float) -> float:
    """Quantizer saturation level: three standard deviations of the pre-quantizer output,
    as a Python float, the type an instance archive reads back."""
    return float(3.0 * np.sqrt(signal_power(H, rho, sigma_x_sq) + noise_var))
