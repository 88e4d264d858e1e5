"""Synthetic problem generation: matrices, group-sparse signals, channel outputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import Channel, GroupStructure, InvalidParameter, _check_numbers

KAPPA_MAX = 1e14  # the drawn cond(H) is kappa to 0.22% here, off by up to 1.7% at 1e15
SNR_DB_MAX = 300.0  # past it the engine's V_MIN/v_max clamps already hide the noise level


@dataclass(frozen=True)
class MatrixSpec:
    """Recipe for drawing a measurement matrix.

    kind "iid": entries N(0, 1/M).
    kind "conditioned": H = U diag(s) V^T with Haar factors and a geometric
    singular-value profile whose extreme ratio equals kappa, in [1, KAPPA_MAX].
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
            if not 1 <= self.kappa <= KAPPA_MAX:
                raise InvalidParameter(f"kappa must lie in [1, {KAPPA_MAX:g}], not {self.kappa!r}")
            if self.m == 1 and self.kappa != 1:
                raise InvalidParameter("a 1-row matrix cannot have kappa > 1")


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with sign-corrected R diagonal."""
    g = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def geometric_spectrum(m: int, kappa: float) -> np.ndarray:
    """M singular values in geometric progression, max/min = kappa, sum of squares = M;
    a checked `MatrixSpec` asks for kappa in [1, KAPPA_MAX] only, and one value only at kappa 1."""
    s = np.geomspace(kappa, 1.0, m)
    return s * np.sqrt(m / np.sum(s**2))


def gen_matrix(spec: MatrixSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw H; numpy's refusal of a draw, H or a Haar factor, too big to index (ValueError)
    or to allocate (MemoryError) is an InvalidParameter naming the shape."""
    try:
        if spec.kind == "iid":
            H = rng.standard_normal((spec.m, spec.n))
            H /= np.sqrt(spec.m)
            return H
        u = haar_orthogonal(spec.m, rng)
        v = haar_orthogonal(spec.n, rng)
    except (ValueError, MemoryError) as exc:
        raise InvalidParameter(f"cannot draw a {spec.m} x {spec.n} matrix: {exc}") from exc
    return (u * geometric_spectrum(spec.m, spec.kappa)) @ v[: spec.m, :]


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
    no BLAS routine, so an i.i.d. instance does not wake numpy's BLAS thread pool
    right before a solve. A conditioned one does, by gen_matrix's QR and product.
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
    """10^(snr_db/10), refused for an snr_db outside [-SNR_DB_MAX, SNR_DB_MAX]."""
    if not -SNR_DB_MAX <= snr_db <= SNR_DB_MAX:
        raise InvalidParameter(f"snr_db must lie in [{-SNR_DB_MAX:g}, {SNR_DB_MAX:g}], not {snr_db!r}")
    return 10.0 ** (snr_db / 10.0)


def default_clip_range(H: np.ndarray, rho: float, sigma_x_sq: float, noise_var: float) -> float:
    """Quantizer saturation level: three standard deviations of the pre-quantizer output,
    as a Python float, the type an instance archive reads back."""
    return float(3.0 * np.sqrt(signal_power(H, rho, sigma_x_sq) + noise_var))
