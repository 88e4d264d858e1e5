"""Scalar posterior computations and the message algebra built on them.

Everything is elementwise and vectorized; functions accept scalars or arrays
and follow numpy broadcasting. Densities and odds ratios are evaluated in the
log domain throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .types import GroupStructure, InvalidParameter

_SQRT2 = np.sqrt(2.0)
_SQRT_2_PI = np.sqrt(2.0 / np.pi)

# Cell mass below exp(_LOG_TINY_MASS) is treated as numerically degenerate.
_LOG_TINY_MASS = np.log(1e-300)

# Saturation distance used when a cell's mass underflows: the pull toward the
# cell is capped at this many standard deviations. Any cell whose near edge
# lies past about 37.05 has log mass below _LOG_TINY_MASS, so z_posterior_cell
# recomputes its moments with the near edge slid back to this distance.
_CLAMP_SIGMAS = 37.0

PROB_FLOOR = 1e-15


def _expit(x):
    # scipy.special.expit's formula; exp(-x) overflows to inf for x < -709, giving 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _logit(p):
    # scipy.special.logit's formula: near p = 1/2 the log1p pair keeps the digits
    # that log(p / (1 - p)) would cancel; both branches are evaluated, and the
    # unused one reaches log1p(-1) = -inf once p is within 1e-16 of 0 or 1
    s = 2.0 * (p - 0.5)
    with np.errstate(divide="ignore"):
        return np.where((p >= 0.3) & (p <= 0.65), np.log1p(s) - np.log1p(-s), np.log(p / (1.0 - p)))


class Moments(NamedTuple):
    mean: np.ndarray | float
    var: np.ndarray | float


def z_posterior_awgn(y, m, v, noise_var) -> Moments:
    """Moments of z ~ N(m, v) given y = z + w, w ~ N(0, noise_var)."""
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    total = v + noise_var
    return Moments((v * y + noise_var * m) / total, v * noise_var / total)


def _std_trunc_moments(a, b):
    """Mean, variance, and log mass of a standard normal truncated to [a, b].

    Two regimes: edges straddling zero (plain erf arithmetic), and both edges
    on one side (scaled-erfc ratios, reflected so a >= 0). Scalars come back
    as 0-d arrays.

    With the near edge a >> 1 out, the variance loses relative precision like
    a^4 * eps (2e-9 at 60, 3e-8 at 120, 2.5e-4 at 1000), more on a narrow
    cell; the mean and log mass keep to rounding until a^2 overflows near
    1e154. z_posterior_cell keeps no moments past _CLAMP_SIGMAS.
    """
    from scipy.special import erf, erfcx  # only the quantized channel needs them

    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if np.any(a >= b):
        raise InvalidParameter("need lower < upper for every cell")

    mean = np.zeros(a.shape)
    var = np.ones(a.shape)
    log_mass = np.zeros(a.shape)

    flip = b <= 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)

    mixed = a < 0.0
    if np.any(mixed):
        am, bm = a[mixed], b[mixed]
        z = 0.5 * (erf(bm / _SQRT2) - erf(am / _SQRT2))
        phi_a = np.exp(-0.5 * am * am) / np.sqrt(2 * np.pi)
        phi_b = np.exp(-0.5 * bm * bm) / np.sqrt(2 * np.pi)
        a_phi_a = np.where(np.isinf(am), 0.0, am) * phi_a
        b_phi_b = np.where(np.isinf(bm), 0.0, bm) * phi_b
        mu = (phi_a - phi_b) / z
        mean[mixed] = mu
        var[mixed] = 1.0 + (a_phi_a - b_phi_b) / z - mu * mu
        log_mass[mixed] = np.log(z)

    one_sided = ~mixed
    if np.any(one_sided):
        an, bn = a[one_sided], b[one_sided]
        fin = np.isfinite(bn)
        bs = np.where(fin, bn, an)  # placeholder where infinite
        expo = 0.5 * (an - bs) * (an + bs)
        e = np.where(fin, np.exp(expo), 0.0)
        one_minus_e = np.where(fin, -np.expm1(expo), 1.0)
        d = erfcx(an / _SQRT2) - e * erfcx(bs / _SQRT2)
        mu = _SQRT_2_PI * one_minus_e / d
        r2 = _SQRT_2_PI * (an - np.where(fin, bs * e, 0.0)) / d
        mean[one_sided] = mu
        var[one_sided] = np.maximum(1.0 + r2 - mu * mu, 0.0)
        log_mass[one_sided] = -0.5 * an * an + np.log(0.5 * d)

    return np.where(flip, -mean, mean), var, log_mass


def z_posterior_cell(lower, upper, m, v, noise_var) -> Moments:
    """Moments of z ~ N(m, v) given that z + w fell in [lower, upper], w ~ N(0, noise_var).

    The cell truncates s = z + w ~ N(m, v + noise_var), and z given s is
    Gaussian with slope gamma = v / (v + noise_var):
      E{z}   = m + gamma (E{s} - m)
      Var{z} = gamma^2 Var{s} + v noise_var / (v + noise_var)

    Never raises on cells whose mass underflows: the standardized cell is
    shifted so its near edge sits at the saturation distance, capping the pull
    while keeping the run alive.
    """
    lower, upper, m, v = np.broadcast_arrays(lower, upper, m, v)
    total = v + noise_var
    if np.any(total <= 0):
        raise InvalidParameter("v + noise_var must be positive")
    sigma = np.sqrt(total)
    alpha = (lower - m) / sigma
    beta = (upper - m) / sigma
    mu, var, log_mass = _std_trunc_moments(alpha, beta)
    slid = log_mass < _LOG_TINY_MASS
    if np.any(slid):
        # such a cell lies wholly on one side of the prior: its near edge is alpha or beta
        a, b = alpha[slid], beta[slid]
        shift = np.where(a > 0, a - _CLAMP_SIGMAS, b + _CLAMP_SIGMAS)
        mu[slid], var[slid], _ = _std_trunc_moments(a - shift, b - shift)
    s_mean = m + sigma * mu
    gamma = v / total
    return Moments(m + gamma * (s_mean - m), gamma * gamma * (total * var) + v * noise_var / total)


def channel_posterior(channel, y, m, v) -> Moments:
    """Vector z-denoiser for a whole observation under either channel kind."""
    if channel.kind == "linear":
        return z_posterior_awgn(y, m, v, channel.noise_var)
    return z_posterior_cell(*channel.cell_bounds(y), m, v, channel.noise_var)


def _element_llr(m_x_lik, v_x_lik, sigma_x_sq):
    # log N(0|m, sigma_x_sq + v) - log N(0|m, v) per element
    v = np.asarray(v_x_lik, dtype=float)
    m = np.asarray(m_x_lik, dtype=float)
    total = sigma_x_sq + v
    return 0.5 * (np.log(v) - np.log(total)) + 0.5 * m * m * (1.0 / v - 1.0 / total)


def x_posterior_spike_slab(m, v, rho_hat, sigma_x_sq) -> tuple[Moments, np.ndarray]:
    """Posterior under the prior rho*N(0, sigma_x_sq) + (1-rho)*delta(0).

    Returns the moments and the posterior activity probability pi.
    """
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    rho_hat = np.asarray(rho_hat, dtype=float)
    if np.any(v <= 0):
        raise InvalidParameter("v must be positive")
    llr_ev = _element_llr(m, v, sigma_x_sq)  # the slab-vs-spike evidence ratio
    safe_rho = np.clip(rho_hat, PROB_FLOOR, 1.0 - PROB_FLOOR)
    pi = _expit(_logit(safe_rho) + llr_ev)
    pi = np.where(rho_hat == 0.0, 0.0, np.where(rho_hat == 1.0, 1.0, pi))
    total = sigma_x_sq + v
    mu_slab = m * sigma_x_sq / total
    v_slab = sigma_x_sq * v / total
    mean = pi * mu_slab
    var = pi * v_slab + pi * (1.0 - pi) * mu_slab * mu_slab
    return Moments(mean, var), pi


def extrinsic(pos: Moments, cav: Moments, v_min: float, v_max: float) -> Moments:
    """Divide the posterior Gaussian by the cavity Gaussian, with variance clamps.

    A nonpositive precision difference saturates the variance at v_max instead
    of failing.
    """
    pos_mean = np.asarray(pos.mean, dtype=float)
    pos_var = np.asarray(pos.var, dtype=float)
    cav_mean = np.asarray(cav.mean, dtype=float)
    cav_var = np.asarray(cav.var, dtype=float)
    prec = 1.0 / pos_var - 1.0 / cav_var
    with np.errstate(divide="ignore", over="ignore"):
        var = np.where(prec > 0.0, np.clip(1.0 / np.where(prec > 0, prec, 1.0), v_min, v_max), v_max)
    mean = var * (pos_mean / pos_var - cav_mean / cav_var)
    return Moments(mean, var)


def _group_llr(m_x_lik, v_x_lik, rho, sigma_x_sq, groups: GroupStructure):
    # each element's evidence log-odds, and each group's posterior log-odds:
    # the prior's plus the evidence of all its elements
    if not 0 < rho < 1:
        raise InvalidParameter("rho must lie in (0, 1)")
    if np.any(np.asarray(v_x_lik, dtype=float) <= 0):
        raise InvalidParameter("v_x_lik must be positive")
    llr_in = _element_llr(m_x_lik, v_x_lik, sigma_x_sq)
    return llr_in, _logit(rho) + np.add.reduceat(llr_in, groups.offsets)


def llr_messages(m_x_lik, v_x_lik, rho, sigma_x_sq, groups: GroupStructure) -> np.ndarray:
    """Per-element activity probabilities from the indicator subgraph.

    Each element receives the group belief minus its own contribution (the
    extrinsic rule), so its own evidence never feeds back to itself.
    """
    llr_in, llr_k = _group_llr(m_x_lik, v_x_lik, rho, sigma_x_sq, groups)
    llr_out = llr_k[groups.group_of] - llr_in
    return np.clip(_expit(llr_out), PROB_FLOOR, 1.0 - PROB_FLOOR)


def indicator_beliefs(m_x_lik, v_x_lik, rho, sigma_x_sq, groups: GroupStructure) -> np.ndarray:
    """Length-K posterior activity beliefs combining the prior and all evidence."""
    return _expit(_group_llr(m_x_lik, v_x_lik, rho, sigma_x_sq, groups)[1])
