"""Brute-force reference implementations.

Everything here trades speed for independence: quadrature instead of closed
forms, full enumeration instead of message passing. Used by tests to pin
expected values. `denoiser_parity` holds the quadrature check of the scalar
denoisers (acceptance criterion 1) and `enumeration_parity` the enumeration
check of the engine (criterion 2); the CLI `check` subcommand runs both at a
reduced draw count and seed count.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .bench import Scenario, draw_instance
from .denoisers import indicator_beliefs, x_posterior_spike_slab, z_posterior_awgn, z_posterior_cell
from .engine import HygecConfig, hygec_run
from .types import CONVERGED, InvalidParameter, Moments, ProblemInstance


# the quadrature grid spans the prior mean +- this many prior standard deviations
_HALF_WIDTH_SIGMAS = 10.0


@functools.cache
def _unit_grid(points: int) -> tuple[np.ndarray, np.ndarray]:
    # the standardized grid t and its trapezoid weights times exp(-t^2 / 2)
    t = np.linspace(-_HALF_WIDTH_SIGMAS, _HALF_WIDTH_SIGMAS, points)
    w = np.exp(-0.5 * t * t) * (t[1] - t[0])
    w[[0, -1]] *= 0.5
    t.flags.writeable = w.flags.writeable = False
    return t, w


def quad_z_posterior(likelihood, m: float, v: float, points: int = 200_001) -> Moments:
    """Posterior moments of z ~ N(m, v) under a pointwise likelihood, by trapezoid rule.

    Integrates in standardized coordinates t = (z - m) / sqrt(v) on a grid
    built once per `points`, and uses a two-pass variance so the result stays
    accurate when the posterior is much narrower than |m|.
    """
    if points < 10_000:
        raise InvalidParameter("need at least 1e4 grid points")
    if not v > 0:
        raise InvalidParameter("v must be positive")
    sigma = np.sqrt(v)
    t, w = _unit_grid(points)
    f = np.asarray(likelihood(m + sigma * t), dtype=float) * w
    mass = np.sum(f)
    if not sigma * mass > 1e-300:
        raise InvalidParameter("posterior normalizer underflowed on the quadrature grid")
    mean_t = np.dot(t, f) / mass
    var = v * np.dot((t - mean_t) ** 2, f) / mass
    return Moments(m + sigma * mean_t, var)


def denoiser_parity(draws: int) -> tuple[float, float, float, float, float]:
    """Worst errors of the scalar denoisers over `draws` seeded draws each.

    The linear and quantized-cell denoisers are checked against
    `quad_z_posterior` on a 50 001-point grid (absolute mean error, relative
    variance error); the spike-slab denoiser, whose slab moments are the linear
    one's, against a direct two-branch mixture computed in log space. Returns
    (linear mean, linear var, quantized mean, quantized var, spike-slab).
    """
    from scipy.special import logsumexp, ndtr

    rng = np.random.default_rng(20260814)
    points = 50_001

    # noise variance is coupled to v so the likelihood stays wider than
    # ~100 quadrature steps; below that the trapezoid rule, not the
    # closed form, is the thing being measured
    lin_mean = lin_var = 0.0
    for _ in range(draws):
        v = 10.0 ** rng.uniform(-6, 4)
        m = rng.uniform(-50, 50)
        nv = v * 10.0 ** rng.uniform(-2.5, 2)
        y = m + rng.uniform(-4, 4) * np.sqrt(v + nv)
        closed = z_posterior_awgn(np.array([y]), np.array([m]), np.array([v]), nv)
        ref = quad_z_posterior(lambda z: np.exp(-((z - y) ** 2) / (2 * nv)), m, v, points)
        lin_mean = max(lin_mean, abs(closed.mean[0] - ref.mean))
        lin_var = max(lin_var, abs(closed.var[0] - ref.var) / ref.var)

    q_mean = q_var = 0.0
    for _ in range(draws):
        v = 10.0 ** rng.uniform(-6, 4)
        m = rng.uniform(-50, 50)
        nv = v * 10.0 ** rng.uniform(-2.5, 2)
        s = np.sqrt(v + nv)
        center = m + rng.uniform(-6, 6) * s
        width = rng.uniform(0.05, 4) * s
        edges = np.array([center - width / 2, center + width / 2])
        closed = z_posterior_cell(edges[0], edges[1], np.array([m]), np.array([v]), nv)
        root = np.sqrt(nv)
        ref = quad_z_posterior(
            lambda z: ndtr((edges[1] - z) / root) - ndtr((edges[0] - z) / root), m, v, points
        )
        q_mean = max(q_mean, abs(closed.mean[0] - ref.mean))
        q_var = max(q_var, abs(closed.var[0] - ref.var) / ref.var)

    ss_worst = 0.0
    for _ in range(draws):
        v = 10.0 ** rng.uniform(-6, 4)
        m = rng.uniform(-50, 50)
        rho = rng.uniform(0.01, 0.99)
        sx = 10.0 ** rng.uniform(-2, 2)
        prior_llr = np.log(rho) - np.log1p(-rho)
        pos, pi = x_posterior_spike_slab(np.array([m]), np.array([v]), prior_llr, sx)
        log_on = np.log(rho) - 0.5 * np.log(2 * np.pi * (v + sx)) - m**2 / (2 * (v + sx))
        log_off = np.log1p(-rho) - 0.5 * np.log(2 * np.pi * v) - m**2 / (2 * v)
        p_on = np.exp(log_on - logsumexp([log_on, log_off]))
        mu_on = m * sx / (v + sx)
        v_on = v * sx / (v + sx)
        mean_ref = p_on * mu_on
        var_ref = p_on * v_on + p_on * (1 - p_on) * mu_on**2
        ss_worst = max(
            ss_worst,
            abs(pos.mean[0] - mean_ref),
            abs(pos.var[0] - var_ref) / max(var_ref, 1e-300),
            abs(pi[0] - p_on),
        )
    return lin_mean, lin_var, q_mean, q_var, ss_worst


def enumeration_parity(seeds) -> tuple[float, float, float, int]:
    """The engine against exhaustive enumeration on one tiny instance per seed.

    Each instance (m=10, n=12, six groups of two, rate 0.1, 15 dB) is drawn by
    `bench.draw_instance` from the single stream `default_rng(seed)`; `Scenario`
    refuses a negative, repeated or missing seed. Returns the pooled RMS error
    of the converged posterior means, the worst per-seed RMS, the mean absolute
    error of the group activities, and the number of seeds whose run did not
    converge (left out of the three errors, which are NaN only when no seed
    converged).
    """
    # tiny instances rail extrinsic variances at the default ceiling;
    # a lower ceiling keeps the sweep inside its contraction region
    tiny = Scenario(name="custom", m=10, n=12, k=6, rho=0.1, snr_db=15.0, seeds=tuple(seeds),
                    engine=HygecConfig(v_max=1e4))
    se_sum = mae_sum = worst = 0.0
    n_el = n_grp = nonconv = 0
    for seed in tiny.seeds:
        inst = draw_instance(tiny, None, *[np.random.default_rng(seed)] * 3)
        m_x_lik, v_x_lik, _, x_pos, report = hygec_run(inst, tiny.rho, tiny.engine)
        if report.termination != CONVERGED:
            nonconv += 1
            continue
        x_ref, _, xi_ref = exact_posterior_small(inst, tiny.rho, inst.sigma_x_sq)
        se_sum += float(np.sum((x_pos - x_ref) ** 2))
        n_el += inst.n
        beliefs = indicator_beliefs(m_x_lik, v_x_lik, tiny.rho, inst.sigma_x_sq, inst.groups)
        mae_sum += float(np.sum(np.abs(beliefs - xi_ref)))
        n_grp += inst.groups.k
        worst = max(worst, float(np.sqrt(np.mean((x_pos - x_ref) ** 2))))
    if not n_el:  # no seed converged: there is no error to pool
        return np.nan, np.nan, np.nan, nonconv
    return float(np.sqrt(se_sum / n_el)), worst, mae_sum / n_grp, nonconv


def exact_posterior_small(
    inst: ProblemInstance, rho: float, sigma_x_sq: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact posterior by enumerating all 2^K group-activity patterns.

    Conditioned on a pattern, the active coefficients are jointly Gaussian, so
    the posterior is a mixture of 2^K Gaussians weighted by evidence. Row p of
    `means` and `second` holds pattern p's moments. Returns (x_mean, x_var, xi_post).
    """
    from scipy.special import logsumexp

    if inst.channel.kind != "linear":
        raise InvalidParameter("exact enumeration handles the linear channel only")
    k = inst.groups.k
    if k > 12:
        raise InvalidParameter(f"2^{k} patterns is past the exactness budget (K <= 12)")
    if not 0 < rho < 1:
        raise InvalidParameter("rho must lie in (0, 1)")
    H, y = inst.H, inst.y
    m, n = H.shape
    noise_var = inst.channel.noise_var
    if not noise_var > 0:
        raise InvalidParameter("exact posterior needs noise_var > 0")
    patterns = np.array(list(itertools.product((0, 1), repeat=k)))
    on = patterns[:, inst.groups.group_of].astype(bool)
    log_w = np.empty(1 << k)
    means = np.zeros((1 << k, n))
    second = np.zeros((1 << k, n))
    base = -0.5 * m * np.log(2.0 * np.pi * noise_var) - 0.5 * np.dot(y, y) / noise_var
    for p, (pattern, active) in enumerate(zip(patterns, on)):
        log_prior = np.log(rho) * sum(pattern) + np.log1p(-rho) * (k - sum(pattern))
        Ha = H[:, active]
        n_a = Ha.shape[1]
        prec = Ha.T @ Ha / noise_var + np.eye(n_a) / sigma_x_sq
        b = Ha.T @ y / noise_var
        cov = np.linalg.inv(prec)
        mu = cov @ b
        _, logdet_prec = np.linalg.slogdet(prec)
        log_w[p] = (
            base
            + log_prior
            - 0.5 * n_a * np.log(sigma_x_sq)
            - 0.5 * logdet_prec
            + 0.5 * np.dot(b, mu)
        )
        means[p, active] = mu
        second[p, active] = np.diag(cov) + mu**2

    log_z = logsumexp(log_w)
    w = np.exp(log_w - log_z)

    # a sum over axis 0 adds the weighted rows one at a time, in pattern order
    x_mean = np.sum(w[:, None] * means, axis=0)
    x_second = np.sum(w[:, None] * second, axis=0)
    xi_post = np.sum(w[:, None] * patterns, axis=0)
    x_var = np.maximum(x_second - x_mean**2, 0.0)
    return x_mean, x_var, xi_post
