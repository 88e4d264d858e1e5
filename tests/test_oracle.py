import numpy as np
import pytest
from scipy.stats import norm, truncnorm

from hygec.ensembles import MatrixSpec, apply_channel, gen_group_sparse_signal, gen_matrix
from hygec.oracle import (
    AllZeroTruth,
    Unsupported,
    ZeroMass,
    exact_posterior_small,
    nmse,
    quad_z_posterior,
)
from hygec.types import Channel, GroupStructure, InvalidParameter, ProblemInstance


def test_quad_grid_validation():
    with pytest.raises(InvalidParameter):
        quad_z_posterior(lambda z: np.ones_like(z), 0.0, 1.0, points=5000)


def test_quad_flat_likelihood_returns_prior():
    mom = quad_z_posterior(lambda z: np.ones_like(z), -2.0, 3.0)
    assert abs(mom.mean + 2.0) < 1e-12
    assert abs(mom.var - 3.0) / 3.0 < 1e-12


def test_quad_exponential_tilt_shifts_mean():
    # L(z) = exp(c (z - m)) turns N(m, v) into N(m + c v, v) exactly
    for m, v, c in [(0.7, 1.3, 2.0), (-3.0, 0.25, 3.0), (10.0, 4.0, -1.5)]:
        mom = quad_z_posterior(lambda z: np.exp(c * (z - m)), m, v)
        assert abs(mom.mean - (m + c * v)) / np.sqrt(v) < 1e-9
        assert abs(mom.var - v) / v < 1e-9


def test_quad_indicator_matches_truncated_gaussian():
    # a hard indicator has a jump the trapezoid rule resolves only to O(step),
    # so the tolerance here is far looser than for smooth likelihoods
    for m, v, lo, hi in [(0.3, 1.0, -0.5, 0.9), (2.0, 0.5, 1.0, 4.0), (0.0, 2.0, -1.0, 1.0)]:
        s = np.sqrt(v)
        mom = quad_z_posterior(lambda z: ((z > lo) & (z < hi)).astype(float), m, v)
        a, b = (lo - m) / s, (hi - m) / s
        assert abs(mom.mean - truncnorm.mean(a, b, loc=m, scale=s)) / s < 1e-4
        assert abs(mom.var - truncnorm.var(a, b, loc=m, scale=s)) / mom.var < 1e-3


def test_quad_grid_doubling_is_converged():
    s = np.sqrt(0.3)

    def lik(z):
        return norm.cdf((1.2 - z) / s) - norm.cdf((-0.4 - z) / s)

    a = quad_z_posterior(lik, 0.5, 2.0)
    b = quad_z_posterior(lik, 0.5, 2.0, points=400_001)
    assert abs(a.mean - b.mean) < 1e-12
    assert abs(a.var - b.var) / a.var < 1e-12


def test_quad_rejects_bad_variance_and_zero_mass():
    with pytest.raises(InvalidParameter):
        quad_z_posterior(lambda z: np.ones_like(z), 0.0, 0.0)
    with pytest.raises(ZeroMass):
        quad_z_posterior(lambda z: (z > 100.0).astype(float), 0.0, 1.0)


def _linear_instance(noise_var, rho=0.4, seed_h=4, seed_x=5, seed_w=6):
    groups = GroupStructure.even(10, 5)
    H = gen_matrix(MatrixSpec("iid", 8, 10), np.random.default_rng(seed_h))
    x, xi = gen_group_sparse_signal(groups, rho, 1.0, np.random.default_rng(seed_x))
    ch = Channel.linear_awgn(noise_var)
    y = apply_channel(H, x, ch, np.random.default_rng(seed_w))
    return ProblemInstance(H, y, groups, ch, 1.0, x, xi, rho)


def test_exact_posterior_rejects_unsupported_inputs():
    inst = _linear_instance(0.05)
    quant = ProblemInstance(
        inst.H,
        np.zeros(8, dtype=np.int64),
        inst.groups,
        Channel.quantized(0.05, 2, 3.0),
        1.0,
        inst.x_true,
        inst.xi_true,
        0.4,
    )
    with pytest.raises(Unsupported):
        exact_posterior_small(quant, 0.4, 1.0)
    wide = GroupStructure((1,) * 13)
    rng = np.random.default_rng(0)
    big = ProblemInstance(
        rng.standard_normal((6, 13)),
        rng.standard_normal(6),
        wide,
        Channel.linear_awgn(0.1),
        1.0,
    )
    with pytest.raises(Unsupported):
        exact_posterior_small(big, 0.4, 1.0)
    with pytest.raises(InvalidParameter):
        exact_posterior_small(inst, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        exact_posterior_small(_linear_instance(0.0), 0.4, 1.0)


def test_exact_posterior_all_active_limit_is_ridge_regression():
    inst = _linear_instance(0.05)
    x_mean, x_var, xi_post = exact_posterior_small(inst, 1.0 - 1e-12, 1.0)
    prec = inst.H.T @ inst.H / 0.05 + np.eye(inst.n)
    cov = np.linalg.inv(prec)
    mu = cov @ (inst.H.T @ inst.y / 0.05)
    assert np.max(np.abs(x_mean - mu)) < 1e-9
    assert np.max(np.abs(x_var - np.diag(cov))) < 1e-9
    assert np.max(np.abs(xi_post - 1.0)) < 1e-9


def test_exact_posterior_huge_noise_reverts_to_prior():
    # same observations, but claimed noise so large they carry no information
    base = _linear_instance(0.05)
    inst = ProblemInstance(
        base.H, base.y, base.groups, Channel.linear_awgn(1e12), 1.0, base.x_true, base.xi_true, 0.4
    )
    x_mean, x_var, xi_post = exact_posterior_small(inst, 0.4, 1.0)
    assert np.max(np.abs(x_mean)) < 1e-9
    assert np.max(np.abs(x_var - 0.4)) < 1e-9
    assert np.max(np.abs(xi_post - 0.4)) < 1e-9


def test_exact_posterior_identity_sensing_factorizes_over_groups():
    # H = I makes groups independent, so each group's posterior is a
    # two-component mixture computable directly from Bayes' rule
    n, k, rho, sx, nv = 12, 4, 0.35, 1.7, 0.2
    groups = GroupStructure.even(n, k)
    x, xi = gen_group_sparse_signal(groups, rho, sx, np.random.default_rng(1))
    ch = Channel.linear_awgn(nv)
    y = apply_channel(np.eye(n), x, ch, np.random.default_rng(2))
    inst = ProblemInstance(np.eye(n), y, groups, ch, sx, x, xi, rho)
    x_mean, x_var, xi_post = exact_posterior_small(inst, rho, sx)

    for kk in range(k):
        sl = groups.group_of == kk
        yg = y[sl]
        log_on = np.sum(norm.logpdf(yg, scale=np.sqrt(sx + nv))) + np.log(rho)
        log_off = np.sum(norm.logpdf(yg, scale=np.sqrt(nv))) + np.log1p(-rho)
        pi = 1.0 / (1.0 + np.exp(log_off - log_on))
        m_on = sx / (sx + nv) * yg
        v_on = sx * nv / (sx + nv)
        assert abs(xi_post[kk] - pi) < 1e-10
        assert np.max(np.abs(x_mean[sl] - pi * m_on)) < 1e-10
        assert np.max(np.abs(x_var[sl] - (pi * (v_on + m_on**2) - (pi * m_on) ** 2))) < 1e-10


def test_exact_posterior_is_invariant_to_group_relabelling():
    # reversing the groups, with H's column blocks, permutes every output
    groups = GroupStructure((1, 3, 2, 2))
    rng = np.random.default_rng(4)
    H = rng.standard_normal((6, groups.n))
    x, xi = gen_group_sparse_signal(groups, 0.5, 1.3, rng)
    ch = Channel.linear_awgn(0.3)
    y = apply_channel(H, x, ch, rng)
    x_mean, x_var, xi_post = exact_posterior_small(
        ProblemInstance(H, y, groups, ch, 1.3, x, xi, 0.5), 0.4, 1.3
    )

    perm = np.concatenate([np.flatnonzero(groups.group_of == kk) for kk in range(groups.k)][::-1])
    rev = GroupStructure(groups.group_sizes[::-1])
    r_mean, r_var, r_post = exact_posterior_small(
        ProblemInstance(H[:, perm], y, rev, ch, 1.3, x[perm], xi[::-1], 0.5), 0.4, 1.3
    )
    assert np.max(np.abs(r_mean - x_mean[perm])) < 1e-12
    assert np.max(np.abs(r_var - x_var[perm])) < 1e-12
    assert np.max(np.abs(r_post - xi_post[::-1])) < 1e-12
    assert 0.01 < np.min(xi_post) and np.max(xi_post) < 0.99  # the groups are not decided


def test_nmse_values_and_floor():
    x = np.array([1.0, 0.0, 2.0])
    assert nmse(x, x) == -300.0
    assert nmse(np.zeros(3), x) == pytest.approx(0.0)
    assert nmse(np.array([1.0, 0.5, 2.0]), np.array([0.0, 5.0, 0.0])) == pytest.approx(
        10.0 * np.log10((1.0 + 4.5**2 + 4.0) / 25.0)
    )
    with pytest.raises(AllZeroTruth):
        nmse(x, np.zeros(3))
