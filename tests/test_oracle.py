import dataclasses

import numpy as np
import pytest
from scipy.stats import norm, truncnorm

from hygec.bench import Scenario, build_instance, draw_instance
from hygec.denoisers import x_posterior_spike_slab, z_posterior_awgn, z_posterior_cell
from hygec.engine import nmse
from hygec.ensembles import MatrixSpec, apply_channel, gen_group_sparse_signal, gen_matrix
from hygec.oracle import enumeration_parity, exact_posterior_small, quad_z_posterior
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
    with pytest.raises(InvalidParameter,
                       match="^posterior normalizer underflowed on the quadrature grid$"):
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
    with pytest.raises(InvalidParameter,
                       match="^exact enumeration handles the linear channel only$"):
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
    with pytest.raises(InvalidParameter,
                       match=r"^2\^13 patterns is past the exactness budget \(K <= 12\)$"):
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


def _rel(got, want) -> float:
    # the worst elementwise relative error
    return float(np.max(np.abs(np.asarray(got) - want) / np.abs(want)))


@pytest.mark.parametrize("s", [1e-3, 1e3])
def test_posteriors_and_draws_scale_with_the_signal(s):
    """Scaling the signal, y and every mean by s, and every variance by s**2, scales
    each posterior mean by s and each variance by s**2 and leaves every activity and
    cell index alone: in the scalar denoisers, the exact enumeration and the draw.

    The engine is left out: its variance clamps V_MIN and v_max and its stop bound
    TOL are absolute, so a scaled run is not the same run until they scale too."""
    s2 = s * s
    rng = np.random.default_rng(5)
    count = 2000
    v, nv = 10.0 ** rng.uniform(-3, 3, (2, count))
    m = rng.uniform(-5, 5, count)
    y = m + rng.standard_normal(count) * np.sqrt(v + nv)
    one, scaled = z_posterior_awgn(y, m, v, nv), z_posterior_awgn(s * y, s * m, s2 * v, s2 * nv)
    assert _rel(scaled.mean, s * one.mean) < 1e-12
    assert _rel(scaled.var, s2 * one.var) < 1e-12

    # every cell of a 3-bit quantizer, the two with an infinite edge included, within
    # reach of the prior: a cell slid to the clamp distance moves by up to 8e-12
    edges = Channel.quantized(0.3, 3, 2.0).edges
    cell = rng.integers(0, 8, count)
    lower, upper = edges[cell], edges[cell + 1]
    assert np.isinf(lower).any() and np.isinf(upper).any()
    m = rng.uniform(-3, 3, count)
    v = 10.0 ** rng.uniform(-2, 1, count)
    one = z_posterior_cell(lower, upper, m, v, 0.3)
    scaled = z_posterior_cell(s * lower, s * upper, s * m, s2 * v, s2 * 0.3)
    assert _rel(scaled.mean, s * one.mean) < 1e-12
    assert _rel(scaled.var, s2 * one.var) < 1e-12

    v, sigma_x_sq = 10.0 ** rng.uniform(-2, 1, count), 10.0 ** rng.uniform(-1, 1, count)
    m = rng.standard_normal(count) * np.sqrt(v + sigma_x_sq * (rng.random(count) < 0.5))
    llr = rng.uniform(-5, 5, count)
    one, pi = x_posterior_spike_slab(m, v, llr, sigma_x_sq)
    scaled, pi_scaled = x_posterior_spike_slab(s * m, s2 * v, llr, s2 * sigma_x_sq)
    assert _rel(scaled.mean, s * one.mean) < 1e-12
    assert _rel(scaled.var, s2 * one.var) < 1e-12
    assert _rel(pi_scaled, pi) < 1e-12

    # the tiny instances of acceptance criterion 2, drawn as enumeration_parity draws them
    tiny = Scenario(name="custom", m=10, n=12, k=6, rho=0.1, snr_db=15.0, seeds=(0,))
    for seed in range(3):
        inst = draw_instance(tiny, None, *[np.random.default_rng(seed)] * 3)
        moved = ProblemInstance(inst.H, s * inst.y, inst.groups,
                                Channel.linear_awgn(s2 * inst.channel.noise_var),
                                s2 * inst.sigma_x_sq, s * inst.x_true, inst.xi_true, inst.true_rho)
        x_mean, x_var, xi_post = exact_posterior_small(inst, 0.1, 1.0)
        s_mean, s_var, s_post = exact_posterior_small(moved, 0.1, s2)
        assert _rel(s_mean, s * x_mean) < 1e-12, seed
        assert _rel(s_var, s2 * x_var) < 1e-12, seed
        assert _rel(s_post, xi_post) < 1e-12, seed

    # sigma_x_sq s**2 draws the same matrix and s times the signal; the noise is
    # calibrated to the signal, so the linear y scales and a 2-bit y keeps its cells
    base = Scenario(name="custom", m=20, n=40, k=8, rho=0.25, snr_db=15.0, seeds=(0,))
    for bits in (None, 2):
        one = build_instance(dataclasses.replace(base, bits=bits), 3, None)
        scaled = build_instance(dataclasses.replace(base, bits=bits, sigma_x_sq=s2), 3, None)
        assert np.array_equal(scaled.H, one.H), bits
        assert np.array_equal(scaled.x_true, s * one.x_true), bits
        assert np.array_equal(scaled.xi_true, one.xi_true), bits
        assert _rel(scaled.channel.noise_var, s2 * one.channel.noise_var) < 1e-12, bits
        if bits is None:
            assert _rel(scaled.y, s * one.y) < 1e-12
        else:
            assert _rel(scaled.channel.clip_range, s * one.channel.clip_range) < 1e-12
            assert np.array_equal(scaled.y, one.y)


def test_nmse_values_and_floor():
    x = np.array([1.0, 0.0, 2.0])
    assert nmse(x, x) == -300.0
    assert nmse(np.zeros(3), x) == pytest.approx(0.0)
    assert nmse(np.array([1.0, 0.5, 2.0]), np.array([0.0, 5.0, 0.0])) == pytest.approx(
        10.0 * np.log10((1.0 + 4.5**2 + 4.0) / 25.0)
    )
    assert nmse(x, np.zeros(3)) is None


@pytest.mark.parametrize("seeds, message", [
    ([-1], "seeds must be nonnegative"),
    ([2, 2], "seeds must not repeat"),
    ([], "needs at least one seed"),
])
def test_enumeration_parity_refuses_a_bad_seed_list_by_name(seeds, message):
    # refused before any draw, so a NaN result means only that no seed converged
    with pytest.raises(InvalidParameter, match=message):
        enumeration_parity(seeds)
