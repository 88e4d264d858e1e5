import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import norm

from hygec.denoisers import (
    _CLAMP_SIGMAS,
    _LOG_TINY_MASS,
    LLR_CAP,
    _expit,
    _std_trunc_moments,
    channel_posterior,
    extrinsic,
    indicator_beliefs,
    llr_messages,
    x_posterior_spike_slab,
    z_posterior_awgn,
    z_posterior_cell,
)
from hygec.oracle import quad_z_posterior
from hygec.types import Channel, GroupStructure, InvalidParameter, Moments


def _ref_upper(a, b):
    # a >= 0; integrate in u = zeta - a so the tail exponent factors out and
    # no catastrophic cancellation can occur at any window position
    w = b - a
    f = lambda u: mp.e ** (-a * u - u * u / 2)
    if mp.isinf(w):
        pts = [0, 1, 10, mp.inf] if a < 1 else [0, 1 / a, 10 / a, mp.inf]
    else:
        hi = min(w, mp.mpf(400))
        pts = [0, hi] if hi < 1 else [0, min(1, hi), hi]
    m0 = mp.quad(f, pts)
    m1 = mp.quad(lambda u: u * f(u), pts)
    m2 = mp.quad(lambda u: u * u * f(u), pts)
    mu = m1 / m0
    var = m2 / m0 - mu * mu
    log_mass = -a * a / 2 - mp.log(mp.sqrt(2 * mp.pi)) + mp.log(m0)
    return float(a + mu), float(var), float(log_mass)


def _ref_std_trunc(a, b):
    """Independent high-precision moments of a standard normal on [a, b]."""
    with mp.workdps(120):
        a_, b_ = mp.mpf(a), mp.mpf(b)
        if b_ <= 0:
            mean, var, lm = _ref_upper(-b_, -a_)
            return -mean, var, lm
        if a_ < 0:
            rt2 = mp.sqrt(2)
            z = (mp.erf(b_ / rt2) - mp.erf(a_ / rt2)) / 2
            phi = lambda t: mp.e ** (-t * t / 2) / mp.sqrt(2 * mp.pi)
            pa = mp.mpf(0) if mp.isinf(a_) else phi(a_)
            pb = mp.mpf(0) if mp.isinf(b_) else phi(b_)
            apa = mp.mpf(0) if mp.isinf(a_) else a_ * pa
            bpb = mp.mpf(0) if mp.isinf(b_) else b_ * pb
            mu = (pa - pb) / z
            var = 1 + (apa - bpb) / z - mu * mu
            return float(mu), float(var), float(mp.log(z))
        return _ref_upper(a_, b_)


def test_awgn_posterior_hand_values():
    mom = z_posterior_awgn(1.0, 0.0, 1.0, 1.0)
    assert mom.mean == 0.5
    assert mom.var == 0.5
    mom0 = z_posterior_awgn(3.0, -1.0, 2.0, 0.0)
    assert mom0.mean == 3.0
    assert mom0.var == 0.0
    y = np.array([1.0, -2.0, 0.5])
    vec = z_posterior_awgn(y, 0.0, 2.0, 0.5)
    assert vec.mean.shape == (3,)
    assert np.all(vec.var < min(2.0, 0.5))


def test_trunc_moments_full_line_is_identity():
    # with noise_var = 0 the cell posterior is the prior truncated to the cell
    mean, var = z_posterior_cell(-np.inf, np.inf, -1.7, 2.3, 0.0)
    assert mean == -1.7
    assert var == 2.3
    assert _std_trunc_moments(-np.inf, np.inf)[2] == 0.0
    with pytest.raises(InvalidParameter):
        z_posterior_cell(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidParameter):
        z_posterior_cell(1.0, 1.0, 0.0, 1.0, 0.0)


def test_trunc_moments_symmetric_cell_is_centered():
    # edges exactly symmetric about m in floating point, so the mean is exact
    mean, var = z_posterior_cell(-3.25, -1.75, -2.5, 1.44, 0.0)
    assert abs(mean + 2.5) < 1e-15
    assert var < 1.44


# standardized windows across both regimes: edges straddling zero, and
# one-sided erfcx ratios from near zero out to 120 standard deviations, on
# narrow, wide and half-infinite cells
_WINDOWS = [
    (-3.0, -1.0),
    (-1.0, 0.5),
    (-0.2, 0.1),
    (1e-3, 2e-3),
    (0.5, 1.0),
    (3.0, 4.0),
    (10.0, 10.5),
    (20.0, 20.2),
    (35.0, 35.05),
    (59.0, 59.5),
    (59.9, 60.1),
    (60.0, 60.5),
    (61.0, 61.3),
    (80.0, 80.001),
    (120.0, 121.0),
    (10.0, np.inf),
    (61.0, np.inf),
    (120.0, np.inf),
    (-np.inf, -61.0),
    (-np.inf, 2.0),
]


@pytest.mark.parametrize("a,b", _WINDOWS)
def test_trunc_moments_match_high_precision_reference(a, b):
    mean, var, log_mass = _std_trunc_moments(a, b)
    ref_mean, ref_var, ref_log = _ref_std_trunc(a, b)
    assert abs(mean - ref_mean) <= 1e-8 * max(1.0, abs(ref_mean))
    # the one-sided variance loses relative precision like a^4 * eps, past 1e-8
    # at 120 out, hence the small atol; z_posterior_cell keeps no moments past
    # _CLAMP_SIGMAS
    assert abs(var - ref_var) <= 1e-8 * ref_var + 1e-10
    assert abs(log_mass - ref_log) <= 1e-8


def _narrow_cells(width):
    # one-sided cells [a, a + width] and their reflections, and cells of that
    # width straddling zero
    for a in (0.0, 0.5, 2.0, 5.0, 20.0, 37.0):
        yield a, a + width
        yield -a - width, -a
    for f in (0.01, 0.3, 0.5, 0.9):
        yield -f * width, (1 - f) * width


@pytest.mark.parametrize("width", [1e-2, 1e-4, 1e-6, 1e-8, "border"])
def test_narrow_cells_keep_their_variance(width):
    # a narrow cell's variance, about width^2 / 12, is far below the terms of
    # the closed forms, 1 + r2 - mu^2 and 1 + (a phi_a - b phi_b) / z - mu^2,
    # which cancel to it; each cell must keep it to 1e-8 relative. "border"
    # takes one-sided cells with width * (a + width) from 1 to 8 across the
    # switch to the quadrature rule at 4
    if width == "border":
        cells = [(a, a + (np.sqrt(a * a + 4 * k) - a) / 2)
                 for a in (0.0, 0.5, 2.0, 5.0, 20.0, 37.0) for k in (1.0, 3.9, 4.1, 8.0)]
    else:
        cells = list(_narrow_cells(width))
    for a, b in cells:
        mean, var, log_mass = _std_trunc_moments(a, b)
        ref_mean, ref_var, ref_log = _ref_std_trunc(a, b)
        assert abs(var - ref_var) <= 1e-8 * ref_var, (a, b)
        assert abs(mean - ref_mean) <= 1e-8 * max(1.0, abs(ref_mean)), (a, b)
        assert abs(log_mass - ref_log) <= 1e-8, (a, b)


def test_cells_past_the_clamp_distance_fall_below_the_mass_threshold():
    # z_posterior_cell recomputes every such cell at _CLAMP_SIGMAS, so no
    # moments computed this far out are kept; the log mass must say so, and
    # never be NaN, whatever the cell's width
    near = np.geomspace(37.5, 1e150, 400)
    upper_tail = [(near, np.inf), (near, np.nextafter(near, np.inf)), (near, 2.0 * near),
                  (near, 1.001 * near)]
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for a, b in upper_tail:
            for lo, hi in ((a, b), (-b, -a)):
                _, _, log_mass = _std_trunc_moments(*np.broadcast_arrays(lo, hi))
                assert np.all(log_mass < _LOG_TINY_MASS)
    assert _std_trunc_moments(_CLAMP_SIGMAS, np.inf)[2] > _LOG_TINY_MASS


def test_quantized_cell_posterior_matches_quadrature():
    ch = Channel.quantized(0.1, 2, 2.0)
    for seed, (m, v) in enumerate([(0.3, 1.0), (-1.2, 0.4), (2.5, 3.0)]):
        for cell in range(ch.n_cells):
            lo, up = ch.cell_bounds(np.array([cell]))
            lo, up = lo[0], up[0]
            s = np.sqrt(ch.noise_var)

            def lik(z):
                hi_c = norm.cdf((up - z) / s) if np.isfinite(up) else 1.0
                lo_c = norm.cdf((lo - z) / s) if np.isfinite(lo) else 0.0
                return hi_c - lo_c

            got = z_posterior_cell(ch.edges[cell], ch.edges[cell + 1], m, v, ch.noise_var)
            ref = quad_z_posterior(lik, m, v)
            assert abs(got.mean - ref.mean) < 1e-7 * max(1.0, abs(ref.mean))
            assert abs(got.var - ref.var) / ref.var < 1e-6


def test_noiseless_cell_truncates_the_prior():
    # with noise_var = 0 the cell bounds z itself: the posterior is the prior
    # truncated to the cell
    cases = ((-np.inf, 0.0, 0.0, 1.0), (-0.5, 0.7, 0.2, 1.3), (1.0, np.inf, -2.0, 0.4))
    for lower, upper, m, v in cases:
        got = z_posterior_cell(lower, upper, m, v, 0.0)
        sigma = np.sqrt(v)
        mu, var, _ = _std_trunc_moments((lower - m) / sigma, (upper - m) / sigma)
        assert abs(got.mean - (m + sigma * mu)) < 1e-12
        assert abs(got.var - v * var) < 1e-12


def test_channel_posterior_quantized_matches_cellwise():
    ch = Channel.quantized(0.2, 3, 2.5)
    y = np.array([0, 3, 5, 7])
    m = np.array([0.4, -1.0, 0.0, 2.2])
    v = np.array([1.0, 0.5, 2.0, 0.8])
    got = channel_posterior(ch, y, m, v)
    for i in range(4):
        ref = z_posterior_cell(ch.edges[y[i]], ch.edges[y[i] + 1], m[i], v[i], ch.noise_var)
        assert abs(got.mean[i] - ref.mean) < 1e-14
        assert abs(got.var[i] - ref.var) < 1e-14


def test_channel_posterior_clamps_unreachable_cells():
    # prior centered ~200 sigma away from every cell: raw mass underflows, but
    # the vector denoiser must stay finite with a capped pull toward the cells
    ch = Channel.quantized(1.0, 3, 1.0)
    m = np.array([300.0, 0.2])
    v = np.array([1.0, 1.0])
    y = np.array([0, 4])
    mom = channel_posterior(ch, y, m, v)
    assert np.all(np.isfinite(mom.mean))
    assert np.all(np.isfinite(mom.var))
    assert np.all(mom.var > 0)
    sigma_s = np.sqrt(2.0)
    gamma = 0.5
    assert mom.mean[0] < m[0]
    assert abs(mom.mean[0] - m[0]) <= 40.0 * sigma_s * gamma
    ref = z_posterior_cell(ch.edges[4], ch.edges[5], 0.2, 1.0, 1.0)
    assert abs(mom.mean[1] - ref.mean) < 1e-14
    assert abs(mom.var[1] - ref.var) < 1e-14
    # priors 60 to 1e8 sigma_s away from one- and two-sided cells, on both sides
    dist = np.geomspace(60.0, 1e8, 50) * sigma_s
    for bits in (1, 2, 3):
        ch = Channel.quantized(1.0, bits, 1.0)
        for cell in range(ch.n_cells):
            # the prior lies beyond each finite edge; the pull points back at the cell
            for edge, side in ((ch.edges[cell + 1], 1.0), (ch.edges[cell], -1.0)):
                if not np.isfinite(edge):
                    continue
                m = edge + side * dist
                mom = channel_posterior(ch, np.full(m.size, cell), m, np.ones(m.size))
                assert np.all(np.isfinite(mom.mean)) and np.all(np.isfinite(mom.var))
                assert np.all(mom.var > 0)
                assert np.all(side * (mom.mean - m) < 0)
                assert np.all(np.abs(mom.mean - m) <= 40.0 * sigma_s * gamma)


def test_unreachable_cell_is_slid_to_the_clamp_distance():
    # a cell whose mass underflows is slid, width kept, until its near edge
    # sits _CLAMP_SIGMAS standard deviations from the prior; the moments are
    # those of the slid standardized cell mapped back through gamma
    v, noise_var = 0.5, 0.2
    sigma = np.sqrt(v + noise_var)
    gamma = v / (v + noise_var)
    cells = ((-0.5, 0.5), (1.0, 3.0), (-np.inf, 0.0), (0.0, np.inf))
    for m in (300.0, -300.0, 1e4, -1e4):
        for lower, upper in cells:
            if lower < m < upper:
                continue
            alpha, beta = (lower - m) / sigma, (upper - m) / sigma
            assert _std_trunc_moments(alpha, beta)[2] < _LOG_TINY_MASS
            width = beta - alpha
            if alpha > 0:
                slid = (_CLAMP_SIGMAS, _CLAMP_SIGMAS + width)
            else:
                slid = (-_CLAMP_SIGMAS - width, -_CLAMP_SIGMAS)
            mu, var, _ = _ref_std_trunc(*slid)
            got = z_posterior_cell(lower, upper, m, v, noise_var)
            assert abs(got.mean - (m + gamma * sigma * mu)) <= 1e-9 * abs(m)
            assert abs(got.var - (gamma**2 * sigma**2 * var + v * noise_var / sigma**2)) <= 1e-9


def test_logistic_helpers_match_scipy():
    mag = np.concatenate([[0.0, 36.0, 37.0, 709.0, 710.0, 745.0, 800.0],
                          np.logspace(-300, 300, 20_001), np.linspace(0.0, 800.0, 20_001)])
    x = np.concatenate([-mag, mag])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_expit = _expit(x)
    ref = expit(x)
    assert np.all(got_expit[ref == 0.0] == 0.0) and np.all(got_expit[ref == 1.0] == 1.0)
    assert np.any(ref == 0.0) and np.any(ref == 1.0)
    np.testing.assert_allclose(got_expit, ref, rtol=2e-15, atol=0.0)


def test_spike_slab_degenerate_rates_short_circuit():
    # rates 0 and 1 are prior log-odds of -inf and +inf
    mom0, pi0 = x_posterior_spike_slab(2.0, 0.5, -np.inf, 1.0)
    assert mom0.mean == 0.0 and mom0.var == 0.0 and pi0 == 0.0
    mom1, pi1 = x_posterior_spike_slab(2.0, 0.5, np.inf, 1.0)
    assert pi1 == 1.0
    assert mom1.mean == pytest.approx(2.0 / 1.5, rel=1e-15)
    assert mom1.var == pytest.approx(0.5 / 1.5, rel=1e-15)


def test_spike_slab_slab_moments_are_the_awgn_product():
    # at prior log-odds +inf pi is exactly 1, so the moments are the slab's alone:
    # the slab prior N(0, sigma_x_sq) observed as m through noise of variance v
    m, v, sx = np.meshgrid([-3.0, -0.0, 0.0, 2.5, 1e6], [1e-11, 0.3, 1e11], [1e-2, 1.0, 1e2])
    mom, pi = x_posterior_spike_slab(m, v, np.inf, sx)
    slab = z_posterior_awgn(m, 0.0, sx, v)
    assert np.all(pi == 1.0)
    assert np.array_equal(mom.mean, slab.mean) and np.array_equal(mom.var, slab.var)


def _two_branch_reference(m, v, rho, sigma_x_sq):
    log_slab = np.log(rho) + norm.logpdf(m, scale=np.sqrt(sigma_x_sq + v))
    log_spike = np.log1p(-rho) + norm.logpdf(m, scale=np.sqrt(v))
    pi = 1.0 / (1.0 + np.exp(log_spike - log_slab))
    mu = m * sigma_x_sq / (sigma_x_sq + v)
    vv = sigma_x_sq * v / (sigma_x_sq + v)
    mean = pi * mu
    var = pi * (vv + mu * mu) - mean * mean
    return mean, var, pi


def test_spike_slab_matches_two_branch_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = rng.uniform(-3.0, 3.0)
        v = rng.uniform(0.1, 2.0)
        rho = rng.choice([0.1, 0.5, 0.9])
        sx = rng.uniform(0.5, 2.0)
        mom, pi = x_posterior_spike_slab(m, v, logit(rho), sx)
        ref_m, ref_v, ref_pi = _two_branch_reference(m, v, rho, sx)
        assert abs(mom.mean - ref_m) < 1e-12
        assert abs(mom.var - ref_v) < 1e-12
        assert abs(pi - ref_pi) < 1e-12


@pytest.mark.parametrize("llr", [1e-3, 5.0, LLR_CAP, 40.0, 700.0])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_spike_slab_takes_any_prior_log_odds(sign, llr):
    # from a coin flip to past the message cap and to where the rate rounds
    # to 0 or 1 in double precision: the posterior at prior log-odds L is the
    # two-branch one at rate expit(L), with no overflow or divide warning
    rng = np.random.default_rng(3)
    m, v, sx = rng.uniform(-3.0, 3.0, 50), rng.uniform(0.1, 2.0, 50), rng.uniform(0.5, 2.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mom, pi = x_posterior_spike_slab(m, v, sign * llr, sx)
    with np.errstate(divide="ignore"):  # the reference takes log1p(-1) at rate 1
        ref_m, ref_v, ref_pi = _two_branch_reference(m, v, expit(sign * llr), sx)
    assert np.max(np.abs(mom.mean - ref_m)) < 1e-12
    assert np.max(np.abs(mom.var - ref_v)) < 1e-12
    assert np.max(np.abs(pi - ref_pi)) < 1e-12


def test_spike_slab_hand_value():
    mom, pi = x_posterior_spike_slab(0.5, 0.2, logit(0.1), 1.0)
    ref_m, ref_v, ref_pi = _two_branch_reference(0.5, 0.2, 0.1, 1.0)
    assert mom.mean == pytest.approx(ref_m, abs=1e-14)
    assert mom.var == pytest.approx(ref_v, abs=1e-14)
    assert pi == pytest.approx(ref_pi, abs=1e-14)


def test_spike_slab_extreme_inputs_stay_finite():
    mom, pi = x_posterior_spike_slab(np.array([1e6, -1e6]), 1e-12, logit(0.3), 1.0)
    assert np.all(np.isfinite(mom.mean))
    assert np.all(np.isfinite(mom.var))
    assert np.all(pi == 1.0)
    assert np.allclose(mom.mean, np.array([1e6, -1e6]), rtol=1e-10)
    with pytest.raises(InvalidParameter):
        x_posterior_spike_slab(0.0, 0.0, 0.0, 1.0)


def test_extrinsic_hand_values():
    out = extrinsic(Moments(1.0, 0.5), Moments(0.0, 1.0), 1e-11, 1e11)
    assert out.var == pytest.approx(1.0, rel=1e-15)
    assert out.mean == pytest.approx(2.0, rel=1e-15)


def test_extrinsic_variance_clamps():
    railed = extrinsic(Moments(1.0, 2.0), Moments(0.0, 1.0), 1e-11, 1e11)
    assert railed.var == 1e11
    assert railed.mean == pytest.approx(1e11 * 0.5, rel=1e-12)
    floored = extrinsic(Moments(0.0, 1e-13), Moments(0.0, 1.0), 1e-11, 1e11)
    assert floored.var == 1e-11


def test_extrinsic_round_trip_recovers_posterior():
    rng = np.random.default_rng(1)
    for _ in range(100):
        cav_m, cav_v = rng.uniform(-5, 5), rng.uniform(0.5, 3.0)
        pos_v = cav_v * rng.uniform(0.05, 0.95)
        pos_m = rng.uniform(-5, 5)
        ext = extrinsic(Moments(pos_m, pos_v), Moments(cav_m, cav_v), 1e-11, 1e11)
        v_back = 1.0 / (1.0 / ext.var + 1.0 / cav_v)
        m_back = v_back * (ext.mean / ext.var + cav_m / cav_v)
        assert abs(v_back - pos_v) < 1e-10 * pos_v
        assert abs(m_back - pos_m) < 1e-10 * max(1.0, abs(pos_m))


def _llr_in_reference(m, v, sigma_x_sq):
    return norm.logpdf(m, scale=np.sqrt(sigma_x_sq + v)) - norm.logpdf(m, scale=np.sqrt(v))


def test_llr_singleton_groups_return_prior_rate():
    groups = GroupStructure((1, 1, 1))
    llr = llr_messages(np.array([2.0, -1.0, 0.3]), np.array([0.5, 1.0, 2.0]), 0.23, 1.0, groups)
    assert np.max(np.abs(expit(llr) - 0.23)) < 1e-12


def test_llr_messages_match_enumeration_on_pairs():
    groups = GroupStructure((2, 2))
    rng = np.random.default_rng(2)
    m = rng.uniform(-2, 2, size=4)
    v = rng.uniform(0.2, 1.5, size=4)
    rho, sx = 0.3, 1.2
    got = expit(llr_messages(m, v, rho, sx, groups))
    llr_in = _llr_in_reference(m, v, sx)
    logit_rho = np.log(rho / (1 - rho))
    expect = [
        1 / (1 + np.exp(-(logit_rho + llr_in[1]))),
        1 / (1 + np.exp(-(logit_rho + llr_in[0]))),
        1 / (1 + np.exp(-(logit_rho + llr_in[3]))),
        1 / (1 + np.exp(-(logit_rho + llr_in[2]))),
    ]
    assert np.max(np.abs(got - np.array(expect))) < 1e-10


def test_llr_uninformative_evidence_returns_prior_rate():
    groups = GroupStructure((3, 2))
    llr = llr_messages(np.zeros(5), np.full(5, 1e12), 0.4, 1.0, groups)
    assert np.max(np.abs(expit(llr) - 0.4)) < 1e-6


def test_llr_clipping_and_validation():
    groups = GroupStructure((2,))
    strong = llr_messages(np.array([50.0, 50.0]), np.array([0.01, 0.01]), 0.5, 1.0, groups)
    assert np.all(strong == LLR_CAP)  # the log-odds of 1 - 1e-15 against 1e-15
    # m = 0 with tiny v makes the spike branch overwhelming: llr ~ 0.5 log v
    weak = llr_messages(np.array([0.0, 0.0]), np.array([1e-31, 1e-31]), 0.5, 1.0, groups)
    assert np.all(weak == -LLR_CAP)
    with pytest.raises(InvalidParameter):
        llr_messages(np.zeros(2), np.ones(2), 0.0, 1.0, groups)
    with pytest.raises(InvalidParameter):
        llr_messages(np.zeros(2), np.zeros(2), 0.5, 1.0, groups)


def test_indicator_beliefs_match_direct_formula():
    groups = GroupStructure((2, 3, 1))
    rng = np.random.default_rng(3)
    m = rng.uniform(-2, 2, size=6)
    v = rng.uniform(0.2, 1.5, size=6)
    rho, sx = 0.25, 0.8
    got = indicator_beliefs(m, v, rho, sx, groups)
    assert got.shape == (3,)
    llr_in = _llr_in_reference(m, v, sx)
    logit_rho = np.log(rho / (1 - rho))
    for k in range(groups.k):
        sl = groups.group_of == k
        expect = 1 / (1 + np.exp(-(logit_rho + np.sum(llr_in[sl]))))
        assert abs(got[k] - expect) < 1e-10
    with pytest.raises(InvalidParameter):
        indicator_beliefs(m, v, 1.0, sx, groups)
