import numpy as np
import pytest
from scipy.special import expit, logit
from scipy.stats import norm

from hygec.bench import Scenario, build_instance
from hygec.denoisers import indicator_beliefs, llr_messages
from hygec.em import RATE_TOL, RHO_FLOOR, EmConfig, em_hygec_run, em_update_rho
from hygec.engine import HygecConfig, hygec_run
from hygec.oracle import exact_posterior_small
from hygec.types import (
    CONVERGED,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    GroupStructure,
    InvalidParameter,
    ProblemInstance,
)


def _instance(seed, m, n, k, rho, snr_db):
    sc = Scenario(name="custom", m=m, n=n, k=k, rho=rho, snr_db=snr_db, seeds=(seed,))
    return build_instance(sc, seed, None)


def test_em_config_validation():
    with pytest.raises(InvalidParameter):
        EmConfig(max_outer=0)
    with pytest.raises(InvalidParameter, match="^max_outer must be a finite int"):
        EmConfig(max_outer=2.5)


def _group_activity(m, v, rho, sigma_x_sq):
    # the rate update over a single group is that group's activity
    return em_update_rho(m, v, rho, GroupStructure((len(m),)), sigma_x_sq)


def test_group_activity_singleton_closed_form():
    # m = 0, v = sigma_x_sq = 1, even prior: odds reduce to sqrt(v / (v + 1)),
    # so the activity is 1 / (1 + sqrt(2))
    act = _group_activity(np.array([0.0]), np.array([1.0]), 0.5, 1.0)
    assert act == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)), abs=1e-12)


def test_group_activity_overwhelming_evidence():
    # the activity rounds to 1, which the update clips to 1 - RHO_FLOOR
    act = _group_activity(np.array([50.0]), np.array([0.01]), 0.5, 1.0)
    assert act == pytest.approx(1.0 - RHO_FLOOR, abs=1e-12)


def test_em_update_averages_the_indicator_beliefs_of_multi_element_groups():
    rng = np.random.default_rng(0)
    groups = GroupStructure((3, 2, 4))
    m = rng.uniform(-2, 2, groups.n)
    v = rng.uniform(0.2, 1.5, groups.n)
    rho, sx = 0.3, 1.3
    beliefs = indicator_beliefs(m, v, rho, sx, groups)
    assert np.all((beliefs > RHO_FLOOR) & (beliefs < 1.0 - RHO_FLOOR))
    assert em_update_rho(m, v, rho, groups, sx) == np.mean(beliefs)
    # a product over a group of each element's activity given its extrinsic
    # message counts the group's belief once per element: b_k ** N_k
    llr = norm.logpdf(m, scale=np.sqrt(sx + v)) - norm.logpdf(m, scale=np.sqrt(v))
    terms = expit(llr_messages(m, v, rho, sx, groups) + llr)
    product = np.multiply.reduceat(terms, groups.offsets)
    np.testing.assert_allclose(product, beliefs ** np.array(groups.group_sizes), rtol=1e-9)
    assert abs(np.mean(product) - np.mean(beliefs)) > 0.05


def test_em_update_tracks_the_exact_posterior_activity():
    # 50 tiny 5 dB instances at the known rate: the M-step against the mean
    # exact group activity from enumerating all 2^6 activity patterns
    rho, cfg = 0.3, HygecConfig(v_max=1e4)
    errors = []
    for seed in range(50):
        inst = _instance(seed, 10, 12, 6, rho, 5.0)
        m_x_lik, v_x_lik, _, _, _ = hygec_run(inst, rho, cfg)
        _, _, xi_post = exact_posterior_small(inst, rho, inst.sigma_x_sq)
        exact = np.clip(np.mean(xi_post), RHO_FLOOR, 1.0 - RHO_FLOOR)
        step = em_update_rho(m_x_lik, v_x_lik, rho, inst.groups, inst.sigma_x_sq)
        errors.append(abs(step - exact))
    assert np.mean(errors) < 0.02


def test_em_update_is_mean_of_group_activities():
    # invert the singleton-activity formula so the three groups land exactly
    # on 0.2, 0.4, 0.6; the update must return their mean
    v = 0.05
    total = 1.0 + v
    coef = 0.5 * (1.0 / v - 1.0 / total)
    base = 0.5 * np.log(v / total)
    targets = np.array([0.2, 0.4, 0.6])
    m = np.sqrt((logit(targets) - base) / coef)
    groups = GroupStructure((1, 1, 1))
    for mm, t in zip(m, targets):
        assert _group_activity(np.array([mm]), np.array([v]), 0.5, 1.0) == pytest.approx(
            t, abs=1e-10
        )
    rho_new = em_update_rho(m, np.full(3, v), 0.5, groups, 1.0)
    assert rho_new == pytest.approx(0.4, abs=1e-10)


def test_em_update_clips_to_open_interval():
    groups = GroupStructure((1, 1))
    hi = em_update_rho(np.array([50.0, 50.0]), np.full(2, 0.01), 0.5, groups, 1.0)
    assert hi == 1.0 - RHO_FLOOR
    lo = em_update_rho(np.zeros(2), np.full(2, 1e-31), 0.5, groups, 1.0)
    assert lo == RHO_FLOOR


def test_em_run_validates_rho_init():
    inst = _instance(0, 10, 16, 4, 0.2, 15.0)
    with pytest.raises(InvalidParameter):
        em_hygec_run(inst, 0.0)
    with pytest.raises(InvalidParameter):
        em_hygec_run(inst, 1.0)


def test_em_run_single_outer_contract():
    inst = _instance(0, 40, 60, 6, 0.2, 18.0)
    x_pos, rho_final, report = em_hygec_run(inst, 0.15, em_cfg=EmConfig(max_outer=1))
    assert len(report.inner_counts) == 1
    assert report.termination == MAX_ITERATIONS  # one pass cannot certify a fixed point
    assert report.rho_trace[0] == 0.15
    assert len(report.rho_trace) == 2
    assert report.rho_trace[1] == rho_final
    assert x_pos.shape == (60,)


def test_em_run_rho_trace_stays_in_open_interval():
    inst = _instance(1, 40, 60, 6, 0.2, 18.0)
    _, _, report = em_hygec_run(inst, 0.05)
    trace = np.asarray(report.rho_trace)
    assert np.all(trace > 0) and np.all(trace < 1)


def test_em_run_learns_rate_from_cold_start():
    inst = _instance(4, 200, 400, 20, 0.1, 10.0)
    assert int(np.sum(inst.xi_true)) == 2  # 2 of 20 groups, i.e. exactly 0.1
    x_pos, rho_final, report = em_hygec_run(inst, 0.01)
    assert report.termination == CONVERGED
    assert abs(rho_final - 0.1) <= 0.03
    assert report.nmse_trace[-1] < -12.0
    assert report.rho_trace[-1] == rho_final
    assert report.inner_iterations == sum(report.inner_counts)


def test_em_run_stops_once_the_rate_stops_moving():
    # the first M-step lands on the planted rate and the second hands it back
    # within RATE_TOL; a cold inner run at that rate would repeat the second one
    inst = _instance(4, 200, 400, 20, 0.1, 10.0)
    _, _, report = em_hygec_run(inst, 0.01)
    assert report.termination == CONVERGED
    assert len(report.inner_counts) == 2
    assert abs(report.rho_trace[-1] - report.rho_trace[-2]) <= RATE_TOL


def test_em_run_propagates_numerical_failure():
    inst = _instance(0, 10, 16, 4, 0.3, 15.0)
    huge = ProblemInstance(
        inst.H * 1e160, inst.y, inst.groups, inst.channel, 1.0, inst.x_true, inst.xi_true, 0.3
    )
    with np.errstate(all="ignore"):
        _, _, report = em_hygec_run(huge, 0.3)
    assert report.termination == NUMERICAL_FAILURE
    assert len(report.inner_counts) == 1
    assert "in sweep 1: " in report.failure
