import ast
import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, lapack

from hygec.bench import Scenario, build_instance
from hygec.denoisers import (
    PROB_FLOOR,
    Moments,
    channel_posterior,
    extrinsic,
    llr_messages,
    x_posterior_spike_slab,
)
from hygec.engine import (
    FactorizationFailure,
    HygecConfig,
    NonFinite,
    _damp,
    gaussian_reproduction_residuals,
    hygec_run,
    hygec_sweep,
    init_state,
    lmmse_block,
    lmmse_gram,
)
from hygec.ensembles import apply_channel, gen_group_sparse_signal
from hygec.oracle import exact_posterior_small
from hygec.types import (
    CONVERGED,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    Channel,
    DimensionMismatch,
    GroupStructure,
    InvalidParameter,
    ProblemInstance,
)


def _instance(seed, m, n, k, rho, snr_db, **options):
    sc = Scenario(name="custom", m=m, n=n, k=k, rho=rho, snr_db=snr_db, seeds=(seed,), **options)
    return build_instance(sc, seed, None)


def test_config_validation():
    HygecConfig(damping=1.0)  # undamped is allowed
    for bad in (
        dict(max_iter=0),
        dict(tol=0.0),
        dict(damping=0.0),
        dict(damping=1.5),
        dict(v_min=1.0, v_max=1.0),
    ):
        with pytest.raises(InvalidParameter):
            HygecConfig(**bad)


def test_init_state_z_prior_variance():
    inst = ProblemInstance(
        np.eye(4),
        np.zeros(4),
        GroupStructure.even(4, 2),
        Channel.linear_awgn(0.3),
        2.0,
    )
    # ||H||_F^2 / M = 1 for the identity, so the z-prior variance is rho*sigma_x_sq + noise_var
    v_z_pri = init_state(inst, 0.25, HygecConfig()).v_z_pri
    assert v_z_pri == pytest.approx(np.full(4, 0.25 * 2.0 + 0.3))


def test_init_state_layout():
    inst = _instance(0, 6, 10, 5, 0.2, 15.0, sigma_x_sq=2.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    assert st.t == 0
    assert st.m_z_pri.shape == (6,) and st.m_x_pri.shape == (10,)
    assert np.all(st.m_z_pri == 0) and np.all(st.m_x_lik == 0) and np.all(st.x_pos == 0)
    # on the linear channel the z-likelihood message is the channel, N(y, noise_var)
    assert np.array_equal(st.m_z_lik, inst.y) and st.m_z_lik is not inst.y
    assert np.all(st.v_z_lik == inst.channel.noise_var) and np.all(st.v_x_lik == cfg.v_max)
    assert np.all(st.v_x_pri == 0.2 * 2.0)
    assert np.all(st.rho_hat == 0.2)
    assert np.array_equal(st.gram, lmmse_gram(inst.H, st.v_z_lik))  # fixed with N(y, noise_var)
    quant = init_state(_instance(0, 6, 10, 5, 0.2, 15.0, bits=2), 0.2, cfg)
    assert np.all(quant.m_z_lik == 0) and np.all(quant.v_z_lik == cfg.v_max)
    assert quant.gram is None  # the quantized sweep builds its Gram from each new message


def _lmmse_both_sides(H, mz, vz, mx, vx, gram=None):
    if gram is None:
        gram = lmmse_gram(H, vz)
    return (
        *lmmse_block(H, gram, mz, vz, mx, vx, "x"),
        *lmmse_block(H, gram, mz, vz, mx, vx, "z"),
    )


def _lmmse_dense_inverse(H, mz, vz, mx, vx):
    q = np.linalg.inv(H.T @ np.diag(1.0 / vz) @ H + np.diag(1.0 / vx))
    x_ref = q @ (H.T @ (mz / vz) + mx / vx)
    return x_ref, np.diag(q), H @ x_ref, np.diag(H @ q @ H.T)


def test_lmmse_identity_sensing_is_scalar_product():
    rng = np.random.default_rng(0)
    n = 7
    mz, vz = rng.uniform(-2, 2, n), rng.uniform(0.5, 2.0, n)
    mx, vx = rng.uniform(-2, 2, n), rng.uniform(0.5, 2.0, n)
    x_pos, v_x, z_pos, v_z = _lmmse_both_sides(np.eye(n), mz, vz, mx, vx)
    v_ref = 1.0 / (1.0 / vz + 1.0 / vx)
    m_ref = v_ref * (mz / vz + mx / vx)
    assert np.max(np.abs(x_pos - m_ref)) < 1e-12
    assert np.max(np.abs(v_x - v_ref)) < 1e-12
    assert np.max(np.abs(z_pos - m_ref)) < 1e-12
    assert np.max(np.abs(v_z - v_ref)) < 1e-12


def test_lmmse_matches_dense_inverse():
    rng = np.random.default_rng(1)
    m, n = 9, 6
    H = rng.standard_normal((m, n))
    mz, vz = rng.uniform(-2, 2, m), rng.uniform(0.5, 2.0, m)
    mx, vx = rng.uniform(-2, 2, n), rng.uniform(0.5, 2.0, n)
    x_pos, v_x, z_pos, v_z = _lmmse_both_sides(H, mz, vz, mx, vx)
    x_ref, v_x_ref, z_ref, v_z_ref = _lmmse_dense_inverse(H, mz, vz, mx, vx)
    assert np.max(np.abs(x_pos - x_ref)) < 1e-9
    assert np.max(np.abs(v_x - v_x_ref)) < 1e-9
    assert np.max(np.abs(z_pos - z_ref)) < 1e-9
    assert np.max(np.abs(v_z - v_z_ref)) < 1e-9


def test_lmmse_matches_dense_inverse_over_wide_prior_variances():
    # mid-run the x-side prior variances span 1e-5 (near-certain zeros) to
    # 1e10 (uninformative); the solve must stay exact to rounding there
    rng = np.random.default_rng(2)
    m, n = 40, 80
    H = rng.standard_normal((m, n)) / np.sqrt(m)
    mz, vz = rng.uniform(-2, 2, m), 10.0 ** rng.uniform(-2, 0, m)
    mx, vx = rng.uniform(-2, 2, n), 10.0 ** rng.uniform(-5, 10, n)
    vx[:2] = 1e-5, 1e10
    got = _lmmse_both_sides(H, mz, vz, mx, vx)
    prec = H.T @ np.diag(1.0 / vz) @ H + np.diag(1.0 / vx)
    rhs = H.T @ (mz / vz) + mx / vx
    # the mean's normal-equation residual sits at rounding (a Woodbury solve
    # through the m x m system leaves 2e-5 in this regime)
    assert np.linalg.norm(prec @ got[0] - rhs) / np.linalg.norm(rhs) < 1e-13
    assert np.max(np.abs(got[2] - H @ got[0])) < 1e-12 * np.max(np.abs(got[2]))
    # the dense inverse is itself accurate only to about cond(P) * eps
    tol = 100 * np.linalg.cond(prec) * np.finfo(float).eps
    ref = _lmmse_dense_inverse(H, mz, vz, mx, vx)
    for name, a, b in zip(("x_pos", "v_x", "z_pos", "v_z"), got, ref):
        err = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert err < tol, f"{name}: relative error {err:.1e} (tolerance {tol:.1e})"


def test_lmmse_full_gram_and_lower_triangle_agree():
    rng = np.random.default_rng(3)
    m, n = 12, 20
    H = rng.standard_normal((m, n))
    mz, vz = rng.uniform(-2, 2, m), rng.uniform(0.1, 2.0, m)
    mx, vx = rng.uniform(-2, 2, n), 10.0 ** rng.uniform(-3, 3, n)
    packed = lmmse_gram(H, vz)
    assert packed.shape == (n * (n + 1) // 2,)
    full = (H / vz[:, None]).T @ H
    ref = lapack.dtrttp(np.asfortranarray(full), uplo="L")[0]
    assert np.max(np.abs(packed - ref)) < 1e-12 * np.max(np.abs(full))
    got_packed = _lmmse_both_sides(H, mz, vz, mx, vx, packed)
    got_full = _lmmse_both_sides(H, mz, vz, mx, vx, ref)
    for a, b in zip(got_packed, got_full):
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("layout", ["C", "F", "column-slice"])
def test_lmmse_matvecs_read_any_layout_of_h(layout):
    # scipy's dgemv reads H.T in place for a C-ordered H; f2py copies other
    # layouts, and the result must not depend on which
    rng = np.random.default_rng(4)
    m, n = 30, 50
    wide = rng.standard_normal((m, 2 * n)) / np.sqrt(m)
    H = {
        "C": np.ascontiguousarray(wide[:, ::2]),
        "F": np.asfortranarray(wide[:, ::2]),
        "column-slice": wide[:, ::2],
    }[layout]
    assert (H.flags.c_contiguous, H.flags.f_contiguous) == {
        "C": (True, False), "F": (False, True), "column-slice": (False, False)}[layout]
    mz, vz = rng.uniform(-2, 2, m), rng.uniform(0.5, 2.0, m)
    mx, vx = rng.uniform(-2, 2, n), 10.0 ** rng.uniform(-1, 1, n)
    gram = lmmse_gram(H, vz)
    x_pos, _, z_pos, _ = _lmmse_both_sides(H, mz, vz, mx, vx, gram)
    lower = lapack.dtpttr(n, gram, uplo="L")[0]
    prec = lower + np.tril(lower, -1).T + np.diag(1.0 / vx)
    x_ref = cho_solve(cho_factor(prec, lower=True), H.T @ (mz / vz) + mx / vx)
    assert np.max(np.abs(x_pos - x_ref)) < 1e-12 * np.max(np.abs(x_ref))
    z_ref = H @ x_pos
    assert np.max(np.abs(z_pos - z_ref)) < 1e-12 * np.max(np.abs(z_ref))


def test_engine_has_no_numpy_matmul():
    # a numpy matvec would wake numpy's own BLAS thread pool, which then spins
    # through scipy's factorizations on the same cores; scipy.linalg's wrappers
    # would hide which routine runs, so the step calls blas and lapack directly.
    # apply_channel runs just before a solve when an instance is built.
    tree = ast.parse(inspect.getsource(inspect.getmodule(lmmse_block)))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
    channel_tree = ast.parse(inspect.getsource(apply_channel))
    assert not [node for node in ast.walk(channel_tree) if isinstance(node, ast.MatMult)]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
            assert {alias.name for alias in node.names} <= {"blas", "lapack"}
        if isinstance(node, ast.Import):
            assert not [a for a in node.names if a.name.startswith("scipy.linalg")]


def test_linear_run_peak_memory_is_the_packed_gram_and_one_square():
    # the run holds the packed Gram (n^2 / 2 doubles) and each sweep one n x n
    # buffer to factor; a full-square Gram, or packing it while the row-scaled
    # copy of H is alive, takes the peak to about 2 n^2 doubles
    inst = _instance(0, 200, 400, 20, 0.1, 10.0)
    hygec_run(inst, 0.1)  # warm-up, so first-call allocations are not counted
    tracemalloc.start()
    try:
        hygec_run(inst, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 8 * inst.n**2, f"peak {peak / (8 * inst.n**2):.2f} n^2 doubles"


def test_lmmse_translates_factorization_errors():
    # an indefinite system must surface as FactorizationFailure, not LinAlgError
    H = np.array([[0.0]])
    gram = lmmse_gram(H, np.array([1.0]))
    for side in ("x", "z"):
        with pytest.raises(FactorizationFailure):
            lmmse_block(H, gram, np.array([1.0]), np.array([1.0]), np.array([0.0]),
                        np.array([-1.0]), side)
    with pytest.raises(InvalidParameter):
        lmmse_block(H, gram, np.array([1.0]), np.array([1.0]), np.array([0.0]),
                    np.array([1.0]), "y")


@pytest.mark.parametrize("bits", [None, 2])
def test_sweeps_match_explicit_inverse_reference(monkeypatch, bits):
    # the same sweeps with each LMMSE step done through a dense inverse of
    # H^T D H + diag(1/v_x_pri), the gram argument ignored
    inst = _instance(4, 30, 60, 10, 0.2, 15.0, bits=bits)
    cfg = HygecConfig()
    fast = init_state(inst, 0.2, cfg)
    ref = init_state(inst, 0.2, cfg)
    for _ in range(5):
        hygec_sweep(fast, inst, 0.2, cfg)

    def dense(H, gram, mz, vz, mx, vx, side):
        x_pos, v_x, z_pos, v_z = _lmmse_dense_inverse(H, mz, vz, mx, vx)
        return (x_pos, v_x) if side == "x" else (z_pos, v_z)

    monkeypatch.setattr("hygec.engine.lmmse_block", dense)
    for _ in range(5):
        hygec_sweep(ref, inst, 0.2, cfg)
    names = ["m_z_lik", "v_z_lik", "m_x_pri", "v_x_pri", "m_x_lik", "v_x_lik", "x_pos",
             "v_x_pos", "rho_hat"]
    if bits is not None:  # the linear sweep leaves the z-prior message at its initial zeros
        names += ["m_z_pri", "v_z_pri"]
    for name in names:
        a, b = getattr(fast, name), getattr(ref, name)
        err = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert err < 1e-9, f"{name}: relative error {err:.1e}"


def _two_solve_sweep(state, inst, rho, cfg):
    # the sweep as it runs on every channel kind: z-channel denoise, x-side
    # solve, spike-slab denoise, z-side solve, activity refresh; `state.gram`
    # is not read
    damp = cfg.damping if state.t > 0 else 1.0
    z_pos = channel_posterior(inst.channel, inst.y, state.m_z_pri, state.v_z_pri)
    ext = extrinsic(z_pos, Moments(state.m_z_pri, state.v_z_pri), cfg.v_min, cfg.v_max)
    state.m_z_lik, state.v_z_lik = _damp(ext, state.m_z_lik, state.v_z_lik, damp)
    gram = lmmse_gram(inst.H, state.v_z_lik)
    pos = lmmse_block(inst.H, gram, state.m_z_lik, state.v_z_lik, state.m_x_pri, state.v_x_pri, "x")
    ext = extrinsic(Moments(*pos), Moments(state.m_x_pri, state.v_x_pri), cfg.v_min, cfg.v_max)
    state.m_x_lik, state.v_x_lik = _damp(ext, state.m_x_lik, state.v_x_lik, damp)
    (x_mean, x_var), _ = x_posterior_spike_slab(
        state.m_x_lik, state.v_x_lik, state.rho_hat, inst.sigma_x_sq
    )
    state.x_pos, state.v_x_pos = x_mean, np.maximum(x_var, cfg.v_min)
    ext = extrinsic(Moments(state.x_pos, state.v_x_pos), Moments(state.m_x_lik, state.v_x_lik),
                    cfg.v_min, cfg.v_max)
    state.m_x_pri, state.v_x_pri = _damp(ext, state.m_x_pri, state.v_x_pri, damp)
    pos = lmmse_block(inst.H, gram, state.m_z_lik, state.v_z_lik, state.m_x_pri, state.v_x_pri, "z")
    ext = extrinsic(Moments(*pos), Moments(state.m_z_lik, state.v_z_lik), cfg.v_min, cfg.v_max)
    state.m_z_pri, state.v_z_pri = _damp(ext, state.m_z_pri, state.v_z_pri, damp)
    state.rho_hat = llr_messages(state.m_x_lik, state.v_x_lik, rho, inst.sigma_x_sq, inst.groups)
    if not state.all_finite():
        raise NonFinite(f"non-finite message state after sweep {state.t + 1}")
    state.t += 1
    return state


def test_linear_sweep_matches_two_solve_sweep(monkeypatch):
    # on the linear channel the z-likelihood message is N(y, noise_var) for
    # every z-prior message, so skipping the z side changes nothing on x
    inst = _instance(5, 200, 400, 20, 0.1, 10.0)
    nudged = dataclasses.replace(inst, y=np.nextafter(inst.y, np.inf))  # one ulp
    cfg = HygecConfig()
    fast, ref, ref_nudged = (init_state(inst, 0.1, cfg) for _ in range(3))

    def rel_err(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for t in range(20):
        hygec_sweep(fast, inst, 0.1, cfg)
        _two_solve_sweep(ref, inst, 0.1, cfg)
        _two_solve_sweep(ref_nudged, nudged, 0.1, cfg)
        for name in ("m_z_lik", "v_z_lik", "m_x_pri", "v_x_pri", "x_pos", "v_x_pos", "rho_hat"):
            err = rel_err(getattr(fast, name), getattr(ref, name))
            assert err < 1e-9, f"sweep {t + 1}, {name}: relative error {err:.1e}"
        # the x-likelihood message divides the x posterior by a prior that
        # pins inactive elements near v_min, which amplifies rounding by up to
        # v_x_lik / v_x_pri ~ 1e9: there a one-ulp change of y moves the
        # reference itself by ~1e-6, and the bound is ten times that move
        for name in ("m_x_lik", "v_x_lik"):
            err = rel_err(getattr(fast, name), getattr(ref, name))
            ulp_move = rel_err(getattr(ref_nudged, name), getattr(ref, name))
            bound = max(1e-9, 10.0 * ulp_move)
            assert err < bound, f"sweep {t + 1}, {name}: relative error {err:.1e} > {bound:.1e}"
    # hygec_run sweeps the state that init_state built, Gram included
    _, _, _, x_pos, report = hygec_run(inst, 0.1, cfg)
    monkeypatch.setattr("hygec.engine.hygec_sweep", _two_solve_sweep)
    _, _, _, x_ref, ref_report = hygec_run(inst, 0.1, cfg)
    assert report.inner_iterations == ref_report.inner_iterations
    assert report.termination == ref_report.termination == CONVERGED
    assert rel_err(x_pos, x_ref) < 1e-9


@pytest.mark.parametrize("bits, per_sweep", [(None, 1), (2, 2)])
def test_lmmse_solves_per_sweep(monkeypatch, bits, per_sweep):
    inst = _instance(4, 30, 60, 10, 0.2, 15.0, bits=bits)
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return lmmse_block(*args)

    monkeypatch.setattr("hygec.engine.lmmse_block", counted)
    _, _, _, _, report = hygec_run(inst, 0.2, HygecConfig(max_iter=4))
    assert report.inner_iterations == 4
    assert len(calls) == per_sweep * 4
    assert calls[:per_sweep] == ["x", "z"][:per_sweep]


def test_one_sweep_identity_sensing_matches_scalar_denoiser():
    # with H = I the first sweep reduces to the scalar spike-slab denoiser
    # applied to the raw observations under the channel noise
    n, rho, nv = 12, 0.3, 0.01
    groups = GroupStructure.even(n, 4)
    x, xi = gen_group_sparse_signal(groups, rho, 1.0, np.random.default_rng(1))
    y = apply_channel(np.eye(n), x, Channel.linear_awgn(nv), np.random.default_rng(2))
    inst = ProblemInstance(np.eye(n), y, groups, Channel.linear_awgn(nv), 1.0, x, xi, rho)
    cfg = HygecConfig()
    st = init_state(inst, rho, cfg)
    hygec_sweep(st, inst, rho, cfg)
    (ref_mean, ref_var), _ = x_posterior_spike_slab(y, nv, rho, 1.0)
    assert np.max(np.abs(st.x_pos - ref_mean)) < 1e-8
    assert np.max(np.abs(st.v_x_pos - np.maximum(ref_var, cfg.v_min))) < 1e-8


def test_sweep_keeps_state_sane():
    inst = _instance(2, 20, 30, 6, 0.2, 12.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    for t in range(30):
        hygec_sweep(st, inst, 0.2, cfg)
        assert st.t == t + 1
        assert st.all_finite()
        for v in (st.v_z_pri, st.v_z_lik, st.v_x_pri, st.v_x_lik, st.v_x_pos):
            assert np.all(v >= cfg.v_min) and np.all(v <= cfg.v_max)
        assert np.all(st.rho_hat >= PROB_FLOOR) and np.all(st.rho_hat <= 1 - PROB_FLOOR)


def test_run_validates_inputs():
    inst = _instance(0, 6, 10, 5, 0.2, 15.0)
    with pytest.raises(InvalidParameter):
        hygec_run(inst, 0.0)
    with pytest.raises(InvalidParameter):
        hygec_run(inst, 1.0)
    with pytest.raises(DimensionMismatch):  # an inconsistent instance never reaches a run
        ProblemInstance(
            inst.H, inst.y[:-1], inst.groups, inst.channel, 1.0, inst.x_true, inst.xi_true, 0.2
        )


def test_run_converges_on_benign_instance():
    inst = _instance(0, 40, 60, 6, 0.2, 18.0)
    m_x_lik, v_x_lik, rho_hat, x_pos, report = hygec_run(inst, 0.2)
    assert report.termination == CONVERGED
    assert report.failure is None
    assert 0 < report.inner_iterations < 200
    assert report.inner_counts == [report.inner_iterations]
    assert report.nmse_trace[-1] < -12.0
    assert m_x_lik.shape == v_x_lik.shape == x_pos.shape == (60,)
    assert rho_hat.shape == (60,)


def test_run_skips_nmse_trace_for_all_zero_truth():
    inst = _instance(3, 40, 60, 6, 0.2, 18.0)
    assert int(np.sum(inst.xi_true)) == 0
    _, _, _, _, report = hygec_run(inst, 0.2)
    assert report.nmse_trace == []
    assert report.termination == CONVERGED


def test_run_honors_iteration_cap():
    inst = _instance(1, 40, 60, 6, 0.2, 18.0)
    _, _, _, _, report = hygec_run(inst, 0.2, HygecConfig(max_iter=2))
    assert report.termination == MAX_ITERATIONS
    assert report.inner_iterations == 2


def test_run_records_overflow_as_numerical_failure():
    inst = _instance(0, 10, 16, 4, 0.3, 15.0)
    huge = ProblemInstance(
        inst.H * 1e160, inst.y, inst.groups, inst.channel, 1.0, inst.x_true, inst.xi_true, 0.3
    )
    with np.errstate(all="ignore"):
        _, _, _, _, report = hygec_run(huge, 0.3)
    assert report.termination == NUMERICAL_FAILURE
    assert report.inner_iterations == 0
    assert report.failure.startswith(("FactorizationFailure in sweep 1: ",
                                      "NonFinite in sweep 1: ")), report.failure


def test_failed_sweep_is_not_counted():
    inst = _instance(0, 10, 16, 4, 0.3, 15.0)
    y = inst.y.copy()
    y[3] = np.nan
    bad = dataclasses.replace(inst, y=y)
    cfg = HygecConfig()
    st = init_state(bad, 0.3, cfg)
    with np.errstate(all="ignore"), pytest.raises(NonFinite):
        hygec_sweep(st, bad, 0.3, cfg)
    assert st.t == 0
    with np.errstate(all="ignore"):
        _, _, _, _, report = hygec_run(bad, 0.3, cfg)
    assert report.termination == NUMERICAL_FAILURE
    assert report.inner_counts == [0]
    assert report.failure.startswith("NonFinite in sweep 1: "), report.failure


@pytest.mark.parametrize("bits", [None, 2])
def test_direct_sweeps_and_run_take_one_path(bits):
    # k sweeps from init_state are bitwise the run capped at k sweeps
    inst = _instance(6, 30, 60, 10, 0.2, 15.0, bits=bits)
    k = 7
    cfg = HygecConfig(max_iter=k, tol=np.finfo(float).tiny)  # a tolerance no sweep meets
    st = init_state(inst, 0.2, cfg)
    for _ in range(k):
        hygec_sweep(st, inst, 0.2, cfg)
    _, _, _, x_pos, report = hygec_run(inst, 0.2, cfg)
    assert report.termination == MAX_ITERATIONS
    assert report.inner_counts == [k] == [st.t]
    assert np.array_equal(x_pos, st.x_pos)


def test_run_matches_exact_posterior_on_tiny_instances():
    # 50 undamped-start sweeps on 6x8 problems land within 1e-3 RMS of the
    # full 2^4-pattern enumeration at this SNR
    for seed in range(5):
        inst = _instance(seed, 6, 8, 4, 0.1, 20.0)
        cfg = HygecConfig()
        st = init_state(inst, 0.1, cfg)
        for _ in range(50):
            hygec_sweep(st, inst, 0.1, cfg)
        x_ref, _, _ = exact_posterior_small(inst, 0.1, 1.0)
        rms = float(np.sqrt(np.mean((st.x_pos - x_ref) ** 2)))
        assert rms < 1e-3, f"seed {seed}: rms {rms}"


def test_reproduction_residuals_vanish_at_fixed_point():
    inst = _instance(1, 60, 100, 10, 0.15, 15.0)
    cfg = HygecConfig(max_iter=120, tol=1e-30)
    st = init_state(inst, 0.15, cfg)
    for _ in range(120):
        hygec_sweep(st, inst, 0.15, cfg)
    d_mean, d_var, clamped = gaussian_reproduction_residuals(st, cfg)
    free = ~clamped
    assert np.any(free)
    assert np.max(d_mean[free]) < 1e-9
    assert np.max(d_var[free]) < 1e-9


def test_reproduction_residuals_flag_clamped_elements():
    inst = _instance(0, 6, 10, 5, 0.2, 15.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    assert np.all(gaussian_reproduction_residuals(st, cfg)[2])  # fresh v_x_lik sits at v_max
    st.v_x_lik = np.ones(10)
    _, _, clamped = gaussian_reproduction_residuals(st, cfg)
    assert not np.any(clamped)
    st.v_x_lik[4] = cfg.v_max
    _, _, clamped = gaussian_reproduction_residuals(st, cfg)
    assert clamped[4] and clamped.sum() == 1
