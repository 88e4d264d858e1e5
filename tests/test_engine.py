import ast
import dataclasses
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, lapack
from scipy.special import expit, logit

from hygec import denoisers, engine
from hygec.bench import Scenario, build_instance
from hygec.denoisers import (
    LLR_CAP,
    llr_messages,
    x_posterior_spike_slab,
    z_posterior_awgn,
)
from hygec.em import em_hygec_run
from hygec.engine import (
    DAMPING,
    V_MIN,
    FactorizationFailure,
    HygecConfig,
    NonFinite,
    _refresh,
    hygec_run,
    hygec_sweep,
    init_state,
    lmmse_block,
    lmmse_gram,
    nmse,
)
from hygec.ensembles import apply_channel, gen_group_sparse_signal, haar_orthogonal
from hygec.oracle import exact_posterior_small
from hygec.types import (
    CONVERGED,
    MAX_ITERATIONS,
    NUMERICAL_FAILURE,
    Channel,
    GroupStructure,
    InvalidParameter,
    Moments,
    ProblemInstance,
)


def _instance(seed, m, n, k, rho, snr_db, **options):
    sc = Scenario(name="custom", m=m, n=n, k=k, rho=rho, snr_db=snr_db, seeds=(seed,), **options)
    return build_instance(sc, seed, None)


def test_config_validation():
    with pytest.raises(InvalidParameter):
        HygecConfig(v_max=V_MIN)


def test_init_state_z_prior_variance():
    inst = ProblemInstance(
        np.eye(4),
        np.zeros(4),
        GroupStructure.even(4, 2),
        Channel.linear_awgn(0.3),
        2.0,
    )
    # ||H||_F^2 / M = 1 for the identity, so the z-prior variance is rho*sigma_x_sq + noise_var
    v_z_pri = init_state(inst, 0.25, HygecConfig()).z_pri.var
    assert v_z_pri == pytest.approx(np.full(4, 0.25 * 2.0 + 0.3))


def test_init_state_layout():
    inst = dataclasses.replace(_instance(0, 6, 10, 5, 0.2, 15.0), sigma_x_sq=2.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    assert st.t == 0
    assert st.z_pri.mean.shape == (6,) and st.x_pri.mean.shape == (10,)
    assert np.all(st.z_pri.mean == 0) and np.all(st.x_lik.mean == 0) and np.all(st.x_post.mean == 0)
    # on the linear channel the z-likelihood message is the channel, N(y, noise_var);
    # no sweep writes a message in place, so its mean is the instance's own y
    assert st.z_lik.mean is inst.y
    assert np.all(st.z_lik.var == inst.channel.noise_var) and np.all(st.x_lik.var == cfg.v_max)
    assert np.all(st.x_pri.var == 0.2 * 2.0)
    np.testing.assert_allclose(st.llr_hat, logit(0.2), rtol=1e-15, atol=0.0)
    assert np.array_equal(st.gram, lmmse_gram(inst.H, st.z_lik.var))  # fixed with N(y, noise_var)
    quant = init_state(_instance(0, 6, 10, 5, 0.2, 15.0, bits=2), 0.2, cfg)
    assert np.all(quant.z_lik.mean == 0) and np.all(quant.z_lik.var == cfg.v_max)
    assert quant.gram is None  # until the first sweep stores the Gram of its new message


@pytest.mark.parametrize("path, sweep_value", [("iteration_trace_desk.json", None),
                                               ("mean_sweep_b2_desk.json", 0.1)])
def test_state_gram_is_the_gram_of_its_z_likelihood_after_every_sweep(path, sweep_value):
    # one meaning on both channels: the Gram both solves of a sweep read
    scenario = Scenario.from_json(str(Path(__file__).resolve().parents[1] / "scenarios" / path))
    inst = build_instance(scenario, 0, sweep_value)
    cfg = HygecConfig()
    state = init_state(inst, scenario.rho, cfg)
    for t in range(5):
        hygec_sweep(state, inst, scenario.rho, cfg)
        assert np.array_equal(state.gram, lmmse_gram(inst.H, state.z_lik.var)), f"sweep {t + 1}"


@pytest.mark.parametrize("bits", [None, 2])
def test_state_messages_are_moments_of_float_arrays(bits):
    # all_finite and _refresh take each message as a Moments pair of float arrays
    inst = _instance(0, 6, 10, 5, 0.2, 15.0, bits=bits)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    messages = [f.name for f in dataclasses.fields(st) if f.type == "Moments"]
    assert messages == ["z_pri", "z_lik", "x_pri", "x_lik", "x_post"]
    for when in ("after init_state", "after one sweep"):
        for name in messages:
            value = getattr(st, name)
            size = inst.m if name.startswith("z") else inst.n
            assert type(value) is Moments, (when, name)
            for half in value:
                assert isinstance(half, np.ndarray) and half.dtype == np.float64, (when, name)
                assert half.shape == (size,), (when, name)
        hygec_sweep(st, inst, 0.2, cfg)


def _lmmse_both_sides(H, mz, vz, mx, vx, gram=None):
    if gram is None:
        gram = lmmse_gram(H, vz)
    return (
        *lmmse_block(H, gram, Moments(mz, vz), Moments(mx, vx), "x"),
        *lmmse_block(H, gram, Moments(mz, vz), Moments(mx, vx), "z"),
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
    rfp = lmmse_gram(H, vz)
    assert rfp.shape == (n * (n + 1) // 2,)
    full = (H / vz[:, None]).T @ H
    ref = lapack.dtrttf(np.asfortranarray(full), uplo="L")[0]
    assert np.max(np.abs(rfp - ref)) < 1e-12 * np.max(np.abs(full))
    got_rfp = _lmmse_both_sides(H, mz, vz, mx, vx, rfp)
    got_full = _lmmse_both_sides(H, mz, vz, mx, vx, ref)
    for a, b in zip(got_rfp, got_full):
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_gram_build_holds_no_square():
    # the build holds only the row-scaled H and the n(n+1)/2 RFP result; an
    # n x n square on the way would take the peak to about 1.5 times that
    m, n = 200, 400
    H = np.random.default_rng(5).standard_normal((m, n)) / np.sqrt(m)
    v = np.full(m, 0.1)
    lmmse_gram(H, v)  # warm-up, so first-call allocations are not counted
    tracemalloc.start()
    try:
        lmmse_gram(H, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    floor = m * n + n * (n + 1) // 2
    assert peak < 1.1 * 8 * floor, f"peak {peak / (8 * floor):.2f} x (m n + n(n+1)/2) doubles"


@pytest.mark.parametrize("layout", ["C", "F", "column-slice"])
def test_lmmse_matvecs_read_any_layout_of_h(layout):
    # einsum reads H in any layout and dsfrk reads the row-scaled copy in place;
    # the result must not depend on H's layout
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
    lower = lapack.dtfttr(n, gram, uplo="L")[0]
    prec = lower + np.tril(lower, -1).T + np.diag(1.0 / vx)
    x_ref = cho_solve(cho_factor(prec, lower=True), H.T @ (mz / vz) + mx / vx)
    assert np.max(np.abs(x_pos - x_ref)) < 1e-12 * np.max(np.abs(x_ref))
    z_ref = H @ x_pos
    assert np.max(np.abs(z_pos - z_ref)) < 1e-12 * np.max(np.abs(z_ref))


def test_engine_has_no_numpy_matmul():
    # a numpy matmul would wake numpy's own BLAS thread pool, which then spins
    # through scipy's factorizations on the same cores, so the step's matvecs
    # are einsums and its factorizations scipy's compiled LAPACK routines
    # (tests/test_import.py checks that no module imports scipy.linalg).
    # apply_channel runs just before a solve when an instance is built.
    tree = ast.parse(inspect.getsource(inspect.getmodule(lmmse_block)))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.MatMult)]
    channel_tree = ast.parse(inspect.getsource(apply_channel))
    assert not [node for node in ast.walk(channel_tree) if isinstance(node, ast.MatMult)]


def test_engine_converts_no_array():
    # ProblemInstance fixes its arrays' dtypes once; the engine, the denoisers and the
    # NMSE that every sweep calls read them as they are
    for source in (engine, denoisers, nmse):
        tree = ast.parse(inspect.getsource(source))
        calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert not [name for name in calls if name in ("np.asarray", "np.array")], source


@pytest.mark.parametrize("bits", [None, 2])
def test_run_is_bitwise_the_same_on_an_instance_given_in_other_dtypes(bits):
    # an int H, a list y, a bool xi_true and whole-number float cells give the
    # float64/int64 instance's run bit for bit
    rng = np.random.default_rng(8)
    groups = GroupStructure.even(40, 8)
    H = rng.integers(-3, 4, size=(20, 40))
    x, xi = gen_group_sparse_signal(groups, 0.25, 1.0, rng)
    channel = Channel.linear_awgn(0.5) if bits is None else Channel.quantized(0.5, bits, 8.0)
    y = apply_channel(H.astype(float), x, channel, rng)
    given = ProblemInstance(H, (y if bits is None else y.astype(float)).tolist(), groups,
                            channel, 1.0, x, xi.astype(bool), 0.25)
    twin = ProblemInstance(H.astype(float), y, groups, channel, 1.0, x, xi, 0.25)
    *arrays, report = hygec_run(given, 0.25)
    *ref_arrays, ref_report = hygec_run(twin, 0.25)
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in ref_arrays]
    assert dataclasses.asdict(report) == dataclasses.asdict(ref_report)
    assert report.inner_iterations > 1


def test_wrapper_refuses_shapes_lapack_would_overrun():
    # LAPACK reads and writes the sizes it is told; f2py checks each array against them
    # (it copies any other layout or dtype, so only a wrong shape could overrun)
    refused = (engine.lapack.__flapack_error, ValueError)
    H = np.random.default_rng(0).standard_normal((5, 8))
    small_gram = lmmse_gram(H[:, :6], np.ones(5))
    with pytest.raises(refused, match="nt=21"):
        lmmse_block(H, small_gram, Moments(np.zeros(5), np.ones(5)),
                    Moments(np.zeros(8), np.ones(8)), "x")
    square = np.asfortranarray(np.diag([4.0, 9.0, 16.0]))
    with pytest.raises(refused):
        engine.lapack.dpotrf(np.ones((3, 2), order="F"), lower=1)
    with pytest.raises(refused):
        engine.lapack.dpotrs(square, np.ones(4), lower=1)
    chol, info = engine.lapack.dpotrf(square, lower=1)
    assert info == 0
    assert np.array_equal(np.diag(chol), [2.0, 3.0, 4.0])


def test_linear_run_peak_memory_is_the_packed_gram_and_one_square():
    # the run holds the RFP Gram (n^2 / 2 doubles) and each sweep one n x n
    # buffer to factor; a full-square Gram takes the peak to about 2 n^2 doubles
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
            lmmse_block(H, gram, Moments(np.array([1.0]), np.array([1.0])),
                        Moments(np.array([0.0]), np.array([-1.0])), side)
    with pytest.raises(InvalidParameter):
        lmmse_block(H, gram, Moments(np.array([1.0]), np.array([1.0])),
                    Moments(np.array([0.0]), np.array([1.0])), "y")


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

    def dense(H, gram, z_lik, x_pri, side):
        x_pos, v_x, z_pos, v_z = _lmmse_dense_inverse(H, *z_lik, *x_pri)
        return Moments(x_pos, v_x) if side == "x" else Moments(z_pos, v_z)

    monkeypatch.setattr("hygec.engine.lmmse_block", dense)
    for _ in range(5):
        hygec_sweep(ref, inst, 0.2, cfg)
    messages = ["z_lik", "x_pri", "x_lik", "x_post"]
    if bits is not None:  # the linear sweep leaves the z-prior message at its initial zeros
        messages.append("z_pri")
    pairs = [(f"{name}.{half}", a, b) for name in messages
             for half, a, b in zip(Moments._fields, getattr(fast, name), getattr(ref, name))]
    for name, a, b in pairs + [("llr_hat", fast.llr_hat, ref.llr_hat)]:
        err = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert err < 1e-9, f"{name}: relative error {err:.1e}"


def _two_solve_sweep(state, inst, rho, cfg):
    # the full sweep of the quantized channel, run on a linear one with the
    # AWGN z-denoiser: z-channel denoise, x-side solve, spike-slab denoise,
    # z-side solve, activity refresh; `state.gram` is not read
    damp = DAMPING if state.t > 0 else 1.0
    z_channel = z_posterior_awgn(inst.y, *state.z_pri, inst.channel.noise_var)
    state.z_lik = _refresh(z_channel, state.z_pri, state.z_lik, damp, cfg)
    gram = lmmse_gram(inst.H, state.z_lik.var)
    x_joint = lmmse_block(inst.H, gram, state.z_lik, state.x_pri, "x")
    state.x_lik = _refresh(x_joint, state.x_pri, state.x_lik, damp, cfg)
    (x_mean, x_var), _ = x_posterior_spike_slab(*state.x_lik, state.llr_hat, inst.sigma_x_sq)
    state.x_post = Moments(x_mean, np.maximum(x_var, V_MIN))
    state.x_pri = _refresh(state.x_post, state.x_lik, state.x_pri, damp, cfg)
    z_joint = lmmse_block(inst.H, gram, state.z_lik, state.x_pri, "z")
    state.z_pri = _refresh(z_joint, state.z_lik, state.z_pri, damp, cfg)
    state.llr_hat = llr_messages(*state.x_lik, rho, inst.sigma_x_sq, inst.groups)
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
        for name in ("z_lik", "x_pri", "x_post"):
            for half, a, b in zip(Moments._fields, getattr(fast, name), getattr(ref, name)):
                err = rel_err(a, b)
                assert err < 1e-9, f"sweep {t + 1}, {name}.{half}: relative error {err:.1e}"
        # the activity messages as probabilities: their log-odds come from the
        # x-likelihood message, whose rounding is amplified as explained below,
        # and the error sits where |log-odds| is large, which expit squashes
        # (raw log-odds differ by 4.7e-9 relative at sweep 16, 1e-7 at sweep 20)
        err = rel_err(expit(fast.llr_hat), expit(ref.llr_hat))
        assert err < 1e-9, f"sweep {t + 1}, activity: relative error {err:.1e}"
        # the x-likelihood message divides the x posterior by a prior that
        # pins inactive elements near V_MIN, which amplifies rounding by up to
        # x_lik.var / x_pri.var ~ 1e9: there a one-ulp change of y moves the
        # reference itself by ~1e-6, and the bound is ten times that move
        for half, a, b, b_nudged in zip(Moments._fields, fast.x_lik, ref.x_lik, ref_nudged.x_lik):
            err = rel_err(a, b)
            bound = max(1e-9, 10.0 * rel_err(b_nudged, b))
            assert err < bound, f"sweep {t + 1}, x_lik.{half}: {err:.1e} > {bound:.1e}"
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
    monkeypatch.setattr("hygec.engine.MAX_ITER", 4)
    _, _, _, _, report = hygec_run(inst, 0.2)
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
    (ref_mean, ref_var), _ = x_posterior_spike_slab(y, nv, logit(rho), 1.0)
    assert np.max(np.abs(st.x_post.mean - ref_mean)) < 1e-8
    assert np.max(np.abs(st.x_post.var - np.maximum(ref_var, V_MIN))) < 1e-8


def test_sweep_keeps_state_sane():
    inst = _instance(2, 20, 30, 6, 0.2, 12.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    for t in range(30):
        hygec_sweep(st, inst, 0.2, cfg)
        assert st.t == t + 1
        assert st.all_finite()
        for v in (st.z_pri.var, st.z_lik.var, st.x_pri.var, st.x_lik.var, st.x_post.var):
            assert np.all(v >= V_MIN) and np.all(v <= cfg.v_max)
        assert np.all(np.abs(st.llr_hat) <= LLR_CAP)


def test_run_validates_inputs():
    inst = _instance(0, 6, 10, 5, 0.2, 15.0)
    with pytest.raises(InvalidParameter):
        hygec_run(inst, 0.0)
    with pytest.raises(InvalidParameter):
        hygec_run(inst, 1.0)
    # an inconsistent instance never reaches a run
    with pytest.raises(InvalidParameter, match="^y must have length 6$"):
        ProblemInstance(
            inst.H, inst.y[:-1], inst.groups, inst.channel, 1.0, inst.x_true, inst.xi_true, 0.2
        )


def test_run_converges_on_benign_instance():
    inst = _instance(0, 40, 60, 6, 0.2, 18.0)
    m_x_lik, v_x_lik, llr_hat, x_pos, report = hygec_run(inst, 0.2)
    assert report.termination == CONVERGED
    assert report.failure is None
    assert 0 < report.inner_iterations < 200
    assert report.inner_counts == [report.inner_iterations]
    assert report.nmse_trace[-1] < -12.0
    assert m_x_lik.shape == v_x_lik.shape == x_pos.shape == (60,)
    assert llr_hat.shape == (60,)


def test_run_skips_nmse_trace_for_all_zero_truth():
    inst = _instance(3, 40, 60, 6, 0.2, 18.0)
    assert int(np.sum(inst.xi_true)) == 0
    _, _, _, _, report = hygec_run(inst, 0.2)
    assert report.nmse_trace == []
    assert report.termination == CONVERGED


def test_run_honors_iteration_cap(monkeypatch):
    inst = _instance(1, 40, 60, 6, 0.2, 18.0)
    monkeypatch.setattr("hygec.engine.MAX_ITER", 2)
    _, _, _, _, report = hygec_run(inst, 0.2)
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_records_a_zero_posterior_variance_as_numerical_failure(seed):
    # with H shifted by 1e160, past what a scenario's mean may be, a posterior variance
    # reaches zero in sweep 1; extrinsic divides by it under its errstate, so the run
    # records the failure instead of raising the warning under the suite's warnings-as-errors
    inst = _instance(seed, 20, 40, 4, 0.25, 15.0)
    _, _, _, _, report = hygec_run(dataclasses.replace(inst, H=inst.H + 1e160), 0.25)
    assert report.termination == NUMERICAL_FAILURE
    assert report.failure.startswith("NonFinite in sweep 1: "), report.failure


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
def test_direct_sweeps_and_run_take_one_path(monkeypatch, bits):
    # k sweeps from init_state are bitwise the run capped at k sweeps
    inst = _instance(6, 30, 60, 10, 0.2, 15.0, bits=bits)
    k = 7
    monkeypatch.setattr("hygec.engine.MAX_ITER", k)
    monkeypatch.setattr("hygec.engine.TOL", np.finfo(float).tiny)  # a tolerance no sweep meets
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    for _ in range(k):
        hygec_sweep(st, inst, 0.2, cfg)
    _, _, _, x_pos, report = hygec_run(inst, 0.2, cfg)
    assert report.termination == MAX_ITERATIONS
    assert report.inner_counts == [k] == [st.t]
    assert np.array_equal(x_pos, st.x_post.mean)


@pytest.mark.parametrize("bits", [None, 2])
def test_run_stops_at_the_first_step_below_tol(bits):
    # the stop rule: a run ends, converged, after the first sweep whose squared
    # step of the posterior mean, summed over x, is below TOL * n
    inst = _instance(6, 30, 60, 10, 0.2, 15.0, bits=bits)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    steps = []
    while not steps or steps[-1] >= engine.TOL * inst.n:
        assert st.t < engine.MAX_ITER, "no sweep within the budget meets the tolerance"
        x_prev = st.x_post.mean
        hygec_sweep(st, inst, 0.2, cfg)
        steps.append(float(np.sum((st.x_post.mean - x_prev) ** 2)))
    assert len(steps) > 1  # a stop that an earlier sweep did not already make
    _, _, _, x_pos, report = hygec_run(inst, 0.2, cfg)
    assert report.termination == CONVERGED
    assert report.inner_counts == [len(steps)] == [st.t]
    assert np.array_equal(x_pos, st.x_post.mean)


@pytest.mark.parametrize("bits", [None, 2])
def test_run_is_invariant_to_group_relabelling(bits):
    # shuffling whole equal-size groups, with H's column blocks, permutes x_hat
    # and leaves the sweep count alone
    for seed in range(6):
        inst = _instance(seed, 100, 200, 20, 0.2, 15.0, bits=bits)
        groups = inst.groups
        order = np.random.default_rng(seed).permutation(groups.k)
        perm = np.concatenate([np.flatnonzero(groups.group_of == kk) for kk in order])
        moved = ProblemInstance(inst.H[:, perm], inst.y, groups, inst.channel, inst.sigma_x_sq,
                                inst.x_true[perm], inst.xi_true[order], inst.true_rho)
        *_, x_pos, report = hygec_run(inst, 0.2)
        *_, x_moved, report_moved = hygec_run(moved, 0.2)
        assert report.termination == report_moved.termination == CONVERGED, seed
        assert report_moved.inner_counts == report.inner_counts, seed
        rel = np.linalg.norm(x_moved - x_pos[perm]) / np.linalg.norm(x_pos)
        assert rel < 1e-12, f"seed {seed}: {rel:.2e}"


def test_run_is_invariant_to_a_left_rotation():
    """(H, y) -> (QH, Qy), Q orthogonal, is the same linear problem: the likelihood
    ||y - Hx||^2 and the white noise are unchanged. The LMMSE step sees H only through
    H^T D H and H^T D y, so a run stops at the same sweep, with x_hat and EM's rate
    equal to rounding; GAMP's per-entry |H_ij|^2 variances are not rotation-invariant
    (Rangan, Schniter and Fletcher, "Vector approximate message passing", IEEE T-IT
    2019). A trial that ends at max_iterations is compared on termination and sweep
    counts alone: the x_hat of a run that cycles is set by rounding.
    The quantized channel is left out: its quantizer acts on each entry of Hx, so a
    rotation changes the problem."""
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    kappa = Scenario.from_json(str(scenarios / "condition_sweep_desk.json"))
    trace = Scenario.from_json(str(scenarios / "iteration_trace_desk.json"))
    trials = [(kappa, value, "hygec-known-rho") for value in kappa.sweep_values]
    trials += [(trace, None, algorithm) for algorithm in trace.algorithms]
    assert set(trace.algorithms) == {"hygec-known-rho", "em-hygec"}

    def solve(sc, inst, algorithm):  # (x_hat, rate, report)
        if algorithm == "em-hygec":
            return em_hygec_run(inst, sc.rho_init, sc.engine, sc.em)
        *_, x_hat, report = hygec_run(inst, sc.rho, sc.engine)
        return x_hat, sc.rho, report

    for seed in range(5):
        for sc, value, algorithm in trials:
            trial = (sc.name, value, algorithm, seed)
            inst = build_instance(sc, seed, value)
            Q = haar_orthogonal(inst.m, np.random.default_rng(seed))
            x_hat, rate, report = solve(sc, inst, algorithm)
            x_rot, rate_rot, report_rot = solve(
                sc, dataclasses.replace(inst, H=Q @ inst.H, y=Q @ inst.y), algorithm)
            assert report_rot.termination == report.termination, trial
            assert report_rot.inner_counts == report.inner_counts, trial
            if report.termination == CONVERGED:
                gap = np.max(np.abs(x_rot - x_hat)) / np.max(np.abs(x_hat))
                assert gap < 1e-9, f"{trial}: {gap:.2e}"
                assert abs(rate_rot - rate) < 1e-12, trial


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
        rms = float(np.sqrt(np.mean((st.x_post.mean - x_ref) ** 2)))
        assert rms < 1e-3, f"seed {seed}: rms {rms}"


def test_reproduction_residuals_vanish_at_fixed_point(reproduction_residuals):
    inst = _instance(1, 60, 100, 10, 0.15, 15.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.15, cfg)
    for _ in range(120):
        hygec_sweep(st, inst, 0.15, cfg)
    d_mean, d_var, clamped = reproduction_residuals(st, cfg)
    free = ~clamped
    assert np.any(free)
    assert np.max(d_mean[free]) < 1e-9
    assert np.max(d_var[free]) < 1e-9


def test_reproduction_residuals_flag_clamped_elements(reproduction_residuals):
    inst = _instance(0, 6, 10, 5, 0.2, 15.0)
    cfg = HygecConfig()
    st = init_state(inst, 0.2, cfg)
    assert np.all(reproduction_residuals(st, cfg)[2])  # fresh x_lik.var sits at v_max
    st.x_lik = Moments(st.x_lik.mean, np.ones(10))
    _, _, clamped = reproduction_residuals(st, cfg)
    assert not np.any(clamped)
    st.x_lik.var[4] = cfg.v_max
    _, _, clamped = reproduction_residuals(st, cfg)
    assert clamped[4] and clamped.sum() == 1
