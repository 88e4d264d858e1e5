import tracemalloc

import numpy as np
import pytest

from hygec.bench import _ROLE_MATRIX, _ROLE_NOISE, _ROLE_SIGNAL, Scenario, build_instance
from hygec.ensembles import (
    MatrixSpec,
    apply_channel,
    default_clip_range,
    gen_group_sparse_signal,
    gen_matrix,
    geometric_spectrum,
    haar_orthogonal,
    signal_power,
    snr_to_noise_var,
)
from hygec.types import Channel, GroupStructure, InvalidParameter


def test_matrix_spec_validation():
    with pytest.raises(InvalidParameter):
        MatrixSpec("fourier", 4, 8)
    with pytest.raises(InvalidParameter):
        MatrixSpec("iid", 8, 4)
    with pytest.raises(InvalidParameter):
        MatrixSpec("conditioned", 4, 8, kappa=0.5)
    with pytest.raises(InvalidParameter):
        MatrixSpec("conditioned", 1, 8, kappa=10.0)


def test_haar_factor_is_orthogonal():
    u = haar_orthogonal(40, np.random.default_rng(0))
    assert np.max(np.abs(u.T @ u - np.eye(40))) < 1e-10


def test_iid_matrix_moments():
    rng = np.random.default_rng(1)
    H = gen_matrix(MatrixSpec("iid", 500, 600), rng)
    assert H.shape == (500, 600)
    assert abs(H.mean()) < 4.0 / np.sqrt(500 * 600)
    assert abs(H.var() * 500 - 1.0) < 0.05


def test_conditioned_kappa_one_is_flat():
    H = gen_matrix(MatrixSpec("conditioned", 30, 50, kappa=1.0), np.random.default_rng(3))
    sv = np.linalg.svd(H, compute_uv=False)
    assert np.max(np.abs(sv - 1.0)) < 1e-10
    assert abs(np.sum(H**2) - 30) < 1e-8


def test_conditioned_spectrum_constraints():
    H = gen_matrix(MatrixSpec("conditioned", 50, 80, kappa=100.0), np.random.default_rng(4))
    sv = np.linalg.svd(H, compute_uv=False)
    assert abs(sv.max() / sv.min() - 100.0) / 100.0 < 1e-8
    assert abs(np.sum(sv**2) - 50.0) < 1e-8
    # adjacent ratios all equal the geometric step
    ratios = sv[:-1] / sv[1:]
    assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-6


def test_geometric_spectrum_edge_cases():
    assert geometric_spectrum(1, 1.0).tolist() == [1.0]
    with pytest.raises(InvalidParameter):
        geometric_spectrum(1, 2.0)


def test_signal_support_is_groupwise():
    groups = GroupStructure((3, 4, 2, 1))
    x, xi = gen_group_sparse_signal(groups, 0.5, 2.0, np.random.default_rng(5))
    for k in range(groups.k):
        sl = groups.group_of == k
        if xi[k]:
            assert np.all(x[sl] != 0)
        else:
            assert np.all(x[sl] == 0)


def test_signal_near_certain_activity():
    groups = GroupStructure((6,))
    x, xi = gen_group_sparse_signal(groups, 0.999999, 1.0, np.random.default_rng(6))
    assert xi[0] == 1
    assert np.all(x != 0)


def test_signal_activity_rate_concentrates():
    rng = np.random.default_rng(7)
    groups = GroupStructure.even(20, 10)
    hits = sum(
        gen_group_sparse_signal(groups, 0.1, 1.0, rng)[1].sum() for _ in range(1000)
    )
    # 10^4 Bernoulli(0.1) draws; 0.01 is slightly over the 3-sigma binomial band
    assert abs(hits / 10_000 - 0.1) < 0.01


def test_signal_parameter_validation():
    groups = GroupStructure((2,))
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParameter):
        gen_group_sparse_signal(groups, 0.0, 1.0, rng)
    with pytest.raises(InvalidParameter):
        gen_group_sparse_signal(groups, 0.5, 0.0, rng)


def test_apply_channel_noiseless_is_exact():
    # Hx is scipy's dgemv; it must give numpy's H @ x bit for bit
    rng = np.random.default_rng(8)
    for m, n in ((5, 7), (200, 400), (1000, 2000)):
        H = rng.standard_normal((m, n))
        x = rng.standard_normal(n)
        y = apply_channel(H, x, Channel.linear_awgn(0.0), np.random.default_rng(9))
        assert np.array_equal(y, H @ x)


def test_apply_channel_one_bit_is_sign_detector():
    rng = np.random.default_rng(10)
    H = rng.standard_normal((50, 60))
    x = rng.standard_normal(60)
    ch = Channel.quantized(0.3, 1, 2.0)
    rng_w = np.random.default_rng(11)
    y = apply_channel(H, x, ch, rng_w)
    w = np.sqrt(0.3) * np.random.default_rng(11).standard_normal(50)
    assert set(np.unique(y)) <= {0, 1}
    assert np.array_equal(y, (H @ x + w > 0).astype(np.int64))


def test_apply_channel_fine_quantizer_noise_floor():
    rng = np.random.default_rng(12)
    H = gen_matrix(MatrixSpec("iid", 300, 600), rng)
    groups = GroupStructure.even(600, 30)
    x, _ = gen_group_sparse_signal(groups, 0.1, 1.0, rng)
    noise_var = snr_to_noise_var(H, 0.1, 1.0, 12.0)
    clip = default_clip_range(H, 0.1, 1.0, noise_var)
    ch = Channel.quantized(noise_var, 12, clip)
    w = np.sqrt(noise_var) * np.random.default_rng(13).standard_normal(300)
    s = H @ x + w
    cells = np.asarray(apply_channel(H, x, ch, np.random.default_rng(13)), dtype=np.int64)
    lo, up = ch.cell_bounds(cells)
    mid = np.where(np.isfinite(lo + up), 0.5 * (lo + up), np.where(np.isfinite(lo), lo, up))
    width = 2.0 * clip / ch.n_cells
    assert np.mean((mid - s) ** 2) / np.var(s) < (width**2 / 12.0) / np.var(s) + 1e-3


def test_reproducibility_bitwise():
    spec = MatrixSpec("conditioned", 20, 30, kappa=50.0)
    a = gen_matrix(spec, np.random.default_rng(14))
    b = gen_matrix(spec, np.random.default_rng(14))
    assert np.array_equal(a, b)
    groups = GroupStructure.even(30, 5)
    xa, _ = gen_group_sparse_signal(groups, 0.3, 1.0, np.random.default_rng(15))
    xb, _ = gen_group_sparse_signal(groups, 0.3, 1.0, np.random.default_rng(15))
    assert np.array_equal(xa, xb)


def test_snr_mapping_plug_ins():
    # ||H||_F^2 = M, rho = 0.1, sigma_x_sq = 1 -> unit signal power scale
    H = np.eye(4)
    assert snr_to_noise_var(H, 0.1, 1.0, 0.0) == pytest.approx(0.1)
    assert snr_to_noise_var(H, 0.1, 1.0, 10.0) == pytest.approx(0.01)
    H10 = np.sqrt(10.0 / 4.0) * np.eye(4) / np.sqrt(10.0 / 4.0)  # still ||H||_F^2 = M
    assert snr_to_noise_var(H10, 1.0, 1.0, 0.0) == pytest.approx(1.0)


def test_default_clip_range_formula():
    H = np.eye(3)
    assert default_clip_range(H, 0.5, 2.0, 0.25) == pytest.approx(3.0 * np.sqrt(1.25))


@pytest.mark.parametrize("m, n", [(10, 12), (200, 400), (1000, 2000)])
def test_signal_power_is_the_sum_of_squares_bit_for_bit(m, n):
    # the noise level of every instance is calibrated on this sum, so its last
    # bit reaches every downstream result
    H = gen_matrix(MatrixSpec("iid", m, n), np.random.default_rng(m))
    H += 0.1  # as build_instance shifts H on a mean sweep
    for A in (H, np.asfortranarray(H), H[:, ::2]):
        assert signal_power(A, 0.1, 2.0) == 0.1 * 2.0 * float(np.sum(A**2)) / A.shape[0]


def test_iid_matrix_is_the_scaled_draw_bit_for_bit():
    H = gen_matrix(MatrixSpec("iid", 200, 400), np.random.default_rng(16))
    draw = np.random.default_rng(16).standard_normal((200, 400))
    assert np.array_equal(H, draw / np.sqrt(200))


@pytest.mark.parametrize("bits", [None, 2])
def test_mean_sweep_instance_is_the_two_matrix_recipe_bit_for_bit(bits):
    # the recipe as written with a separate zero-mean base matrix for the
    # noise calibration and a shifted copy for the channel
    sc = Scenario(name="mean-sweep", m=100, n=200, k=20, rho=0.1, snr_db=12.0, seeds=(0, 1),
                  sweep_param="mean", sweep_values=(0.0, 0.2), bits=bits)
    for seed in sc.seeds:
        for mean in sc.sweep_values:
            inst = build_instance(sc, seed, mean)
            base = np.random.default_rng([seed, _ROLE_MATRIX]).standard_normal((sc.m, sc.n))
            base = 0.0 + base / np.sqrt(sc.m)
            H = base + mean if mean != 0.0 else base
            power = sc.rho * sc.sigma_x_sq * float(np.sum(base**2)) / sc.m
            noise_var = power / 10.0 ** (sc.snr_db / 10.0)
            x, _ = gen_group_sparse_signal(GroupStructure.even(sc.n, sc.k), sc.rho, sc.sigma_x_sq,
                                           np.random.default_rng([seed, _ROLE_SIGNAL]))
            w = np.random.default_rng([seed, _ROLE_NOISE]).standard_normal(sc.m)
            y = H @ x + w * np.sqrt(noise_var)
            if bits is None:
                channel = Channel.linear_awgn(noise_var)
            else:
                shifted = sc.rho * sc.sigma_x_sq * float(np.sum(H**2)) / sc.m
                channel = Channel.quantized(noise_var, bits, 3.0 * np.sqrt(shifted + noise_var))
                y = channel.quantize(y)
            assert np.array_equal(inst.H, H)
            assert np.array_equal(inst.y, y)
            assert inst.channel == channel


def test_build_instance_peak_memory_is_one_matrix():
    # the draw is scaled and shifted in place and its power summed in
    # cache-sized blocks; an m x n temporary (H**2, or a shifted copy of the
    # base) takes the peak to about twice the bytes of H
    sc = Scenario(name="mean-sweep", m=1000, n=2000, k=100, rho=0.1, snr_db=12.0, seeds=(0,),
                  sweep_param="mean", sweep_values=(0.2,))
    build_instance(sc, 0, 0.2)  # warm-up, so first-call allocations are not counted
    tracemalloc.start()
    try:
        inst = build_instance(sc, 0, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * inst.H.nbytes, f"peak {peak / inst.H.nbytes:.2f} times the bytes of H"
