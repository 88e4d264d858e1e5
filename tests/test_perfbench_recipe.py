"""The criterion-2 instance has one recipe, `bench.draw_instance` on one stream.

perfbench's tiny-exact workload still draws that instance by hand, in
`TinyExact.generate`. These tests hold its copy, bit for bit, to the one-stream
draw, and the one-stream draw to the explicit steps it stands for, so that the
copy can give way to a call of `draw_instance` without moving any benchmark input.
"""

from dataclasses import fields

import numpy as np
import pytest
from test_perfbench_view import _load

from hygec.bench import Scenario, draw_instance
from hygec.ensembles import (MatrixSpec, apply_channel, gen_group_sparse_signal, gen_matrix,
                             snr_to_noise_var)
from hygec.types import Channel, GroupStructure, ProblemInstance

# the tiny scenario of `oracle.enumeration_parity`
TINY = Scenario(name="custom", m=10, n=12, k=6, rho=0.1, snr_db=15.0, seeds=(0,))


def _one_stream(seed):
    return draw_instance(TINY, None, *[np.random.default_rng(seed)] * 3)


def _assert_same(a, b):
    # every field: arrays by value and dtype, the rest by value and type
    for f in fields(ProblemInstance):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        assert type(va) is type(vb), f.name
        if isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and va.shape == vb.shape, f.name
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


@pytest.mark.parametrize("run_seed", [0, 3, 21])
def test_tiny_exact_draws_what_draw_instance_draws_on_one_stream(run_seed):
    workloads = _load("workloads")
    insts = workloads.TinyExact(smoke=True).generate(run_seed, 3)
    assert len(insts) == 3
    for i, inst in enumerate(insts):
        _assert_same(inst, _one_stream(run_seed * workloads.SEED_STRIDE + i))


@pytest.mark.parametrize("seed", [0, 7, 300_002])
def test_draw_instance_on_one_stream_is_the_explicit_recipe(seed):
    rng = np.random.default_rng(seed)
    groups = GroupStructure.even(12, 6)
    H = gen_matrix(MatrixSpec("iid", 10, 12), rng)
    x, xi = gen_group_sparse_signal(groups, 0.1, 1.0, rng)
    noise_var = snr_to_noise_var(H, 0.1, 1.0, 15.0)
    channel = Channel.linear_awgn(noise_var)
    y = apply_channel(H, x, channel, rng)
    _assert_same(_one_stream(seed), ProblemInstance(H, y, groups, channel, 1.0, x, xi, 0.1))
