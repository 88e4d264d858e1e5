import dataclasses

import numpy as np
import pytest

from hygec.types import (
    Channel,
    DimensionMismatch,
    GecState,
    GroupCoverage,
    GroupStructure,
    InvalidParameter,
    ProblemInstance,
    SupportViolation,
)


def test_group_structure_basic_layout():
    g = GroupStructure((3, 1, 2))
    assert g.k == 3
    assert g.n == 6
    assert g.offsets.tolist() == [0, 3, 4]
    assert g.group_of.tolist() == [0, 0, 0, 1, 2, 2]


def test_group_structure_index_round_trip():
    # flat -> (group, position) -> flat is the identity over the whole range
    g = GroupStructure((4, 2, 5, 1))
    pairs = [(k, j) for k, size in enumerate(g.group_sizes) for j in range(size)]
    assert len(pairs) == g.n
    for i, (k, j) in enumerate(pairs):
        assert g.group_of[i] == k
        assert g.offsets[k] + j == i


def test_group_structure_even_split():
    g = GroupStructure.even(10, 3)
    assert g.group_sizes == (4, 3, 3)
    assert GroupStructure.even(12, 4).group_sizes == (3, 3, 3, 3)
    with pytest.raises(GroupCoverage):
        GroupStructure.even(2, 3)
    with pytest.raises(GroupCoverage):
        GroupStructure(())
    with pytest.raises(GroupCoverage):
        GroupStructure((2, 0, 1))


def test_channel_construction_and_validation():
    lin = Channel.linear_awgn(0.1)
    assert lin.kind == "linear"
    Channel.linear_awgn(0.0)  # noiseless generation is allowed
    q = Channel.quantized(0.1, 2, 3.0)
    assert q.n_cells == 4
    with pytest.raises(InvalidParameter):
        Channel("weird", 0.1)
    with pytest.raises(InvalidParameter):
        Channel.linear_awgn(-1.0)
    with pytest.raises(InvalidParameter):
        Channel("quantized", 0.1, bits=0, clip_range=1.0)
    with pytest.raises(InvalidParameter):
        Channel("quantized", 0.1, bits=2, clip_range=0.0)
    Channel.quantized(0.1, 16, 1.0)
    with pytest.raises(InvalidParameter):  # 2^17 cells: rejected before any edge is built
        Channel.quantized(0.1, 17, 1.0)


def test_quantizer_edges_layout():
    q = Channel.quantized(0.1, 2, 2.0)
    assert np.allclose(q.edges[1:-1], [-1.0, 0.0, 1.0])
    assert q.edges[0] == -np.inf and q.edges[-1] == np.inf
    assert len(q.edges) == q.n_cells + 1


def test_quantizer_every_value_in_exactly_one_cell():
    q = Channel.quantized(0.1, 3, 1.5)
    ts = np.concatenate([np.linspace(-5, 5, 401), [-1e9, 1e9]])
    cells = q.quantize(ts)
    assert np.all((cells >= 0) & (cells < q.n_cells))
    lo, up = q.cell_bounds(cells)
    inner = (ts > -q.clip_range) & (ts < q.clip_range)
    assert np.all(lo[inner] <= ts[inner]) and np.all(ts[inner] < up[inner])
    # saturating values land in the outer (unbounded) cells
    assert np.all(cells[ts <= -q.clip_range] == 0)
    assert np.all(cells[ts >= q.clip_range] == q.n_cells - 1)


@pytest.mark.parametrize("bits", range(1, 17))
def test_quantizer_cells_hold_values_at_their_edges(bits):
    # quantize and cell_bounds read one set of edges, so even a value one ulp
    # from an edge lands in the cell whose bounds hold it
    for clip in (0.37, 1.0, 2.5, 3.14159, 1e3):
        q = Channel.quantized(0.1, bits, clip)
        inner = q.edges[1:-1]
        ts = np.concatenate([inner, np.nextafter(inner, -np.inf), np.nextafter(inner, np.inf)])
        cells = q.quantize(ts)
        lo, up = q.cell_bounds(cells)
        bad = ~((lo <= ts) & (ts < up))
        assert not np.any(bad), f"clip {clip}: {ts[bad][:3]} outside cells {cells[bad][:3]}"
        assert list(q.quantize(np.array([-np.inf, np.inf]))) == [0, q.n_cells - 1]


def test_cell_bounds_rejects_bad_indices():
    q = Channel.quantized(0.1, 1, 1.0)
    with pytest.raises(InvalidParameter):
        q.cell_bounds(np.array([2]))


def test_quantize_rejects_nan():
    q = Channel.quantized(0.1, 2, 1.0)
    with pytest.raises(InvalidParameter):
        q.quantize(np.array([0.3, np.nan]))


def _consistent_instance():
    rng = np.random.default_rng(0)
    groups = GroupStructure((3, 3))
    H = rng.standard_normal((4, 6))
    x = np.concatenate([rng.standard_normal(3), np.zeros(3)])
    y = H @ x
    return ProblemInstance(
        H=H, y=y, groups=groups, channel=Channel.linear_awgn(0.1),
        sigma_x_sq=1.0, x_true=x, xi_true=np.array([1, 0]), true_rho=0.5,
    )


def test_validate_consistent_instance():
    inst = _consistent_instance()
    assert (inst.m, inst.n) == (4, 6)
    # a NaN observation is consistent: the run, not the instance, must report it
    y_nan = inst.y.copy()
    y_nan[0] = np.nan
    dataclasses.replace(inst, y=y_nan)


def test_validate_dimension_mismatch():
    inst = _consistent_instance()
    with pytest.raises(DimensionMismatch):
        ProblemInstance(
            H=inst.H, y=inst.y[:-1], groups=inst.groups, channel=inst.channel,
            sigma_x_sq=1.0,
        )
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(inst, y=inst.y[:-1])


def test_validate_group_coverage():
    inst = _consistent_instance()
    with pytest.raises(GroupCoverage):
        ProblemInstance(
            H=inst.H, y=inst.y, groups=GroupStructure((3, 2)), channel=inst.channel,
            sigma_x_sq=1.0,
        )


def test_validate_support_violation():
    inst = _consistent_instance()
    x_bad = inst.x_true.copy()
    x_bad[5] = 1.0  # group 1 is flagged inactive
    with pytest.raises(SupportViolation):
        ProblemInstance(
            H=inst.H, y=inst.y, groups=inst.groups, channel=inst.channel,
            sigma_x_sq=1.0, x_true=x_bad, xi_true=inst.xi_true,
        )


def test_validate_quantized_cell_range():
    inst = _consistent_instance()
    q = Channel.quantized(0.1, 1, 1.0)
    with pytest.raises(DimensionMismatch):
        ProblemInstance(
            H=inst.H, y=np.array([0, 1, 2, 0]), groups=inst.groups, channel=q,
            sigma_x_sq=1.0,
        )
    # inside the cell range but not a whole cell index
    for bad in (1.5, np.nan):
        with pytest.raises(DimensionMismatch):
            ProblemInstance(
                H=inst.H, y=np.array([0.0, 1.0, bad, 0.0]), groups=inst.groups, channel=q,
                sigma_x_sq=1.0,
            )
    ProblemInstance(
        H=inst.H, y=np.array([0.0, 1.0, 1.0, 0.0]), groups=inst.groups, channel=q,
        sigma_x_sq=1.0,
    )


def test_validate_parameter_ranges():
    inst = _consistent_instance()
    with pytest.raises(InvalidParameter):
        ProblemInstance(
            H=inst.H, y=inst.y, groups=inst.groups, channel=inst.channel,
            sigma_x_sq=0.0,
        )
    with pytest.raises(InvalidParameter):
        ProblemInstance(
            H=inst.H, y=inst.y, groups=inst.groups, channel=inst.channel,
            sigma_x_sq=1.0, true_rho=1.5,
        )


def test_gec_state_all_finite():
    z = np.zeros(2)
    state = GecState(*(z.copy() for _ in range(11)))
    assert state.all_finite()
    state.v_x_lik[1] = np.inf
    assert not state.all_finite()
    # every message field is checked, not a hand-kept subset
    messages = [f.name for f in dataclasses.fields(GecState) if f.name not in ("gram", "t")]
    assert len(messages) == 11
    for name in messages:
        clean = GecState(*(z.copy() for _ in range(11)))
        getattr(clean, name)[0] = np.nan
        assert not clean.all_finite(), name
    # the Gram is fixed before the first sweep and is not scanned
    state = GecState(*(z.copy() for _ in range(11)), gram=np.array([np.nan]))
    assert state.all_finite()
