import dataclasses

import numpy as np
import pytest

from hygec.denoisers import channel_posterior
from hygec.ensembles import MatrixSpec
from hygec.types import (
    Channel,
    GecState,
    GroupStructure,
    InvalidParameter,
    Moments,
    ProblemInstance,
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
    with pytest.raises(InvalidParameter, match="^cannot split 2 indices into 3 nonempty groups$"):
        GroupStructure.even(2, 3)
    with pytest.raises(InvalidParameter, match="^need at least one group$"):
        GroupStructure(())
    with pytest.raises(InvalidParameter, match="^every group must have at least one element$"):
        GroupStructure((2, 0, 1))
    for fractional in ((2.5, 1.5), (2, np.nan)):  # int() would truncate, or fail unnamed
        with pytest.raises(InvalidParameter, match="^group_sizes must be a finite int, not "):
            GroupStructure(fractional)
    assert GroupStructure((np.int64(2), 1.0)).group_sizes == (2, 1)


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
    with pytest.raises(InvalidParameter):  # not truncated to a 2-bit channel
        Channel.quantized(0.1, 2.5, 1.0)
    assert Channel.quantized(0.1, np.float64(2.0), 3.0).n_cells == 4
    with pytest.raises(InvalidParameter):  # a linear run would ignore both
        Channel("linear", 0.1, 3, 2.0)
    with pytest.raises(InvalidParameter):
        Channel("linear", 0.1, clip_range=2.0)


def test_input_types_refuse_a_wrong_typed_number_by_name():
    # each was accepted, or raised a bare TypeError, before every input type ran
    # the one number check: through the constructors' helpers, next to a valid
    # value, and a fraction in an int field
    probes = [
        ("group_sizes", InvalidParameter, lambda: GroupStructure((True, 2))),
        ("group_sizes", InvalidParameter, lambda: GroupStructure(("2", 2))),
        ("noise_var", InvalidParameter, lambda: Channel.linear_awgn(np.inf)),
        ("noise_var", InvalidParameter, lambda: Channel("linear", "0.1")),
        ("clip_range", InvalidParameter, lambda: Channel.quantized(0.1, 2, np.inf)),
        ("bits", InvalidParameter, lambda: Channel.quantized(0.1, True, 1.0)),
        # the helpers pass the caller's value through, not a float() of it
        ("noise_var", InvalidParameter, lambda: Channel.linear_awgn(True)),
        ("noise_var", InvalidParameter, lambda: Channel.linear_awgn("0.1")),
        ("noise_var", InvalidParameter, lambda: Channel.quantized(True, 2, 1.0)),
        ("clip_range", InvalidParameter, lambda: Channel.quantized(0.1, 2, "1.0")),
        ("m", InvalidParameter, lambda: MatrixSpec("iid", 2.5, 4)),
        ("m", InvalidParameter, lambda: MatrixSpec("iid", True, 4)),
        ("kappa", InvalidParameter, lambda: MatrixSpec("conditioned", 2, 4, np.inf)),
    ]
    for name, error, build in probes:
        with pytest.raises(error, match=f"^{name} must be a finite "):
            build()


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


@pytest.mark.parametrize("member", [
    lambda ch: ch.n_cells,
    lambda ch: ch.edges,
    lambda ch: ch.quantize(np.array([0.3, -1.2])),
    lambda ch: ch.cell_bounds(np.array([0, 1])),
    lambda ch: ch.cell_bounds(np.array([-1, 1])),
    lambda ch: channel_posterior(ch, np.array([0, 1]), 0.0, 1.0),
], ids=["n_cells", "edges", "quantize", "cell_bounds", "cell_bounds_negative",
        "channel_posterior"])
def test_cell_members_refuse_a_linear_channel_by_name(member):
    with pytest.raises(InvalidParameter, match="a linear channel has no quantizer cells"):
        member(Channel.linear_awgn(0.3))


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
    with pytest.raises(InvalidParameter, match="^y must have length 4$"):
        ProblemInstance(
            H=inst.H, y=inst.y[:-1], groups=inst.groups, channel=inst.channel,
            sigma_x_sq=1.0,
        )
    with pytest.raises(InvalidParameter, match="^y must have length 4$"):
        dataclasses.replace(inst, y=inst.y[:-1])
    # inst.m would fail on a list
    with pytest.raises(InvalidParameter, match="^H must be a 2-d numpy array$"):
        dataclasses.replace(inst, H=inst.H.tolist())
    for message, truth in (("x_true must have length 6", dict(x_true=inst.x_true[:-1])),
                           ("xi_true must have length 2", dict(xi_true=np.array([1, 0, 0])))):
        with pytest.raises(InvalidParameter, match=f"^{message}$"):
            dataclasses.replace(inst, **truth)
    for xi in ([2, 0], [1, -1], [0.5, 0]):  # a rate taken as their mean would be wrong
        with pytest.raises(InvalidParameter, match="^xi_true must hold 0/1 group indicators$"):
            dataclasses.replace(inst, xi_true=np.array(xi))
    dataclasses.replace(inst, xi_true=np.array([True, False]))


def test_validate_group_coverage():
    inst = _consistent_instance()
    with pytest.raises(InvalidParameter, match="^group sizes sum to 5, expected 6$"):
        ProblemInstance(
            H=inst.H, y=inst.y, groups=GroupStructure((3, 2)), channel=inst.channel,
            sigma_x_sq=1.0,
        )


def test_validate_support_violation():
    inst = _consistent_instance()
    x_bad = inst.x_true.copy()
    x_bad[5] = 1.0  # group 1 is flagged inactive
    with pytest.raises(InvalidParameter, match="^group 1 is inactive but x_true is nonzero there$"):
        ProblemInstance(
            H=inst.H, y=inst.y, groups=inst.groups, channel=inst.channel,
            sigma_x_sq=1.0, x_true=x_bad, xi_true=inst.xi_true,
        )


def test_validate_quantized_cell_range():
    inst = _consistent_instance()
    q = Channel.quantized(0.1, 1, 1.0)
    with pytest.raises(InvalidParameter,
                       match="^quantized observations must be valid cell indices$"):
        ProblemInstance(
            H=inst.H, y=np.array([0, 1, 2, 0]), groups=inst.groups, channel=q,
            sigma_x_sq=1.0,
        )
    # inside the cell range but not a whole cell index
    for bad in (1.5, np.nan):
        with pytest.raises(InvalidParameter,
                           match="^quantized observations must be valid cell indices$"):
            ProblemInstance(
                H=inst.H, y=np.array([0.0, 1.0, bad, 0.0]), groups=inst.groups, channel=q,
                sigma_x_sq=1.0,
            )
    ProblemInstance(
        H=inst.H, y=np.array([0.0, 1.0, 1.0, 0.0]), groups=inst.groups, channel=q,
        sigma_x_sq=1.0,
    )


def test_instance_fixes_its_array_dtypes():
    # an int H, a list y, a bool xi_true and whole-number float cell indices are
    # stored as float64 values and int64 indices, H in its own layout
    inst = _consistent_instance()
    H = np.asfortranarray(np.arange(24).reshape(4, 6) % 5 - 2)
    lin = ProblemInstance(H, inst.y.tolist(), inst.groups, inst.channel, 1.0,
                          inst.x_true.tolist(), np.array([True, False]))
    assert (lin.H.dtype, lin.y.dtype, lin.x_true.dtype, lin.xi_true.dtype) == (
        np.float64, np.float64, np.float64, np.int64)
    assert lin.H.flags.f_contiguous and np.array_equal(lin.H, H)
    assert lin.xi_true.tolist() == [1, 0]
    quant = ProblemInstance(inst.H, np.array([0.0, 1.0, 1.0, 0.0]), inst.groups,
                            Channel.quantized(0.1, 1, 1.0), 1.0, xi_true=[1.0, 0.0])
    assert quant.y.dtype == quant.xi_true.dtype == np.int64
    assert quant.y.tolist() == [0, 1, 1, 0]
    # arrays already in their form are kept, not copied
    same = dataclasses.replace(inst)
    assert all(getattr(same, f) is getattr(inst, f) for f in ("H", "y", "x_true", "xi_true"))


def test_instance_refuses_an_array_that_holds_no_real_numbers():
    # a complex H would lose its imaginary part to the float64 cast, and digit strings
    # would be parsed as numbers; each is refused by the field's name instead
    inst = _consistent_instance()
    for name, value in (("H", inst.H.astype(complex)), ("H", inst.H.astype(str)),
                        ("y", inst.y.astype(str))):
        with pytest.raises(InvalidParameter, match=f"^{name} must hold real numbers, not "):
            dataclasses.replace(inst, **{name: value})


def test_instances_and_states_compare_and_hash_by_identity():
    # array fields make a field-wise == ambiguous and a field-wise hash impossible
    inst, twin = _consistent_instance(), _consistent_instance()
    assert hash(inst) == hash(inst) and len({inst, twin}) == 2
    assert inst == inst and inst != twin
    assert not (_zero_state() == _zero_state())


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


def _zero_state(**kw):
    z = np.zeros(2)
    return GecState(*(Moments(z.copy(), z.copy()) for _ in range(5)), z.copy(), **kw)


def test_gec_state_all_finite():
    state = _zero_state()
    assert state.all_finite()
    state.x_lik.var[1] = np.inf
    assert not state.all_finite()
    # every message field is checked, each half of a Moments message on its own,
    # not a hand-kept subset
    messages = [f.name for f in dataclasses.fields(GecState) if f.name not in ("gram", "t")]
    assert len(messages) == 6

    def arrays(state):
        for name in messages:
            value = getattr(state, name)
            yield from value if isinstance(value, Moments) else [value]

    assert len(list(arrays(state))) == 11
    for i in range(11):
        clean = _zero_state()
        list(arrays(clean))[i][0] = np.nan
        assert not clean.all_finite(), f"array {i} of {messages}"
    # the Gram is fixed before the first sweep and is not scanned
    state = _zero_state(gram=np.array([np.nan]))
    assert state.all_finite()
