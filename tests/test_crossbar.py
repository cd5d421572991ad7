import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safmap.crossbar import (
    ActivationVector,
    CrossbarConfig,
    DimensionMismatchError,
    mvm_exact,
    mvm_simulate,
    mvm_simulate_batch,
)
from safmap.faults import FaultInjectionSpec, SafMask, gen_saf_mask
from safmap.mapping import (
    ChunkGeometry,
    LayerWeights,
    MappedLayout,
    SCHEME_BITFLIP,
    SCHEME_CVM,
    SCHEME_NAIVE,
    SCHEME_SIGNFLIP,
    build_layout,
)
from safmap.numfmt import (
    MODE_TWOS_COMPLEMENT as TWOS,
    MODE_UNSIGNED as UNSIGNED,
    OutOfRangeError,
    decode_array,
    encode_array,
    value_range,
)

SCHEMES = (SCHEME_NAIVE, SCHEME_CVM, SCHEME_SIGNFLIP, SCHEME_BITFLIP)


def test_mvm_exact_examples():
    w = np.array([[1, -2], [3, 4]])
    assert mvm_exact(w, np.array([1, 1])).tolist() == [4, 2]
    assert mvm_exact(w, np.array([[2, 0], [0, 5]])).tolist() == [[2, -4], [15, 20]]
    with pytest.raises(DimensionMismatchError):
        mvm_exact(w, np.array([1, 2, 3]))

    # Worked examples through the bit-level simulator.  One weight -1 (2-bit
    # two's complement 0b11) and activation 3 (2-bit unsigned 0b11): every
    # (slice, stream) partial is 1, and shift-and-add gives 1 + 2 - 2 - 4 = -3.
    cfg = CrossbarConfig(row_len=1, weight_bits=2, activation_bits=2,
                         weight_mode=TWOS, activation_mode=UNSIGNED)
    layout = MappedLayout(SCHEME_NAIVE, 2, TWOS, 1, [[0b11]],
                          [[0]], [[[0]], [[0]]])
    assert mvm_simulate(layout, ActivationVector([3], 2, UNSIGNED), cfg).tolist() == [-3]

    # Bit-flip correction: stored [0b01, 0b00] with slice 0 flipped reads as
    # [0, 1].  Activations [1, 2] give stream bit sums [1, 1]; slice 0's raw
    # partials [1, 0] become [1 - 1, 1 - 0] = [0, 1] before shift-and-add,
    # so the output is 2 * 1 = 2 (uncorrected it would be 1).
    cfg = CrossbarConfig(row_len=2, weight_bits=2, activation_bits=2,
                         weight_mode=UNSIGNED, activation_mode=UNSIGNED)
    layout = MappedLayout(SCHEME_BITFLIP, 2, UNSIGNED, 2, [[0b01], [0b00]],
                          [[0]], [[[1]], [[0]]])
    assert layout.effective_values().tolist() == [[0], [1]]
    assert mvm_simulate(layout, ActivationVector([1, 2], 2, UNSIGNED), cfg).tolist() == [2]


def test_activation_vector_validation():
    a = ActivationVector(np.array([0, 3, 15]), bits=4, mode=UNSIGNED)
    assert a.codes().tolist() == [0, 3, 15]
    a = ActivationVector(np.array([-8, 7]), bits=4, mode=TWOS)
    assert a.codes().tolist() == [0b1000, 0b0111]
    with pytest.raises(Exception):
        ActivationVector(np.array([16]), bits=4, mode=UNSIGNED)


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(1, 8), mode=st.sampled_from([UNSIGNED, TWOS]), data=st.data())
def test_activation_json_round_trip(bits, mode, data):
    lo, hi = value_range(bits, mode)
    values = data.draw(st.lists(st.integers(lo, hi), max_size=12))
    act = ActivationVector(np.array(values, dtype=np.int64), bits, mode)
    loaded = ActivationVector.from_json_dict(json.loads(json.dumps(act.to_json_dict())))
    assert (loaded.bits, loaded.mode, loaded.values.tolist()) == (bits, mode, values)


def fault_free_mask(rows, cols, bits):
    return SafMask(np.zeros((rows, cols, bits), dtype=np.int8))


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("wmode", [UNSIGNED, TWOS])
@pytest.mark.parametrize("amode", [UNSIGNED, TWOS])
def test_fault_free_simulation_is_exact(scheme, wmode, amode):
    if scheme == SCHEME_SIGNFLIP and wmode == UNSIGNED:
        pytest.skip("sign-flip requires signed weights")
    rng = np.random.default_rng(17)
    rows, cols, n, mbits = 10, 3, 4, 3
    wlo, whi = value_range(n, wmode)
    alo, ahi = value_range(mbits, amode)
    weights = rng.integers(wlo, whi + 1, size=(rows, cols))
    layer = LayerWeights.from_values(weights, n, wmode)
    layout = build_layout(scheme, layer, fault_free_mask(rows, cols, n), row_len=4)
    cfg = CrossbarConfig(
        row_len=4,
        weight_bits=n,
        activation_bits=mbits,
        weight_mode=wmode,
        activation_mode=amode,
    )
    acts = ActivationVector(rng.integers(alo, ahi + 1, size=rows), mbits, amode)
    assert np.array_equal(
        mvm_simulate(layout, acts, cfg), mvm_exact(weights, acts.values)
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scheme=st.sampled_from(SCHEMES),
    wmode=st.sampled_from([UNSIGNED, TWOS]),
    amode=st.sampled_from([UNSIGNED, TWOS]),
    n=st.integers(2, 4),
    mbits=st.integers(1, 4),
)
def test_simulation_matches_effective_value_oracle(seed, scheme, wmode, amode, n, mbits):
    """The hardware model must agree exactly with a @ effective_values,
    with sign-flip columns negated per chunk."""
    if scheme == SCHEME_SIGNFLIP and wmode == UNSIGNED:
        wmode = TWOS
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 9))
    cols = int(rng.integers(1, 5))
    row_len = int(rng.integers(1, rows + 1))
    wlo, whi = value_range(n, wmode)
    alo, ahi = value_range(mbits, amode)
    weights = rng.integers(wlo, whi + 1, size=(rows, cols))
    layer = LayerWeights.from_values(weights, n, wmode)
    mask = gen_saf_mask(
        FaultInjectionSpec(rate=float(rng.uniform(0, 0.2)), seed=seed),
        (rows, cols, n),
    )
    layout = build_layout(scheme, layer, mask, row_len=row_len)
    cfg = CrossbarConfig(
        row_len=row_len,
        weight_bits=n,
        activation_bits=mbits,
        weight_mode=wmode,
        activation_mode=amode,
    )
    acts = ActivationVector(rng.integers(alo, ahi + 1, size=rows), mbits, amode)
    got = mvm_simulate(layout, acts, cfg)

    eff = layout.effective_values()  # (rows, cols), sign-flip already negated
    want = np.zeros(cols, dtype=np.int64)
    for chunk in layout.geometry.slices():
        want += acts.values[chunk] @ eff[chunk]
    assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    scheme=st.sampled_from(SCHEMES),
    wmode=st.sampled_from([UNSIGNED, TWOS]),
    amode=st.sampled_from([UNSIGNED, TWOS]),
    n=st.integers(1, 5),
    mbits=st.integers(1, 4),
)
def test_simulation_matches_effective_values_on_any_valid_layout(
    seed, scheme, wmode, amode, n, mbits
):
    """Layouts built directly, with flips no mapping scheme would choose:
    the simulator and a @ effective_values read the same flip arrays."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 10))
    cols = int(rng.integers(1, 5))
    row_len = int(rng.integers(1, rows + 2))
    chunks = ChunkGeometry(rows, row_len).num_chunks
    col_flip = np.zeros((chunks, cols), dtype=np.uint8)
    b_flip = np.zeros((n, chunks, cols), dtype=np.uint8)
    if scheme == SCHEME_SIGNFLIP:
        col_flip = rng.integers(0, 2, size=col_flip.shape)
    if scheme == SCHEME_BITFLIP:
        b_flip = rng.integers(0, 2, size=b_flip.shape)
    stored = rng.integers(0, 1 << n, size=(rows, cols))
    layout = MappedLayout(scheme, n, wmode, row_len, stored, col_flip, b_flip)
    cfg = CrossbarConfig(row_len=row_len, weight_bits=n, activation_bits=mbits,
                         weight_mode=wmode, activation_mode=amode)
    alo, ahi = value_range(mbits, amode)
    acts = rng.integers(alo, ahi + 1, size=(int(rng.integers(1, 4)), rows))
    got = mvm_simulate_batch(layout, encode_array(acts, mbits, amode), cfg)
    assert np.array_equal(got, acts @ layout.effective_values())


def test_batch_matches_single():
    rng = np.random.default_rng(23)
    rows, cols = 12, 4
    layer = LayerWeights.from_values(
        rng.integers(-8, 8, size=(rows, cols)), 4, TWOS
    )
    mask = gen_saf_mask(FaultInjectionSpec(rate=0.1, seed=2), (rows, cols, 4))
    layout = build_layout(SCHEME_BITFLIP, layer, mask, row_len=5)
    cfg = CrossbarConfig(row_len=5, weight_bits=4, activation_bits=4)
    batch = rng.integers(0, 16, size=(6, rows))
    out = mvm_simulate_batch(layout, batch, cfg)
    for b in range(6):
        single = mvm_simulate(
            layout, ActivationVector(batch[b], 4, UNSIGNED), cfg
        )
        assert np.array_equal(out[b], single)


def test_simulation_is_linear_in_activations():
    rng = np.random.default_rng(29)
    rows, cols = 8, 3
    layer = LayerWeights.from_values(rng.integers(-8, 8, size=(rows, cols)), 4, TWOS)
    mask = gen_saf_mask(FaultInjectionSpec(rate=0.15, seed=7), (rows, cols, 4))
    layout = build_layout(SCHEME_CVM, layer, mask, row_len=8)
    cfg = CrossbarConfig(row_len=8, weight_bits=4, activation_bits=4)
    basis = np.eye(rows, dtype=np.int64)
    columns = mvm_simulate_batch(layout, basis, cfg)
    a = rng.integers(0, 16, size=rows)
    assert np.array_equal(
        mvm_simulate(layout, ActivationVector(a, 4, UNSIGNED), cfg),
        a @ columns,
    )


def test_chunks_are_isolated():
    """Faults confined to one chunk leave activations addressed at other
    chunks untouched."""
    rng = np.random.default_rng(31)
    rows, cols, row_len = 12, 3, 4
    layer = LayerWeights.from_values(rng.integers(-8, 8, size=(rows, cols)), 4, TWOS)
    cells = np.zeros((rows, cols, 4), dtype=np.int8)
    cells[0:4] = gen_saf_mask(
        FaultInjectionSpec(rate=0.5, seed=3), (4, cols, 4)
    ).cells
    layout = build_layout(SCHEME_SIGNFLIP, layer, SafMask(cells), row_len=row_len)
    cfg = CrossbarConfig(row_len=row_len, weight_bits=4, activation_bits=4)
    a = np.zeros(rows, dtype=np.int64)
    a[4:] = rng.integers(0, 16, size=rows - 4)
    got = mvm_simulate(layout, ActivationVector(a, 4, UNSIGNED), cfg)
    assert np.array_equal(got, mvm_exact(layer.values(), a))


def test_dimension_checks():
    layer = LayerWeights.from_values(np.zeros((4, 2), dtype=int), 4, TWOS)
    layout = build_layout(SCHEME_NAIVE, layer, fault_free_mask(4, 2, 4), row_len=4)
    cfg = CrossbarConfig(row_len=4, weight_bits=4, activation_bits=4)
    with pytest.raises(DimensionMismatchError):
        mvm_simulate_batch(layout, np.zeros((1, 5), dtype=int), cfg)
    bad_cfg = CrossbarConfig(row_len=2, weight_bits=4, activation_bits=4)
    with pytest.raises(DimensionMismatchError):
        mvm_simulate_batch(layout, np.zeros((1, 4), dtype=int), bad_cfg)
    bad_cfg = CrossbarConfig(row_len=4, weight_bits=8, activation_bits=4)
    with pytest.raises(DimensionMismatchError):
        mvm_simulate_batch(layout, np.zeros((1, 4), dtype=int), bad_cfg)


@pytest.mark.parametrize("code", [-1, 16, 19])
def test_out_of_range_activation_codes_rejected(code):
    # Only the low m bits are streamed, so 19 would be computed as 3.
    layer = LayerWeights.from_values(np.ones((4, 2), dtype=int), 4, TWOS)
    layout = build_layout(SCHEME_NAIVE, layer, fault_free_mask(4, 2, 4), row_len=4)
    cfg = CrossbarConfig(row_len=4, weight_bits=4, activation_bits=4)
    assert mvm_simulate_batch(layout, [[0, 15, 0, 0]], cfg).tolist() == [[15, 15]]
    with pytest.raises(OutOfRangeError):
        mvm_simulate_batch(layout, [[0, code, 0, 0]], cfg)


# ---------------------------------------------------------------------------
# Exactness of the float32 and float64 partial sums, at the chunk-height
# bound between them, and simulator memory
# ---------------------------------------------------------------------------


def flip_layout(scheme, stored, bits, mode, row_len, flip=1):
    """Layout of ``stored`` whose ``scheme`` flip array is ``flip``
    (broadcast)."""
    rows, cols = stored.shape
    chunks = ChunkGeometry(rows, row_len).num_chunks
    col_flip = np.zeros((chunks, cols), dtype=np.uint8)
    b_flip = np.zeros((bits, chunks, cols), dtype=np.uint8)
    if scheme == SCHEME_SIGNFLIP:
        col_flip[:] = flip
    if scheme == SCHEME_BITFLIP:
        b_flip[:] = flip
    return MappedLayout(scheme, bits, mode, row_len, stored, col_flip, b_flip)


@pytest.mark.parametrize("scheme", (SCHEME_NAIVE, SCHEME_SIGNFLIP, SCHEME_BITFLIP))
@pytest.mark.parametrize("wmode", [UNSIGNED, TWOS])
@pytest.mark.parametrize("amode", [UNSIGNED, TWOS])
def test_all_ones_codes_at_eight_bits_are_exact(scheme, wmode, amode):
    # Every partial sum is at its maximum, the chunk's row count.
    rows, cols, row_len = 300, 5, 128
    layout = flip_layout(scheme, np.full((rows, cols), 255), 8, wmode, row_len)
    cfg = CrossbarConfig(row_len=row_len, weight_mode=wmode, activation_mode=amode)
    acts = np.full((3, rows), 255)
    got = mvm_simulate_batch(layout, acts, cfg)
    want = mvm_exact(layout.effective_values(), decode_array(acts, 8, amode))
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("wmode", [UNSIGNED, TWOS])
def test_one_long_chunk_with_every_slice_flipped_is_exact(wmode):
    # 255 * rows is odd and above 2**24, so the chunk runs in float64, which
    # holds the unsigned shift-and-add of column 0 exactly; float32 would
    # round it.
    rng = np.random.default_rng(41)
    rows, cols = 70_001, 3
    stored = rng.integers(0, 256, size=(rows, cols))
    stored[:, 0] = 0  # every flipped slice reads all ones
    layout = flip_layout(SCHEME_BITFLIP, stored, 8, wmode, rows)
    cfg = CrossbarConfig(row_len=rows, weight_mode=wmode)
    acts = rng.integers(0, 256, size=(4, rows))
    acts[0] = 255
    got = mvm_simulate_batch(layout, acts, cfg)
    assert np.array_equal(got, mvm_exact(layout.effective_values(), acts))


# The tallest chunk that runs in float32 at 8 bits: 255 * 65,793 = 2**24 - 1.
FLOAT32_ROWS = 65_793


@pytest.mark.parametrize(
    "scheme, wmode",
    [
        (SCHEME_NAIVE, UNSIGNED),
        (SCHEME_NAIVE, TWOS),
        (SCHEME_SIGNFLIP, TWOS),
        (SCHEME_BITFLIP, UNSIGNED),
        (SCHEME_BITFLIP, TWOS),
    ],
)
def test_tallest_float32_chunk_is_exact(scheme, wmode):
    # Every partial sum is the chunk's row count.  Column 0 stores 255, and
    # column 1 stores 0, which reads as 255 with every slice flipped: the
    # unsigned shift-and-add of each stream is then 2**24 - 1, the largest
    # value the float32 path forms.
    stored = np.tile([255, 0], (FLOAT32_ROWS, 1))
    layout = flip_layout(scheme, stored, 8, wmode, FLOAT32_ROWS)
    cfg = CrossbarConfig(row_len=FLOAT32_ROWS, weight_mode=wmode)
    acts = np.full((1, FLOAT32_ROWS), 255)
    got = mvm_simulate_batch(layout, acts, cfg)
    assert np.array_equal(got, mvm_exact(layout.effective_values(), acts))


@pytest.mark.parametrize("scheme", (SCHEME_NAIVE, SCHEME_BITFLIP))
def test_shortest_float64_chunk_is_exact(scheme):
    # One row above the float32 bound.  Code 255 in every row but one row of
    # 254 makes the unsigned shift-and-add of every stream
    # 255 * 65,794 - 1 = 16,777,469: odd and above 2**24, so float32 would
    # round it.  The bit-flip layout stores the complement with every slice
    # flipped, so its corrected partial sums are the same.
    rows = FLOAT32_ROWS + 1
    codes = np.full((rows, 1), 255)
    codes[rows // 2] = 254
    stored = codes if scheme == SCHEME_NAIVE else 255 - codes
    layout = flip_layout(scheme, stored, 8, UNSIGNED, rows)
    cfg = CrossbarConfig(row_len=rows, weight_mode=UNSIGNED)
    acts = np.full((1, rows), 255)
    assert layout.effective_values().tolist() == codes.tolist()
    got = mvm_simulate_batch(layout, acts, cfg)
    assert np.array_equal(got, mvm_exact(layout.effective_values(), acts))


@pytest.mark.parametrize("batch, cols", [(0, 3), (2, 0)])
def test_empty_batch_or_layer_gives_empty_int64_output(batch, cols):
    layout = flip_layout(SCHEME_BITFLIP, np.ones((10, cols), dtype=int), 4, TWOS, 4)
    cfg = CrossbarConfig(row_len=4, weight_bits=4, activation_bits=4)
    out = mvm_simulate_batch(layout, np.zeros((batch, 10), dtype=np.int64), cfg)
    assert out.shape == (batch, cols) and out.dtype == np.int64


def test_simulator_peak_memory():
    # Bit planes are built per chunk, in float32 at this chunk height, with
    # the flipped slices complemented in place of a separate correction step
    # (about 3.7 MiB; with the step, 4.2 MiB).  float64 planes and products
    # peak near 7.4 MiB, and building the whole layer's planes at once, as
    # int64, more than doubles that.
    rng = np.random.default_rng(0)
    layout = flip_layout(
        SCHEME_BITFLIP, rng.integers(0, 256, size=(512, 512)), 8, TWOS, 64,
        rng.integers(0, 2, size=(8, 8, 512)),
    )
    acts = rng.integers(0, 256, size=(64, 512))
    tracemalloc.start()
    try:
        mvm_simulate_batch(layout, acts, CrossbarConfig(row_len=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_activations_reject_values_they_would_truncate():
    with pytest.raises(ValueError):
        ActivationVector(np.array([1.7, 2]), 4, UNSIGNED)
    layout = flip_layout(SCHEME_NAIVE, np.ones((2, 1), dtype=int), 4, TWOS, 2)
    cfg = CrossbarConfig(row_len=2, weight_bits=4, activation_bits=4)
    assert mvm_simulate_batch(layout, np.array([[1, 2]]), cfg).tolist() == [[3]]
    with pytest.raises(ValueError):
        mvm_simulate_batch(layout, np.array([[1.5, 2.0]]), cfg)


def test_caller_writes_after_validation_reach_neither_reader():
    # A bit-flip layout built from the caller's writeable uint8 b_flip: a 2
    # written into that array afterwards once made the simulator read plane
    # 1 ^ 2 = 3 and return 5 for stored code 3 and activation 1, while
    # effective_values() read 3 ^ 2 = 1.  The layout copies writeable
    # arrays, so both still read what it validated.
    stored = np.array([[3]], dtype=np.uint16)
    col_flip, b_flip = np.zeros((1, 1), np.uint8), np.zeros((2, 1, 1), np.uint8)
    layout = MappedLayout(SCHEME_BITFLIP, 2, UNSIGNED, 1, stored, col_flip, b_flip)
    cfg = CrossbarConfig(row_len=1, weight_bits=2, activation_bits=1,
                         weight_mode=UNSIGNED, activation_mode=UNSIGNED)
    b_flip[0, 0, 0] = 2
    assert mvm_simulate_batch(layout, np.array([[1]]), cfg).tolist() == [[3]]
    assert layout.effective_values().tolist() == [[3]]
    stored[0, 0] = 0
    col_flip[0, 0] = 1
    assert layout.stored.tolist() == [[3]] and not layout.col_flip.any()
