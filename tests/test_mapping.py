import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    all_fault_cells,
    brute_bitflip_column,
    brute_cvm,
    cell_to_packed,
    legal_ref,
)
from safmap.faults import (
    FAULT_FREE as FF,
    SA0,
    SA1,
    FaultInjectionSpec,
    SafMask,
    flip_pairs,
    gen_saf_mask,
    sample_saf_mask,
)
from safmap.lut import build_cvm_lut
from safmap.mapping import (
    ChunkGeometry,
    LayerWeights,
    MappedLayout,
    SCHEME_BITFLIP,
    SCHEME_CVM,
    SCHEME_NAIVE,
    SCHEME_SIGNFLIP,
    SCHEMES,
    UnsignedLayerError,
    build_layout,
    cvm_codes,
    mapping_error,
)
from safmap.numfmt import (
    MODE_TWOS_COMPLEMENT as TWOS,
    MODE_UNSIGNED as UNSIGNED,
    OutOfRangeError,
    clamp_array,
    decode_table,
    encode_array,
    value_range,
)


def single_weight_mask(cell) -> SafMask:
    return SafMask(np.array(cell, dtype=np.int8).reshape(1, 1, len(cell)))


def column_mask(cells) -> SafMask:
    return SafMask(np.array(cells, dtype=np.int8)[:, None, :])


def column_layer(values, bits, mode) -> LayerWeights:
    return LayerWeights.from_values(np.array(values)[:, None], bits, mode)


# ---------------------------------------------------------------------------
# Closest value mapping
# ---------------------------------------------------------------------------


def test_cvm_single_weight_example():
    layer = column_layer([7], 4, UNSIGNED)
    mask = single_weight_mask([FF, FF, SA0, FF])
    stored = build_layout(SCHEME_CVM, layer, mask, 1).stored
    assert stored[0, 0] == 0b1000  # value 8, error 1


def test_cvm_fault_free_is_identity():
    layer = column_layer([5, -3, 7], 4, TWOS)
    mask = SafMask(np.zeros((3, 1, 4), dtype=np.int8))
    assert np.array_equal(build_layout(SCHEME_CVM, layer, mask, 1).stored, layer.codes)


def test_cvm_signed_example():
    layer = column_layer([-3], 4, TWOS)
    mask = single_weight_mask([FF, FF, FF, SA0])
    stored = build_layout(SCHEME_CVM, layer, mask, 1).stored
    assert stored[0, 0] == 0b0000  # closest legal is 0, error 3


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_cvm_matches_brute_force_exhaustively_n4(mode):
    from safmap.numfmt import decode

    for _, cell in all_fault_cells(4):
        sa0, sa1 = cell_to_packed(cell)
        for code in range(16):
            target = decode(code, 4, mode)
            got = int(
                cvm_codes(np.array([target]), np.array([sa0]), np.array([sa1]), 4, mode)[0]
            )
            want_code, want_err = brute_cvm(target, cell, 4, mode)
            got_err = abs(decode(got, 4, mode) - target)
            assert got_err == want_err
            assert got == want_code  # same tie-break: smallest pattern


def test_cvm_never_worse_than_naive_per_weight():
    rng = np.random.default_rng(11)
    layer = LayerWeights(
        rng.integers(0, 256, size=(64, 16)).astype(np.uint16), 8, TWOS
    )
    mask = gen_saf_mask(FaultInjectionSpec(rate=0.1, seed=2), (64, 16, 8))
    targets = layer.values()
    from safmap.numfmt import decode_array

    cvm = build_layout(SCHEME_CVM, layer, mask, 1).stored
    naive = build_layout(SCHEME_NAIVE, layer, mask, 1).stored
    cvm_err = np.abs(decode_array(cvm, 8, TWOS) - targets)
    naive_err = np.abs(decode_array(naive, 8, TWOS) - targets)
    assert (cvm_err <= naive_err).all()


# ---------------------------------------------------------------------------
# Naive mapping
# ---------------------------------------------------------------------------


def test_naive_examples():
    layer = column_layer([7], 4, UNSIGNED)
    mask = single_weight_mask([FF, FF, SA0, FF])
    assert build_layout(SCHEME_NAIVE, layer, mask, 1).stored[0, 0] == 0b0011
    clean = SafMask(np.zeros((1, 1, 4), dtype=np.int8))
    assert build_layout(SCHEME_NAIVE, layer, clean, 1).stored[0, 0] == 0b0111
    layer0 = column_layer([0], 4, UNSIGNED)
    mask3 = single_weight_mask([FF, FF, FF, SA1])
    assert build_layout(SCHEME_NAIVE, layer0, mask3, 1).stored[0, 0] == 0b1000


# ---------------------------------------------------------------------------
# Sign-flip
# ---------------------------------------------------------------------------


def test_sign_flip_fault_free_keeps_polarity():
    layer = column_layer([3, -2, 7], 4, TWOS)
    mask = SafMask(np.zeros((3, 1, 4), dtype=np.int8))
    layout = build_layout(SCHEME_SIGNFLIP, layer, mask, row_len=4)
    stored, col_flip = layout.stored, layout.col_flip
    assert np.array_equal(stored, layer.codes)
    assert not col_flip.any()


def test_sign_flip_single_row_example():
    layer = column_layer([7], 4, TWOS)
    mask = single_weight_mask([FF, FF, FF, SA1])
    layout = build_layout(SCHEME_SIGNFLIP, layer, mask, row_len=1)
    stored, col_flip = layout.stored, layout.col_flip
    assert col_flip[0, 0] == 1
    assert stored[0, 0] == 0b1001  # stores -7 exactly, output negated


def test_sign_flip_two_row_example():
    layer = column_layer([7, 6], 4, TWOS)
    mask = column_mask([[FF, FF, FF, SA1], [FF, FF, FF, FF]])
    layout = build_layout(SCHEME_SIGNFLIP, layer, mask, row_len=2)
    stored, col_flip = layout.stored, layout.col_flip
    assert col_flip[0, 0] == 1
    assert stored[:, 0].tolist() == [0b1001, 0b1010]  # -7, -6


def test_sign_flip_rejects_unsigned():
    layer = column_layer([7], 4, UNSIGNED)
    mask = SafMask(np.zeros((1, 1, 4), dtype=np.int8))
    with pytest.raises(UnsignedLayerError):
        build_layout(SCHEME_SIGNFLIP, layer, mask, row_len=1)


# ---------------------------------------------------------------------------
# Bit-flip
# ---------------------------------------------------------------------------


def test_bit_flip_fault_free_prefers_zero_mask():
    layer = column_layer([3, 9, 0], 4, UNSIGNED)
    mask = SafMask(np.zeros((3, 1, 4), dtype=np.int8))
    layout = build_layout(SCHEME_BITFLIP, layer, mask, row_len=4)
    stored, b_flip = layout.stored, layout.b_flip
    assert np.array_equal(stored, layer.codes)
    assert not b_flip.any()


def test_bit_flip_single_row_examples():
    # target 0 with SA1 at bit 3: flipping the MSB slice stores 8, reads 0
    layer = column_layer([0], 4, UNSIGNED)
    mask = single_weight_mask([FF, FF, FF, SA1])
    layout = build_layout(SCHEME_BITFLIP, layer, mask, row_len=1)
    stored, b_flip = layout.stored, layout.b_flip
    j = sum(int(b_flip[k, 0, 0]) << k for k in range(4))
    assert j == 0b1000
    assert stored[0, 0] == 0b1000
    assert stored[0, 0] ^ j == 0b0000

    # target 5 with SA0@bit0 and SA1@bit1: j=0b0011 reaches error 0
    layer = column_layer([5], 4, UNSIGNED)
    mask = single_weight_mask([SA0, SA1, FF, FF])
    layout = build_layout(SCHEME_BITFLIP, layer, mask, row_len=1)
    stored, b_flip = layout.stored, layout.b_flip
    j = sum(int(b_flip[k, 0, 0]) << k for k in range(4))
    assert j == 0b0011
    assert stored[0, 0] == 0b0110
    assert stored[0, 0] ^ j == 0b0101


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_bit_flip_matches_brute_force_on_random_columns(mode):
    rng = np.random.default_rng(21)
    from safmap.numfmt import decode

    for _ in range(25):
        rows = int(rng.integers(1, 5))
        codes = rng.integers(0, 16, size=rows)
        cells = rng.choice([SA0, FF, SA1], size=(rows, 4), p=[0.15, 0.7, 0.15])
        layer = LayerWeights(codes[:, None].astype(np.uint16), 4, mode)
        mask = column_mask(cells)
        layout = build_layout(SCHEME_BITFLIP, layer, mask, row_len=rows)
        stored, b_flip = layout.stored, layout.b_flip
        j = sum(int(b_flip[k, 0, 0]) << k for k in range(4))
        targets = [decode(int(c), 4, mode) for c in codes]
        want_j, want_effs, want_err = brute_bitflip_column(
            targets, list(cells), 4, mode
        )
        got_err = sum(
            abs(decode(int(stored[r, 0]) ^ j, 4, mode) - targets[r])
            for r in range(rows)
        )
        assert got_err == want_err
        assert j == want_j
        assert [int(s) ^ j for s in stored[:, 0]] == want_effs


# ---------------------------------------------------------------------------
# Correction-word search against a full solve per word
# ---------------------------------------------------------------------------


def full_solve_words(scheme, layer, mask, row_len):
    """First arg-min over the scheme's words of the chunk-summed error when
    every weight is mapped with ``cvm_codes`` under each word."""
    bits = layer.bits
    words = np.arange(1 << bits) if scheme == SCHEME_BITFLIP else np.array([0, 1 << bits])
    low = (1 << bits) - 1
    targets = layer.values()
    dec = decode_table(bits, layer.mode).astype(np.int64)
    geom = ChunkGeometry(layer.rows, row_len)
    errs = []
    for word in words:
        target = -targets if word >> bits else targets
        flipped = flip_pairs(mask.pair, word & low, bits)
        eff = cvm_codes(target, flipped & low, flipped >> bits, bits, layer.mode)
        errs.append(geom.chunk_sums(np.abs(dec[eff] - target)))
    return words[np.argmin(errs, axis=0)]


def chosen_words(layout):
    return (layout.col_flip.astype(np.uint16) << layout.bits) | layout.flip_masks()


def extreme_heavy_case(rng, rows, cols, bits, mode, rate):
    """Random codes, about 30% of them the most negative one."""
    codes = rng.integers(0, 1 << bits, size=(rows, cols))
    lowest = encode_array(np.array([value_range(bits, mode)[0]]), bits, mode)[0]
    codes[rng.random((rows, cols)) < 0.3] = lowest
    layer = LayerWeights(codes.astype(np.uint16), bits, mode)
    return layer, sample_saf_mask(rng, (rows, cols, bits), rate)


def assert_search_matches_full_solve(layer, mask, row_len, table):
    schemes = [SCHEME_BITFLIP] + ([SCHEME_SIGNFLIP] if layer.mode == TWOS else [])
    for scheme in schemes:
        want = full_solve_words(scheme, layer, mask, row_len)
        for lut in (None, table):
            layout = build_layout(scheme, layer, mask, row_len, lut=lut)
            assert np.array_equal(chosen_words(layout), want), (scheme, lut is None)


@pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.0])
@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_word_search_matches_full_solve(bits, mode, rate):
    table = build_cvm_lut(bits, mode)
    rng = np.random.default_rng([bits, int(rate * 100), mode == TWOS])
    for _ in range(5):
        rows = int(rng.integers(3, 9))
        row_len = int(rng.choice([r for r in range(2, rows) if rows % r]))
        layer, mask = extreme_heavy_case(
            rng, rows, int(rng.integers(1, 5)), bits, mode, rate
        )
        assert_search_matches_full_solve(layer, mask, row_len, table)


def test_word_search_matches_full_solve_n8():
    rng = np.random.default_rng(70)
    layer, mask = extreme_heavy_case(rng, 70, 6, 8, TWOS, 0.05)
    assert_search_matches_full_solve(layer, mask, 16, build_cvm_lut(8, TWOS))


@pytest.mark.parametrize("score_bytes", [3 * 8 * 256, 4 * 8 * 2])
def test_subset_search_in_blocks_matches_full_solve_n8(monkeypatch, score_bytes):
    # Score blocks of 3 or 1 groups for bit-flip and 384 or 4 for sign-flip,
    # and term batches of at most 64, split the 5 x 9 groups of a 70-row
    # layer (its last chunk 6 rows long); every stuck-bit count 0..8 occurs.
    from safmap import mapping

    monkeypatch.setattr(mapping, "_SCORE_BYTES", score_bytes)
    monkeypatch.setattr(mapping, "_TERMS", 64)
    table = build_cvm_lut(8, TWOS)
    rng = np.random.default_rng(12)
    counts = set()
    for rate in (0.3, 0.7, 1.0):
        layer, mask = extreme_heavy_case(rng, 70, 9, 8, TWOS, rate)
        counts |= set(np.count_nonzero(mask.cells, axis=2).ravel().tolist())
        assert_search_matches_full_solve(layer, mask, 16, table)
    assert counts == set(range(9))


@pytest.mark.parametrize("row_len", [1, 4, 7, 9, 40])
def test_faulty_by_group_matches_3d_nonzero(row_len):
    # 23 rows: the last chunk is padded for row_len 4, 7 and 9; row_len 40
    # is one chunk longer than the layer.
    from safmap.mapping import _faulty_by_group

    rows, cols = 23, 6
    mask = sample_saf_mask(np.random.default_rng(row_len), (rows, cols, 3), 0.2)
    sa0, sa1 = mask.packed()
    geom = ChunkGeometry(rows, row_len)
    padded = np.zeros((geom.num_chunks * row_len, cols), dtype=bool)
    padded[:rows] = (sa0 | sa1) != 0
    chunk, col, row = np.nonzero(
        padded.reshape(geom.num_chunks, row_len, cols).transpose(0, 2, 1)
    )
    flat, group = _faulty_by_group(mask.pair, geom)
    assert 0 < flat.size < rows * cols
    assert np.array_equal(flat, (chunk * row_len + row) * cols + col)
    assert np.array_equal(group, chunk * cols + col)


def test_bitflip_search_peak_memory():
    # The search keeps per-word buffers over the faulty weights only; a
    # (2**bits, 3**bits) table of flipped fault digits would double the peak.
    from safmap import faults, mapping

    table = build_cvm_lut(8, TWOS)
    rng = np.random.default_rng(0)
    layer = LayerWeights(rng.integers(0, 256, size=(512, 512)).astype(np.uint16), 8, TWOS)
    mask = sample_saf_mask(rng, (512, 512, 8), 0.05)
    mapping._cvm_tables.cache_clear()
    faults._key_tables.cache_clear()
    tracemalloc.start()
    try:
        build_layout(SCHEME_BITFLIP, layer, mask, 64, lut=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize(
    "scheme, mib", [(SCHEME_CVM, 6), (SCHEME_SIGNFLIP, 7), (SCHEME_BITFLIP, 6)]
)
def test_build_layout_reads_the_mask_packed_pair(scheme, mib):
    # Mapping works on weight codes: no decoded, negated or clamped target
    # array and no float64 error terms (54 B per weight with them).  The mask
    # packs its pairs when it is built, so one call holds no (M, K, 8)
    # packing buffer and no uint32 copy of both masks: with a prebuilt table
    # it stays under 24 B per weight for cvm and bit-flip and 28 B for
    # sign-flip (27 and 29 B when it packed them itself).
    table = build_cvm_lut(8, TWOS)
    rng = np.random.default_rng(0)
    layer = LayerWeights(rng.integers(0, 256, size=(512, 512)).astype(np.uint16), 8, TWOS)
    mask = sample_saf_mask(rng, (512, 512, 8), 0.05)
    build_layout(scheme, layer, mask, 64, lut=table)  # fills the cached tables
    tracemalloc.start()
    try:
        build_layout(scheme, layer, mask, 64, lut=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
@pytest.mark.parametrize("bits", range(1, 9))
def test_signed_codes_are_the_clamped_signed_targets(bits, mode):
    from safmap.mapping import _signed_codes

    code, cost = _signed_codes(bits, mode)
    dec = decode_table(bits, mode).astype(np.int64)
    for sign, signed in enumerate((dec, -dec)):
        clamped = clamp_array(signed, bits, mode)
        assert np.array_equal(code[sign], clamped & ((1 << bits) - 1))
        assert np.array_equal(decode_table(bits, mode)[code[sign]], clamped)
        assert np.array_equal(cost[sign], np.abs(clamped - signed))
    assert code.shape == cost.shape == (2, 1 << bits)
    assert not (code.flags.writeable or cost.flags.writeable)


def test_oracle_solves_each_key_once_per_call(monkeypatch):
    # Without a table the per-word search reads one on-demand table for the
    # call, so a key that several words share is enumerated only once.
    from safmap import lut, mapping

    layer, mask = random_case(seed=8)
    table = build_cvm_lut(8, TWOS)
    solved = []
    enumerate_keys = mapping.closest_codes

    def counting(keys, bits, mode):
        solved.extend(np.asarray(keys).ravel().tolist())
        return enumerate_keys(keys, bits, mode)

    monkeypatch.setattr(mapping, "closest_codes", counting)
    monkeypatch.setattr(lut, "closest_codes", counting)
    oracle = build_layout(SCHEME_BITFLIP, layer, mask, 16, lut=None)
    assert solved
    assert len(solved) == len(set(solved))
    fast = build_layout(SCHEME_BITFLIP, layer, mask, 16, lut=table)
    for name in ("stored", "col_flip", "b_flip"):
        assert np.array_equal(getattr(oracle, name), getattr(fast, name)), name


@pytest.mark.parametrize("scheme", [SCHEME_CVM, SCHEME_SIGNFLIP, SCHEME_BITFLIP])
@pytest.mark.parametrize("bits, mode", [(3, TWOS), (4, UNSIGNED)])
def test_table_of_another_width_or_mode_is_refused(scheme, bits, mode):
    layer, mask = random_case(seed=9, rows=8, cols=3, bits=4, mode=TWOS)
    with pytest.raises(ValueError, match=r"LUT built for \(.*\) cannot map a \(4-bit, "):
        build_layout(scheme, layer, mask, 4, lut=build_cvm_lut(bits, mode))


# ---------------------------------------------------------------------------
# Cross-scheme properties and layouts
# ---------------------------------------------------------------------------


def random_case(seed, rows=64, cols=12, bits=8, rate=0.1, mode=TWOS):
    rng = np.random.default_rng(seed)
    layer = LayerWeights(
        rng.integers(0, 1 << bits, size=(rows, cols)).astype(np.uint16), bits, mode
    )
    mask = gen_saf_mask(FaultInjectionSpec(rate=rate, seed=seed), (rows, cols, bits))
    return layer, mask


@pytest.mark.parametrize("scheme", [SCHEME_NAIVE, SCHEME_CVM, SCHEME_SIGNFLIP, SCHEME_BITFLIP])
def test_all_schemes_store_legal_codes(scheme):
    layer, mask = random_case(seed=5)
    layout = build_layout(scheme, layer, mask, row_len=16)
    for r in range(layer.rows):
        for c in range(layer.cols):
            assert legal_ref(int(layout.stored[r, c]), mask.cells[r, c])


def test_per_column_dominance():
    layer, mask = random_case(seed=6, rate=0.08)
    cvm_cols, _ = mapping_error(build_layout(SCHEME_CVM, layer, mask, 16), layer)
    naive_cols, _ = mapping_error(build_layout(SCHEME_NAIVE, layer, mask, 16), layer)
    sf_cols, _ = mapping_error(build_layout(SCHEME_SIGNFLIP, layer, mask, 16), layer)
    bf_cols, _ = mapping_error(build_layout(SCHEME_BITFLIP, layer, mask, 16), layer)
    assert (cvm_cols <= naive_cols).all()
    assert (sf_cols <= cvm_cols).all()
    assert (bf_cols <= cvm_cols).all()


def test_mapping_error_examples():
    layer = column_layer([7], 4, UNSIGNED)
    mask = single_weight_mask([FF, FF, SA0, FF])
    _, cvm_total = mapping_error(build_layout(SCHEME_CVM, layer, mask, 1), layer)
    _, naive_total = mapping_error(build_layout(SCHEME_NAIVE, layer, mask, 1), layer)
    assert cvm_total == 1
    assert naive_total == 4
    clean = SafMask(np.zeros((1, 1, 4), dtype=np.int8))
    for scheme in (SCHEME_NAIVE, SCHEME_CVM, SCHEME_BITFLIP):
        _, total = mapping_error(build_layout(scheme, layer, clean, 1), layer)
        assert total == 0


def test_outputs_are_deterministic():
    layer, mask = random_case(seed=7)
    for scheme in (SCHEME_CVM, SCHEME_SIGNFLIP, SCHEME_BITFLIP):
        a = build_layout(scheme, layer, mask, 16)
        b = build_layout(scheme, layer, mask, 16)
        assert a.stored.tobytes() == b.stored.tobytes()
        assert a.col_flip.tobytes() == b.col_flip.tobytes()
        assert a.b_flip.tobytes() == b.b_flip.tobytes()


def test_signflip_effective_value_can_exceed_code_range():
    layout = MappedLayout(
        scheme=SCHEME_SIGNFLIP,
        bits=4,
        mode=TWOS,
        row_len=1,
        stored=np.array([[0b1000]], dtype=np.uint16),  # -8
        col_flip=np.ones((1, 1), dtype=np.uint8),
        b_flip=np.zeros((4, 1, 1), dtype=np.uint8),
    )
    assert layout.effective_values()[0, 0] == 8  # exact digital negation

    layout = dataclasses.replace(layout, stored=[[0b1001]])  # -7
    assert layout.effective_values()[0, 0] == 7

    bitflip = MappedLayout(
        scheme=SCHEME_BITFLIP,
        bits=4,
        mode=UNSIGNED,
        row_len=1,
        stored=np.array([[0b1000]], dtype=np.uint16),
        col_flip=np.zeros((1, 1), dtype=np.uint8),
        b_flip=np.array([[[0]], [[0]], [[0]], [[1]]], dtype=np.uint8),
    )
    assert bitflip.effective_values()[0, 0] == 0  # 0b1000 XOR 0b1000

    layer = column_layer([7], 4, TWOS)
    clean = SafMask(np.zeros((1, 1, 4), dtype=np.int8))
    naive = build_layout(SCHEME_NAIVE, layer, clean, 1)
    assert naive.effective_values()[0, 0] == 7


def test_chunk_geometry():
    geom = ChunkGeometry(rows=130, row_len=64)
    assert geom.num_chunks == 3
    assert geom.slices()[-1] == slice(128, 130)
    assert ChunkGeometry(rows=64, row_len=64).num_chunks == 1


def test_layout_json_round_trip(tmp_path):
    layer, mask = random_case(seed=8, rows=20, cols=5)
    layout = build_layout(SCHEME_BITFLIP, layer, mask, row_len=8)
    path = tmp_path / "layout.json"
    layout.save(path, extra={"config": {"tool": "test"}})
    loaded = MappedLayout.load(path)
    assert loaded.scheme == layout.scheme
    assert np.array_equal(loaded.stored, layout.stored)
    assert np.array_equal(loaded.b_flip, layout.b_flip)
    assert np.array_equal(loaded.col_flip, layout.col_flip)


def valid_layout_args(scheme, bits=3, rows=5, cols=2, row_len=2):
    chunks = ChunkGeometry(rows, row_len).num_chunks
    return dict(
        scheme=scheme,
        bits=bits,
        mode=TWOS,
        row_len=row_len,
        stored=np.zeros((rows, cols), dtype=np.uint16),
        col_flip=np.zeros((chunks, cols), dtype=np.uint8),
        b_flip=np.zeros((bits, chunks, cols), dtype=np.uint8),
    )


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    bits=st.integers(1, 8),
    excess=st.integers(0, 1 << 20),
    negative=st.booleans(),
    position=st.integers(0, 9),
)
def test_layout_rejects_codes_outside_width(scheme, bits, excess, negative, position):
    args = valid_layout_args(scheme, bits=bits)
    args["stored"] = args["stored"].astype(np.int64)
    args["stored"].flat[position] = -1 - excess if negative else (1 << bits) + excess
    with pytest.raises(ValueError, match="stored"):
        MappedLayout(**args)


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    name=st.sampled_from(["col_flip", "b_flip"]),
    value=st.one_of(st.integers(2, 1000), st.integers(-1000, -1)),
)
def test_layout_rejects_non_binary_flips(scheme, name, value):
    args = valid_layout_args(scheme)
    args[name] = args[name].astype(np.int64)
    args[name].flat[-1] = value
    with pytest.raises(ValueError, match="0 or 1"):
        MappedLayout(**args)


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    name=st.sampled_from(["col_flip", "b_flip"]),
    axis=st.integers(0, 2),
    delta=st.sampled_from([-1, 1]),
)
def test_layout_rejects_misshaped_flips(scheme, name, axis, delta):
    args = valid_layout_args(scheme)
    shape = list(args[name].shape)
    if axis >= len(shape):
        shape.append(1)  # one axis too many
    else:
        shape[axis] += delta
    args[name] = np.zeros(shape, dtype=np.uint8)
    with pytest.raises(ValueError, match="shape"):
        MappedLayout(**args)


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    name=st.sampled_from(["col_flip", "b_flip"]),
    position=st.integers(0, 17),
)
def test_layout_rejects_flips_of_another_scheme(scheme, name, position):
    owner = {"col_flip": SCHEME_SIGNFLIP, "b_flip": SCHEME_BITFLIP}[name]
    args = valid_layout_args(scheme)
    flips = args[name]
    flips.flat[position % flips.size] = 1
    if scheme == owner:
        MappedLayout(**args)  # the flips belong to this scheme
    else:
        with pytest.raises(ValueError, match=f"only in a {owner} layout"):
            MappedLayout(**args)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_layout_arrays_are_read_only_after_validation(scheme):
    # A write after validation could show the simulator and effective_values
    # a code out of range or a flag outside {0, 1}.  The layout holds views,
    # so the caller's own uint16/uint8 arrays keep their flags.
    args = valid_layout_args(scheme)
    layout = MappedLayout(**args)
    for name in ("stored", "col_flip", "b_flip"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(layout, name)[...] = 2
        assert args[name].flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        layout.stored = args["stored"]


def test_layout_json_rejects_invalid_or_incomplete_files():
    layout = MappedLayout(**valid_layout_args(SCHEME_SIGNFLIP))
    obj = layout.to_json_dict()
    assert MappedLayout.from_json_dict(obj).scheme == SCHEME_SIGNFLIP
    for key in obj:
        partial = {k: v for k, v in obj.items() if k != key}
        with pytest.raises(ValueError, match=repr(key)):
            MappedLayout.from_json_dict(partial)
    for key, value in (("stored", 9999), ("b_flip", 1), ("col_flip", 7)):
        bad = dict(obj, **{key: [value] * len(obj[key])})
        with pytest.raises(ValueError):
            MappedLayout.from_json_dict(bad)
    with pytest.raises(ValueError, match="integers"):
        MappedLayout.from_json_dict(dict(obj, stored=[0.5] * len(obj["stored"])))


def test_shape_mismatch_rejected():
    layer = column_layer([1, 2], 4, UNSIGNED)
    mask = SafMask(np.zeros((3, 1, 4), dtype=np.int8))
    with pytest.raises(ValueError):
        build_layout(SCHEME_CVM, layer, mask, 1)


@pytest.mark.parametrize(
    "codes, error",
    [([[3.7]], ValueError), ([[65537]], OutOfRangeError)],
    ids=["float-3.7", "int64-65537"],
)
def test_layer_weights_reject_codes_they_would_narrow(codes, error):
    # 3.7 would truncate to 3, 65537 would wrap to uint16 1.
    with pytest.raises(error):
        LayerWeights(np.array(codes), 4, UNSIGNED)
