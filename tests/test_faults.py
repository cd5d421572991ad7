import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import all_fault_cells, cell_to_packed, flip_cell, legal_ref
from safmap.faults import (
    FAULT_FREE as FF,
    SA0,
    SA1,
    FaultInjectionSpec,
    InvalidRateError,
    SafMask,
    _key_tables,
    count_unmasked,
    flip_pairs,
    force_write_array,
    gen_saf_mask,
    mask_rng,
    packed_from_fault_digits,
    sample_saf_mask,
)
from safmap.numfmt import OutOfRangeError


def packed(cell) -> tuple[np.ndarray, np.ndarray]:
    """(sa0, sa1) of one per-bit fault vector, as one-element uint16 arrays."""
    return tuple(np.array([m], dtype=np.uint16) for m in cell_to_packed(cell))


def test_key_digit_round_trip():
    for pattern, cell in all_fault_cells(4):
        sa0, sa1 = cell_to_packed(cell)
        digits = int(_key_tables(4)[0][sa1 << 4 | sa0])
        assert digits == pattern
        assert [int(m) for m in packed_from_fault_digits(digits, 4)] == [sa0, sa1]


def test_is_legal_examples():
    # stored 8 is compatible with SA0 at bit 2; stored 7 is not
    mask = SafMask(np.array([FF, FF, SA0, FF], dtype=np.int8).reshape(1, 1, 4))
    assert count_unmasked(np.array([[0b1000]]), mask) == 0
    assert count_unmasked(np.array([[0b0111]]), mask) != 0
    clean = SafMask(np.zeros((1, 1, 4), dtype=np.int8))
    assert count_unmasked(np.array([[0b1010]]), clean) == 0


def test_force_write_examples():
    assert force_write_array([0b0111], *packed([FF, FF, SA0, FF])).tolist() == [0b0011]
    assert force_write_array([0b1010], *packed([FF, FF, FF, FF])).tolist() == [0b1010]
    assert force_write_array([0b1010], *packed([SA1, FF, FF, FF])).tolist() == [0b1011]


def test_transform_mask_examples():
    def flipped(cell, j):
        sa0, sa1 = cell_to_packed(cell)
        pair = int(flip_pairs(np.array([sa1 << 4 | sa0], dtype=np.uint16), j, 4)[0])
        return pair & 0b1111, pair >> 4

    assert flipped([FF, FF, FF, SA1], 0b1000) == cell_to_packed([FF, FF, FF, SA0])
    cell = [SA0, SA1, FF, FF]
    assert flipped(cell, 0) == cell_to_packed(cell)
    assert flipped(cell, 0b0011) == cell_to_packed([SA1, SA0, FF, FF])
    for _, cell in all_fault_cells(4):
        for j in range(16):
            assert flipped(cell, j) == cell_to_packed(flip_cell(cell, j))


def test_masked_faults_are_benign_exhaustive_n4():
    for _, cell in all_fault_cells(4):
        mask = SafMask(np.array(cell, dtype=np.int8).reshape(1, 1, 4))
        sa0, sa1 = mask.packed()
        for code in range(16):
            unmasked = count_unmasked(np.array([[code]]), mask)
            assert (unmasked == 0) == legal_ref(code, cell)
            written = int(force_write_array(np.array([[code]]), sa0, sa1)[0, 0])
            assert legal_ref(written, cell)
            if unmasked == 0:
                assert written == code
            else:
                assert written != code


def test_transform_is_involutive_and_preserves_fault_count():
    rng = np.random.default_rng(3)
    for width in range(1, 9):
        mask = SafMask(rng.choice([SA0, FF, SA1], size=(6, 5, width)))
        sa0, sa1 = mask.packed()
        for j in range(1 << width):
            once = flip_pairs(mask.pair, j, width)
            twice = flip_pairs(once, j, width)
            assert np.array_equal(twice, mask.pair)
            # the same bits stay stuck, each at exactly one value
            once0, once1 = once & ((1 << width) - 1), once >> width
            assert np.array_equal(once0 | once1, sa0 | sa1)
            assert not (once0 & once1).any()


def test_count_unmasked_examples():
    mask = SafMask(np.zeros((2, 3, 4), dtype=np.int8))
    assert count_unmasked(np.ones((2, 3), dtype=int), mask) == 0
    cell = np.zeros((1, 1, 4), dtype=np.int8)
    cell[0, 0, 2] = SA0
    assert count_unmasked(np.array([[0b0111]]), SafMask(cell)) == 1
    cell = np.zeros((1, 1, 4), dtype=np.int8)
    cell[0, 0, 0] = SA1
    assert count_unmasked(np.array([[0b0111]]), SafMask(cell)) == 0


def test_rate_zero_and_one():
    spec = FaultInjectionSpec(rate=0.0, seed=1)
    assert gen_saf_mask(spec, (8, 8, 4)).num_faulty() == 0
    spec = FaultInjectionSpec(rate=1.0, seed=1, sa1_fraction=1.0)
    mask = gen_saf_mask(spec, (8, 8, 4))
    assert (mask.cells == SA1).all()


def test_invalid_rate_rejected():
    with pytest.raises(InvalidRateError):
        FaultInjectionSpec(rate=1.1, seed=0)
    with pytest.raises(InvalidRateError):
        FaultInjectionSpec(rate=0.5, seed=0, sa1_fraction=-0.2)


@pytest.mark.parametrize("rate, sa1_fraction", [(1.1, 0.5), (0.5, 1.7), (0.5, -0.1)])
def test_sample_rejects_probability_outside_unit_interval(rate, sa1_fraction):
    with pytest.raises(InvalidRateError):
        sample_saf_mask(mask_rng(0), (2, 2, 4), rate, sa1_fraction)


def test_generation_is_deterministic():
    spec = FaultInjectionSpec(rate=0.07, seed=42, trial_index=3)
    a = gen_saf_mask(spec, (16, 16, 8))
    b = gen_saf_mask(spec, (16, 16, 8))
    assert np.array_equal(a.cells, b.cells)
    c = gen_saf_mask(FaultInjectionSpec(rate=0.07, seed=42, trial_index=4), (16, 16, 8))
    assert not np.array_equal(a.cells, c.cells)


def test_sample_drawn_in_blocks_equals_drawing_all_at_once():
    # 123 x 77 x 8 = 75,768 cells: a full block of draws and a partial one.
    shape = (123, 77, 8)
    drawn, reference = mask_rng(5, 1), mask_rng(5, 1)
    got = sample_saf_mask(drawn, shape, 0.3, 0.4).cells
    faulty = reference.random(shape) < 0.3
    is_sa1 = reference.random(shape) < 0.4
    assert np.array_equal(got, np.where(faulty, np.where(is_sa1, SA1, SA0), FF))
    assert drawn.random() == reference.random()  # the stream is left where it was


def test_empirical_rate_one_shape():
    # 64x64x8 at 5%: expect the per-mask fraction within +-0.01 over seeds
    total = faulty = 0
    for seed in range(100):
        mask = gen_saf_mask(FaultInjectionSpec(rate=0.05, seed=seed), (64, 64, 8))
        faulty += mask.num_faulty()
        total += mask.cells.size
    assert abs(faulty / total - 0.05) < 0.01


@pytest.mark.parametrize("rate", [0.01, 0.05])
def test_pooled_injection_statistics(rate):
    faulty = sa1 = total = 0
    for seed in range(100):
        mask = gen_saf_mask(FaultInjectionSpec(rate=rate, seed=seed), (64, 64, 8))
        faulty += mask.num_faulty()
        sa1 += int((mask.cells == SA1).sum())
        total += mask.cells.size
    assert abs(faulty / total - rate) < 0.002
    assert abs(sa1 / faulty - 0.5) < 0.02


def test_packed_masks_agree_with_reference():
    rng = np.random.default_rng(9)
    cells = rng.choice([SA0, FF, SA1], size=(5, 7, 6)).astype(np.int8)
    mask = SafMask(cells)
    sa0, sa1 = mask.packed()
    for r in range(5):
        for c in range(7):
            ref0, ref1 = cell_to_packed(cells[r, c])
            assert (int(sa0[r, c]), int(sa1[r, c])) == (ref0, ref1)


def packed_per_bit(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-bit-plane packing ``SafMask.packed`` replaced, kept as its
    reference."""
    sa0 = np.zeros(cells.shape[:2], dtype=np.uint16)
    sa1 = np.zeros_like(sa0)
    for k in range(cells.shape[2]):
        plane = cells[:, :, k]
        sa0 |= (plane == SA0).astype(np.uint16) << k
        sa1 |= (plane == SA1).astype(np.uint16) << k
    return sa0, sa1


@pytest.mark.parametrize("bits", range(1, 9))
def test_packed_matches_per_bit_packing(bits):
    rng = np.random.default_rng(bits)
    wide = rng.choice([SA0, FF, SA1], size=(9, 14, bits + 3)).astype(np.int8)
    cases = [
        wide[:, :7, :bits].copy(),
        np.zeros((9, 7, bits), dtype=np.int8),  # fault-free
        np.full((9, 7, bits), SA0, dtype=np.int8),  # all stuck
        np.full((9, 7, bits), SA1, dtype=np.int8),
        rng.choice([SA0, SA1], size=(9, 7, bits)).astype(np.int8),
        wide[::-2, 1::2, 2 : bits + 2],  # a non-contiguous view
        np.zeros((0, 7, bits), dtype=np.int8),
    ]
    assert not SafMask(cases[5]).cells.flags.c_contiguous
    for cells in cases:
        mask = SafMask(cells)
        sa0, sa1 = mask.packed()
        want0, want1 = packed_per_bit(cells)
        assert sa0.dtype == sa1.dtype == mask.pair.dtype == np.uint16
        assert np.array_equal(sa0, want0) and np.array_equal(sa1, want1)
        assert np.array_equal(mask.pair, want1 << bits | want0)
    assert SafMask(cases[2]).packed()[0].max() == (1 << bits) - 1


def test_mask_arrays_are_read_only():
    # The pair is packed once from the cells; neither can be written after.
    cells = np.zeros((2, 3, 4), dtype=np.int8)
    mask = SafMask(cells)
    with pytest.raises(ValueError, match="read-only"):
        mask.cells[0, 0, 0] = SA1
    with pytest.raises(ValueError, match="read-only"):
        mask.pair[0, 0] = 1
    assert not mask.pair.any()


def test_json_round_trip(tmp_path):
    mask = gen_saf_mask(FaultInjectionSpec(rate=0.2, seed=5), (6, 4, 8))
    path = tmp_path / "mask.json"
    mask.save(path, extra={"config": {"tool": "test"}})
    loaded = SafMask.load(path)
    assert np.array_equal(loaded.cells, mask.cells)
    obj = json.loads(path.read_text())
    assert obj["rows"] == 6 and obj["cols"] == 4 and obj["bits"] == 8
    assert set(np.unique(obj["data"])) <= {-1, 0, 1}


@pytest.mark.parametrize(
    "shape",
    [(0, 4, 3), (3, 5, 2), (100, 100, 7), (200, 100, 8)],
    ids=["empty", "small", "one-partial-block", "three-blocks"],
)
@pytest.mark.parametrize(
    "extra",
    [
        None,
        {},
        {"config": {"note": "data", "args": [1, 2]}, "tool": "data"},
        {"rows": 9, "more": 1},  # replaces a shape key in place
        {"data": "replaced", "more": 2},  # replaces the cells
    ],
    ids=["none", "empty", "config", "shape-key", "data-key"],
)
def test_save_writes_the_bytes_of_one_json_dumps(tmp_path, shape, extra):
    # The cells are encoded in blocks of 65,536; sizes of 70,000 and
    # 160,000 cells end in a partial block.
    mask = SafMask(np.random.default_rng(2).integers(-1, 2, size=shape))
    path = tmp_path / "mask.json"
    mask.save(path, extra=extra)
    assert path.read_bytes() == json.dumps({**mask.to_json_dict(), **(extra or {})}).encode()


def test_save_peak_memory():
    # Encoding the cells blockwise holds no list of 2**21 Python ints; one
    # json.dumps of to_json_dict() peaks at about 28 MiB here.
    mask = gen_saf_mask(FaultInjectionSpec(rate=0.05, seed=1), (512, 512, 8))
    tracemalloc.start()
    try:
        mask.save(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    bits=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_json_round_trip_any_mask(rows, cols, bits, seed):
    cells = np.random.default_rng(seed).choice([SA0, FF, SA1], size=(rows, cols, bits))
    mask = SafMask(cells)
    loaded = SafMask.from_json_dict(json.loads(json.dumps(mask.to_json_dict())))
    assert np.array_equal(loaded.cells, mask.cells)


@pytest.mark.parametrize(
    "cells, error",
    [(np.full((1, 1, 1), 255), OutOfRangeError), (np.full((1, 1, 1), 0.6), ValueError)],
    ids=["int64-255", "float-0.6"],
)
def test_mask_rejects_cells_it_would_narrow(cells, error):
    # 255 would wrap to int8 -1 (stuck-at-0), 0.6 would truncate to 0.
    with pytest.raises(error):
        SafMask(cells)
