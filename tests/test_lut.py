import tracemalloc

import numpy as np
import pytest

from oracle import all_fault_cells, brute_cvm, cell_to_packed
from safmap.faults import FAULT_FREE as FF, SA0, SA1
from safmap.faults import packed_from_fault_digits
from safmap.lut import (
    CvmLut,
    LutFormatError,
    LutMismatchError,
    OnDemandLut,
    build_cvm_lut,
    load_or_build,
    read_lut,
    verify_lut,
    write_lut,
)
from safmap.numfmt import (
    MODE_TWOS_COMPLEMENT as TWOS,
    MODE_UNSIGNED as UNSIGNED,
    OutOfRangeError,
    decode,
)


def test_n1_table_has_six_entries():
    lut = build_cvm_lut(1, UNSIGNED)
    assert lut.entries.shape == (6,)
    # target 0: fault-free -> 0, SA1 -> 1, SA0 -> 0; target 1: SA0 forces 0
    sa0, sa1 = np.array([cell_to_packed(c) for c in ([FF], [SA1], [SA0], [SA0])]).T
    assert lut.map_codes(np.array([0, 0, 0, 1]), sa1 << 1 | sa0).tolist() == [0, 1, 0, 0]


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_n2_table_matches_oracle_everywhere(mode):
    lut = build_cvm_lut(2, mode)
    for pattern, cell in all_fault_cells(2):
        for code in range(4):
            target = decode(code, 2, mode)
            want, _ = brute_cvm(target, cell, 2, mode)
            assert lut.entries[code * 9 + pattern] == want


def test_clamped_out_of_range_target():
    from safmap.mapping import cvm_codes

    # +8 is unrepresentable in 4-bit two's complement; clamp to +7, then the
    # stuck-at-1 sign bit pushes the closest legal value to -1 (0b1111).
    sa0, sa1 = cell_to_packed([FF, FF, FF, SA1])
    assert cvm_codes(np.array([8]), [sa0], [sa1], 4, TWOS).tolist() == [0b1111]


def test_serialization_round_trip(tmp_path):
    lut = build_cvm_lut(3, TWOS)
    path = tmp_path / "t.lut"
    write_lut(lut, path)
    assert path.stat().st_size == 6**3 + 7
    loaded = read_lut(path)
    assert loaded.bits == 3 and loaded.mode == TWOS
    assert np.array_equal(loaded.entries, lut.entries)
    # rebuilding and rewriting produces the identical byte stream
    other = tmp_path / "t2.lut"
    write_lut(build_cvm_lut(3, TWOS), other)
    assert other.read_bytes() == path.read_bytes()


def test_read_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.lut"
    path.write_bytes(b"NOPE" + bytes([1, 0, 2]) + bytes(36))
    with pytest.raises(LutFormatError):
        read_lut(path)
    path.write_bytes(b"CVML" + bytes([9, 0, 2]) + bytes(36))
    with pytest.raises(LutFormatError):
        read_lut(path)
    path.write_bytes(b"CVML" + bytes([1, 0, 2]) + bytes(35))  # truncated
    with pytest.raises(LutFormatError):
        read_lut(path)
    path.write_bytes(b"CVML" + bytes([1, 7, 2]) + bytes(36))  # bad mode
    with pytest.raises(LutFormatError):
        read_lut(path)


def test_unsupported_width():
    with pytest.raises(OutOfRangeError):
        build_cvm_lut(9, UNSIGNED)
    with pytest.raises(LutFormatError):
        CvmLut(bits=2, mode=UNSIGNED, entries=np.zeros(35, dtype=np.uint8))


def test_verify_detects_corruption():
    lut = build_cvm_lut(4, UNSIGNED)
    assert verify_lut(lut, samples=2000, seed=1) == []
    corrupted = CvmLut(bits=4, mode=UNSIGNED, entries=lut.entries.copy())
    corrupted.entries[:] = (corrupted.entries + 1) % 16
    bad = verify_lut(corrupted, samples=2000, seed=1)
    assert len(bad) > 1900  # nearly every sampled key should now disagree


def test_load_or_build_caches(tmp_path):
    path = tmp_path / "cache.lut"
    first = load_or_build(3, UNSIGNED, path)
    assert path.exists()
    stamp = path.stat().st_mtime_ns
    second = load_or_build(3, UNSIGNED, path)
    assert path.stat().st_mtime_ns == stamp  # reused, not rebuilt
    assert np.array_equal(first.entries, second.entries)
    # a cache for another mode or width is refused and left untouched
    before = path.read_bytes()
    with pytest.raises(LutMismatchError, match="3-bit unsigned"):
        load_or_build(3, TWOS, path)
    with pytest.raises(LutMismatchError, match="4-bit unsigned"):
        load_or_build(4, UNSIGNED, path)
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == stamp


def test_map_codes_matches_direct_engine_random_n8():
    from safmap.mapping import cvm_codes
    from safmap.numfmt import decode_table

    lut = build_cvm_lut(8, TWOS)
    rng = np.random.default_rng(4)
    size = 50_000
    codes = rng.integers(0, 256, size=size)
    sa0 = rng.integers(0, 256, size=size).astype(np.uint16)
    sa1 = (rng.integers(0, 256, size=size).astype(np.uint16)) & ~sa0
    targets = decode_table(8, TWOS)[codes]
    assert np.array_equal(
        lut.map_codes(codes, sa1 << 8 | sa0),
        cvm_codes(targets, sa0, sa1, 8, TWOS),
    )


@pytest.mark.parametrize(
    "mode, target, sa0, sa1",
    [
        (TWOS, 127, 0x7F, 0x80),
        (TWOS, -128, 0x80, 0x7F),
        (UNSIGNED, 0, 0x00, 0xFF),
        (UNSIGNED, 255, 0xFF, 0x00),
    ],
)
def test_n8_every_bit_stuck_at_the_far_extreme(mode, target, sa0, sa1):
    # The one legal code lies 255 away: a distance of 0xFF, the same byte
    # that marks illegal candidates in the enumeration tables.
    from safmap.mapping import cvm_codes

    cell = [SA0 if (sa0 >> k) & 1 else SA1 for k in range(8)]
    want, err = brute_cvm(target, cell, 8, mode)
    assert (want, err) == (sa1, 255)
    sa0, sa1 = np.array([sa0]), np.array([sa1])
    assert cvm_codes(np.array([target]), sa0, sa1, 8, mode).tolist() == [want]
    code = np.array([target & 0xFF])
    assert build_cvm_lut(8, mode).map_codes(code, sa1 << 8 | sa0).tolist() == [want]


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_n8_build_peak_memory_from_cold_cache(mode):
    # A cold 8-bit build holds tables over the 3**8 fault digits only.
    from safmap import faults, mapping

    mapping._cvm_tables.cache_clear()
    faults._key_tables.cache_clear()
    tracemalloc.start()
    try:
        build_cvm_lut(8, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_n8_build_holds_no_large_temporary():
    # Keys pass through the candidate table 256 KiB at a time, so a build
    # peaks about 0.6 MiB above its 1.6 MiB of entries; passes of all 3**8
    # keys of a target code held three 1.6 MiB temporaries (3.4 MiB above).
    build_cvm_lut(8, TWOS)  # warms the cached tables
    tracemalloc.start()
    try:
        table = build_cvm_lut(8, TWOS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.entries.nbytes < 2**20


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5])
def test_on_demand_table_matches_full_table_on_every_key(bits, mode):
    full = build_cvm_lut(bits, mode)
    keys = np.arange(6**bits, dtype=np.uint32)
    assert np.array_equal(OnDemandLut(bits, mode).lookup(keys), full.lookup(keys))
    # The same keys as (target code, sa1 << bits | sa0) pairs, through map_codes.
    code, digits = np.divmod(keys, 3**bits)
    sa0, sa1 = packed_from_fault_digits(digits, bits)
    got = OnDemandLut(bits, mode).map_codes(code, sa1 << bits | sa0)
    assert got.dtype == np.uint16
    assert np.array_equal(got, full.map_codes(code, sa1 << bits | sa0))
    # Reading every entry solves the keys no lookup has met.
    partial = OnDemandLut(bits, mode)
    partial.lookup(keys[::7])
    assert np.array_equal(partial.entries, full.entries)


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_on_demand_lookup_solves_each_distinct_key_once(monkeypatch, mode):
    from safmap import lut as lut_mod

    full = build_cvm_lut(4, mode)
    solve = lut_mod.closest_codes
    solved = []

    def counting(keys, bits, mode):
        solved.extend(np.asarray(keys).tolist())
        return solve(keys, bits, mode)

    monkeypatch.setattr(lut_mod, "closest_codes", counting)
    lazy = OnDemandLut(4, mode)
    rng = np.random.default_rng(3)
    first = rng.integers(0, 6**4, size=40)
    batches = [
        np.repeat(first, 3)[rng.permutation(120)],  # every unsolved key thrice
        # solved keys and new ones, each new key repeated
        np.concatenate([first, np.tile(np.arange(500, 520), 4), first[:5]]),
    ]
    seen = set()
    for keys in batches:
        solved.clear()
        got = lazy.lookup(keys)
        assert sorted(solved) == sorted(set(keys.tolist()) - seen)
        assert np.array_equal(got, full.lookup(keys))
        seen.update(keys.tolist())


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_on_demand_table_fills_up_over_calls_n8(mode):
    full = build_cvm_lut(8, mode)
    lazy = OnDemandLut(8, mode)
    rng = np.random.default_rng(9)
    seen = rng.integers(0, 6**8, size=300)
    batches = [
        seen[:200],
        np.concatenate([seen[::-1], seen[:50]]),  # solved keys, repeats, unsorted
        rng.permutation(np.concatenate([seen[100:], rng.integers(0, 6**8, size=400)])),
        rng.integers(0, 6**8, size=(30, 40)).astype(np.uint32),
        np.empty(0, dtype=np.uint32),
        seen,
    ]
    for keys in batches:
        got = lazy.lookup(keys)
        assert got.shape == keys.shape
        assert np.array_equal(got, full.lookup(keys))
    code, digits = np.divmod(batches[3], 3**8)
    sa0, sa1 = packed_from_fault_digits(digits, 8)
    pair = sa1 << 8 | sa0
    assert np.array_equal(lazy.map_codes(code, pair), full.map_codes(code, pair))
