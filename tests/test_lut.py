import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracle import all_fault_cells, brute_cvm, cell_to_packed
from safmap.faults import FAULT_FREE as FF, SA0, SA1
from safmap.lut import (
    CvmLut,
    LutFormatError,
    LutMismatchError,
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


@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
@pytest.mark.parametrize("bits", range(1, 9))
def test_build_equals_enumeration_on_every_key(monkeypatch, bits, mode):
    from safmap import lut as lut_mod, mapping

    solve = mapping.closest_codes
    want = solve(np.arange(6**bits), bits, mode)
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(lut_mod, "closest_codes", counting)
    monkeypatch.setattr(mapping, "closest_codes", counting)
    got = build_cvm_lut(bits, mode).entries
    assert calls == []  # built without enumerating candidates
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


@pytest.mark.parametrize("field", ["entries", "bits", "mode"])
def test_tables_refuse_assignment(field):
    # Assigning entries once replaced the validated table, and a bit-flip
    # mapping then read codes out of range.
    table = build_cvm_lut(2, UNSIGNED)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(table, field, np.full(36, 255, dtype=np.uint8))
    assert (table.bits, table.mode) == (2, UNSIGNED)
    assert np.array_equal(table.entries, build_cvm_lut(2, UNSIGNED).entries)


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
    assert not loaded.entries.flags.writeable  # a view of the file's bytes
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


def test_table_entries_are_checked_before_narrowing():
    # An int64 entry of 300 was once narrowed to 44, a 6-bit code, and
    # accepted.
    entries = np.zeros(6**6, dtype=np.int64)
    entries[5] = 300
    with pytest.raises(OutOfRangeError, match="table entries element 5 is 300"):
        CvmLut(bits=6, mode=UNSIGNED, entries=entries)
    entries[5] = 255  # a byte, but not a 6-bit code
    with pytest.raises(LutFormatError, match="entry of key 5 is 255, not a 6-bit code"):
        CvmLut(bits=6, mode=UNSIGNED, entries=entries)


def test_verify_detects_corruption():
    lut = build_cvm_lut(4, UNSIGNED)
    assert verify_lut(lut, samples=2000, seed=1) == []
    corrupted = CvmLut(bits=4, mode=UNSIGNED, entries=(lut.entries + 1) % 16)
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

    mapping._err_table.cache_clear()
    mapping._penalty_table.cache_clear()
    faults._key_tables.cache_clear()
    tracemalloc.start()
    try:
        build_cvm_lut(8, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_n8_build_holds_no_large_temporary():
    # The top bit is widened straight into the 1.6 MiB of entries, in passes
    # of up to 32 Ki entries of the 7-bit table, so a build peaks about
    # 0.6 MiB above the entries: the 0.27 MiB 7-bit table and one pass's
    # int16 temporaries.  One more copy of the full table would add 1.6 MiB.
    build_cvm_lut(8, TWOS)  # warms the cached tables
    tracemalloc.start()
    try:
        table = build_cvm_lut(8, TWOS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.entries.nbytes < 2**20
