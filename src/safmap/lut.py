"""Precomputed closest-value-mapping table and its binary file format.

One table covers every (target code, per-bit fault pattern) pair for a
given width and decoding mode: 2**n codes times 3**n ternary fault
patterns, i.e. 6**n entries of one byte each.  It holds the result of the
enumeration engine (:func:`safmap.mapping.closest_codes`) for every key;
:func:`build_cvm_lut` builds it by a recursion over bit widths, without
enumerating, and one table serves every layer and model of its width and
mode.  It is the one table kind: every mapping reads a full table, which
takes about 2 ms to build at 8 bits.  Mapping looks up the keys of its
signed target codes.  The engine stays the oracle the table is checked
against (:func:`verify_lut`).

Key layout (fixed so files are bit-exact across runs), the one of
:func:`safmap.mapping.table_keys`:
    index = target_code * 3**n + fault_digits
with the base-3 fault digits of :mod:`safmap.faults`, LSB-bit first, digit
values 0 = fault-free, 1 = stuck-at-1, 2 = stuck-at-0.

File format (little-endian): magic ``CVML``, version byte 0x01, mode byte
(0 = unsigned, 1 = two's complement), width byte n, then 6**n entry bytes
in key order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .faults import DIGIT_SA0, DIGIT_SA1, packed_from_fault_digits
from .mapping import closest_codes, table_keys
from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED, check_mode, check_width
from .numfmt import int_array

MAGIC = b"CVML"
VERSION = 1
_MODE_BYTES = {MODE_UNSIGNED: 0, MODE_TWOS_COMPLEMENT: 1}
_BYTE_MODES = {v: k for k, v in _MODE_BYTES.items()}
# Entries of the narrower table per pass of :func:`_widen`; bounds its
# temporaries to a few hundred KiB.
_PASS_ELEMENTS = 1 << 15


class LutFormatError(ValueError):
    """Malformed or truncated table file."""


class LutMismatchError(ValueError):
    """Cached table file built for another width or mode."""


@dataclass(frozen=True)
class CvmLut:
    """Closest-value mapping results for every key of one (width, mode),
    frozen so that no assignment can replace the validated table."""

    bits: int
    mode: str
    entries: np.ndarray  # uint8, length 6**bits, read-only

    def __post_init__(self) -> None:
        check_width(self.bits)
        check_mode(self.mode)
        entries = int_array(self.entries, "table entries", 0, 255, np.uint8)
        if entries.shape != (6**self.bits,):
            raise LutFormatError(
                f"expected {6 ** self.bits} entries, got {entries.shape}"
            )
        if entries.max() >> self.bits:  # the max makes no temporary
            key = np.flatnonzero(entries >> self.bits)[0]
            raise LutFormatError(
                f"entry of key {key} is {entries[key]}, not a {self.bits}-bit code"
            )
        object.__setattr__(self, "entries", entries)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Entries of table keys, equivalent of
        :func:`safmap.mapping.closest_codes`."""
        return self.entries.take(keys)

    def map_codes(self, codes: np.ndarray, pair: np.ndarray) -> np.ndarray:
        """Closest legal code of each target code under its packed fault
        pair ``sa1 << bits | sa0``."""
        return self.lookup(table_keys(codes, pair, self.bits)).astype(np.uint16)


def build_cvm_lut(bits: int, mode: str) -> CvmLut:
    """Closest-value mapping results of all 6**bits keys, each width's
    table widened by one bit (:func:`_widen`) from the width-0 table of
    one key; equal to :func:`safmap.mapping.closest_codes` on every key."""
    check_width(bits)
    check_mode(mode)
    table = np.zeros(1, dtype=np.uint8)
    for k in range(bits):
        signed = int(k == bits - 1 and mode == MODE_TWOS_COMPLEMENT)
        wider = np.empty(6 ** (k + 1), dtype=np.uint8)
        _widen(table.reshape(1 << k, 3**k), wider.reshape(2, 1 << k, 3, 3**k), signed)
        table = wider
    table.flags.writeable = False  # so the table need not copy it
    return CvmLut(bits=bits, mode=mode, entries=table)


def _widen(sub: np.ndarray, out: np.ndarray, signed: int) -> None:
    """Fill ``out``, the table of width k + 1 as (t_top, t_low, d_top, d'),
    from ``sub``, the width-k table as (t_low, d'), in passes over rows of
    ``sub`` holding up to ``_PASS_ELEMENTS`` entries.

    Both tables are in offset order: the code, its sign bit flipped when
    the top bit is a two's-complement sign bit (``signed``), so that decoded
    distance is the distance between offset values.  A key's closest value
    either keeps the target's top bit, and is the width-k entry at
    (t_low, d') inside the target's half, or takes the other half's nearest
    extreme: the least legal low value (the stuck-at-1 bits of d') above
    the target, the greatest (the complement of its stuck-at-0 bits)
    below.  A stuck top bit leaves one of the two; a free one takes the
    nearer, ties the lower value, except at a sign bit, where the smaller
    code is the upper, non-negative value.  When ``signed``, rows and
    values are written in code order.
    """
    half, per_row = sub.shape  # 2**k, 3**k
    sa0, sa1 = packed_from_fault_digits(np.arange(per_row), half.bit_length() - 1)
    least = sa1.astype(np.int16)
    greatest = (half - 1) ^ sa0.astype(np.int16)
    flip = half * signed
    # The offset top bit each stuck digit leaves legal.
    stuck = ((DIGIT_SA1, 1 ^ signed), (DIGIT_SA0, signed))
    step = max(1, _PASS_ELEMENTS // per_row)
    for start in range(0, half, step):
        inside = sub[start : start + step].astype(np.int16)
        twice = 2 * np.arange(start, start + len(inside), dtype=np.int16)[:, None]
        for t_top in (0, 1):
            # When the target lies between the near and the far value,
            # gap - half is how much farther the near one is; otherwise gap
            # is below half and the near value is the nearer.
            if t_top:
                near, far = inside + half, greatest
                gap = inside + greatest - twice
            else:
                near, far = inside, least + half
                gap = twice - inside - least
            dest = out[t_top ^ signed, start : start + step]
            # The far value is nearer, or as near and the preferred one.
            cross = gap >= half + (t_top == signed)
            dest[:, 0] = np.where(cross, far, near) ^ flip  # fault-free top bit
            for digit, bit in stuck:
                dest[:, digit] = (near if bit == t_top else far) ^ flip


def write_lut(lut: CvmLut, path: str | Path) -> None:
    header = MAGIC + bytes([VERSION, _MODE_BYTES[lut.mode], lut.bits])
    Path(path).write_bytes(header + lut.entries.tobytes())


def read_lut(path: str | Path) -> CvmLut:
    raw = Path(path).read_bytes()
    if len(raw) < 7 or raw[:4] != MAGIC:
        raise LutFormatError(f"{path}: not a CVML table file")
    if raw[4] != VERSION:
        raise LutFormatError(f"{path}: unsupported version {raw[4]}")
    if raw[5] not in _BYTE_MODES:
        raise LutFormatError(f"{path}: unknown mode byte {raw[5]}")
    bits = raw[6]
    check_width(bits)
    body = np.frombuffer(raw, dtype=np.uint8, offset=7)  # read-only, not copied
    try:
        return CvmLut(bits=bits, mode=_BYTE_MODES[raw[5]], entries=body)
    except LutFormatError as exc:
        raise LutFormatError(f"{path}: {exc}") from None


def load_or_build(
    bits: int, mode: str, cache_path: str | Path | None = None
) -> CvmLut:
    """Read a cached table if present, else build (and cache) one.

    A cache file built for another width or mode is refused with
    LutMismatchError and left as it is.
    """
    if cache_path is not None and Path(cache_path).exists():
        lut = read_lut(cache_path)
        if (lut.bits, lut.mode) != (bits, mode):
            raise LutMismatchError(
                f"{cache_path} holds a {lut.bits}-bit {lut.mode} table, "
                f"not the requested {bits}-bit {mode} one"
            )
        return lut
    lut = build_cvm_lut(bits, mode)
    if cache_path is not None:
        write_lut(lut, cache_path)
    return lut


def verify_lut(
    lut: CvmLut, samples: int, seed: int = 0
) -> list[tuple[int, int, int]]:
    """Compare random table entries against direct closest-value mapping.

    Returns a list of (key, table code, recomputed code) mismatches;
    empty means the sampled entries all agree.
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 6**lut.bits, size=samples, dtype=np.int64)
    direct = closest_codes(keys, lut.bits, lut.mode)
    table = lut.entries[keys].astype(np.uint16)
    bad = np.flatnonzero(direct != table)
    return [(int(keys[i]), int(table[i]), int(direct[i])) for i in bad]
