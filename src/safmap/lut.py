"""Precomputed closest-value-mapping table and its binary file format.

One table covers every (target code, per-bit fault pattern) pair for a
given width and decoding mode: 2**n codes times 3**n ternary fault
patterns, i.e. 6**n entries of one byte each.  It is the enumeration
engine (:func:`safmap.mapping.closest_codes`) evaluated on every key, built
once and reused across layers and models; mapping looks up the keys of
its signed target codes.  :class:`OnDemandLut` is the same
table with each entry solved by that engine the first time it is looked up,
for runs that meet only a few of the keys.

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

from .mapping import closest_codes, table_keys
from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED, check_mode, check_width

MAGIC = b"CVML"
VERSION = 1
_MODE_BYTES = {MODE_UNSIGNED: 0, MODE_TWOS_COMPLEMENT: 1}
_BYTE_MODES = {v: k for k, v in _MODE_BYTES.items()}


class LutFormatError(ValueError):
    """Malformed or truncated table file."""


class LutMismatchError(ValueError):
    """Cached table file built for another width or mode."""


@dataclass
class CvmLut:
    """Closest-value mapping results for every key of one (width, mode)."""

    bits: int
    mode: str
    entries: np.ndarray  # uint8, length 6**bits

    def __post_init__(self) -> None:
        check_width(self.bits)
        check_mode(self.mode)
        self.entries = np.asarray(self.entries, dtype=np.uint8)
        if self.entries.shape != (6**self.bits,):
            raise LutFormatError(
                f"expected {6 ** self.bits} entries, got {self.entries.shape}"
            )

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Entries of table keys, equivalent of
        :func:`safmap.mapping.closest_codes`."""
        return self.entries.take(keys)

    def map_codes(self, codes: np.ndarray, pair: np.ndarray) -> np.ndarray:
        """Closest legal code of each target code under its packed fault
        pair ``sa1 << bits | sa0``."""
        return self.lookup(table_keys(codes, pair, self.bits)).astype(np.uint16)


class OnDemandLut(CvmLut):
    """The table of one (width, mode), each entry solved by
    :func:`safmap.mapping.closest_codes` the first time its key is looked
    up.  Lookups write to it, so keep them on one thread."""

    def __init__(self, bits: int, mode: str) -> None:
        check_width(bits)
        check_mode(mode)
        self.bits = bits
        self.mode = mode
        # code + 1 per key, 0 while unsolved; np.zeros leaves untouched
        # pages unallocated.
        self._solved = np.zeros(6**bits, dtype=np.uint16)

    def _solve(self, keys: np.ndarray) -> None:
        """Solve distinct keys."""
        self._solved[keys] = closest_codes(keys, self.bits, self.mode) + 1

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        found = self._solved.take(keys)
        unsolved = found == 0
        if unsolved.any():
            missing = np.asarray(keys)[unsolved]
            # Sort and compare rather than np.unique, which imports numpy.ma
            # (about 16 ms of a fresh process).
            ordered = np.sort(missing)
            distinct = np.ones(ordered.size, dtype=bool)
            np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
            self._solve(ordered[distinct])
            found[unsolved] = self._solved.take(missing)
        found -= 1
        return found

    @property
    def entries(self) -> np.ndarray:
        """Every entry, solving the keys not looked up yet."""
        self._solve(np.flatnonzero(self._solved == 0))
        return (self._solved - 1).astype(np.uint8)


def build_cvm_lut(bits: int, mode: str) -> CvmLut:
    """Run closest-value mapping over all 6**bits keys, one target code's
    3**bits keys at a time."""
    check_width(bits)
    check_mode(mode)
    n3 = 3**bits
    entries = np.empty(6**bits, dtype=np.uint8)
    for start in range(0, entries.size, n3):
        keys = np.arange(start, start + n3, dtype=np.uint32)
        entries[start : start + n3] = closest_codes(keys, bits, mode)
    return CvmLut(bits=bits, mode=mode, entries=entries)


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
    body = np.frombuffer(raw[7:], dtype=np.uint8)
    if body.size != 6**bits:
        raise LutFormatError(
            f"{path}: expected {6 ** bits} entries, found {body.size}"
        )
    return CvmLut(bits=bits, mode=_BYTE_MODES[raw[5]], entries=body.copy())


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
