"""Fixed-precision integer codes and bit-level helpers.

A stored code is a raw unsigned n-bit pattern (``0 <= bits < 2**width``);
whether it denotes an unsigned or a two's-complement value is a decode-time
mode, never a storage property.  Bit index 0 is the LSB everywhere in this
package (flip masks, table keys, per-slice masks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODE_UNSIGNED = "unsigned"
MODE_TWOS_COMPLEMENT = "twos_complement"
MODES = (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT)

MAX_BITS = 8  # larger widths are rejected at configuration load


class OutOfRangeError(ValueError):
    """Value not representable in the requested (width, mode)."""


def check_width(width: int) -> None:
    if not 1 <= width <= MAX_BITS:
        raise OutOfRangeError(f"bit width must be in 1..{MAX_BITS}, got {width}")


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown decoding mode {mode!r}")


def value_range(width: int, mode: str) -> tuple[int, int]:
    """Inclusive (lo, hi) of decodable values for the given width and mode."""
    check_width(width)
    check_mode(mode)
    if mode == MODE_UNSIGNED:
        return 0, (1 << width) - 1
    return -(1 << (width - 1)), (1 << (width - 1)) - 1


@dataclass(frozen=True)
class CodeWord:
    """An n-bit stored pattern."""

    bits: int
    width: int

    def __post_init__(self) -> None:
        check_width(self.width)
        if not 0 <= self.bits < (1 << self.width):
            raise OutOfRangeError(
                f"pattern {self.bits:#x} does not fit in {self.width} bits"
            )


def json_fields(obj, what: str, *keys: str) -> tuple:
    """The values of ``keys`` in a parsed JSON object, in order; a missing
    key is a ValueError that names it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} is missing key {key!r}")
    return tuple(obj[key] for key in keys)


def decode(bits: int, width: int, mode: str) -> int:
    """Decode a raw pattern: unsigned identity, or two's complement."""
    check_width(width)
    check_mode(mode)
    if mode == MODE_UNSIGNED:
        return bits
    if bits & (1 << (width - 1)):
        return bits - (1 << width)
    return bits


def encode(value: int, width: int, mode: str) -> int:
    """Inverse of :func:`decode`; raises OutOfRangeError outside the range."""
    lo, hi = value_range(width, mode)
    if not lo <= value <= hi:
        raise OutOfRangeError(
            f"value {value} not representable as {width}-bit {mode}"
        )
    return value & ((1 << width) - 1)


def clamp_to_range(value: int, width: int, mode: str) -> int:
    """Nearest representable integer to ``value`` for (width, mode)."""
    lo, hi = value_range(width, mode)
    return min(max(value, lo), hi)


def bit_slice(bits: int, k: int) -> int:
    """Bit k (LSB = index 0) of the stored pattern."""
    return (bits >> k) & 1


def xor_mask(bits: int, j: int, width: int) -> int:
    """Bitwise XOR with an n-bit flip mask; involutive."""
    check_width(width)
    if not 0 <= j < (1 << width):
        raise OutOfRangeError(f"flip mask {j:#x} does not fit in {width} bits")
    return bits ^ j


def decode_table(width: int, mode: str) -> np.ndarray:
    """Decoded value of every pattern 0..2**width-1, as int16."""
    check_width(width)
    check_mode(mode)
    codes = np.arange(1 << width, dtype=np.int16)
    if mode == MODE_TWOS_COMPLEMENT:
        codes = np.where(codes >= (1 << (width - 1)), codes - (1 << width), codes)
    return codes


def decode_array(codes: np.ndarray, width: int, mode: str) -> np.ndarray:
    """Vectorized :func:`decode` on an array of raw patterns."""
    return decode_table(width, mode)[np.asarray(codes, dtype=np.int64)]


def encode_array(values: np.ndarray, width: int, mode: str) -> np.ndarray:
    """Vectorized :func:`encode`; raises if any value is out of range."""
    lo, hi = value_range(width, mode)
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < lo or values.max() > hi):
        raise OutOfRangeError(
            f"values outside [{lo}, {hi}] for {width}-bit {mode}"
        )
    return (values & ((1 << width) - 1)).astype(np.uint16)


def clamp_array(values: np.ndarray, width: int, mode: str) -> np.ndarray:
    """Vectorized :func:`clamp_to_range`."""
    lo, hi = value_range(width, mode)
    return np.clip(np.asarray(values, dtype=np.int64), lo, hi)
