"""Fixed-precision integer codes, their decoding tables, typed JSON fields,
and the one reader each for JSON number arrays and in-memory integer arrays.

A stored code is a raw unsigned n-bit pattern (``0 <= bits < 2**width``);
whether it denotes an unsigned or a two's-complement value is a decode-time
mode, never a storage property.  Bit index 0 is the LSB everywhere in this
package (flip masks, table keys, per-slice masks).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

MODE_UNSIGNED = "unsigned"
MODE_TWOS_COMPLEMENT = "twos_complement"
MODES = (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT)

MAX_BITS = 8  # larger widths are rejected at configuration load
# Elements per numpy conversion of a JSON array; bounds the int64 temporaries.
_JSON_BLOCK = 1 << 16
# Longest value an error message quotes in full; longer ones are cut.
_QUOTE_LIMIT = 40


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


_JSON_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
}


def json_fields(obj, what: str, **types: type) -> tuple:
    """The values of the keys named in ``types`` in a parsed JSON object, in
    order.  A missing key, or a value not of the JSON type given for its key
    (``true``/``false`` are not integers), is a ValueError that names it."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key, kind in types.items():
        if key not in obj:
            raise ValueError(f"{what} is missing key {key!r}")
        value = obj[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(
                f"{what} key {key!r} must be {_JSON_TYPE_NAMES[kind]}, "
                f"not {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}"
            )
    return tuple(obj[key] for key in types)


def _out_of_range(name: str, flat, lo, hi, offset: int = 0) -> OutOfRangeError:
    """The error for the first element of ``flat`` outside [lo, hi] (NaN
    included), found by a scan that runs only once a range check failed.
    A value too long to quote is cut to its start and its length."""
    i = next(i for i, v in enumerate(flat) if not lo <= v <= hi)
    text = json.dumps(flat[i])
    if len(text) > _QUOTE_LIMIT:
        text = f"{text[:_QUOTE_LIMIT // 2]}... ({len(text)} characters)"
    if lo == -hi == -sys.float_info.max:
        allowed = "finite numbers"
    else:
        allowed = f"{lo} or {hi}" if hi == lo + 1 else f"integers in [{lo}, {hi}]"
    return OutOfRangeError(
        f"{name} element {offset + i} is {text}; entries must be {allowed}"
    )


def int_array(values, what: str, lo: int, hi: int, dtype) -> np.ndarray:
    """In-memory ``values`` as a ``dtype`` array.  Anything numpy does not
    read as integers (floats, null, ragged nesting, integers wider than 64
    bits, booleans alone) is a ValueError naming ``what``, and a value
    outside [lo, hi] an OutOfRangeError, checked before narrowing.  Empty is
    legal, although numpy reads an empty list as float64."""
    try:
        array = np.asarray(values)
    except ValueError:
        raise ValueError(f"{what} must hold integers, not ragged lists") from None
    if array.size and array.dtype.kind not in "iu":
        # numpy gives integers wider than 64 bits the object dtype.
        wide = " of at most 64 bits" if array.dtype.kind == "O" else ""
        raise ValueError(f"{what} must hold integers{wide}, got {array.dtype}")
    if array.size and (array.min() < lo or array.max() > hi):
        raise _out_of_range(what, array.ravel().tolist(), lo, hi)
    return array.astype(dtype, copy=False)


def json_array(
    values: list, what: str, key: str, shape: tuple, lo, hi, dtype=np.int64
) -> np.ndarray:
    """A flat JSON array of numbers in [lo, hi] as a ``dtype`` array of ``shape``.

    Elements must be JSON integers, or integers and floats for a float
    ``dtype`` (whose range -/+``sys.float_info.max`` rejects NaN and
    Infinity); never ``true``/``false``.  A wrong length or element is a
    ValueError naming the file kind, key and element index.  The list is
    converted in blocks, checked before narrowing, so no full int64 copy.
    """
    name = f"{what} key {key!r}"
    if min(shape, default=0) < 0:
        raise ValueError(f"{name} cannot fill negative shape {shape}")
    size = math.prod(shape)
    if len(values) != size:
        raise ValueError(
            f"{name} holds {len(values)} values, expected {size} for shape {shape}"
        )
    floats = np.dtype(dtype).kind == "f"
    allowed, wide = ({int, float}, np.float64) if floats else ({int}, np.int64)
    out = np.empty(size, dtype=dtype)
    for start in range(0, size, _JSON_BLOCK):
        block = values[start : start + _JSON_BLOCK]
        if not set(map(type, block)) <= allowed:
            i = next(i for i, v in enumerate(block) if type(v) not in allowed)
            raise ValueError(
                f"{name} must be a flat array of {'numbers' if floats else 'integers'}"
                f": element {start + i} is {json.dumps(block[i])}"
            )
        try:
            array = np.fromiter(block, dtype=wide, count=len(block))
        except OverflowError:  # beyond int64 or float64, so outside [lo, hi]
            raise _out_of_range(name, block, lo, hi, start) from None
        if not (lo <= array.min() and array.max() <= hi):  # False for NaN
            raise _out_of_range(name, block, lo, hi, start)
        out[start : start + len(block)] = array
    return out.reshape(shape)


def decode(bits: int, width: int, mode: str) -> int:
    """Decode a raw pattern: unsigned identity, or two's complement."""
    check_width(width)
    check_mode(mode)
    if mode == MODE_UNSIGNED:
        return bits
    if bits & (1 << (width - 1)):
        return bits - (1 << width)
    return bits


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
    """Raw patterns of decoded values, inverse of :func:`decode_array`;
    raises OutOfRangeError if any value is not representable."""
    lo, hi = value_range(width, mode)
    values = int_array(values, f"{width}-bit {mode} values", lo, hi, np.int64)
    return (values & ((1 << width) - 1)).astype(np.uint16)


def clamp_array(values: np.ndarray, width: int, mode: str) -> np.ndarray:
    """Nearest representable integer to each value for (width, mode)."""
    lo, hi = value_range(width, mode)
    return np.clip(np.asarray(values, dtype=np.int64), lo, hi)
