"""Fixed-precision integer codes, their decoding tables, the one JSON file
reader, typed JSON fields, and the one reader each for JSON number arrays
and in-memory integer arrays.

A stored code is a raw unsigned n-bit pattern (``0 <= bits < 2**width``);
whether it denotes an unsigned or a two's-complement value is a decode-time
mode, never a storage property.  Bit index 0 is the LSB everywhere in this
package (flip masks, table keys, per-slice masks).

Every JSON file is read by :func:`read_json`, which returns what
``json.loads`` returns, except that each flat array of integers in a form
``json.dumps`` writes is parsed by numpy into an integer array.
"""

from __future__ import annotations

import json
import math
import sys
from json.decoder import WHITESPACE, scanstring
from pathlib import Path

import numpy as np

MODE_UNSIGNED = "unsigned"
MODE_TWOS_COMPLEMENT = "twos_complement"
MODES = (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT)

MAX_BITS = 8  # larger widths are rejected at configuration load
# Elements per numpy conversion of a JSON array, and characters per numpy
# parse of one; bounds the int64 temporaries of both.
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


# json's own scanner, which reads every value the numpy path below does not.
_SCAN = json.JSONDecoder().scan_once


def read_json(path: str | Path, what: str):
    """The JSON file at ``path`` as ``json.loads`` reads it, except that
    each non-empty flat array of integers in the form ``json.dumps`` writes
    (``,`` or ``, `` between elements, each ``-?(0|[1-9][0-9]*)`` with at
    most 18 digits) is parsed by numpy into an integer array.

    Objects, and arrays of objects, are walked here; every other value
    goes to json's scanner at the same position.  A file that is not ASCII,
    or that json rejects, is read again by ``json.loads`` alone, so every
    error is json's own, except that nesting too deep for json is a
    ValueError naming the file kind ``what``.
    """
    text = Path(path).read_text()
    try:
        if text.isascii():
            try:
                value, end = _value(text, WHITESPACE.match(text).end())
                if WHITESPACE.match(text, end).end() == len(text):
                    return value
            except (ValueError, StopIteration, RecursionError):
                pass
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} file nests arrays or objects too deeply") from None


def _value(s: str, i: int):
    """(value, end) of the JSON value at ``s[i]``; a ValueError or
    StopIteration if the text is not valid JSON there."""
    space = WHITESPACE.match
    if s.startswith("{", i):
        obj = {}
        i = space(s, i + 1).end()
        if s.startswith("}", i):
            return obj, i + 1
        while s.startswith('"', i):
            key, i = scanstring(s, i + 1)
            i = space(s, i).end()
            if not s.startswith(":", i):
                break
            obj[key], i = _value(s, space(s, i + 1).end())
            i = space(s, i).end()
            if s.startswith("}", i):
                return obj, i + 1
            if not s.startswith(",", i):
                break
            i = space(s, i + 1).end()
        raise ValueError("malformed JSON object")
    if s.startswith("[", i):
        j = space(s, i + 1).end()
        if s.startswith("{", j):
            items = []
            while True:
                item, j = _value(s, j)
                items.append(item)
                j = space(s, j).end()
                if s.startswith("]", j):
                    return items, j + 1
                if not s.startswith(",", j):
                    raise ValueError("malformed JSON array")
                j = space(s, j + 1).end()
        found = _int_array(s, i + 1)
        if found is not None:
            return found
    return _SCAN(s, i)


def _int_array(s: str, i: int):
    """(integer array, end) of the array whose first element is at ``s[i]``,
    or None unless it is a non-empty flat array of integers in the form
    :func:`read_json` parses.  It is parsed ``_JSON_BLOCK`` characters at
    a time, each block cut at its last comma.  An element in that form
    takes at most 20 characters, so a block of 21 or more that holds no
    comma is not in that form."""
    end = s.find("]", i)
    blocks = []
    while end > i:
        cut = s.rfind(",", i, i + _JSON_BLOCK) if i + _JSON_BLOCK < end else end
        if cut <= i:
            return None
        block = _int_block(np.frombuffer(f",{s[i:cut]},".encode(), np.uint8))
        if block is None:
            return None
        blocks.append(block)
        if cut == end:
            return np.concatenate(blocks), end + 1
        i = cut + 1
    return None


def _int_block(b: np.ndarray):
    """The integers between consecutive commas of the ASCII bytes ``b``
    (which start and end with a comma), in an integer type that holds
    every integer of their largest digit count; or None unless each is
    ``( ?)-?(0|[1-9][0-9]*)`` with at most 18 digits."""
    digit = b - ord("0")  # bytes other than digits wrap above 9
    comma = np.flatnonzero(b == ord(","))
    first, last = comma[:-1] + 1, comma[1:] - 1
    first += b[first] == ord(" ")
    minus = b[first] == ord("-")
    first += minus
    count = last - first + 1  # digits, once every other byte is one
    # Commas, one space and one sign per element: the rest must be digits.
    if count.min() < 1 or count.sum() != np.count_nonzero(digit < 10):
        return None
    top = count.max()
    if top > 18 or ((digit[first] == 0) & (count > 1)).any():
        return None
    kind = np.min_scalar_type(-(10**top))
    value = digit[last].astype(kind)
    for k in range(1, top):  # bytes left of an element's first digit are masked
        value += np.where(count > k, digit[last - k], 0).astype(kind) * 10**k
    return np.where(minus, -value, value)


_JSON_TYPE_NAMES = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    list: "an array",
    dict: "an object",
    type(None): "null",
    np.ndarray: "an array",
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
        if kind is list and isinstance(value, np.ndarray):  # from read_json
            continue
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ValueError(
                f"{what} key {key!r} must be {_JSON_TYPE_NAMES[kind]}, "
                f"not {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}"
            )
    return tuple(obj[key] for key in types)


def _out_of_range(name: str, flat, lo, hi, offset: int = 0) -> OutOfRangeError:
    """The error for the first element of ``flat`` (a list or an array)
    outside [lo, hi] (NaN included), found by a scan that runs only once a
    range check failed.  A value too long to quote is cut to its start and
    its length."""
    i = next(i for i, v in enumerate(flat) if not lo <= v <= hi)
    value = flat[i]
    text = json.dumps(value.item() if isinstance(value, np.generic) else value)
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
    values, what: str, key: str, shape: tuple, lo, hi, dtype=np.int64
) -> np.ndarray:
    """A flat JSON array of numbers in [lo, hi] as a read-only ``dtype``
    array of ``shape``.

    Elements must be JSON integers, or integers and floats for a float
    ``dtype`` (whose range -/+``sys.float_info.max`` rejects NaN and
    Infinity); never ``true``/``false``.  An integer array from
    :func:`read_json` skips only the element type scan.  A wrong length or
    element is a ValueError naming the file kind, key and element index.
    The values are converted in blocks, checked before narrowing, so no
    full int64 copy.
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
        if isinstance(block, np.ndarray):  # integers parsed by read_json
            array = block
        elif not set(map(type, block)) <= allowed:
            i = next(i for i, v in enumerate(block) if type(v) not in allowed)
            raise ValueError(
                f"{name} must be a flat array of {'numbers' if floats else 'integers'}"
                f": element {start + i} is {json.dumps(block[i])}"
            )
        else:
            try:
                array = np.fromiter(block, dtype=wide, count=len(block))
            except OverflowError:  # beyond int64 or float64, so outside [lo, hi]
                raise _out_of_range(name, block, lo, hi, start) from None
        if not (lo <= array.min() and array.max() <= hi):  # False for NaN
            raise _out_of_range(name, block, lo, hi, start)
        out[start : start + len(block)] = array
    out.flags.writeable = False
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
