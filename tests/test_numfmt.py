import sys

import numpy as np
import pytest

from safmap import numfmt
from safmap.numfmt import (
    MODE_TWOS_COMPLEMENT as TWOS,
    MODE_UNSIGNED as UNSIGNED,
    OutOfRangeError,
    clamp_array,
    decode,
    encode_array,
)


def test_decode_examples():
    assert decode(0b0111, 4, UNSIGNED) == 7
    assert decode(0b1000, 4, TWOS) == -8
    assert decode(0b1001, 4, TWOS) == -7  # 9 - 16


def test_encode_examples():
    assert encode_array([-7, 0], 4, TWOS).tolist() == [0b1001, 0]
    assert encode_array([0], 4, UNSIGNED).tolist() == [0]
    with pytest.raises(OutOfRangeError):
        encode_array([8], 4, TWOS)
    with pytest.raises(OutOfRangeError):
        encode_array([-1], 4, UNSIGNED)


def test_clamp_examples():
    assert clamp_array([8, -9, 3], 4, TWOS).tolist() == [7, -8, 3]
    assert clamp_array([3, -1, 16], 4, UNSIGNED).tolist() == [3, 0, 15]


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_round_trip_exhaustive(width, mode):
    lo, hi = numfmt.value_range(width, mode)
    values = list(range(lo, hi + 1))
    codes = encode_array(values, width, mode)
    assert [decode(int(code), width, mode) for code in codes] == values


@pytest.mark.parametrize("width", range(1, 9))
@pytest.mark.parametrize("mode", [UNSIGNED, TWOS])
def test_slicing_consistency_exhaustive(width, mode):
    for code in range(1 << width):
        acc = sum((1 << k) * ((code >> k) & 1) for k in range(width - 1))
        msb_weight = 1 << (width - 1)
        if mode == UNSIGNED:
            acc += msb_weight * ((code >> (width - 1)) & 1)
        else:
            acc -= msb_weight * ((code >> (width - 1)) & 1)
        assert acc == decode(code, width, mode)


def test_width_limits():
    with pytest.raises(OutOfRangeError):
        numfmt.check_width(9)
    with pytest.raises(OutOfRangeError):
        numfmt.check_width(0)


def test_array_helpers_match_scalars():
    for mode in (UNSIGNED, TWOS):
        codes = np.arange(16)
        decoded = numfmt.decode_array(codes, 4, mode)
        assert [decode(int(c), 4, mode) for c in codes] == decoded.tolist()
        assert np.array_equal(encode_array(decoded, 4, mode), codes)


def test_json_int_array_examples():
    def read(values, shape, lo=-1, hi=1, dtype=np.int8):
        return numfmt.json_array(values, "fault mask", "data", shape, lo, hi, dtype)

    got = read([1, 0, -1, 0], (2, 2))
    assert got.dtype == np.int8 and got.tolist() == [[1, 0], [-1, 0]]
    assert read([], (0, 3)).shape == (0, 3)  # numpy reads [] as float64
    # Blocks after the first are checked too.
    big = [0] * 70_000
    big[-1] = 2
    for values, shape, match in (
        ([255, 0], (2,), r"in \[-1, 1\]"),  # checked before narrowing to int8
        ([0.5, 0], (2,), "integers"),
        ([True, False], (2,), "integers"),
        ([None, 0], (2,), "integers"),
        ([2**70, 0], (2,), "integers"),
        ([[0], 0], (2,), "integers"),
        ([[0, 0], [0, 0]], (2,), "flat array"),
        ([0, 0, 0], (2, 2), "expected 4"),
        ([0] * 4, (-2, -2), "negative shape"),
        (big, (70_000,), r"in \[-1, 1\]"),
    ):
        with pytest.raises(ValueError, match=match) as info:
            read(values, shape)
        assert "fault mask key 'data'" in str(info.value)


def test_encode_rejects_non_integers():
    with pytest.raises(ValueError, match="integers"):
        encode_array([3.7], 4, UNSIGNED)


@pytest.mark.parametrize("values, index", [([True, 0], 0), ([0, False], 1)])
def test_json_array_rejects_mixed_booleans(values, index):
    # numpy alone reads [true, 0] as the integers [1, 0].
    with pytest.raises(ValueError, match=rf"integers: element {index} is (true|false)"):
        numfmt.json_array(values, "fault mask", "data", (2,), -1, 1, np.int8)


def test_json_array_of_floats_takes_any_finite_number():
    top = sys.float_info.max

    def read(values):
        return numfmt.json_array(
            values, "model layer 0", "bias", (2,), -top, top, np.float64
        )

    assert read([1, -2.5]).tolist() == [1.0, -2.5]
    for values, index in (([0, True], 1), ([float("nan"), 0], 0),
                          ([0, float("-inf")], 1), ([10**400, 0], 0), ([None, 0], 0)):
        with pytest.raises(ValueError, match=rf"model layer 0 key 'bias'.* element {index} "):
            read(values)


def test_out_of_range_error_cuts_a_long_value():
    top = sys.float_info.max
    with pytest.raises(ValueError) as info:
        numfmt.json_array([0, -10**400], "model layer 0", "bias", (2,), -top, top, np.float64)
    message = str(info.value)
    assert len(message) < 150
    assert f"element 1 is -1{'0' * 18}... (402 characters);" in message


@pytest.mark.parametrize(
    "values, wording",
    [
        (np.array([[3.7]]), "must hold integers, got float64"),
        (np.array([True, False]), "must hold integers, got bool"),
        ([2**70, 0], "must hold integers of at most 64 bits, got object"),
    ],
)
def test_int_array_names_what_is_wrong(values, wording):
    with pytest.raises(ValueError, match=rf"^weight codes {wording}$"):
        numfmt.int_array(values, "weight codes", 0, 15, np.uint16)
