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
