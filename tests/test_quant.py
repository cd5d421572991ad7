import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safmap.numfmt import MODE_TWOS_COMPLEMENT as TWOS, MODE_UNSIGNED as UNSIGNED
from safmap.quant import NonFiniteError, _round_half_away, quantize


def test_signed_example():
    q = quantize(np.array([-1.0, 0.0, 1.0]), 8, TWOS)
    assert q.codes.tolist() == [-127, 0, 127]
    assert q.scale == pytest.approx(1 / 127)


def test_unsigned_example():
    q = quantize(np.array([0.0, 0.5, 1.0]), 2, UNSIGNED)
    assert q.codes.tolist() == [0, 2, 3]  # 0.5/(1/3) = 1.5 rounds away to 2
    assert q.scale == pytest.approx(1 / 3)


def test_one_bit_twos_complement_rejected():
    # its only levels are -1 and 0, so a symmetric scale has no positive level
    with pytest.raises(ValueError, match="1-bit twos_complement"):
        quantize(np.array([-1.0, 0.5]), 1, TWOS)
    q = quantize(np.array([0.0, 0.4, 1.0]), 1, UNSIGNED)
    assert q.codes.tolist() == [0, 0, 1]
    assert q.scale == 1.0


def test_round_half_away_from_zero():
    q = quantize(np.array([-2.5, -1.5, 1.5, 2.5, 5.0]), 8, TWOS)
    assert q.scale == pytest.approx(5 / 127)
    # +-1.5 scaled = +-38.1, +-2.5 scaled = +-63.5 -> rounds away from zero
    assert q.codes.tolist() == [-64, -38, 38, 64, 127]


def reference_round_half_away(x):
    whole = np.floor(np.abs(x))
    return np.sign(x) * (whole + (np.abs(x) - whole >= 0.5))


ROUNDING_EDGES = np.concatenate([
    np.arange(-300, 301) + 0.5,
    [0.0, -0.0, 0.49999999999999994, -0.49999999999999994, 2**52 - 0.5, -(2**52 - 0.5)],
    np.random.default_rng(0).normal(scale=100.0, size=10_000),
])


def test_rounding_matches_reference_on_edge_values():
    want = reference_round_half_away(ROUNDING_EDGES).astype(np.int64)
    assert np.array_equal(_round_half_away(ROUNDING_EDGES).astype(np.int64), want)
    # With a peak of 127 the 8-bit scale is 1, so every value below it in
    # magnitude reaches the rounding unchanged.
    small = ROUNDING_EDGES[np.abs(ROUNDING_EDGES) < 127]
    for x in (np.append(small, 127.0), ROUNDING_EDGES):
        q = quantize(x, 8, TWOS)
        want = np.clip(reference_round_half_away(x / q.scale), -128, 127)
        assert np.array_equal(q.codes, want.astype(np.int64))


def test_rounding_just_below_one_half_and_above_two_to_52():
    # |x| + 0.5 rounds to 1.0 at the largest double below one half, and to
    # the next even integer at odd integers from 2**52 up.
    x = np.array([0.49999999999999994, -0.49999999999999994, 2.0**52 + 1, -(2.0**52 + 1)])
    assert _round_half_away(x).tolist() == [0.0, -0.0, 2.0**52 + 1, -(2.0**52 + 1)]
    q = quantize(np.array([0.49999999999999994, 127.0]), 8, TWOS)
    assert q.codes.tolist() == [0, 127]


def test_rounding_matches_reference_next_to_halves_and_integers():
    # Adding the largest double below one half must agree with the fraction
    # form on the doubles next to every half and integer, at all magnitudes.
    halves = np.concatenate([
        np.arange(-2**12, 2**12) + 0.5, 2.0 ** np.arange(52) + 0.5, 2.0 ** np.arange(-60, 64)
    ])
    ints = np.concatenate([
        np.arange(-2**12, 2**12, dtype=np.float64), 2.0**52 + np.arange(-64, 64),
        2.0**53 + np.arange(-64, 64),
    ])
    x = np.concatenate([halves, ints])
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    patterns = np.random.default_rng(0).integers(0, 2**63, 100_000, dtype=np.uint64)
    finite = patterns.view(np.float64)[np.isfinite(patterns.view(np.float64))]
    x = np.concatenate([x, -x, finite, -finite])
    assert np.array_equal(_round_half_away(x), reference_round_half_away(x))


def test_all_zero_tensor():
    q = quantize(np.zeros(5), 8, TWOS)
    assert q.scale == 1.0
    assert (q.codes * q.scale).tolist() == [0.0] * 5


def test_subnormal_peak_gets_unit_scale():
    # peak / levels underflows to 0.0 here; dividing by it would give +-inf.
    with np.errstate(all="raise"):
        q = quantize(np.array([5e-324, 0.0, -5e-324]), 8, TWOS)
    assert q.scale == 1.0
    assert q.codes.tolist() == [0, 0, 0]


def test_negative_only_unsigned_clamps_to_zero():
    q = quantize(np.array([-3.0, -1.0]), 4, UNSIGNED)
    assert q.codes.tolist() == [0, 0]


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        quantize(np.array([1.0, np.nan]), 8, TWOS)
    with pytest.raises(NonFiniteError):
        quantize(np.array([np.inf]), 8, UNSIGNED)


@settings(max_examples=100, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
    bits=st.integers(2, 8),
)
def test_error_bound_signed(x, bits):
    q = quantize(x, bits, TWOS)
    err = np.abs(q.codes * q.scale - x)
    assert (err <= q.scale / 2 + 1e-9).all()


@settings(max_examples=100, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        st.integers(1, 40),
        elements=st.floats(0, 1e6, allow_nan=False),
    ),
    bits=st.integers(2, 8),
)
def test_error_bound_unsigned(x, bits):
    q = quantize(x, bits, UNSIGNED)
    err = np.abs(q.codes * q.scale - x)
    assert (err <= q.scale / 2 + 1e-9).all()


def test_requantization_is_idempotent():
    rng = np.random.default_rng(13)
    x = rng.normal(size=50)
    q = quantize(x, 6, TWOS)
    q2 = quantize(q.codes * q.scale, 6, TWOS)
    assert q2.scale == pytest.approx(q.scale)
    assert np.array_equal(q2.codes, q.codes)


def test_codes_stay_in_range():
    rng = np.random.default_rng(14)
    for mode, lo, hi in ((TWOS, -128, 127), (UNSIGNED, 0, 255)):
        q = quantize(rng.normal(size=200) * 10, 8, mode)
        assert q.codes.min() >= lo and q.codes.max() <= hi
