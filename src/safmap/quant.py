"""Minimal symmetric per-tensor post-training quantization.

Signed tensors use scale = max|x| / (2**(n-1) - 1), unsigned tensors
scale = max(x) / (2**n - 1); codes are round-half-away-from-zero of
x / scale, clamped to the representable range.  All-zero tensors, and
tensors whose peak is so small that the scale underflows to 0, get scale 1
so their codes are 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numfmt
from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED


class NonFiniteError(ValueError):
    """Input tensor contains NaN or infinity."""


@dataclass(frozen=True)
class QuantizedTensor:
    codes: np.ndarray  # int64, decoded integer codes
    scale: float
    bits: int
    mode: str


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # numpy's round() is round-half-even; fix the rounding mode for
    # determinism across platforms.  One temporary, rounded in place.
    # Adding the largest double below one half, not one half, gives
    # floor(r) + (r - floor(r) >= 0.5) exactly: an exact half k + 0.5 still
    # sums to k + 1, while 0.49999999999999994 stays at 0 and odd integers
    # from 2**52 up stay unchanged (adding 0.5 rounds both up).
    r = np.abs(x)
    r += np.nextafter(0.5, 0.0)
    np.floor(r, out=r)
    return np.copysign(r, x, out=r)


def quantize(x: np.ndarray, bits: int, mode: str) -> QuantizedTensor:
    numfmt.check_width(bits)
    numfmt.check_mode(mode)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise NonFiniteError("cannot quantize NaN/Inf values")
    if mode == MODE_TWOS_COMPLEMENT:
        if bits == 1:
            raise ValueError(
                f"cannot quantize symmetrically to 1-bit {mode}: it has no positive level"
            )
        peak = float(np.abs(x).max()) if x.size else 0.0
        levels = (1 << (bits - 1)) - 1
    else:
        peak = float(x.max()) if x.size else 0.0
        if peak < 0:
            peak = 0.0
        levels = (1 << bits) - 1
    scale = peak / levels
    if scale == 0.0:
        scale = 1.0
    codes = numfmt.clamp_array(
        _round_half_away(x / scale).astype(np.int64), bits, mode
    )
    return QuantizedTensor(codes=codes, scale=scale, bits=bits, mode=mode)
