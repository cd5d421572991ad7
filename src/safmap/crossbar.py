"""Bit-exact functional model of bit-sliced, bit-streamed in-memory MVM.

Weights live as one-bit planes across ``bits`` crossbar slices; an m-bit
activation is applied as m sequential binary cycles.  Each (slice k,
stream l, chunk, column) partial sum counts active (1, 1) pairs.  Per chunk
and stream, one BLAS product ``a_bits (B, rows) @ planes (rows, n * K)``
forms the partial sums of all n slices at once: ``planes`` holds the n bit
planes of the chunk's stored codes side by side.  Digital corrections are
modeled functionally:

* bit-flip: a flipped slice is stored inverted and the periphery recovers it
  as ``sum(a_bits) - a_bits . b``, equal to ``a_bits . (1 - b)`` for every
  0/1 input, so ``planes`` holds it complemented (stored bit XOR ``b_flip``,
  as ``MappedLayout.effective_values`` reads it) and the product yields the
  corrected partial sums, BEFORE shift-and-add;
* sign-flip: the accumulated column output of a flipped chunk/column is
  negated AFTER shift-and-add.

Shift-and-add weights each partial by ``2**(k+l)``; with two's-complement
operands the terms where exactly one of (k, l) is the sign bit enter
negatively and the sign-sign term positively.

All arithmetic is exact integer math: ADC quantization, parasitics and
partial-wordline-activation effects are out of the fidelity boundary.  The
partial sums and the shift-and-add over slices run in one float dtype,
chosen per call from the chunk height h = min(row_len, rows).  Each partial
sum, complemented slice or not, and each running sum inside the BLAS
product, is an integer in [0, h]; a shift-and-add over slices, and each of
its running sums, is an integer of magnitude at most (2**bits - 1) * h,
since the plane weights' magnitudes sum to 2**bits - 1.  float32 holds every
integer below 2**24 (its 24-bit significand) exactly, so the pipeline runs in
float32 when (2**bits - 1) * h < 2**24 (at 8 bits, h <= 65,793) and in
float64, exact below 2**53, above that bound.  The stream weights and the
sums over streams and chunks are int64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numfmt
from .mapping import MappedLayout
from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED, decode_table, json_fields


class DimensionMismatchError(ValueError):
    """Layout, activation and configuration shapes disagree."""


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry and precision of the simulated arrays."""

    row_len: int = 64
    weight_bits: int = 8
    activation_bits: int = 8
    weight_mode: str = MODE_TWOS_COMPLEMENT
    activation_mode: str = MODE_UNSIGNED

    def __post_init__(self) -> None:
        numfmt.check_width(self.weight_bits)
        numfmt.check_width(self.activation_bits)
        numfmt.check_mode(self.weight_mode)
        numfmt.check_mode(self.activation_mode)
        if self.row_len < 1:
            raise ValueError("row_len must be >= 1")


@dataclass(frozen=True)
class ActivationVector:
    """Decoded activation values plus their streaming precision."""

    values: np.ndarray  # int64, shape (M,)
    bits: int
    mode: str

    def __post_init__(self) -> None:
        numfmt.check_width(self.bits)
        numfmt.check_mode(self.mode)
        lo, hi = numfmt.value_range(self.bits, self.mode)
        values = numfmt.int_array(self.values, "activations", lo, hi, np.int64)
        object.__setattr__(self, "values", values)

    def codes(self) -> np.ndarray:
        return numfmt.encode_array(self.values, self.bits, self.mode)

    def to_json_dict(self) -> dict:
        return {"m": self.bits, "mode": self.mode, "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ActivationVector":
        values, bits, mode = json_fields(
            obj, "activations", values=list, m=int, mode=str
        )
        lo, hi = numfmt.value_range(bits, mode)
        values = numfmt.json_array(
            values, "activations", "values", (len(values),), lo, hi
        )
        return cls(values=values, bits=bits, mode=mode)

    @classmethod
    def load(cls, path: str | Path) -> "ActivationVector":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def mvm_exact(weights: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """Ground-truth integer product a @ W on decoded values."""
    weights = np.asarray(weights, dtype=np.int64)
    activations = np.asarray(activations, dtype=np.int64)
    if weights.ndim != 2 or activations.shape[-1] != weights.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply activations {activations.shape} with "
            f"weights {weights.shape}"
        )
    return activations @ weights


def mvm_simulate_batch(
    layout: MappedLayout, act_codes: np.ndarray, cfg: CrossbarConfig
) -> np.ndarray:
    """Simulate a batch of activation vectors; ``act_codes`` is (B, M) raw
    m-bit patterns, each in [0, 2**m).  Returns (B, K) integer outputs."""
    n, m = cfg.weight_bits, cfg.activation_bits
    act_codes = numfmt.int_array(act_codes, "activation codes", 0, (1 << m) - 1, np.int64)
    if act_codes.ndim != 2 or act_codes.shape[1] != layout.rows:
        raise DimensionMismatchError(
            f"activation batch {act_codes.shape} does not match "
            f"{layout.rows} layout rows"
        )
    if layout.bits != cfg.weight_bits or layout.mode != cfg.weight_mode:
        raise DimensionMismatchError("layout precision does not match config")
    if layout.row_len != cfg.row_len:
        raise DimensionMismatchError("layout row_len does not match config")

    batch, cols = act_codes.shape[0], layout.cols
    # Every float value below is an integer of magnitude at most
    # (2**n - 1) * h, exact in float32 below 2**24 (see the module docstring).
    h = min(cfg.row_len, layout.rows)
    exact_below = 1 << (np.finfo(np.float32).nmant + 1)
    dtype = np.float32 if ((1 << n) - 1) * h < exact_below else np.float64
    # Plane weights: the decoded value of each one-hot code.
    wk = decode_table(n, cfg.weight_mode)[1 << np.arange(n)].astype(dtype)
    al = decode_table(m, cfg.activation_mode)[1 << np.arange(m)].astype(np.int64)
    k = np.arange(n, dtype=layout.stored.dtype)[:, None]

    total = np.zeros((batch, cols), dtype=np.int64)
    for c, rows in enumerate(layout.geometry.slices()):
        # (rows, n * K): the n bit planes of the chunk's codes side by side,
        # each bit-flipped slice complemented (see the module docstring).
        stored = layout.stored[rows]
        planes = ((stored[:, None, :] >> k) & 1) ^ layout.b_flip[:, c, :]
        planes = planes.astype(dtype).reshape(len(stored), n * cols)
        a_chunk = act_codes[:, rows]
        chunk_out = np.zeros_like(total)
        for l in range(m):
            a_bits = ((a_chunk >> l) & 1).astype(dtype)  # (B, rows)
            partial = a_bits @ planes  # every slice's partial sums, (B, n * K)
            shifted = wk @ partial.reshape(batch, n, cols)  # (B, K)
            chunk_out += al[l] * shifted.astype(np.int64)
        negate = layout.col_flip[c].astype(bool)
        if negate.any():
            chunk_out[:, negate] = -chunk_out[:, negate]
        total += chunk_out
    return total


def mvm_simulate(
    layout: MappedLayout, activations: ActivationVector, cfg: CrossbarConfig
) -> np.ndarray:
    """Simulate one activation vector through the mapped layer."""
    if activations.bits != cfg.activation_bits or activations.mode != cfg.activation_mode:
        raise DimensionMismatchError("activation precision does not match config")
    codes = activations.codes()[None, :]
    return mvm_simulate_batch(layout, codes, cfg)[0]
