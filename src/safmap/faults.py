"""Stuck-at-fault masks: representation, random injection, packed bit masks.

A fault mask is a ternary tensor over (row, col, bit): -1 = stuck-at-0,
0 = fault-free, +1 = stuck-at-1.  A mask packs its cells once, when it is
built, into one uint16 pair ``sa1 << bits | sa0`` per weight (one bit per
slice in each half), which is what every hot path in this package reads.

Mask generation uses numpy's PCG64 generator seeded with the integer
sequence ``[seed, trial_index]`` (or ``[seed, trial, layer]`` in the
evaluation harness), so masks are reproducible for a fixed numpy build.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numfmt import check_width, int_array, json_array, json_fields, read_json

SA0 = -1
FAULT_FREE = 0
SA1 = 1

# Cells per pass when a mask is sampled, packed or saved, so that none of
# these makes a full-size temporary.
_DRAWS = 1 << 16

# Base-3 fault digits, LSB-bit first (0 = fault-free): the key of both
# closest-value engines.
DIGIT_SA1 = 1
DIGIT_SA0 = 2


class InvalidRateError(ValueError):
    """Fault probability outside [0, 1]."""


@dataclass(frozen=True)
class FaultInjectionSpec:
    """Parameters of one random stuck-at-fault injection."""

    rate: float
    seed: int
    trial_index: int = 0
    sa1_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidRateError(f"fault rate must be in [0, 1], got {self.rate}")
        if not 0.0 <= self.sa1_fraction <= 1.0:
            raise InvalidRateError(
                f"sa1_fraction must be in [0, 1], got {self.sa1_fraction}"
            )


@dataclass(frozen=True)
class SafMask:
    """Ternary stuck-at states for an M x K matrix of n-bit weights, and
    their packed pairs.  Both arrays are read-only, and ``cells`` copies the
    array given only if that is writeable, so nothing written through the
    mask or its caller's array can make them disagree."""

    cells: np.ndarray  # int8, shape (M, K, n), entries in {-1, 0, +1}
    # uint16, shape (M, K): sa1 << n | sa0, bit k of each half for slice k
    pair: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = int_array(self.cells, "fault mask cells", SA0, SA1, np.int8)
        if cells.ndim != 3:
            raise ValueError("mask must have shape (rows, cols, bits)")
        check_width(cells.shape[2])
        if cells.flags.writeable and np.may_share_memory(cells, self.cells):
            cells = cells.copy()
        # Each state's (rows, K, n) comparison goes, about ``_DRAWS`` cells
        # at a time, into a (rows, K, 8) buffer whose unused high bits stay
        # 0, which ``packbits`` turns into one byte per weight.
        rows, cols, bits = cells.shape
        pair = np.zeros((rows, cols), dtype=np.uint16)
        step = max(1, _DRAWS // max(1, 8 * cols))
        buf = np.zeros((min(step, rows), cols, 8), dtype=bool)
        for start in range(0, rows, step):
            block, out = cells[start : start + step], pair[start : start + step]
            part = buf[: len(block)]
            for state, shift in ((SA0, 0), (SA1, bits)):
                np.equal(block, state, out=part[:, :, :bits])
                half = np.packbits(part.reshape(-1), bitorder="little")
                out |= half.reshape(out.shape).astype(np.uint16) << shift
        cells.flags.writeable = pair.flags.writeable = False
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "pair", pair)

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    @property
    def bits(self) -> int:
        return self.cells.shape[2]

    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """(sa0, sa1) bit masks of shape (M, K), one bit per slice (LSB
        first): the two halves of ``pair``."""
        return self.pair & np.uint16((1 << self.bits) - 1), self.pair >> self.bits

    def num_faulty(self) -> int:
        return int((self.cells != FAULT_FREE).sum())

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "bits": self.bits,
            "data": self.cells.ravel(order="C").tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SafMask":
        *shape, data = json_fields(
            obj, "fault mask", rows=int, cols=int, bits=int, data=list
        )
        cells = json_array(data, "fault mask", "data", tuple(shape), SA0, SA1, np.int8)
        return cls(cells=cells)

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        """Write ``to_json_dict()`` updated with ``extra``: the bytes of one
        ``json.dumps``, with the cells encoded ``_DRAWS`` at a time instead
        of as one list of Python ints (16.8 MB of pointers at 512x512x8)."""
        obj = {"rows": self.rows, "cols": self.cols, "bits": self.bits, "data": None}
        obj.update(extra or {})
        if extra and "data" in extra:  # the cells are replaced, not written
            Path(path).write_text(json.dumps(obj))
            return
        keys = list(obj)  # rows, cols, bits, data, then the keys extra adds
        head = json.dumps({key: obj[key] for key in keys[:3]})
        tail = json.dumps({key: obj[key] for key in keys[4:]})
        flat = self.cells.reshape(-1)
        parts = [head[:-1].encode() + b', "data": [']
        for start in range(0, flat.size, _DRAWS):
            text = json.dumps(flat[start : start + _DRAWS].tolist())[1:-1]
            parts.append(((", " if start else "") + text).encode())
        parts.append(("]}" if tail == "{}" else "], " + tail[1:]).encode())
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> "SafMask":
        return cls.from_json_dict(read_json(path, "fault mask"))


def mask_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic generator for one injection stream (trial, layer, ...)."""
    return np.random.default_rng([int(seed) & (2**64 - 1), *map(int, stream)])


def sample_saf_mask(
    rng: np.random.Generator,
    shape: tuple[int, int, int],
    rate: float,
    sa1_fraction: float = 0.5,
) -> SafMask:
    """Draw one i.i.d. mask from an already-derived random stream."""
    if not 0.0 <= rate <= 1.0:
        raise InvalidRateError(f"fault rate must be in [0, 1], got {rate}")
    if not 0.0 <= sa1_fraction <= 1.0:
        raise InvalidRateError(f"sa1_fraction must be in [0, 1], got {sa1_fraction}")
    check_width(shape[2])
    # Two passes over one stream, ``_DRAWS`` uniform numbers at a time:
    # which cells are faulty, then which would be stuck at 1 (drawn for every
    # cell, as one full-size draw would).  No full-size float or bool array
    # is made (16 MB and 2 MB each at 512x512x8).
    cells = np.zeros(shape, dtype=np.int8)
    flat = cells.reshape(-1)
    for start in range(0, flat.size, _DRAWS):
        block = flat[start : start + _DRAWS]
        block[rng.random(block.size) < rate] = SA0
    for start in range(0, flat.size, _DRAWS):
        block = flat[start : start + _DRAWS]
        block[(rng.random(block.size) < sa1_fraction) & (block == SA0)] = SA1
    cells.flags.writeable = False  # so the mask need not copy it
    return SafMask(cells=cells)


def gen_saf_mask(spec: FaultInjectionSpec, shape: tuple[int, int, int]) -> SafMask:
    """Inject i.i.d. stuck-at faults: each cell faulty with probability
    ``rate``, faulty cells SA1 with probability ``sa1_fraction`` else SA0."""
    rng = mask_rng(spec.seed, spec.trial_index)
    return sample_saf_mask(rng, shape, spec.rate, spec.sa1_fraction)


def force_write_array(codes: np.ndarray, sa0: np.ndarray, sa1: np.ndarray) -> np.ndarray:
    """Naive write on packed (sa0, sa1) masks: stuck bits override the
    target, fault-free bits copy it."""
    codes = np.asarray(codes, dtype=np.uint16)
    return (codes | sa1) & ~sa0


@functools.cache
def _key_tables(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(fault digits of every packed ``sa1 << bits | sa0`` pair, packed pair
    of every digit value).  Pairs stuck at both values in one bit have no
    digit value."""
    keys = np.arange(1 << (2 * bits), dtype=np.uint32)
    sa0, sa1 = keys & ((1 << bits) - 1), keys >> bits
    digits = np.zeros(keys.size, dtype=np.uint32)
    for k in range(bits):
        digits += (3**k) * (DIGIT_SA0 * ((sa0 >> k) & 1) + DIGIT_SA1 * ((sa1 >> k) & 1))
    single = (sa0 & sa1) == 0
    packed = np.empty(3**bits, dtype=np.uint32)
    packed[digits[single]] = keys[single]
    digits.flags.writeable = packed.flags.writeable = False  # shared by every caller
    return digits, packed


def packed_from_fault_digits(
    digits: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Packed (sa0, sa1) bit masks from base-3 fault digits."""
    pair = _key_tables(bits)[1][np.asarray(digits, dtype=np.int64)]
    return (pair & ((1 << bits) - 1)).astype(np.uint16), (pair >> bits).astype(np.uint16)


def flip_pairs(pair: np.ndarray, j: int | np.ndarray, bits: int) -> np.ndarray:
    """Packed pairs with SA0 <-> SA1 swapped at every bit set in the flip
    mask ``j``.

    A stored stuck-at-1 bit in a flipped slice contributes an effective 0
    after digital correction, so in the effective domain its fault acts as
    stuck-at-0 (and vice versa).  A stuck bit is set in exactly one half of
    the pair, so with s = (sa0 ^ sa1) & j the swap toggles
    ``s << bits | s``.  Involutive in j.
    """
    swap = (pair ^ (pair >> bits)) & j & ((1 << bits) - 1)
    return pair ^ swap * ((1 << bits) + 1)


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount16(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.uint16)
    return _POPCOUNT8[x & 0xFF] + _POPCOUNT8[x >> 8]


def count_unmasked(codes: np.ndarray, mask: SafMask) -> int:
    """Number of (row, col, bit) positions where a stuck value conflicts
    with the target bit.  Masked faults (stuck value == target bit) are
    benign and not counted."""
    codes = np.asarray(codes, dtype=np.uint16)
    if codes.shape != (mask.rows, mask.cols):
        raise ValueError("code matrix shape does not match mask")
    sa0, sa1 = mask.packed()
    conflict = (codes & sa0) | (~codes & sa1)
    return int(_popcount16(conflict).sum())
