"""Fault-aware weight mapping: naive, closest-value, sign-flip and bit-flip.

All schemes operate on a layer's M x K matrix of n-bit weight codes and a
stuck-at mask of the same shape, chunked into ``row_len``-row blocks that
each correspond to one physical memory sub-array.  :func:`build_layout` is
the one entry point; every scheme but naive picks one correction word
``sign << bits | j`` per (chunk, column) and then maps once.

Error is always measured between DECODED values (signed integers for
two's-complement layers), which is the domain that matches dot-product
error.  Ties are broken deterministically: closest-value mapping prefers
the smallest candidate pattern, sign-flip keeps the original polarity
unless the flipped error is strictly smaller, and bit-flip prefers the
smallest flip mask (so it degenerates to plain closest-value mapping
whenever flipping cannot help).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numfmt
from .faults import (
    SafMask,
    _key_tables,
    fault_digits_from_packed,
    force_write_array,
    packed_from_fault_digits,
    transform_packed_for_flip,
)
from .numfmt import (
    MODE_TWOS_COMPLEMENT,
    clamp_array,
    decode_array,
    decode_table,
    int_array,
    json_array,
    json_fields,
)

SCHEME_NAIVE = "naive"
SCHEME_CVM = "cvm"
SCHEME_SIGNFLIP = "signflip"
SCHEME_BITFLIP = "bitflip"
SCHEMES = (SCHEME_NAIVE, SCHEME_CVM, SCHEME_SIGNFLIP, SCHEME_BITFLIP)

_ILLEGAL = np.uint8(0xFF)
# Weights per pass of the enumeration engine; bounds its (block, 2**bits)
# temporaries to a few tens of MB at 8 bits.
_BLOCK = 1 << 16


class UnsignedLayerError(ValueError):
    """Sign-flip requested for a layer without a sign to flip."""


@dataclass(frozen=True)
class LayerWeights:
    """Ideal n-bit weight codes of one layer."""

    codes: np.ndarray  # uint16, shape (M, K)
    bits: int
    mode: str

    def __post_init__(self) -> None:
        numfmt.check_width(self.bits)
        numfmt.check_mode(self.mode)
        hi = (1 << self.bits) - 1
        codes = int_array(self.codes, "weight codes", 0, hi, np.uint16)
        if codes.ndim != 2:
            raise ValueError("weight codes must be an M x K matrix")
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_values(cls, values: np.ndarray, bits: int, mode: str) -> "LayerWeights":
        return cls(numfmt.encode_array(values, bits, mode), bits, mode)

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]

    def values(self) -> np.ndarray:
        return decode_array(self.codes, self.bits, self.mode).astype(np.int64)


@dataclass(frozen=True)
class ChunkGeometry:
    """Row blocking of an M-row matrix into ``row_len``-row sub-arrays."""

    rows: int
    row_len: int

    def __post_init__(self) -> None:
        if self.row_len < 1:
            raise ValueError("row_len must be >= 1")

    @property
    def num_chunks(self) -> int:
        return -(-self.rows // self.row_len)

    def slices(self) -> list[slice]:
        return [
            slice(c * self.row_len, min((c + 1) * self.row_len, self.rows))
            for c in range(self.num_chunks)
        ]

    def chunk_sums(self, values: np.ndarray) -> np.ndarray:
        """(num_chunks, K) column sums of an (M, K) array over each chunk."""
        out = np.zeros((self.num_chunks,) + values.shape[1:], dtype=np.int64)
        for c, rows in enumerate(self.slices()):
            out[c] = values[rows].sum(axis=0)
        return out

    def per_row(self, per_chunk: np.ndarray) -> np.ndarray:
        """(M, K) array giving every row its chunk's (num_chunks, K) entry."""
        return np.repeat(per_chunk, self.row_len, axis=0)[: self.rows]


# ---------------------------------------------------------------------------
# Direct closest-value mapping engine (full candidate enumeration).
# ---------------------------------------------------------------------------

@functools.cache
def _cvm_tables(bits: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(err, penalty) lookup tables for the enumeration engine.

    err[t, c]     : |decode(c) - decode(t)| for target code t, uint8.
    penalty[d, c] : 0x00 if candidate c is legal under the base-3 fault
                    digits d, i.e. a naive write leaves it unchanged,
                    else 0xFF.
    """
    dec = decode_table(bits, mode).astype(np.int32)
    err = np.abs(dec[None, :] - dec[:, None]).astype(np.uint8)
    cand = np.arange(1 << bits, dtype=np.uint16)
    sa0, sa1 = packed_from_fault_digits(np.arange(3**bits), bits)
    legal = force_write_array(cand, sa0[:, None], sa1[:, None]) == cand
    penalty = np.where(legal, np.uint8(0), _ILLEGAL)
    err.flags.writeable = penalty.flags.writeable = False  # shared by every caller
    return err, penalty


def table_keys(
    targets: np.ndarray, sa0: np.ndarray, sa1: np.ndarray, bits: int, mode: str
) -> np.ndarray:
    """Table key ``code * 3**bits + digits`` of each (target, fault) pair.

    ``targets`` holds decoded integers and may lie outside the representable
    range (sign-flip negation); its code is that of the clamped target,
    which preserves the arg-min because distance to an out-of-range value is
    monotone in the candidate.  ``digits`` are the base-3 fault digits of the
    packed masks; ``sa0 & sa1`` must be empty (a cell is stuck at one value).
    """
    codes = clamp_array(targets, bits, mode) & ((1 << bits) - 1)
    return codes.astype(np.uint32) * np.uint32(3**bits) + fault_digits_from_packed(
        sa0, sa1, bits
    )


def closest_codes(keys: np.ndarray, bits: int, mode: str) -> np.ndarray:
    """Closest legal code of every table key, by enumerating all
    ``2**bits`` candidates; the smallest code wins ties."""
    err_tab, pen_tab = _cvm_tables(bits, mode)
    keys = np.asarray(keys)
    flat = keys.ravel()
    out = np.empty(flat.size, dtype=np.uint16)
    for start in range(0, flat.size, _BLOCK):
        code, digits = np.divmod(flat[start : start + _BLOCK], 3**bits)
        masked = err_tab[code] | pen_tab[digits]
        idx = masked.argmin(axis=1)
        # 0xFF marks illegal candidates but is also a real distance at n=8.
        # A row whose minimum is 0xFF has no legal candidate nearer than 255,
        # so every bit is stuck and its one legal code is the stuck-at-1 one.
        corner = masked[np.arange(idx.size), idx] == _ILLEGAL
        idx[corner] = packed_from_fault_digits(digits[corner], bits)[1]
        out[start : start + _BLOCK] = idx
    return out.reshape(keys.shape)


def cvm_codes(
    targets: np.ndarray, sa0: np.ndarray, sa1: np.ndarray, bits: int, mode: str
) -> np.ndarray:
    """Closest-value mapping of each (target, fault) pair, see
    :func:`table_keys`; returns the winning code patterns."""
    return closest_codes(table_keys(targets, sa0, sa1, bits, mode), bits, mode)


def _engines(layer: LayerWeights, lut):
    """Closest-value mapping for the layer, as ``(solve, lookup)``:
    ``solve(targets, sa0, sa1) -> codes`` and ``lookup(keys) -> codes`` on
    table keys.  The table if one is given, else direct enumeration."""
    if lut is None:
        bits, mode = layer.bits, layer.mode

        def lookup(keys: np.ndarray) -> np.ndarray:
            # Most keys repeat (a fault-free weight's key is its target code),
            # so each distinct key is enumerated once.
            distinct, inverse = np.unique(keys, return_inverse=True)
            return closest_codes(distinct, bits, mode)[inverse.reshape(keys.shape)]

        def solve(targets: np.ndarray, sa0: np.ndarray, sa1: np.ndarray) -> np.ndarray:
            return lookup(table_keys(targets, sa0, sa1, bits, mode))

        return solve, lookup
    if lut.bits != layer.bits or lut.mode != layer.mode:
        raise ValueError(
            f"LUT built for ({lut.bits}-bit, {lut.mode}) cannot map a "
            f"({layer.bits}-bit, {layer.mode}) layer"
        )
    return lut.map_codes, lut.lookup


# ---------------------------------------------------------------------------
# Mapped layouts.
# ---------------------------------------------------------------------------


@dataclass
class MappedLayout:
    """Stored codes for one layer plus the per-chunk correction masks."""

    scheme: str
    bits: int
    mode: str
    row_len: int
    stored: np.ndarray  # uint16, (M, K)
    col_flip: np.ndarray  # uint8, (num_chunks, K)
    b_flip: np.ndarray  # uint8, (bits, num_chunks, K)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        numfmt.check_width(self.bits)
        numfmt.check_mode(self.mode)
        hi = (1 << self.bits) - 1
        self.stored = int_array(self.stored, "stored", 0, hi, np.uint16)
        if self.stored.ndim != 2:
            raise ValueError("stored codes must be an M x K matrix")
        chunks = self.geometry.num_chunks
        for name, shape, scheme in (
            ("col_flip", (chunks, self.cols), SCHEME_SIGNFLIP),
            ("b_flip", (self.bits, chunks, self.cols), SCHEME_BITFLIP),
        ):
            flips = int_array(getattr(self, name), name, 0, 1, np.uint8)
            if flips.shape != shape:
                raise ValueError(f"{name} has shape {flips.shape}, expected {shape}")
            if flips.any() and self.scheme != scheme:
                raise ValueError(f"{name} may be set only in a {scheme} layout")
            setattr(self, name, flips)

    @property
    def rows(self) -> int:
        return self.stored.shape[0]

    @property
    def cols(self) -> int:
        return self.stored.shape[1]

    @property
    def geometry(self) -> ChunkGeometry:
        return ChunkGeometry(self.rows, self.row_len)

    def flip_masks(self) -> np.ndarray:
        """Per-chunk, per-column flip mask j assembled from b_flip bits."""
        k = np.arange(self.bits, dtype=np.uint16)
        return (self.b_flip.astype(np.uint16) << k[:, None, None]).sum(
            axis=0, dtype=np.uint16
        )

    def effective_values(self) -> np.ndarray:
        """Decoded weight each position contributes after digital correction.

        Read from the flip arrays alone.  The stored code XOR its (chunk,
        column) correction word ``col_flip << bits | j`` indexes the decoded
        values followed by their negations, so bit-flipped slices come out
        complemented and sign-flipped columns negated.  A negated value may
        be ``2**(bits-1)`` and hence not itself a code.
        """
        dec = decode_table(self.bits, self.mode).astype(np.int64)
        word = (self.col_flip.astype(np.uint16) << self.bits) | self.flip_masks()
        return np.concatenate([dec, -dec])[self.geometry.per_row(word) ^ self.stored]

    def to_json_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "bits": self.bits,
            "mode": self.mode,
            "row_len": self.row_len,
            "rows": self.rows,
            "cols": self.cols,
            "stored": self.stored.ravel(order="C").tolist(),
            "col_flip": self.col_flip.ravel(order="C").tolist(),
            "b_flip": self.b_flip.ravel(order="C").tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "MappedLayout":
        scheme, bits, mode, row_len, rows, cols, stored, col_flip, b_flip = json_fields(
            obj, "layout",
            scheme=str, bits=int, mode=str, row_len=int, rows=int, cols=int,
            stored=list, col_flip=list, b_flip=list,
        )
        numfmt.check_width(bits)
        chunks = ChunkGeometry(rows, row_len).num_chunks
        return cls(
            scheme=scheme,
            bits=bits,
            mode=mode,
            row_len=row_len,
            stored=json_array(
                stored, "layout", "stored", (rows, cols), 0, (1 << bits) - 1, np.uint16
            ),
            col_flip=json_array(
                col_flip, "layout", "col_flip", (chunks, cols), 0, 1, np.uint8
            ),
            b_flip=json_array(
                b_flip, "layout", "b_flip", (bits, chunks, cols), 0, 1, np.uint8
            ),
        )

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        obj = self.to_json_dict()
        if extra:
            obj.update(extra)
        Path(path).write_text(json.dumps(obj))

    @classmethod
    def load(cls, path: str | Path) -> "MappedLayout":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Mapping.
# ---------------------------------------------------------------------------


def _best_words(
    words, signed, sa0, sa1, geom: ChunkGeometry, layer: LayerWeights, lookup
) -> np.ndarray:
    """Per (chunk, column), the correction word with the least summed error.

    Word ``sign << bits | j`` maps ``signed[sign]`` against the faults seen
    through the flip mask j, and is scored by the chunk sum of
    |decoded - signed target|.  A word replaces the running best only when
    strictly better, so the earliest word wins ties.

    Every mapped code is in range, so a weight's error splits into
    |clamp(t) - t|, the same for every j, plus |decoded - clamp(t)|.  The
    first part is summed once per sign.  The second is 0 for a weight with
    no stuck bit, which maps to clamp(t) itself, so only the faulty weights
    are solved per word, straight from their table keys.  Flipping j swaps
    SA0 and SA1 where ``(sa0 ^ sa1) & j`` is set: one XOR on the packed
    pair ``sa1 << bits | sa0``.  The sums are integers far below 2**53, so
    the float64 bincounts are exact.
    """
    bits, low = layer.bits, (1 << layer.bits) - 1
    both = (1 << bits) + 1  # j * both == j << bits | j
    rows, cols = np.nonzero(sa0 | sa1)
    group = rows // geom.row_len * layer.cols + cols
    size = geom.num_chunks * layer.cols
    pair = (sa1[rows, cols].astype(np.uint32) << bits) | sa0[rows, cols]
    swap = (sa0 ^ sa1)[rows, cols].astype(np.uint32) * np.uint32(both)
    digit_of_pair = _key_tables(bits)[0]
    dec = decode_table(bits, layer.mode).astype(np.float64)
    base, offset, near = {}, {}, {}
    for sign in {word >> bits for word in words}:
        clamped = clamp_array(signed[sign], bits, layer.mode)
        base[sign] = geom.chunk_sums(np.abs(clamped - signed[sign])).ravel()
        faulty = clamped[rows, cols]
        offset[sign] = (faulty & low).astype(np.uint32) * np.uint32(3**bits)
        near[sign] = faulty.astype(np.float64)
    flipped = np.empty(rows.size, dtype=np.uint32)
    key = np.empty_like(flipped)
    err = np.empty(rows.size, dtype=np.float64)
    best = np.full(size, np.inf)
    better = np.empty(size, dtype=bool)
    best_word = np.zeros(size, dtype=np.uint16)
    for word in words:
        sign = word >> bits
        np.bitwise_and(swap, np.uint32((word & low) * both), out=flipped)
        flipped ^= pair
        digit_of_pair.take(flipped, out=key)
        key += offset[sign]
        dec.take(lookup(key), out=err)
        err -= near[sign]
        score = np.bincount(group, weights=np.abs(err, out=err), minlength=size)
        score += base[sign]
        np.less(score, best, out=better)
        np.copyto(best, score, where=better)
        best_word[better] = word
    return best_word.reshape(geom.num_chunks, layer.cols)


def build_layout(
    scheme: str,
    layer: LayerWeights,
    mask: SafMask,
    row_len: int,
    lut=None,
) -> MappedLayout:
    """Map a layer with one scheme and package the result.

    Naive force-writes every weight.  The other schemes pick one correction
    word per (chunk, column) among their candidates -- cvm only 0, sign-flip
    0 and ``1 << bits`` (negate the column), bit-flip every slice mask j --
    and then map each weight once: closest-value mapping of
    ``(-1)**sign * target`` against the faults seen through j, stored XOR j.
    """
    if (mask.rows, mask.cols, mask.bits) != (layer.rows, layer.cols, layer.bits):
        raise ValueError(
            f"mask shape {(mask.rows, mask.cols, mask.bits)} does not match "
            f"layer shape {(layer.rows, layer.cols, layer.bits)}"
        )
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == SCHEME_SIGNFLIP and layer.mode != MODE_TWOS_COMPLEMENT:
        raise UnsignedLayerError("sign-flip requires two's-complement weights")
    bits = layer.bits
    geom = ChunkGeometry(layer.rows, row_len)
    sa0, sa1 = mask.packed()
    word = np.zeros((geom.num_chunks, layer.cols), dtype=np.uint16)
    if scheme == SCHEME_NAIVE:
        stored = force_write_array(layer.codes, sa0, sa1)
    else:
        solve, lookup = _engines(layer, lut)
        targets = layer.values()
        signed = (targets, -targets)
        words = {
            SCHEME_CVM: (0,),
            SCHEME_SIGNFLIP: (0, 1 << bits),
            SCHEME_BITFLIP: range(1 << bits),
        }[scheme]
        if len(words) > 1:
            word = _best_words(words, signed, sa0, sa1, geom, layer, lookup)
        row_word = geom.per_row(word)
        j = row_word & ((1 << bits) - 1)
        target = np.where(row_word >> bits, signed[1], signed[0])
        stored = solve(target, *transform_packed_for_flip(sa0, sa1, j)) ^ j
    k = np.arange(bits, dtype=np.uint16)
    return MappedLayout(
        scheme=scheme,
        bits=bits,
        mode=layer.mode,
        row_len=row_len,
        stored=stored,
        col_flip=(word >> bits).astype(np.uint8),
        b_flip=((word[None, :, :] >> k[:, None, None]) & 1).astype(np.uint8),
    )


def mapping_error(
    layout: MappedLayout, layer: LayerWeights
) -> tuple[np.ndarray, int]:
    """Sum of |effective - target| decoded errors, per (chunk, column) and
    in total."""
    err = np.abs(layout.effective_values() - layer.values())
    return layout.geometry.chunk_sums(err), int(err.sum())
