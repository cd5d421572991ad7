"""Fault-aware weight mapping: naive, closest-value, sign-flip and bit-flip.

All schemes operate on a layer's M x K matrix of n-bit weight codes and a
stuck-at mask of the same shape, chunked into ``row_len``-row blocks that
each correspond to one physical memory sub-array.  :func:`build_layout` is
the one entry point; every scheme but naive picks one correction word
``sign << bits | j`` per (chunk, column) and then maps once.

Every scheme but naive maps through one table object: the given
:class:`safmap.lut.CvmLut`, or else a :class:`safmap.lut.OnDemandLut` made
for the call, which enumerates each distinct key once per call.  The
correction-word search has two implementations that choose the same words.
With a given table it scores every word at once by subset sums over each
faulty weight's stuck bits (:func:`_subset_words`); without one it is the
exhaustive per-word search (:func:`_best_words`) reading the on-demand
table, kept as the oracle the subset-sum search is checked against.

Mapping works on weight codes throughout: :func:`_signed_codes` gives each
sign's clamped target code and clamp cost, and error is read from the
engine's table of |decode(c) - decode(t)|, the domain that matches dot-product
error.  Ties are broken deterministically: closest-value mapping prefers
the smallest candidate pattern, and the word search takes the first word
of least error in word order, so sign-flip keeps the original polarity
unless the flipped error is strictly smaller and bit-flip prefers the
smallest flip mask (it degenerates to plain closest-value mapping whenever
flipping cannot help).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numfmt
from .faults import (
    _POPCOUNT8,
    SafMask,
    _key_tables,
    flip_pairs,
    force_write_array,
    packed_from_fault_digits,
)
from .numfmt import (
    MODE_TWOS_COMPLEMENT,
    clamp_array,
    decode_array,
    decode_table,
    int_array,
    json_array,
    json_fields,
    read_json,
)

SCHEME_NAIVE = "naive"
SCHEME_CVM = "cvm"
SCHEME_SIGNFLIP = "signflip"
SCHEME_BITFLIP = "bitflip"
SCHEMES = (SCHEME_NAIVE, SCHEME_CVM, SCHEME_SIGNFLIP, SCHEME_BITFLIP)

_ILLEGAL = np.uint8(0xFF)
# Bytes of each (keys, 2**bits) candidate temporary of the enumeration
# engine.  Freeing multi-MB temporaries raises glibc's mmap and trim
# thresholds, after which how much freed heap a process keeps resident
# hinges on where its chunks landed, so peak memory varies between runs.
_CANDIDATE_BYTES = 1 << 18
# Bytes of (chunk, column) scores per block of the subset-sum search, and
# subset terms per batch within a block; both bound its temporaries to a
# few MB.
_SCORE_BYTES = 1 << 20
_TERMS = 1 << 18


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
    penalty = np.empty((3**bits, 1 << bits), dtype=np.uint8)
    step = _candidate_rows(bits)
    for start in range(0, 3**bits, step):
        rows = slice(start, start + step)
        written = force_write_array(cand, sa0[rows, None], sa1[rows, None])
        np.multiply(written != cand, _ILLEGAL, out=penalty[rows])
    err.flags.writeable = penalty.flags.writeable = False  # shared by every caller
    return err, penalty


def _candidate_rows(bits: int) -> int:
    """Rows per pass over a (rows, 2**bits) candidate table, so that each
    pass's temporaries stay near ``_CANDIDATE_BYTES``."""
    return max(1, _CANDIDATE_BYTES >> bits)


@functools.cache
def _signed_codes(bits: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(code, cost) tables, the one place mapping negates and clamps: for
    t = clamp((-1)**s * decode(c)), code[s, c] is its code and cost[s, c] =
    |t - (-1)**s * decode(c)| (nonzero only at a negated most-negative code;
    clamping keeps the arg-min, as distance is monotone past the range)."""
    signed = decode_table(bits, mode) * np.array([[1], [-1]])
    clamped = clamp_array(signed, bits, mode)
    code = (clamped & ((1 << bits) - 1)).astype(np.uint16)
    cost = np.abs(clamped - signed).astype(np.uint8)
    code.flags.writeable = cost.flags.writeable = False  # shared by every caller
    return code, cost


def table_keys(codes: np.ndarray, pair: np.ndarray, bits: int) -> np.ndarray:
    """Table key ``code * 3**bits + digits`` of each target code and packed
    fault pair ``sa1 << bits | sa0`` (``sa0 & sa1`` empty), with the pair's
    base-3 fault digits."""
    keys = _key_tables(bits)[0].take(pair)
    keys += np.asarray(codes, dtype=np.uint32) * np.uint32(3**bits)
    return keys


def closest_codes(keys: np.ndarray, bits: int, mode: str) -> np.ndarray:
    """Closest legal code of every table key, by enumerating all
    ``2**bits`` candidates; the smallest code wins ties."""
    err_tab, pen_tab = _cvm_tables(bits, mode)
    keys = np.asarray(keys)
    flat = keys.ravel()
    out = np.empty(flat.size, dtype=np.uint16)
    step = _candidate_rows(bits)
    for start in range(0, flat.size, step):
        code, digits = np.divmod(flat[start : start + step], 3**bits)
        masked = err_tab[code]
        masked |= pen_tab[digits]
        idx = masked.argmin(axis=1)
        # 0xFF marks illegal candidates but is also a real distance at n=8.
        # A row whose minimum is 0xFF has no legal candidate nearer than 255,
        # so every bit is stuck and its one legal code is the stuck-at-1 one.
        corner = masked[np.arange(idx.size), idx] == _ILLEGAL
        idx[corner] = packed_from_fault_digits(digits[corner], bits)[1]
        out[start : start + step] = idx
    return out.reshape(keys.shape)


def cvm_codes(
    targets: np.ndarray, sa0: np.ndarray, sa1: np.ndarray, bits: int, mode: str
) -> np.ndarray:
    """Closest codes of each decoded target under packed (sa0, sa1) masks,
    the target clamped."""
    codes = clamp_array(targets, bits, mode) & ((1 << bits) - 1)
    pair = np.asarray(sa1, dtype=np.uint16) << bits | np.asarray(sa0, dtype=np.uint16)
    return closest_codes(table_keys(codes, pair, bits), bits, mode)


# ---------------------------------------------------------------------------
# Mapped layouts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MappedLayout:
    """Stored codes for one layer plus the per-chunk correction masks, held
    read-only and copied only from a writeable array given, so no write
    through the layout or its caller's arrays can put a code or flag out of
    range after validation."""

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
        stored = int_array(self.stored, "stored", 0, hi, np.uint16)
        if stored.ndim != 2:
            raise ValueError("stored codes must be an M x K matrix")
        if stored.flags.writeable and np.may_share_memory(stored, self.stored):
            stored = stored.copy()
        stored.flags.writeable = False
        object.__setattr__(self, "stored", stored)
        chunks = self.geometry.num_chunks
        for name, shape, scheme in (
            ("col_flip", (chunks, self.cols), SCHEME_SIGNFLIP),
            ("b_flip", (self.bits, chunks, self.cols), SCHEME_BITFLIP),
        ):
            given = getattr(self, name)
            flips = int_array(given, name, 0, 1, np.uint8)
            if flips.shape != shape:
                raise ValueError(f"{name} has shape {flips.shape}, expected {shape}")
            if flips.any() and self.scheme != scheme:
                raise ValueError(f"{name} may be set only in a {scheme} layout")
            if flips.flags.writeable and np.may_share_memory(flips, given):
                flips = flips.copy()
            flips.flags.writeable = False
            object.__setattr__(self, name, flips)

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
        return cls.from_json_dict(read_json(path, "layout"))


# ---------------------------------------------------------------------------
# Mapping.
# ---------------------------------------------------------------------------


def _faulty_terms(signs, pair, geom: ChunkGeometry, layer: LayerWeights):
    """The faulty weights (a stuck bit in any slice) of an (M, K) array of
    packed pairs ``sa1 << bits | sa0``, in (chunk, column) group order, as
    ``(group, pair, base, offset, row)``: their groups, their pairs, and per
    sign the chunk sums of the clamp costs flattened over (chunk, column),
    and, for each faulty weight's signed target code, ``code * 3**bits`` and
    ``code << bits``."""
    bits, (code_of, cost) = layer.bits, _signed_codes(layer.bits, layer.mode)
    flat, group = _faulty_by_group(pair, geom)
    pair = pair.ravel().take(flat)
    base, offset, row = {}, {}, {}
    for sign in signs:
        base[sign] = geom.chunk_sums(cost[sign].take(layer.codes)).ravel()
        code = code_of[sign].take(layer.codes.take(flat)).astype(np.uint32)
        offset[sign], row[sign] = code * np.uint32(3**bits), code << np.uint32(bits)
    return group, pair, base, offset, row


def _best_words(
    signs, flip_bits, pair, geom: ChunkGeometry, layer: LayerWeights, lookup
) -> np.ndarray:
    """Per (chunk, column), the correction word with the least summed error,
    one word at a time: the exhaustive search, the oracle of
    :func:`_subset_words`.

    The words are ``sign << bits | j`` for each sign in ``signs`` and each
    flip mask ``j < 2**flip_bits``, in that order.  Word ``sign << bits | j``
    maps the signed target codes against the faults seen through j, scored
    by the chunk sum of |decoded - signed target|.  A word replaces the
    running best only when strictly better, so the earliest word wins ties.

    Every mapped code is in range, so a weight's error splits into
    |clamp(t) - t|, the same for every j, plus |decoded - clamp(t)|.  The
    first part is summed once per sign.  The second is 0 for a weight with
    no stuck bit, which maps to clamp(t) itself, so only the faulty weights
    are solved per word, straight from their table keys, with their packed
    pairs flipped by :func:`safmap.faults.flip_pairs`.  The sums are integers
    far below 2**53, so the float64 bincounts are exact.
    """
    bits, low = layer.bits, (1 << layer.bits) - 1
    words = [sign << bits | j for sign in signs for j in range(1 << flip_bits)]
    size = geom.num_chunks * layer.cols
    group, pair, base, offset, row = _faulty_terms(signs, pair, geom, layer)
    digit_of_pair = _key_tables(bits)[0]
    err_of = _cvm_tables(bits, layer.mode)[0].reshape(-1)
    key = np.empty(group.size, dtype=np.uint32)
    err = np.empty(group.size, dtype=np.uint8)
    best = np.full(size, np.inf)
    better = np.empty(size, dtype=bool)
    best_word = np.zeros(size, dtype=np.uint16)
    for word in words:
        sign = word >> bits
        digit_of_pair.take(flip_pairs(pair, word & low, bits), out=key)
        key += offset[sign]
        np.add(lookup(key), row[sign], out=key)
        score = np.bincount(group, weights=err_of.take(key, out=err), minlength=size)
        score += base[sign]
        np.less(score, best, out=better)
        np.copyto(best, score, where=better)
        best_word[better] = word
    return best_word.reshape(geom.num_chunks, layer.cols)


def _faulty_by_group(pair, geom: ChunkGeometry):
    """Flat (M, K) indices of the weights with a stuck bit (a nonzero packed
    pair) and their (chunk, column) groups ``chunk * K + column``, sorted by
    group."""
    faulty = pair != 0
    cols = faulty.shape[1]
    pad = geom.num_chunks * geom.row_len - geom.rows
    if pad:
        faulty = np.concatenate([faulty, np.zeros((pad, cols), dtype=bool)])
    by_group = faulty.reshape(geom.num_chunks, geom.row_len, cols).transpose(0, 2, 1)
    group, row = np.divmod(np.flatnonzero(by_group), geom.row_len)
    chunk, col = np.divmod(group, cols)
    return (chunk * geom.row_len + row) * cols + col, group


def _subsets(masks: np.ndarray, count: int) -> np.ndarray:
    """(2**count, len(masks)) submasks of bit masks that each have ``count``
    bits set: bit i of the row index takes a mask's i-th lowest bit."""
    out = np.zeros((1, masks.size), dtype=np.uint32)
    rest = masks.astype(np.uint32)
    for _ in range(count):
        low = rest & (~rest + np.uint32(1))
        rest ^= low
        out = np.concatenate([out, out | low])
    return out


def _subset_pass(table: np.ndarray, count: int, inverse: bool) -> None:
    """In place over the low ``count`` bits of the row index of a 2-D
    array: the sum over subsets, or with ``inverse`` its Moebius inverse."""
    for i in range(count):
        half = table.shape[1] << i
        pairs = table.reshape(-1, 2 * half)
        low, high = pairs[:, :half], pairs[:, half:]
        if inverse:
            high -= low
        else:
            high += low


def _batches(stuck: np.ndarray, lo: int, hi: int, flip_bits: int):
    """Faulty weights ``lo:hi`` as ``(f, index)`` batches of weights with f
    stuck bits among the flip bits, each of at most about ``_TERMS``
    subset terms."""
    if not flip_bits:
        yield 0, slice(lo, hi)
        return
    level = _POPCOUNT8.take(stuck[lo:hi])  # stuck < 2**bits <= 256
    order = lo + np.argsort(level, kind="stable")
    ends = np.bincount(level, minlength=flip_bits + 1).cumsum().tolist()
    for f, (start, end) in enumerate(zip([0] + ends, ends)):
        count = end - start
        pieces = min(count, -(-count * (1 << f) // _TERMS))
        for k in range(pieces):
            yield f, order[start + count * k // pieces : start + count * (k + 1) // pieces]


def _subset_words(
    signs, flip_bits, pair, geom: ChunkGeometry, layer: LayerWeights, lookup
) -> np.ndarray:
    """The words of :func:`_best_words`, scored all at once by subset sums.

    A faulty weight's error under flip mask j depends only on ``j & F``,
    where F holds its stuck bits among the ``flip_bits`` searched ones.  So
    its 2**f errors over the subsets of F (f = |F|) are solved in one lookup
    and Moebius-inverted; the inverted terms are accumulated in place
    (``np.add.at``) into a (sign, 2**flip_bits, group) score block at their
    subsets, with no full-size temporary per batch, and one
    sum-over-subsets pass over the flip bits turns the block into every
    word's chunk score.  The first ``argmin`` in word order keeps the
    earliest word on ties, as the per-word search does.  Sign-flip searches
    no flip bits, so each faulty weight has one term per sign.  Every sum is
    an integer far below 2**53, so the float64 arithmetic is exact.  Groups
    go one block of about ``_SCORE_BYTES`` of scores at a time.

    With f stuck bits a weight costs 2**f terms, about 2.4 per faulty
    weight at 5% faults and 8 bits, against 2**bits solves in the per-word
    search.  When nearly every cell is stuck the two do about the same
    number of lookups and this one also runs the Moebius passes: on a
    512x512 8-bit bit-flip layer (2-vCPU shared Xeon) the search takes about
    0.3 s at fault rate 0.5 and 2.1 s at rate 1.0, against 1.9 s and 1.5 s
    for the per-word search with the same table.
    """
    bits, nsub = layer.bits, 1 << flip_bits
    width = len(signs) * nsub
    size = geom.num_chunks * layer.cols
    group, pair, base, offset, row = _faulty_terms(signs, pair, geom, layer)
    stuck = (pair ^ (pair >> bits)) & np.uint32(nsub - 1)
    digit_of_pair = _key_tables(bits)[0]
    err_of = _cvm_tables(bits, layer.mode)[0].reshape(-1)
    both = np.uint32((1 << bits) + 1)  # s * both == s << bits | s
    span = max(1, _SCORE_BYTES // (8 * width))
    best = np.empty(size, dtype=np.int64)
    starts = range(0, size, span)
    bounds = np.searchsorted(group, starts).tolist() + [group.size]
    for g0, lo, hi in zip(starts, bounds, bounds[1:]):
        g1 = min(g0 + span, size)
        score = np.zeros((width, g1 - g0))
        for f, w in _batches(stuck, lo, hi, flip_bits):
            sub = _subsets(stuck[w], f)
            # Every subset holds stuck bits only, so toggling both halves
            # of the pair at it is the flip_pairs swap.
            flipped = digit_of_pair.take(pair[w] ^ sub * both)
            at = sub * np.uint32(g1 - g0) + (group[w] - g0)
            for s, sign in enumerate(signs):
                index = lookup(flipped + offset[sign][w]) + row[sign][w]
                err = err_of.take(index).astype(np.float64)
                _subset_pass(err, f, inverse=True)
                np.add.at(
                    score.reshape(-1), (at + s * nsub * (g1 - g0)).ravel(), err.ravel()
                )
        for s, sign in enumerate(signs):
            rows = score[s * nsub : (s + 1) * nsub]
            _subset_pass(rows, flip_bits, inverse=False)
            rows += base[sign][g0:g1]
        best[g0:g1] = score.argmin(axis=0)
    word = (np.asarray(signs)[best >> flip_bits] << bits) | (best & (nsub - 1))
    return word.astype(np.uint16).reshape(geom.num_chunks, layer.cols)


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
    Both steps read one table: ``lut``, or else an on-demand table made for
    this call, which enumerates each distinct key once.  With ``lut`` the
    words are found by the subset-sum search, without it by the exhaustive
    per-word search; both pick the same words.
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
    # The arrays the layout keeps are allocated before any temporary.
    # Allocated after them, they can land near the top of the heap, where
    # they keep several MB freed below them resident once the caller also
    # frees its mask: in one process and not the next, so peak memory
    # varies from run to run.
    stored = np.empty((layer.rows, layer.cols), dtype=np.uint16)
    col_flip = np.zeros((geom.num_chunks, layer.cols), dtype=np.uint8)
    b_flip = np.zeros((bits, geom.num_chunks, layer.cols), dtype=np.uint8)
    if scheme == SCHEME_NAIVE:
        np.copyto(stored, force_write_array(layer.codes, *mask.packed()))
    else:
        from .lut import OnDemandLut  # lut imports this module

        table = OnDemandLut(bits, layer.mode) if lut is None else lut
        if (table.bits, table.mode) != (bits, layer.mode):
            raise ValueError(
                f"LUT built for ({table.bits}-bit, {table.mode}) cannot map a "
                f"({bits}-bit, {layer.mode}) layer"
            )
        word = np.zeros((geom.num_chunks, layer.cols), dtype=np.uint16)
        if scheme != SCHEME_CVM:
            signs, flip_bits = ((0, 1), 0) if scheme == SCHEME_SIGNFLIP else ((0,), bits)
            search = _best_words if lut is None else _subset_words
            word = search(signs, flip_bits, mask.pair, geom, layer, table.lookup)
            k = np.arange(bits, dtype=np.uint16)
            np.copyto(col_flip, word >> bits, casting="unsafe")
            np.copyto(b_flip, (word[None, :, :] >> k[:, None, None]) & 1, casting="unsafe")
        row_word = geom.per_row(word)
        j = row_word & ((1 << bits) - 1)
        target = _signed_codes(bits, layer.mode)[0][row_word >> bits, layer.codes]
        mapped = table.map_codes(target, flip_pairs(mask.pair, j, bits))
        np.bitwise_xor(mapped, j, out=stored)
    for array in (stored, col_flip, b_flip):
        array.flags.writeable = False  # so the layout need not copy it
    return MappedLayout(
        scheme=scheme,
        bits=bits,
        mode=layer.mode,
        row_len=row_len,
        stored=stored,
        col_flip=col_flip,
        b_flip=b_flip,
    )


def mapping_error(
    layout: MappedLayout, layer: LayerWeights
) -> tuple[np.ndarray, int]:
    """Sum of |effective - target| decoded errors, per (chunk, column) and
    in total."""
    err = np.abs(layout.effective_values() - layer.values())
    return layout.geometry.chunk_sums(err), int(err.sum())
