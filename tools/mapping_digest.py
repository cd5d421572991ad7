"""Print SHA-256 digests of every mapping output on a fixed set of cases.

Run it once per source tree and compare the printed lines; equal digests
mean bit-identical ``stored``, ``col_flip``, ``b_flip``, effective values
and mapping error for every scheme, with the table (subset-sum word search)
and without one (the "direct" lines: per-word search, keys enumerated on
demand), bit-identical crossbar simulator outputs, an identical Monte
Carlo sweep report, and identical arrays read back from every JSON file
format:

    PYTHONPATH=src python tools/mapping_digest.py > new.txt
    PYTHONPATH=<other checkout>/src python tools/mapping_digest.py > old.txt
    diff old.txt new.txt

Cases: 240 random small layers (1-5 bits, both decoding modes, random
shape, row length and fault rate) and one 512x512 8-bit layer at 5%
faults.  The large case runs the per-word bit-flip search without a table
(256 words looked up in a table solved on demand, each distinct key of its
faulty weights enumerated once), so a run takes about 5-6 s on a 2-vCPU
shared Xeon host (Python 3.11, numpy 2.4).  The simulator line
runs ``mvm_simulate_batch`` on every small layout with seeded activation
batches in both decoding modes; the sweep line hashes one small
``run_sweep`` report of the seed-0 toy model, without the wall-clock
``map_seconds`` column (the sweep maps its 2 trials per rate stacked side
by side, one ``build_layout`` call per scheme and layer, through a table
solved on demand, so an equal line means batched mapping is exact); the
table line hashes the entry bytes of
``build_cvm_lut`` for widths 1-8, unsigned then two's complement per width,
so equal digests mean byte-identical table files.  The JSON line hashes
the dtype, shape and bytes of every array after a ``to_json_dict`` -> text
-> ``from_json_dict`` round trip of every small case's mask and layouts,
seeded activation vectors of every width in both decoding modes, and the
seed-0 toy model.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from safmap.crossbar import ActivationVector, CrossbarConfig, mvm_simulate_batch
from safmap.faults import sample_saf_mask
from safmap.harness import SweepSpec, run_sweep
from safmap.lut import build_cvm_lut
from safmap.mapping import SCHEMES, LayerWeights, build_layout, mapping_error
from safmap.numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED, value_range
from safmap.toymodel import train_toy


def layout_arrays(layer, mask, row_len, table):
    """Every output of every scheme that applies to this layer."""
    for scheme in SCHEMES:
        if scheme == "signflip" and layer.mode == MODE_UNSIGNED:
            continue
        layout = build_layout(scheme, layer, mask, row_len, lut=table)
        per_col, total = mapping_error(layout, layer)
        yield from (
            layout.stored.astype(np.uint16),
            layout.col_flip.astype(np.uint8),
            layout.b_flip.astype(np.uint8),
            layout.effective_values().astype(np.int64),
            per_col.astype(np.int64),
            np.int64(total),
        )


def digest(cases, engine: str) -> str:
    h = hashlib.sha256()
    tables = {}
    for layer, mask, row_len in cases:
        table = None
        if engine == "lut":
            key = (layer.bits, layer.mode)
            if key not in tables:
                tables[key] = build_cvm_lut(*key)
            table = tables[key]
        for array in layout_arrays(layer, mask, row_len, table):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def small_cases(count: int = 240):
    rng = np.random.default_rng(2024)
    for i in range(count):
        bits = 1 + i % 5
        mode = (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT)[(i // 5) % 2]
        rows, cols = (int(v) for v in rng.integers(1, 13, size=2))
        row_len = int(rng.integers(1, rows + 1))
        codes = rng.integers(0, 1 << bits, size=(rows, cols)).astype(np.uint16)
        mask = sample_saf_mask(rng, (rows, cols, bits), float(rng.uniform(0, 0.4)))
        yield LayerWeights(codes, bits, mode), mask, row_len


def large_case():
    rng = np.random.default_rng(512)
    codes = rng.integers(0, 256, size=(512, 512)).astype(np.uint16)
    mask = sample_saf_mask(rng, (512, 512, 8), 0.05)
    yield LayerWeights(codes, 8, MODE_TWOS_COMPLEMENT), mask, 64


def mvm_digest(cases) -> str:
    """Simulator outputs of every scheme's layout for seeded activations."""
    h = hashlib.sha256()
    rng = np.random.default_rng(4048)
    for layer, mask, row_len in cases:
        for scheme in SCHEMES:
            if scheme == "signflip" and layer.mode == MODE_UNSIGNED:
                continue
            layout = build_layout(scheme, layer, mask, row_len)
            for act_mode in (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT):
                act_bits = int(rng.integers(1, 9))
                act_codes = rng.integers(0, 1 << act_bits, size=(3, layer.rows))
                cfg = CrossbarConfig(row_len, layer.bits, act_bits, layer.mode, act_mode)
                out = mvm_simulate_batch(layout, act_codes, cfg)
                h.update(np.ascontiguousarray(out, dtype=np.int64).tobytes())
    return h.hexdigest()


def sweep_digest() -> str:
    """One small paired sweep report, less its wall-clock column."""
    spec = SweepSpec(rates=(0.0, 0.03), trials=2, base_seed=7)
    report = run_sweep(train_toy(seed=0), spec).to_json_dict()
    for row in report["results"]:
        del row["map_seconds"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def lut_digest() -> str:
    """Entry bytes of every table, widths 1-8, both decoding modes."""
    h = hashlib.sha256()
    for bits in range(1, 9):
        for mode in (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT):
            h.update(build_cvm_lut(bits, mode).entries.tobytes())
    return h.hexdigest()


def json_digest() -> str:
    """Arrays of every file format after a JSON text round trip."""
    h = hashlib.sha256()

    def round_trip(obj):
        text = json.dumps(obj.to_json_dict())
        return type(obj).from_json_dict(json.loads(text))

    def update(*arrays):
        for array in map(np.asarray, arrays):
            h.update(f"{array.dtype.str} {array.shape}".encode())
            h.update(np.ascontiguousarray(array).tobytes())

    for layer, mask, row_len in small_cases():
        update(round_trip(mask).cells)
        for scheme in SCHEMES:
            if scheme == "signflip" and layer.mode == MODE_UNSIGNED:
                continue
            layout = round_trip(build_layout(scheme, layer, mask, row_len))
            fields = (layout.scheme, layout.bits, layout.mode, layout.row_len)
            h.update(repr(fields).encode())
            update(layout.stored, layout.col_flip, layout.b_flip)
    rng = np.random.default_rng(8192)
    for bits in range(1, 9):
        for mode in (MODE_UNSIGNED, MODE_TWOS_COMPLEMENT):
            lo, hi = value_range(bits, mode)
            values = rng.integers(lo, hi + 1, size=int(rng.integers(1, 13)))
            acts = round_trip(ActivationVector(values, bits, mode))
            h.update(f"{acts.bits} {acts.mode}".encode())
            update(acts.values, acts.codes())
    model = round_trip(train_toy(seed=0))
    h.update(f"{model.input_dim} {model.classes}".encode())
    for layer in model.layers:
        h.update(f"{layer.relu}".encode())
        update(layer.weights, layer.bias)
    return h.hexdigest()


def main() -> None:
    for name, cases in (("small", small_cases), ("512x512", large_case)):
        for engine in ("lut", "direct"):
            print(f"{name:8s} {engine:6s} {digest(cases(), engine)}")
    print(f"{'small':8s} {'mvm':6s} {mvm_digest(small_cases())}")
    print(f"{'sweep':8s} {'report':6s} {sweep_digest()}")
    print(f"{'lut':8s} {'bytes':6s} {lut_digest()}")
    print(f"{'json':8s} {'files':6s} {json_digest()}")


if __name__ == "__main__":
    main()
