"""Monte Carlo fault-injection sweeps and the LUT runtime benchmark.

Each trial draws one stuck-at mask per layer from the stream derived
from ``(base_seed, trial, layer)``; every scheme is mapped against the
SAME masks (paired comparison), so the deterministic per-column error
dominance of the mapping schemes carries over to per-trial totals.
Accuracy ordering across schemes is a statistical statement about the
trial means only.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .crossbar import CrossbarConfig, mvm_simulate_batch
from .faults import SafMask, count_unmasked, mask_rng, sample_saf_mask
from .lut import CvmLut, OnDemandLut, build_cvm_lut
from .mapping import (
    SCHEME_BITFLIP,
    SCHEME_SIGNFLIP,
    SCHEMES,
    LayerWeights,
    MappedLayout,
    build_layout,
)
from .numfmt import MODE_TWOS_COMPLEMENT, encode_array
from .quant import quantize
from .toymodel import (
    QuantizedModel,
    ToyModel,
    blob_test_set,
    quantize_model,
    quantized_predict,
)

@dataclass(frozen=True)
class SweepSpec:
    """Monte Carlo sweep configuration."""

    rates: tuple[float, ...] = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    trials: int = 50
    schemes: tuple[str, ...] = SCHEMES
    base_seed: int = 0
    sa1_fraction: float = 0.5
    row_len: int = 64
    weight_bits: int = 8
    act_bits: int = 8

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.rates:
            raise ValueError("rates must name at least one fault rate")
        if any(not 0.0 <= r <= 1.0 for r in self.rates):
            raise ValueError("rates must lie in [0, 1]")
        if not 0.0 <= self.sa1_fraction <= 1.0:
            raise ValueError("sa1_fraction must lie in [0, 1]")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")


@dataclass
class ResultRow:
    rate: float
    scheme: str
    trials: int
    mean_acc: float
    std_acc: float
    mean_abs_weight_err: float
    mean_unmasked_faults: float
    map_seconds: float


REPORT_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class EvalReport:
    config: dict
    results: list[ResultRow]

    def to_json_dict(self) -> dict:
        return {"config": self.config, "results": [asdict(r) for r in self.results]}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in self.results:
            d = asdict(row)
            writer.writerow([d[c] for c in REPORT_COLUMNS])
        return buf.getvalue()

    def save(self, json_path: str | Path, csv_path: str | Path | None = None) -> None:
        Path(json_path).write_text(json.dumps(self.to_json_dict(), indent=2))
        if csv_path is not None:
            Path(csv_path).write_text(self.to_csv())


def layer_weight_matrices(qmodel: QuantizedModel) -> list[LayerWeights]:
    """Ideal weight code matrices of every layer."""
    return [
        LayerWeights.from_values(ql.weights.codes, ql.weights.bits, ql.weights.mode)
        for ql in qmodel.layers
    ]


def run_inference(
    qmodel: QuantizedModel,
    layouts: list[MappedLayout],
    x: np.ndarray,
) -> np.ndarray:
    """Integer inference with every matrix product routed through the
    crossbar simulator, chunked by each layout's own ``row_len``;
    inter-layer rescaling uses the product of weight and activation
    scales."""
    if len(layouts) != len(qmodel.layers):
        raise ValueError("one layout per layer required")
    for ql, layout in zip(qmodel.layers, layouts):
        cfg = CrossbarConfig(
            row_len=layout.row_len,
            weight_bits=ql.weights.bits,
            activation_bits=ql.act_bits,
            weight_mode=ql.weights.mode,
            activation_mode=ql.act_mode,
        )
        aq = quantize(x, ql.act_bits, ql.act_mode)
        act_codes = encode_array(aq.codes, ql.act_bits, ql.act_mode)
        y_int = mvm_simulate_batch(layout, act_codes, cfg)
        x = y_int.astype(np.float64) * (aq.scale * ql.weights.scale) + ql.bias
        if ql.relu:
            x = np.maximum(x, 0.0)
    return x.argmax(axis=1)


def trial_masks(
    spec: SweepSpec, trial: int, shapes: list[tuple[int, int, int]], rate: float
) -> list[SafMask]:
    """One mask per layer for a given trial, from independent substreams."""
    return [
        sample_saf_mask(
            mask_rng(spec.base_seed, trial, layer_idx),
            shape,
            rate,
            spec.sa1_fraction,
        )
        for layer_idx, shape in enumerate(shapes)
    ]


def run_sweep(model: ToyModel, spec: SweepSpec, dataset_seed: int = 0) -> EvalReport:
    """Paired Monte Carlo sweep over (fault rate, scheme).

    All trials of a rate are mapped with one ``build_layout`` call per
    (scheme, layer): the trials' masks side by side against the layer's
    codes tiled once per trial.  Every correction word is chosen per
    (chunk, column), so each trial's column block is the layout that trial
    gets when mapped alone.  The closest-value table is solved on demand
    (:class:`safmap.lut.OnDemandLut`), for the keys the sweep meets only;
    ``map_seconds`` is each trial's share of its rate's batched mapping
    time.

    Each trial is scored from its column block of the stacked layouts,
    without the crossbar simulator, which equals ``a @ effective_values``
    by construction.  One ``effective_values()`` pass per stacked layout
    gives both numbers: the trial's weight error is the sum of
    ``|effective - target|`` over its block, and its accuracy is
    :func:`safmap.toymodel.quantized_predict` on its block.  Unmasked
    faults are counted once per layer on the stacked masks; as each trial
    owns its column block, the count over the trials is their sum.
    Every trial and scheme sees the same test input, so the first layer's
    input is quantized once per sweep.  :func:`run_inference` stays the
    simulator-backed reference.
    """
    if not model.layers:
        raise ValueError("model key 'layers' is empty; a sweep maps at least one layer")
    x_test, y_test = blob_test_set(model, dataset_seed)
    qmodel = quantize_model(model, spec.weight_bits, spec.act_bits)
    first = qmodel.layers[0]
    x_codes = quantize(x_test, first.act_bits, first.act_mode)
    layers = layer_weight_matrices(qmodel)
    shapes = [(lw.rows, lw.cols, lw.bits) for lw in layers]
    total_weights = sum(lw.codes.size for lw in layers)
    total_cells = sum(r * c * b for r, c, b in shapes)
    lut = OnDemandLut(spec.weight_bits, MODE_TWOS_COMPLEMENT)
    tiled = [
        LayerWeights(np.tile(lw.codes, (1, spec.trials)), lw.bits, lw.mode)
        for lw in layers
    ]

    results: list[ResultRow] = []
    for rate in spec.rates:
        masks = [trial_masks(spec, t, shapes, rate) for t in range(spec.trials)]
        stacked_masks = []
        for i in range(len(layers)):
            cells = np.concatenate([ms[i].cells for ms in masks], axis=1)
            cells.flags.writeable = False  # so the mask need not copy it
            stacked_masks.append(SafMask(cells))
        unmasked = sum(count_unmasked(lw.codes, m) for lw, m in zip(tiled, stacked_masks))
        for scheme in spec.schemes:
            start = time.perf_counter()
            stacked = [
                build_layout(scheme, lw, mask, spec.row_len, lut=lut)
                for lw, mask in zip(tiled, stacked_masks)
            ]
            map_seconds = (time.perf_counter() - start) / spec.trials
            effective = [layout.effective_values() for layout in stacked]
            abs_err = sum(
                np.abs(eff - lw.values()).reshape(lw.rows, spec.trials, -1).sum(axis=(0, 2))
                for eff, lw in zip(effective, tiled)
            )
            # One float64 cast per stacked layout; quantized_predict takes
            # each trial's block of it as it is.
            blocks = [np.hsplit(eff.astype(np.float64), spec.trials) for eff in effective]
            accs = [
                float((quantized_predict(qmodel, x_codes, weights) == y_test).mean())
                for weights in zip(*blocks)
            ]
            results.append(
                ResultRow(
                    rate=rate,
                    scheme=scheme,
                    trials=spec.trials,
                    mean_acc=float(np.mean(accs)),
                    std_acc=float(np.std(accs)),
                    mean_abs_weight_err=float(np.mean(abs_err / total_weights)),
                    mean_unmasked_faults=unmasked / spec.trials,
                    map_seconds=map_seconds,
                )
            )

    config = {
        **asdict(spec),
        "rates": list(spec.rates),
        "schemes": list(spec.schemes),
        "total_cells": total_cells,
        "test_points": int(x_test.shape[0]),
    }
    return EvalReport(config=config, results=results)


def quantized_baseline_accuracy(model: ToyModel, spec: SweepSpec, dataset_seed: int = 0) -> float:
    """Accuracy of fault-free integer inference (the rate-0 reference)."""
    x_test, y_test = blob_test_set(model, dataset_seed)
    qmodel = quantize_model(model, spec.weight_bits, spec.act_bits)
    return float((quantized_predict(qmodel, x_test) == y_test).mean())


def bench_lut(
    rows: int = 512,
    cols: int = 512,
    bits: int = 8,
    rate: float = 0.05,
    repeats: int = 5,
    row_len: int = 64,
    seed: int = 0,
    lut: CvmLut | None = None,
) -> dict:
    """Median wall-clock of sign-flip and bit-flip with and without the
    precomputed table, on identical inputs.  Without the table the word
    search is the exhaustive per-word one, the oracle of the table's
    subset-sum search, reading a table solved on demand for that call (each
    distinct key enumerated once per call)."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if rows < 1 or cols < 1:
        raise ValueError(f"layer dimensions must be >= 1, got {rows}x{cols}")
    rng = mask_rng(seed, 0xBE7C)
    codes = rng.integers(0, 1 << bits, size=(rows, cols)).astype(np.uint16)
    layer = LayerWeights(codes, bits, MODE_TWOS_COMPLEMENT)
    mask = sample_saf_mask(mask_rng(seed, 0xBE7C, 1), (rows, cols, bits), rate)
    if lut is None:
        lut = build_cvm_lut(bits, MODE_TWOS_COMPLEMENT)

    out = {}
    for scheme in (SCHEME_SIGNFLIP, SCHEME_BITFLIP):
        direct_times = []
        lut_times = []
        ref = fast = None
        for _ in range(repeats):
            start = time.perf_counter()
            ref = build_layout(scheme, layer, mask, row_len)
            direct_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            fast = build_layout(scheme, layer, mask, row_len, lut=lut)
            lut_times.append(time.perf_counter() - start)
        if not all(
            np.array_equal(getattr(ref, name), getattr(fast, name))
            for name in ("stored", "col_flip", "b_flip")
        ):
            raise AssertionError(f"{scheme}: LUT and direct layouts differ")
        direct = statistics.median(direct_times)
        fast_t = statistics.median(lut_times)
        out[scheme] = {
            "direct_seconds": direct,
            "lut_seconds": fast_t,
            "speedup": direct / fast_t if fast_t > 0 else float("inf"),
        }
    return out
