import copy
import json
from dataclasses import asdict

import numpy as np
import pytest

import safmap.harness as harness
import safmap.mapping as mapping
from safmap.faults import SafMask, count_unmasked, mask_rng, sample_saf_mask
from safmap.harness import (
    EvalReport,
    REPORT_COLUMNS,
    SweepSpec,
    bench_lut,
    layer_weight_matrices,
    quantized_baseline_accuracy,
    run_inference,
    run_sweep,
    trial_masks,
)
from safmap.mapping import (
    SCHEME_BITFLIP,
    SCHEME_CVM,
    SCHEME_NAIVE,
    SCHEME_SIGNFLIP,
    SCHEMES,
    build_layout,
    mapping_error,
)
from safmap.toymodel import ToyModel, make_blob_dataset, quantize_model, quantized_predict, train_toy


@pytest.fixture(scope="module")
def model():
    return train_toy(seed=0)


SMALL = SweepSpec(rates=(0.0, 0.03), trials=3, base_seed=7, row_len=64)


def test_rate_zero_matches_integer_baseline(model):
    report = run_sweep(model, SweepSpec(rates=(0.0,), trials=2, base_seed=1))
    baseline = quantized_baseline_accuracy(model, SMALL)
    for row in report.results:
        assert row.mean_acc == pytest.approx(baseline)
        assert row.std_acc == 0.0
        assert row.mean_abs_weight_err == 0.0
        assert row.mean_unmasked_faults == 0.0


def test_fault_free_layouts_reproduce_reference_inference(model):
    _, _, x_test, _ = make_blob_dataset(seed=0)
    qmodel = quantize_model(model)
    layers = layer_weight_matrices(qmodel)
    cells = trial_masks(SMALL, 0, [(lw.rows, lw.cols, lw.bits) for lw in layers], 0.0)
    layouts = [
        build_layout(SCHEME_CVM, lw, SafMask(c), SMALL.row_len)
        for lw, c in zip(layers, cells)
    ]
    got = run_inference(qmodel, layouts, x_test)
    assert np.array_equal(got, quantized_predict(qmodel, x_test))


def test_trial_masks_are_paired_and_distinct():
    shapes = [(16, 32, 8), (32, 4, 8)]
    a = trial_masks(SMALL, 0, shapes, 0.05)
    b = trial_masks(SMALL, 0, shapes, 0.05)
    c = trial_masks(SMALL, 1, shapes, 0.05)
    for ca, cb in zip(a, b):
        assert np.array_equal(ca, cb)
    assert not np.array_equal(a[0], c[0])
    assert not np.array_equal(a[0][:16, :4], a[1][:16])
    # The cells are those of the mask sample_saf_mask draws from the stream.
    for i, shape in enumerate(shapes):
        want = sample_saf_mask(mask_rng(SMALL.base_seed, 0, i), shape, 0.05)
        assert np.array_equal(a[i], want.cells)


def test_per_trial_error_dominance(model):
    """With paired masks, mean absolute weight error must satisfy
    bitflip <= cvm <= naive and signflip <= cvm at every rate."""
    report = run_sweep(model, SMALL)
    err = {
        (row.rate, row.scheme): row.mean_abs_weight_err for row in report.results
    }
    for rate in SMALL.rates:
        assert err[rate, SCHEME_BITFLIP] <= err[rate, SCHEME_CVM] + 1e-12
        assert err[rate, SCHEME_SIGNFLIP] <= err[rate, SCHEME_CVM] + 1e-12
        assert err[rate, SCHEME_CVM] <= err[rate, SCHEME_NAIVE] + 1e-12


def test_report_shape_and_serialization(model, tmp_path):
    report = run_sweep(model, SMALL)
    assert len(report.results) == len(SMALL.rates) * len(SMALL.schemes)
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + len(report.results)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    report.save(json_path, csv_path)
    obj = json.loads(json_path.read_text())
    assert obj["config"]["rates"] == list(SMALL.rates)
    assert len(obj["results"]) == len(report.results)
    assert csv_path.read_text() == csv_text


def test_sweep_is_deterministic_up_to_timing(model):
    a = run_sweep(model, SMALL)
    b = run_sweep(model, SMALL)

    def strip(report: EvalReport) -> list:
        rows = []
        for row in report.results:
            d = copy.copy(row.__dict__)
            d.pop("map_seconds")  # wall clock; everything else is seeded
            rows.append(d)
        return rows

    assert strip(a) == strip(b)


@pytest.mark.parametrize("row_len", [64, 8, 5])
def test_sweep_matches_trials_mapped_alone(model, row_len):
    """Batched mapping over the trials gives the rows of every trial mapped
    alone with the direct engine and run through the crossbar simulator,
    every column but the wall clock.  The toy layers have 16 and 32 rows:
    ``row_len`` 8 splits every column into chunks, and 5 leaves a short
    last chunk."""
    spec = SweepSpec(
        rates=(0.0, 0.05), trials=3, schemes=SCHEMES, base_seed=5, row_len=row_len
    )
    _, _, x_test, y_test = make_blob_dataset(0)
    qmodel = quantize_model(model, spec.weight_bits, spec.act_bits)
    layers = layer_weight_matrices(qmodel)
    shapes = [(lw.rows, lw.cols, lw.bits) for lw in layers]
    total_weights = sum(lw.codes.size for lw in layers)
    want = []
    for rate in spec.rates:
        masks = [
            [SafMask(c) for c in trial_masks(spec, t, shapes, rate)]
            for t in range(spec.trials)
        ]
        unmasked = [
            sum(count_unmasked(lw.codes, m) for lw, m in zip(layers, ms)) for ms in masks
        ]
        for scheme in spec.schemes:
            accs, errs = [], []
            for ms in masks:
                layouts = [
                    build_layout(scheme, lw, m, spec.row_len, lut=None)
                    for lw, m in zip(layers, ms)
                ]
                labels = run_inference(qmodel, layouts, x_test)
                accs.append(float((labels == y_test).mean()))
                errs.append(
                    sum(mapping_error(lo, lw)[1] for lo, lw in zip(layouts, layers))
                    / total_weights
                )
            want.append(
                {
                    "rate": rate,
                    "scheme": scheme,
                    "trials": spec.trials,
                    "mean_acc": float(np.mean(accs)),
                    "std_acc": float(np.std(accs)),
                    "mean_abs_weight_err": float(np.mean(errs)),
                    "mean_unmasked_faults": float(np.mean(unmasked)),
                }
            )
    got = [asdict(row) for row in run_sweep(model, spec).results]
    for row in got:
        assert row.pop("map_seconds") >= 0.0
    assert got == want
    assert any(row["mean_abs_weight_err"] > 0 for row in want)


def test_sweep_builds_one_table_and_enumerates_no_key(model, monkeypatch):
    # Every mapping of the sweep reads the one full table it builds.
    import safmap.lut as lut

    built = []
    real_build = lut.build_cvm_lut

    def counting_build(*args):
        built.append(args)
        return real_build(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran the enumeration engine")

    monkeypatch.setattr(harness, "build_cvm_lut", counting_build)
    monkeypatch.setattr(lut, "build_cvm_lut", counting_build)
    monkeypatch.setattr(mapping, "closest_codes", refuse)
    monkeypatch.setattr(lut, "closest_codes", refuse)
    report = run_sweep(model, SweepSpec(rates=(0.0, 0.05), trials=2, base_seed=3))
    assert len(report.results) == 2 * len(SCHEMES)
    assert built == [(8, "twos_complement")]


def test_sweep_packs_one_mask_per_rate_and_layer(model, monkeypatch):
    # The trials' cells are stacked before any mask is built, so no trial's
    # own mask is packed and then dropped.
    built = []
    real_init = SafMask.__post_init__

    def counting_init(self):
        built.append(self.cells.shape)
        real_init(self)

    monkeypatch.setattr(SafMask, "__post_init__", counting_init)
    spec = SweepSpec(rates=(0.0, 0.02, 0.05), trials=4, base_seed=3)
    run_sweep(model, spec)
    stacked = [
        (w.shape[0], w.shape[1] * spec.trials, spec.weight_bits)
        for w in (layer.weights for layer in model.layers)
    ]
    assert built == stacked * len(spec.rates)


def test_sweep_does_not_simulate(model, monkeypatch):
    """Trials are scored from effective weights, never by the simulator."""

    def refuse(*args, **kwargs):
        raise AssertionError("run_sweep ran the crossbar simulator")

    monkeypatch.setattr(harness, "mvm_simulate_batch", refuse)
    monkeypatch.setattr(harness, "run_inference", refuse)
    report = run_sweep(model, SweepSpec(rates=(0.05,), trials=2, base_seed=3))
    assert len(report.results) == len(SCHEMES)


def test_sweep_scores_each_rate_and_scheme_in_one_pass(model, monkeypatch):
    """One unmasked count per (rate, layer) on the stacked masks and one
    effective-values pass per stacked layout, read for both the weight
    error and the accuracy."""
    counted, passes = [], []
    real_count = harness.count_unmasked
    real_effective = mapping.MappedLayout.effective_values

    def count(codes, mask):
        counted.append(mask.cols)
        return real_count(codes, mask)

    def effective(layout):
        passes.append(layout.cols)
        return real_effective(layout)

    def refuse(*args, **kwargs):
        raise AssertionError("run_sweep called mapping_error")

    monkeypatch.setattr(harness, "count_unmasked", count)
    monkeypatch.setattr(mapping.MappedLayout, "effective_values", effective)
    monkeypatch.setattr(mapping, "mapping_error", refuse)
    monkeypatch.setattr(harness, "mapping_error", refuse, raising=False)
    spec = SweepSpec(rates=(0.0, 0.05), trials=3, base_seed=3)
    run_sweep(model, spec)
    widths = [lw.cols * spec.trials for lw in layer_weight_matrices(quantize_model(model))]
    assert counted == widths * len(spec.rates)
    assert passes == widths * len(spec.rates) * len(spec.schemes)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(trials=0)
    with pytest.raises(ValueError):
        SweepSpec(rates=(1.5,))
    with pytest.raises(ValueError):
        SweepSpec(schemes=("bogus",))
    with pytest.raises(ValueError, match="at least one fault rate"):
        SweepSpec(rates=())
    for fraction in (-3.0, 1.7):
        with pytest.raises(ValueError, match="sa1_fraction"):
            SweepSpec(sa1_fraction=fraction)


def test_sweep_rejects_model_without_layers():
    with pytest.raises(ValueError, match="'layers'"):
        run_sweep(ToyModel(layers=[], input_dim=16, classes=16), SMALL)


def test_bench_lut_small():
    out = bench_lut(rows=48, cols=48, bits=4, rate=0.05, repeats=2, row_len=16)
    assert set(out) == {"signflip", "bitflip"}
    for stats in out.values():
        assert stats["direct_seconds"] > 0
        assert stats["lut_seconds"] > 0
        assert stats["speedup"] == pytest.approx(
            stats["direct_seconds"] / stats["lut_seconds"]
        )


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"repeats": 0}, "repeats must be >= 1"),
        ({"repeats": -1}, "repeats must be >= 1"),
        ({"rows": 0}, "dimensions must be >= 1"),
        ({"cols": 0}, "dimensions must be >= 1"),
    ],
)
def test_bench_lut_rejects_empty_runs(kwargs, message):
    with pytest.raises(ValueError, match=message):
        bench_lut(**{"rows": 8, "cols": 8, "bits": 2, **kwargs})
