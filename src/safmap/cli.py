"""Command-line surface: mask injection, table build, mapping, simulation,
Monte Carlo sweeps and the LUT runtime benchmark.

Exit codes: 0 success, 1 runtime/verification failure, 2 usage error.
All structured outputs are JSON (the mapping table is binary) and, except
for the bare simulator output vector, embed the resolved configuration
and tool version under a ``config`` key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, harness, lut as lut_mod, mapping, numfmt
from .crossbar import ActivationVector, CrossbarConfig, mvm_simulate
from .faults import FaultInjectionSpec, SafMask, gen_saf_mask
from .mapping import LayerWeights, MappedLayout, SCHEMES, build_layout
from .numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED
from .toymodel import ToyModel, train_toy


def _provenance(args: argparse.Namespace, skip: tuple[str, ...] = ()) -> dict:
    resolved = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func",) + skip and not k.startswith("_")
    }
    return {"tool": f"safmap {__version__}", **resolved}


def parse_rates(text: str) -> list[float]:
    """Comma list (``0,0.01``) or inclusive range (``start:stop:step``)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("step must be positive")
        rates = []
        k = 0
        while True:
            value = round(start + k * step, 12)
            if value > stop + 1e-12:
                break
            rates.append(value)
            k += 1
        return rates
    return [float(p) for p in text.split(",") if p.strip()]


def _refuse_overwrite(out: str, inputs: dict, twin: Path | None = None) -> None:
    """Usage error when ``--out``, or the CSV ``twin`` written beside it, is
    the file of one of the ``inputs`` (flag -> path or None), or the twin
    is ``--out`` itself.  Call it before anything is read or written."""
    if twin == Path(out):
        raise UsageError(
            f"--out {out} would be overwritten by its CSV twin; use another suffix"
        )
    written = {Path(out).resolve()} | ({twin.resolve()} if twin else set())
    for flag, path in inputs.items():
        if path is not None and Path(path).resolve() in written:
            raise UsageError(f"--out {out} would overwrite {flag} {path}")


def _load_weights(path: str, bits: int, mode: str) -> LayerWeights:
    rows, cols, values = numfmt.json_fields(
        json.loads(Path(path).read_text()), "weights", rows=int, cols=int, values=list
    )
    values = numfmt.json_array(
        values, "weights", "values", (rows, cols), *numfmt.value_range(bits, mode)
    )
    return LayerWeights.from_values(values, bits, mode)


# ---------------------------------------------------------------------------
# Subcommand implementations.  Each returns a process exit code.
# ---------------------------------------------------------------------------


def cmd_inject(args) -> int:
    spec = FaultInjectionSpec(
        rate=args.rate,
        seed=args.seed,
        trial_index=args.trial,
        sa1_fraction=args.sa1_frac,
    )
    mask = gen_saf_mask(spec, (args.rows, args.cols, args.bits))
    mask.save(args.out, extra={"config": _provenance(args, skip=("out",))})
    print(
        f"wrote {args.rows}x{args.cols}x{args.bits} mask "
        f"({mask.num_faulty()} faulty cells) to {args.out}"
    )
    return 0


def cmd_lut_build(args) -> int:
    table = lut_mod.build_cvm_lut(args.bits, args.mode)
    lut_mod.write_lut(table, args.out)
    size = Path(args.out).stat().st_size
    print(f"wrote {args.bits}-bit {args.mode} table ({size} bytes) to {args.out}")
    return 0


def cmd_lut_verify(args) -> int:
    table = lut_mod.read_lut(args.lut)
    mismatches = lut_mod.verify_lut(table, args.samples, seed=args.seed)
    if mismatches:
        key, got, want = mismatches[0]
        print(
            f"FAIL: {len(mismatches)} mismatching entries; first at key {key}: "
            f"table={got} direct={want}",
            file=sys.stderr,
        )
        return 1
    print(f"OK: {args.samples} sampled entries match direct mapping")
    return 0


def cmd_map(args) -> int:
    _refuse_overwrite(
        args.out, {"--weights": args.weights, "--mask": args.mask, "--lut": args.lut}
    )
    layer = _load_weights(args.weights, args.bits, args.mode)
    mask = SafMask.load(args.mask)
    if (mask.rows, mask.cols, mask.bits) != (layer.rows, layer.cols, layer.bits):
        raise UsageError(
            f"--mask shape {(mask.rows, mask.cols, mask.bits)} does not match "
            f"--weights shape {(layer.rows, layer.cols, layer.bits)}"
        )
    if args.scheme == "signflip" and args.mode == MODE_UNSIGNED:
        raise UsageError("--scheme signflip requires --mode twos_complement")
    table = lut_mod.load_or_build(args.bits, args.mode, args.lut) if args.lut else None
    layout = build_layout(args.scheme, layer, mask, args.row_len, lut=table)
    layout.save(args.out, extra={"config": _provenance(args, skip=("out",))})
    _, total = mapping.mapping_error(layout, layer)
    print(f"wrote {args.scheme} layout to {args.out} (total |error| = {total})")
    return 0


def cmd_mvm(args) -> int:
    _refuse_overwrite(
        args.out, {"--layout": args.layout, "--activations": args.activations}
    )
    layout = MappedLayout.load(args.layout)
    activations = ActivationVector.load(args.activations)
    cfg = CrossbarConfig(
        row_len=layout.row_len,
        weight_bits=layout.bits,
        activation_bits=activations.bits,
        weight_mode=layout.mode,
        activation_mode=activations.mode,
    )
    outputs = mvm_simulate(layout, activations, cfg)
    Path(args.out).write_text(json.dumps([int(v) for v in outputs]))
    print(f"wrote {outputs.size} outputs to {args.out}")
    return 0


def cmd_train_toy(args) -> int:
    model = train_toy(seed=args.seed)
    model.save(args.out, extra={"config": _provenance(args, skip=("out",))})
    print(
        f"wrote {len(model.layers)}-layer model "
        f"({model.input_dim} -> {model.classes}) to {args.out}"
    )
    return 0


def cmd_eval(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    json_path = Path(args.out)
    csv_path = json_path.with_suffix(".csv")
    _refuse_overwrite(args.out, {"--model": args.model}, twin=csv_path)
    model = ToyModel.load(args.model)
    spec = harness.SweepSpec(
        rates=tuple(args.rates),
        trials=args.trials,
        schemes=tuple(args.schemes),
        base_seed=args.seed,
        sa1_fraction=args.sa1_frac,
        row_len=args.row_len,
        weight_bits=args.bits,
        act_bits=args.act_bits,
    )
    report = harness.run_sweep(model, spec, dataset_seed=args.dataset_seed)
    report.config["tool"] = f"safmap {__version__}"
    report.save(json_path, csv_path)
    print(f"wrote report to {json_path} and {csv_path}")
    for row in report.results:
        print(
            f"  rate={row.rate:<6g} scheme={row.scheme:<9} "
            f"acc={row.mean_acc:.4f}±{row.std_acc:.4f} "
            f"|werr|={row.mean_abs_weight_err:.4f}"
        )
    return 0


def cmd_bench(args) -> int:
    rows, cols = args.dims
    results = harness.bench_lut(
        rows=rows,
        cols=cols,
        bits=args.bits,
        rate=args.rate,
        repeats=args.repeats,
        row_len=args.row_len,
        seed=args.seed,
    )
    print(f"{'scheme':<10} {'direct (s)':>12} {'lut (s)':>12} {'speedup':>9}")
    for scheme, r in results.items():
        print(
            f"{scheme:<10} {r['direct_seconds']:>12.3f} "
            f"{r['lut_seconds']:>12.3f} {r['speedup']:>8.1f}x"
        )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """Invalid flag combination detected after argparse."""


def _probability(flag: str):
    def parse(text: str) -> float:
        value = float(text)
        if not 0.0 <= value <= 1.0:
            raise argparse.ArgumentTypeError(
                f"{flag} must be in [0, 1], got {value}"
            )
        return value

    return parse


def _width(text: str) -> int:
    value = int(text)
    if not 1 <= value <= numfmt.MAX_BITS:
        raise argparse.ArgumentTypeError(
            f"bit width must be in 1..{numfmt.MAX_BITS}, got {value}"
        )
    return value


def _dims(text: str) -> tuple[int, int]:
    try:
        rows, cols = (int(p) for p in text.lower().split("x"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("dims must look like 512x512") from exc
    if rows < 1 or cols < 1:
        raise argparse.ArgumentTypeError(f"dims must be at least 1x1, got {text}")
    return rows, cols


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rates_arg(text: str) -> list[float]:
    try:
        rates = parse_rates(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise argparse.ArgumentTypeError(f"--rates entry {rate} not in [0, 1]")
    if not rates:
        raise argparse.ArgumentTypeError(f"--rates {text!r} names no fault rate")
    return rates


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safmap",
        description="Stuck-at-fault aware weight mapping and crossbar simulation.",
    )
    parser.add_argument("--version", action="version", version=f"safmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inject", help="generate a random stuck-at-fault mask")
    p.add_argument("--rows", type=_positive, required=True)
    p.add_argument("--cols", type=_positive, required=True)
    p.add_argument("--bits", type=_width, required=True)
    p.add_argument("--rate", type=_probability("--rate"), required=True)
    p.add_argument("--sa1-frac", type=_probability("--sa1-frac"), default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("lut", help="build or verify the mapping table")
    lut_sub = p.add_subparsers(dest="lut_command", required=True)
    b = lut_sub.add_parser("build")
    b.add_argument("--bits", type=_width, required=True)
    b.add_argument("--mode", choices=(MODE_UNSIGNED, MODE_TWOS_COMPLEMENT),
                   default=MODE_TWOS_COMPLEMENT)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_lut_build)
    v = lut_sub.add_parser("verify")
    v.add_argument("--lut", required=True)
    v.add_argument("--samples", type=_positive, default=100_000)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_lut_verify)

    p = sub.add_parser("map", help="map a weight matrix against a fault mask")
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--row-len", type=_positive, default=64)
    p.add_argument("--bits", type=_width, required=True)
    p.add_argument("--mode", choices=(MODE_UNSIGNED, MODE_TWOS_COMPLEMENT),
                   default=MODE_TWOS_COMPLEMENT)
    p.add_argument("--lut", default=None,
                   help="table file to use (built and cached there if absent; "
                        "a table of another width or mode is refused)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("mvm", help="simulate one matrix-vector product")
    p.add_argument("--layout", required=True)
    p.add_argument("--activations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mvm)

    p = sub.add_parser("train-toy", help="train the built-in toy classifier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="Monte Carlo fault-injection sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--rates", type=_rates_arg, default=parse_rates("0:0.05:0.01"))
    p.add_argument("--trials", type=_positive, default=50)
    p.add_argument("--schemes", nargs="+", choices=SCHEMES, default=list(SCHEMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dataset-seed", type=int, default=0)
    p.add_argument("--sa1-frac", type=_probability("--sa1-frac"), default=0.5)
    p.add_argument("--row-len", type=_positive, default=64)
    p.add_argument("--bits", type=_width, default=8)
    p.add_argument("--act-bits", type=_width, default=8)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; it has no effect")
    p.add_argument("--out", required=True, help="report JSON path (CSV twin beside it)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "bench",
        help="time sign-flip and bit-flip mapping with and without the table",
        description="Time sign-flip and bit-flip mapping of one random layer. "
        "The 'direct' column runs without a table: the exhaustive per-word "
        "correction-word search, reading a table solved on demand for that "
        "call, which enumerates each distinct key once. The 'lut' column "
        "runs with the table and its subset-sum search.",
    )
    p.add_argument("--dims", type=_dims, default=(512, 512))
    p.add_argument("--bits", type=_width, default=8)
    p.add_argument("--rate", type=_probability("--rate"), default=0.05)
    p.add_argument("--repeats", type=_positive, default=5)
    p.add_argument("--row-len", type=_positive, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, lut_mod.LutMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
