"""Time each file loader, and the mask and layout writers, on the shapes
of perfbench's cli_io workload.

Writes the five files that ``safmap map`` and ``safmap mvm`` read there
into a temporary directory: a 512x512 8-bit two's-complement weights
file, its fault mask at 5%, the cvm layout of the two (row length 64)
and a 512-element 8-bit unsigned activations file, all drawn from the
workload's random stream for the given seed, and the 8-bit
two's-complement mapping table that ``lut.read_lut`` reads.  Then, per
loader and per writer (``SafMask.save`` and ``MappedLayout.save``, each
with a ``config`` object as the CLI adds), it prints the minimum wall
seconds of one call over the repeats, and the traced (tracemalloc) peak
of one more call, file read or write included:

    PYTHONPATH=src python tools/io_timing.py [--repeats 7] [--seed 1]

It calls only loaders and writers that older trees have too, so running
it once per source tree compares them.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from safmap import cli, lut
from safmap.crossbar import ActivationVector
from safmap.faults import SafMask, sample_saf_mask
from safmap.mapping import LayerWeights, MappedLayout, build_layout
from safmap.numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED

ROWS, COLS, BITS, RATE, ROW_LEN = 512, 512, 8, 0.05, 64
CLI_IO_STREAM = 4  # perfbench's random stream of the cli_io workload


def write_files(root: Path, seed: int) -> tuple[dict[str, Path], SafMask, MappedLayout]:
    rng = np.random.default_rng([seed, CLI_IO_STREAM])
    codes = rng.integers(0, 1 << BITS, size=(ROWS, COLS)).astype(np.uint16)
    layer = LayerWeights(codes, BITS, MODE_TWOS_COMPLEMENT)
    mask = sample_saf_mask(rng, (ROWS, COLS, BITS), RATE)
    acts = ActivationVector(rng.integers(0, 1 << BITS, size=ROWS), BITS, MODE_UNSIGNED)
    paths = {name: root / f"{name}.json" for name in ("mask", "weights", "layout", "activations")}
    paths["lut"] = root / "n8.lut"
    lut.write_lut(lut.build_cvm_lut(BITS, MODE_TWOS_COMPLEMENT), paths["lut"])
    mask.save(paths["mask"])
    paths["weights"].write_text(
        json.dumps({"rows": ROWS, "cols": COLS, "values": layer.values().ravel().tolist()})
    )
    layout = build_layout("cvm", layer, mask, ROW_LEN)
    layout.save(paths["layout"])
    paths["activations"].write_text(json.dumps(acts.to_json_dict()))
    return paths, mask, layout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths, mask, layout = write_files(Path(tmp), args.seed)
        out = Path(tmp) / "out.json"
        extra = {"config": {"tool": "io_timing", "seed": args.seed}}
        loaders = {
            "mask": lambda: SafMask.load(paths["mask"]),
            "weights": lambda: cli._load_weights(paths["weights"], BITS, MODE_TWOS_COMPLEMENT),
            "layout": lambda: MappedLayout.load(paths["layout"]),
            "activations": lambda: ActivationVector.load(paths["activations"]),
            "lut": lambda: lut.read_lut(paths["lut"]),
        }
        writers = {
            "mask": lambda: mask.save(out, extra=extra),
            "layout": lambda: layout.save(out, extra=extra),
        }
        steps = [(f"load {name}", call, paths[name]) for name, call in loaders.items()]
        steps += [(f"save {name}", call, out) for name, call in writers.items()]
        print(f"{'step':<17} {'bytes':>9} {'min_s':>8} {'peak_MiB':>9}")
        for name, step, path in steps:
            seconds = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                step()
                seconds.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = path.stat().st_size
            print(f"{name:<17} {size:>9} {min(seconds):>8.4f} {peak / 2**20:>9.2f}")


if __name__ == "__main__":
    main()
