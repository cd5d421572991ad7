"""Time each JSON file loader on the shapes of perfbench's cli_io workload.

Writes the four files that ``safmap map`` and ``safmap mvm`` read there
into a temporary directory: a 512x512 8-bit two's-complement weights
file, its fault mask at 5%, the cvm layout of the two (row length 64)
and a 512-element 8-bit unsigned activations file, all drawn from the
workload's random stream for the given seed.  Then, per loader, it prints
the minimum wall seconds of one load over the repeats, and the traced
(tracemalloc) peak of one more load, file read included:

    PYTHONPATH=src python tools/io_timing.py [--repeats 7] [--seed 1]

It calls only loaders that older trees have too, so running it once per
source tree compares them.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from safmap import cli
from safmap.crossbar import ActivationVector
from safmap.faults import SafMask, sample_saf_mask
from safmap.mapping import LayerWeights, MappedLayout, build_layout
from safmap.numfmt import MODE_TWOS_COMPLEMENT, MODE_UNSIGNED

ROWS, COLS, BITS, RATE, ROW_LEN = 512, 512, 8, 0.05, 64
CLI_IO_STREAM = 4  # perfbench's random stream of the cli_io workload


def write_files(root: Path, seed: int) -> dict[str, Path]:
    rng = np.random.default_rng([seed, CLI_IO_STREAM])
    codes = rng.integers(0, 1 << BITS, size=(ROWS, COLS)).astype(np.uint16)
    layer = LayerWeights(codes, BITS, MODE_TWOS_COMPLEMENT)
    mask = sample_saf_mask(rng, (ROWS, COLS, BITS), RATE)
    acts = ActivationVector(rng.integers(0, 1 << BITS, size=ROWS), BITS, MODE_UNSIGNED)
    paths = {name: root / f"{name}.json" for name in ("mask", "weights", "layout", "activations")}
    mask.save(paths["mask"])
    paths["weights"].write_text(
        json.dumps({"rows": ROWS, "cols": COLS, "values": layer.values().ravel().tolist()})
    )
    build_layout("cvm", layer, mask, ROW_LEN).save(paths["layout"])
    paths["activations"].write_text(json.dumps(acts.to_json_dict()))
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp), args.seed)
        loaders = {
            "mask": lambda: SafMask.load(paths["mask"]),
            "weights": lambda: cli._load_weights(paths["weights"], BITS, MODE_TWOS_COMPLEMENT),
            "layout": lambda: MappedLayout.load(paths["layout"]),
            "activations": lambda: ActivationVector.load(paths["activations"]),
        }
        print(f"{'loader':<12} {'bytes':>9} {'min_s':>8} {'peak_MiB':>9}")
        for name, load in loaders.items():
            seconds = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                load()
                seconds.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                load()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = paths[name].stat().st_size
            print(f"{name:<12} {size:>9} {min(seconds):>8.4f} {peak / 2**20:>9.2f}")


if __name__ == "__main__":
    main()
