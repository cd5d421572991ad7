"""The benchmark's four workloads.

Each workload builds its inputs from the benchmark seed, sets up once per
set-up repeat, and then runs ops.  ``run`` is the op as users run it (a
fresh process for ``sweep`` and ``cli_io``); ``run_in_process`` is the same
op inside the benchmark process, which the traced run uses.  ``check``
runs outside the timed region and returns the problems it finds.

safmap functions are called through their modules (``mapping.build_layout``)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import safmap.cli as cli
import safmap.crossbar as crossbar
import safmap.faults as faults
import safmap.harness as harness
import safmap.lut as lut
import safmap.mapping as mapping
import safmap.toymodel as toymodel

CLI_PRELUDE = "import sys; from safmap.cli import main; sys.exit(main())"
# A child that runs longer is killed and its op counts as failed, so a run
# always ends in bounded time.
CHILD_TIMEOUT_S = 60

# Distinct seed streams per workload, so two workloads never share inputs.
_STREAMS = {"sweep": 1, "map512": 2, "mvm512": 3, "cli_io": 4}


@contextlib.contextmanager
def _in_dir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _run_cli(argv: list[str], cwd: Path) -> tuple[int, str]:
    """One safmap command in a fresh interpreter, as users run it."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PRELUDE, *argv],
        cwd=cwd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stderr


def _main_in_process(argv: list[str], cwd: Path) -> tuple[int, str]:
    """The same command through ``safmap.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with _in_dir(cwd), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def process_start_seconds() -> float:
    """Median of three times a fresh interpreter takes to import ``safmap.cli``."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import safmap.cli"], check=True, timeout=CHILD_TIMEOUT_S
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Workload:
    name = ""
    # True when ``run`` starts fresh processes, so that only they run ops.
    fresh_process = False

    def __init__(self, spec: dict, common: dict, seed: int, workdir: Path):
        self.inputs = spec["inputs"]
        self.bits = common["bits"]
        self.mode = common["mode"]
        self.row_len = common["row_len"]
        self.rate = common["rate"]
        self.seed = seed
        self.dir = workdir
        self.min_ops = spec["min_ops"]
        self.items_per_op = spec["items_per_op"]
        self.reference = spec["reference"]

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, _STREAMS[self.name], *stream])

    def random_layer(self, rng: np.random.Generator) -> tuple:
        """Uniform random weight codes and an i.i.d. fault mask."""
        shape = (self.inputs["rows"], self.inputs["cols"])
        codes = rng.integers(0, 1 << self.bits, size=shape).astype(np.uint16)
        layer = mapping.LayerWeights(codes, self.bits, self.mode)
        mask = faults.sample_saf_mask(rng, (*shape, self.bits), self.rate)
        return layer, mask

    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed preparation of reference values for the checks."""

    def prepare(self, i: int):
        return None

    def run(self, inputs):
        return self.run_in_process(inputs)

    def run_in_process(self, inputs):
        raise NotImplementedError

    def check(self, i: int, inputs, out) -> list[str]:
        raise NotImplementedError

    def err_per_weight(self) -> float:
        raise NotImplementedError

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values the workload computes itself."""
        return {}


def _error_order(errs: dict[str, np.ndarray]) -> list[str]:
    """Paired dominance: bitflip <= cvm <= naive and signflip <= cvm."""
    pairs = [("bitflip", "cvm"), ("cvm", "naive"), ("signflip", "cvm")]
    return [
        f"{low} error exceeds {high} error"
        for low, high in pairs
        if np.any(np.asarray(errs[low]) > np.asarray(errs[high]))
    ]


class Sweep(Workload):
    name = "sweep"
    fresh_process = True

    def setup(self) -> None:
        self.model = toymodel.train_toy(seed=self.inputs["toy_model_seed"])
        self.model.save(self.dir / "model.json")

    def after_setup(self) -> None:
        self.argv = [
            "eval", "--model", "model.json",
            "--rates", self.inputs["rates"],
            "--trials", str(self.inputs["trials"]),
            "--schemes", *self.inputs["schemes"],
            "--jobs", str(self.inputs["jobs"]),
            "--seed", str(self.seed),
            "--dataset-seed", str(self.inputs["toy_model_seed"]),
            "--out", "report.json",
        ]
        self.first_report = None

    def prepare(self, i: int):
        (self.dir / "report.json").unlink(missing_ok=True)

    def run(self, inputs):
        return _run_cli(self.argv, self.dir)

    def run_in_process(self, inputs):
        return _main_in_process(self.argv, self.dir)

    def check(self, i, inputs, out) -> list[str]:
        code, stderr = out
        if code != 0:
            return [f"eval exited {code}: {stderr.strip()[-500:]}"]
        results = json.loads((self.dir / "report.json").read_text())["results"]
        for row in results:
            row.pop("map_seconds")
        problems = []
        if self.first_report is None:
            self.first_report = results
        elif results != self.first_report:
            problems.append("report differs from the first report of this seed")
        for rate in {row["rate"] for row in results}:
            errs = {
                row["scheme"]: row["mean_abs_weight_err"]
                for row in results
                if row["rate"] == rate
            }
            problems += [f"rate {rate}: {p}" for p in _error_order(errs)]
        return problems

    def _at_top_rate(self) -> dict[str, dict]:
        top = max(row["rate"] for row in self.first_report)
        return {r["scheme"]: r for r in self.first_report if r["rate"] == top}

    def err_per_weight(self) -> float:
        return self._at_top_rate()["bitflip"]["mean_abs_weight_err"]

    def layer_extras(self) -> dict[str, float]:
        """Share of cvm's accuracy drop that bitflip recovers at the top rate."""
        spec = harness.SweepSpec(weight_bits=self.bits, act_bits=self.bits)
        base = harness.quantized_baseline_accuracy(
            self.model, spec, dataset_seed=self.inputs["toy_model_seed"]
        )
        rows = self._at_top_rate()
        drop = base - rows["cvm"]["mean_acc"]
        gain = rows["bitflip"]["mean_acc"] - rows["cvm"]["mean_acc"]
        return {
            "harness.bitflip_recovery": gain / drop if drop > 0 else 0.0,
            "process.start_s": process_start_seconds(),
        }


class Map512(Workload):
    name = "map512"

    def setup(self) -> None:
        self.table = lut.build_cvm_lut(self.bits, self.mode)

    def after_setup(self) -> None:
        self.errors: list[float] = []

    def prepare(self, i: int):
        return self.random_layer(self.rng(i))

    def run_in_process(self, inputs):
        layer, mask = inputs
        return {
            scheme: mapping.build_layout(
                scheme, layer, mask, self.row_len, lut=self.table
            )
            for scheme in mapping.SCHEMES
        }

    def check(self, i, inputs, layouts) -> list[str]:
        layer, mask = inputs
        sa0, sa1 = mask.packed()
        problems = []
        errs = {}
        for scheme, layout in layouts.items():
            stored = layout.stored
            if np.any((stored & sa1) != sa1) or np.any(stored & sa0):
                problems.append(f"{scheme}: stored code violates a stuck bit")
            errs[scheme], total = mapping.mapping_error(layout, layer)
            if scheme == "bitflip" and i < self.min_ops:
                self.errors.append(total / layer.codes.size)
        problems += _error_order(errs)

        # Decisions are per (chunk, column), so one chunk x some columns
        # mapped alone with the direct engine must agree exactly.
        block = self.inputs["check_block"]
        pick = self.rng(i, 1)
        chunk = int(pick.integers(layer.rows // self.row_len))
        cols = np.sort(pick.choice(layer.cols, size=block["cols"], replace=False))
        rows = slice(chunk * self.row_len, chunk * self.row_len + block["rows"])
        sub_layer = mapping.LayerWeights(layer.codes[rows][:, cols], self.bits, self.mode)
        sub_mask = faults.SafMask(mask.cells[rows][:, cols])
        for scheme, layout in layouts.items():
            ref = mapping.build_layout(scheme, sub_layer, sub_mask, self.row_len, lut=None)
            same = (
                np.array_equal(ref.stored, layout.stored[rows][:, cols])
                and np.array_equal(ref.col_flip[0], layout.col_flip[chunk, cols])
                and np.array_equal(ref.b_flip[:, 0], layout.b_flip[:, chunk, cols])
            )
            if not same:
                problems.append(f"{scheme}: differs from the direct engine on chunk {chunk}")
        return problems

    def err_per_weight(self) -> float:
        return float(np.mean(self.errors))


class Mvm512(Workload):
    name = "mvm512"

    def setup(self) -> None:
        table = lut.build_cvm_lut(self.bits, self.mode)
        self.layer, mask = self.random_layer(self.rng())
        self.layout = mapping.build_layout(
            "bitflip", self.layer, mask, self.row_len, lut=table
        )
        self.cfg = crossbar.CrossbarConfig(
            row_len=self.row_len,
            weight_bits=self.bits,
            activation_bits=self.inputs["activation_bits"],
            weight_mode=self.mode,
            activation_mode=self.inputs["activation_mode"],
        )

    def after_setup(self) -> None:
        self.effective = self.layout.effective_values()

    def prepare(self, i: int):
        hi = 1 << self.inputs["activation_bits"]
        return self.rng(i).integers(0, hi, size=(self.inputs["batch"], self.layer.rows))

    def run_in_process(self, act_codes):
        return crossbar.mvm_simulate_batch(self.layout, act_codes, self.cfg)

    def check(self, i, act_codes, out) -> list[str]:
        expected = crossbar.mvm_exact(self.effective, act_codes)
        return [] if np.array_equal(out, expected) else ["simulator output != mvm_exact"]

    def err_per_weight(self) -> float:
        return float(np.abs(self.effective - self.layer.values()).mean())


class CliIo(Workload):
    name = "cli_io"
    fresh_process = True

    MAP_ARGV = [
        "map", "--scheme", "cvm", "--weights", "w.json", "--mask", "mask.json",
        "--lut", "n8.lut", "--out", "layout.json",
    ]
    MVM_ARGV = ["mvm", "--layout", "layout.json", "--activations", "a.json", "--out", "y.json"]

    def setup(self) -> None:
        rng = self.rng()
        self.layer, self.mask = self.random_layer(rng)
        values = self.layer.values()
        (self.dir / "w.json").write_text(
            json.dumps(
                {"rows": self.layer.rows, "cols": self.layer.cols,
                 "values": values.ravel().tolist()}
            )
        )
        self.mask.save(self.dir / "mask.json")
        act_bits = self.inputs["activation_bits"]
        self.act = crossbar.ActivationVector(
            rng.integers(0, 1 << act_bits, size=self.layer.rows),
            act_bits,
            self.inputs["activation_mode"],
        )
        (self.dir / "a.json").write_text(json.dumps(self.act.to_json_dict()))
        self.table = lut.build_cvm_lut(self.bits, self.mode)
        lut.write_lut(self.table, self.dir / "n8.lut")

    def after_setup(self) -> None:
        self.map_argv = self.MAP_ARGV + [
            "--bits", str(self.bits), "--mode", self.mode, "--row-len", str(self.row_len),
        ]
        # The direct engine is the reference, so a wrong LUT file shows too.
        self.expected = mapping.build_layout(
            self.inputs["scheme"], self.layer, self.mask, self.row_len, lut=None
        )
        self.error = None

    def prepare(self, i: int):
        for name in ("layout.json", "y.json"):
            (self.dir / name).unlink(missing_ok=True)

    def _both(self, call):
        code, err = call(self.map_argv, self.dir)
        if code != 0:
            return code, err
        return call(self.MVM_ARGV, self.dir)

    def run(self, inputs):
        return self._both(_run_cli)

    def run_in_process(self, inputs):
        return self._both(_main_in_process)

    def check(self, i, inputs, out) -> list[str]:
        code, stderr = out
        if code != 0:
            return [f"exited {code}: {stderr.strip()[-500:]}"]
        layout = mapping.MappedLayout.load(self.dir / "layout.json")
        effective = layout.effective_values()
        problems = []
        if not np.array_equal(layout.stored, self.expected.stored):
            problems.append("saved layout differs from the direct-engine mapping")
        y = json.loads((self.dir / "y.json").read_text())
        if y != (self.act.values @ effective).tolist():
            problems.append("y.json != a @ effective_values of the saved layout")
        if self.error is None:
            self.error = float(np.abs(effective - self.layer.values()).mean())
        return problems

    def err_per_weight(self) -> float:
        return self.error

    def layer_extras(self) -> dict[str, float]:
        return {"process.start_s": process_start_seconds()}


WORKLOADS = {cls.name: cls for cls in (Sweep, Map512, Mvm512, CliIo)}
