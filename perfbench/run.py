"""Benchmark of the safmap package, run from the root of a checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Workloads (defined in perfbench/spec.json): ``sweep``, ``map512``,
``mvm512``, ``cli_io``.  Each is a closed loop with one client: the next
op starts when the previous one has finished and been checked.  Inputs
come from ``--seed``.  The run sets up ``setup_repeats`` times, then runs
ops for ``--seconds`` (at least the workload's ``min_ops``), checks every
op outside its timed region, and prints one JSON object as the last line:
with ``--trace 0`` the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, taken from an in-process run whose
safmap calls are wrapped by perfbench/tracing.py.  The traced run's spans
are written to .perfbench-work/traces/.

safmap is imported from ``src/`` of the checkout (it need not be
installed); child processes get it through PYTHONPATH.  The run and its
child processes are pinned to one CPU, and BLAS and OpenMP threads are
capped at the CPUs that leaves (one).

End-to-end throughput is ``items_per_ref``: items per reference unit, where
each op's seconds are divided by those of a fixed reference loop timed just
before and after it on the same CPU (see ``Reference``), which cancels most
of a shared host's drift.  The plain run prints ``items_per_s`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_to_one_cpu() -> int:
    """Run this process and the children it starts on one of its CPUs.

    On a shared host each CPU's speed changes by itself, so the reference
    and the op it is set against must run on the same CPU.  The ops run
    one at a time, so one CPU is all they use.  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the usable CPUs, here and in every child
    process."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def environment(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", "")
    max_threads = next(
        (w.split("=", 1)[1] for w in config.split() if w.startswith("MAX_THREADS=")),
        None,
    )
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_max_threads": max_threads,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb(fresh_process: bool) -> float:
    """Peak resident set of the process that ran the ops: the largest child
    when each op is a fresh process, else the benchmark process itself,
    whose peak also covers its set-up and the checks."""
    who = resource.RUSAGE_CHILDREN if fresh_process else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Reference:
    """A fixed piece of work that uses no safmap code, timed next to every
    op so that an op can be given in reference units.

    On a shared host the CPU's speed drifts by tens of per cent within
    minutes, and interpreter-bound code drifts more than array code.  So
    the reference is of the kind of work the workload's op does
    (``reference`` in spec.json): ``array`` is numpy gathers, bit operations
    and small integer matmuls on a few MB; ``mixed`` adds a pure-Python dict
    loop of about the same duration, for ops that also start interpreters
    and make many small calls.  Program changes cannot move its time; the
    host's speed moves it as it moves the op's.
    """

    KINDS = ("array", "mixed")

    def __init__(self, kind: str):
        import numpy as np

        if kind not in self.KINDS:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.mixed = kind == "mixed"
        rng = np.random.default_rng(0)
        self.codes = rng.integers(0, 1 << 16, 1 << 20).astype(np.uint16)
        self.table = rng.integers(0, 256, 1 << 16).astype(np.uint8)
        self.a = rng.integers(0, 256, (128, 128))
        self.b = rng.integers(0, 256, (128, 128))

    def seconds(self) -> float:
        start = time.perf_counter()
        if self.mixed:
            counts: dict[int, int] = {}
            for i in range(500_000):
                k = i % 1009
                counts[k] = counts.get(k, 0) + i
        for _ in range(16):
            self.table[self.codes].sum()
            ((self.codes >> 3) & 7).sum()
        for _ in range(8):
            self.a @ self.b
        return time.perf_counter() - start


class Run:
    """Set-up, op loop and checks shared by the plain and traced runs."""

    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0

    def setup(self, repeats: int, tracer=None) -> list[float]:
        """Set up ``repeats`` times; with a tracer, set-up is traced as
        op ``SETUP_OP``."""
        times = []
        for _ in range(repeats):
            if tracer is not None:
                tracer.op = tracing.SETUP_OP
            start = time.perf_counter()
            try:
                self.wl.setup()
            finally:
                if tracer is not None:
                    tracer.op = None
            times.append(time.perf_counter() - start)
        self.wl.after_setup()
        return times

    def op(self, i: int, in_process: bool, tracer=None) -> float | None:
        """Run, time and check op ``i``; its seconds, or None if it failed.
        With a tracer, only the timed region is traced, under op id ``i``."""
        inputs = self.wl.prepare(i)
        run = self.wl.run_in_process if in_process else self.wl.run
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            try:
                out = run(inputs)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.op = None
            problems = self.wl.check(i, inputs, out)
        except Exception:
            problems = [traceback.format_exc()]
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"op {i} FAILED: {p}", file=sys.stderr)
            return None
        return elapsed

    def loop(self, min_ops: int, step) -> None:
        """Call ``step(i)`` until ``seconds`` have passed and ``min_ops`` ran."""
        start = time.perf_counter()
        i = 0
        while i < min_ops or time.perf_counter() - start < self.seconds:
            step(i)
            i += 1


def plain_metrics(run: Run, repeats: int) -> dict[str, float]:
    wl = run.wl
    setup_times = run.setup(repeats)
    reference = Reference(wl.reference)
    ref_times = [reference.seconds()]
    op_times: list[float] = []
    op_refs: list[float] = []

    def step(i):
        t = run.op(i, in_process=False)
        ref_times.append(reference.seconds())
        if t is not None:
            op_times.append(t)
            # The op in reference units: its seconds over the mean of the
            # reference timed just before and just after it.
            op_refs.append(t / ((ref_times[-2] + ref_times[-1]) / 2))

    run.loop(wl.min_ops, step)
    q1, median, q3 = quartiles(op_times)
    u1, in_refs, u3 = quartiles(op_refs)
    items_per_s = wl.items_per_op / median if median > 0 else 0.0
    print(
        f"{wl.name}: {len(op_times)} ops ok, op seconds median {median:.4f} "
        f"(q1 {q1:.4f}, q3 {q3:.4f}), items_per_s {items_per_s:.4f}; "
        f"op in reference units median {in_refs:.4f} (q1 {u1:.4f}, q3 {u3:.4f}); "
        f"reference seconds median {statistics.median(ref_times):.4f}; "
        f"setup seconds {setup_times}"
    )
    return {
        "items_per_ref": wl.items_per_op / in_refs if in_refs > 0 else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(wl.fresh_process),
    }


def traced_metrics(
    run: Run, units: dict[str, str], spans_path: Path, env: dict
) -> dict[str, float]:
    """Alternate untraced and traced in-process ops; derive the per-layer
    metrics named in ``units`` (BENCHMARK.json's per_layer list).

    A name is read by its form: ``setup.<span>.s`` is the set-up's seconds
    in spans named ``<span>`` or ``<span>.*``; ``<span>.self_s`` and
    ``<span>.s`` are a traced op's self and inclusive seconds (median over
    traced ops); a ``count`` or ``B`` metric is the counter of that name in
    the first traced op (``<span>.calls`` included).  The metrics that are
    derived otherwise are computed below by name.
    """

    wl = run.wl
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run.setup(1, tracer)
        plain: list[float] = []
        traced: dict[int, float] = {}

        def step(i):
            t = run.op(i, in_process=True, tracer=tracer if i % 2 else None)
            if t is None:
                return
            if i % 2:
                traced[i] = t
            else:
                plain.append(t)

        run.loop(max(2, wl.min_ops), step)
    finally:
        tracer.restore()

    ops = sorted(traced)
    first = tracer.counts[ops[0]] if ops else {}
    inclusive = {op: tracer.inclusive_seconds(op) for op in ops}
    own = {op: tracer.self_seconds(op) for op in ops}
    setup = tracer.inclusive_seconds(tracing.SETUP_OP)
    med = tracing.median_over

    derived: dict[str, float] = {}
    for scheme in ("bitflip", "signflip"):
        groups = first.get(f"mapping.{scheme}.groups", 0)
        flipped = first.get(f"mapping.{scheme}.flipped_groups", 0)
        derived[f"mapping.{scheme}.flipped_share"] = flipped / groups if groups else 0.0
    mvm_s = [inclusive[op].get("crossbar.mvm_simulate_batch", 0.0) for op in ops]
    macs = [tracer.counts[op].get("crossbar.binary_macs", 0) for op in ops]
    derived["crossbar.binary_macs_per_s"] = med(
        [m / s for m, s in zip(macs, mvm_s) if s > 0]
    )
    derived["share.mapping"] = med(
        [
            sum(v for k, v in inclusive[op].items() if k.startswith("mapping.build_layout."))
            / traced[op]
            for op in ops
        ]
    )
    derived["share.crossbar"] = med([s / traced[op] for s, op in zip(mvm_s, ops)])
    derived["trace.op_s"] = med(list(traced.values()))
    derived["trace.untraced_op_s"] = med(plain)
    derived["trace.overhead"] = (
        derived["trace.op_s"] / derived["trace.untraced_op_s"] - 1.0
        if plain and traced
        else 0.0
    )
    derived["harness.bitflip_recovery"] = 0.0
    derived["process.start_s"] = 0.0
    derived["quality.err_per_weight"] = 0.0
    if run.failed == 0:
        derived["quality.err_per_weight"] = wl.err_per_weight()
        derived.update(wl.layer_extras())

    def layer_metric(name: str, unit: str) -> float:
        if name in derived:
            return derived[name]
        if name.startswith("setup.") and name.endswith(".s"):
            span = name[len("setup."):-len(".s")]
            return sum(
                (v for k, v in setup.items() if k == span or k.startswith(span + ".")),
                0.0,
            )
        if name.endswith(".self_s"):
            return med([own[op].get(name[: -len(".self_s")], 0.0) for op in ops])
        if name.endswith(".s"):
            return med([inclusive[op].get(name[: -len(".s")], 0.0) for op in ops])
        if unit in ("count", "B"):
            return first.get(name, 0)
        raise ValueError(f"no rule gives the per-layer metric {name!r}")

    metrics = {name: layer_metric(name, unit) for name, unit in units.items()}

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"env": env, "metrics": metrics, "spans": tracer.dump()})
    )
    print(f"{wl.name}: {len(ops)} traced ops, {len(plain)} untraced; spans in {spans_path}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:.6g}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "safmap" / "__init__.py").is_file():
        print(f"error: no safmap package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    nproc = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    cap_threads()
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    import workloads

    env = {**environment(nproc), "pinned_cpu": cpu}
    print("env " + json.dumps(env))
    workdir = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](
            spec["workloads"][args.workload], spec["common"], args.seed, workdir
        )
        run = Run(wl, args.seconds)
        if args.trace:
            spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            metrics = traced_metrics(run, units, spans, env)
        else:
            metrics = plain_metrics(run, spec["common"]["setup_repeats"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload}: attempted {run.attempted}, failed {run.failed}, "
        f"failed_ratio {run.failed / max(run.attempted, 1):.4f}"
    )
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
