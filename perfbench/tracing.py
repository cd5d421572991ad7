"""In-process tracer for the benchmark's traced runs.

The tracer wraps public functions of ``safmap`` at every name their callers
bind them under (``safmap.harness.build_layout`` as well as
``safmap.mapping.build_layout``, methods on their classes), so the package
source is untouched.  Each wrapped call records a span (name, start, end,
parent, op id) and its counts.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import pathlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

SETUP_OP = "setup"


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts while ``op`` is set; passes through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[object, dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.op: object = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.op is not None:
            self.counts[self.op][name] += amount

    def wrap(self, fn, name, counter=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments, ``counter(tracer, args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, label, start, end, parent, self.op)
            self.count(f"{label}.calls")
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, bindings, name, counter=None) -> None:
        """Replace one function at every ``(module, attr)`` that binds it."""
        first_mod, first_attr = bindings[0]
        original = getattr(first_mod, first_attr)
        for mod, attr in bindings:
            if getattr(mod, attr) is not original:
                raise RuntimeError(
                    f"{mod.__name__}.{attr} is not {first_mod.__name__}."
                    f"{first_attr}; the trace bindings are out of date"
                )
        wrapper = self.wrap(original, name, counter)
        for mod, attr in bindings:
            self._set(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name, counter=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(raw.__func__, name, counter)))
        else:
            self._set(cls, attr, self.wrap(raw, name, counter))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def op_spans(self, op) -> list[Span]:
        return [s for s in self.spans if s is not None and s.op == op]

    def inclusive_seconds(self, op) -> dict[str, float]:
        """Seconds per span name; a span nested in one of the same name
        is already covered by its ancestor and is not added again."""
        spans = self.op_spans(op)
        by_id = {s.sid: s for s in spans}
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            parent = by_id.get(s.parent)
            nested = False
            while parent is not None:
                if parent.name == s.name:
                    nested = True
                    break
                parent = by_id.get(parent.parent)
            if not nested:
                out[s.name] += s.seconds
        return out

    def self_seconds(self, op) -> dict[str, float]:
        """Span duration minus the part its direct children cover."""
        spans = self.op_spans(op)
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s.name] += s.seconds - child_time[s.sid]
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
            }
            for s in self.spans
            if s is not None
        ]


def median_over(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Bindings of the safmap public functions the traced run wraps.
# ---------------------------------------------------------------------------


def _count_layout(tracer: Tracer, args, kwargs, layout) -> None:
    chunks, cols = layout.col_flip.shape
    if layout.scheme == "bitflip":
        flipped = int((layout.flip_masks() != 0).sum())
    elif layout.scheme == "signflip":
        flipped = int(layout.col_flip.sum())
    else:
        return
    tracer.count(f"mapping.{layout.scheme}.flipped_groups", flipped)
    tracer.count(f"mapping.{layout.scheme}.groups", chunks * cols)


def _count_map_codes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("lut.keys_looked_up", result.size)


def _count_mvm(tracer: Tracer, args, kwargs, result) -> None:
    layout, act_codes, cfg = args
    batch = act_codes.shape[0]
    planes = cfg.weight_bits * cfg.activation_bits
    tracer.count("crossbar.bit_matmuls", layout.geometry.num_chunks * planes)
    tracer.count("crossbar.binary_macs", batch * layout.rows * layout.cols * planes)


def _scheme_name(args, kwargs) -> str:
    scheme = kwargs.get("scheme", args[0] if args else None)
    return f"mapping.build_layout.{scheme}"


def _io_counter(key: str):
    def counter(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(key, os.stat(args[0]).st_size)

    return counter


def install(tracer: Tracer) -> None:
    """Wrap the safmap functions the per-layer metrics are taken from."""
    import safmap.cli as cli
    import safmap.crossbar as crossbar
    import safmap.faults as faults
    import safmap.harness as harness
    import safmap.lut as lut
    import safmap.mapping as mapping
    import safmap.quant as quant
    import safmap.toymodel as toymodel

    tracer.patch_function(
        [(mapping, "build_layout"), (harness, "build_layout"), (cli, "build_layout")],
        _scheme_name,
        _count_layout,
    )
    tracer.patch_function(
        [(crossbar, "mvm_simulate_batch"), (harness, "mvm_simulate_batch")],
        "crossbar.mvm_simulate_batch",
        _count_mvm,
    )
    tracer.patch_method(lut.CvmLut, "map_codes", "lut.map_codes", _count_map_codes)
    tracer.patch_function(
        [(lut, "build_cvm_lut"), (harness, "build_cvm_lut")], "lut.build_cvm_lut"
    )
    tracer.patch_function([(lut, "read_lut")], "lut.read_lut")
    tracer.patch_function(
        [(faults, "sample_saf_mask"), (harness, "sample_saf_mask")],
        "faults.sample_saf_mask",
    )
    tracer.patch_function(
        [(faults, "count_unmasked"), (harness, "count_unmasked")],
        "faults.count_unmasked",
    )
    tracer.patch_method(faults.SafMask, "packed", "faults.packed")
    tracer.patch_method(faults.SafMask, "load", "faults.SafMask.load")
    tracer.patch_method(
        mapping.MappedLayout, "effective_values", "mapping.effective_values"
    )
    tracer.patch_method(mapping.MappedLayout, "save", "mapping.MappedLayout.save")
    tracer.patch_method(mapping.MappedLayout, "load", "mapping.MappedLayout.load")
    tracer.patch_function([(harness, "run_sweep")], "harness.run_sweep")
    tracer.patch_function([(harness, "run_inference")], "harness.run_inference")
    tracer.patch_function(
        [(toymodel, "train_toy"), (cli, "train_toy")], "toymodel.train_toy"
    )
    tracer.patch_function(
        [(toymodel, "quantize_model"), (harness, "quantize_model")],
        "toymodel.quantize_model",
    )
    tracer.patch_function(
        [(quant, "quantize"), (harness, "quantize"), (toymodel, "quantize")],
        "quant.quantize",
    )
    tracer.patch_function([(cli, "main")], "cli.main")

    # Every file safmap reads or writes goes through these pathlib methods.
    path_cls = pathlib.Path
    for attr, span, key in (
        ("read_text", "io.read", "io.bytes_read"),
        ("read_bytes", "io.read", "io.bytes_read"),
        ("write_text", "io.write", "io.bytes_written"),
        ("write_bytes", "io.write", "io.bytes_written"),
    ):
        tracer.patch_method(path_cls, attr, span, _io_counter(key))
