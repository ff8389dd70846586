"""Span tracing from outside the program.

The tracer wraps public functions and methods of `brainvis_forge` by replacing
the module and class attributes that callers look up, so no file of the
program changes.  A function imported by name into another module
(`from ..autodiff import backward`) is replaced there too.  Spans are kept in
memory and written out when the benchmark ends; per-layer metrics are derived
from them afterwards.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("data", "autodiff", "lmm", "freq", "fusion", "align", "diffusion", "metrics", "pipeline")
PIPELINE_STAGES = (
    "gen_data", "train_lmm", "train_freq", "finetune_tfe",
    "train_align", "train_diffusion", "generate", "evaluate",
)
# A top-level span must account for at least this share of a traced body.
MIN_BODY_COVERAGE = 0.9

SPAN_FIELDS = ("name", "start", "end", "parent", "taped", "phase")


def _owner(spec: str):
    """The module, or the class in it, named by "package.module" or "package.module:Class"."""
    module_name, _, class_name = spec.partition(":")
    module = importlib.import_module(f"brainvis_forge.{module_name}")
    return getattr(module, class_name) if class_name else module


def _targets():
    """(owner, attribute, span name, before hook, after hook) for every traced boundary."""
    from brainvis_forge.autodiff.tensor import active_tape

    def count_tape(counts, args, kwargs):
        entries = active_tape().entries
        counts["autodiff.tape.entries"] += len(entries)
        counts["autodiff.tape.bytes"] += sum(e.output.data.nbytes for e in entries)

    def count_trials(counts, args, kwargs):
        counts["freq.spectra.trials"] += len(args[0])

    def count_checkpoint_bytes(counts, args, kwargs):
        counts["pipeline.checkpoint.bytes"] += os.path.getsize(args[0])

    plain = [
        ("pipeline.checkpoint", "load_checkpoint", "pipeline.load_checkpoint"),
        ("data.synthetic", "generate_synthetic", "data.generate_synthetic"),
        ("data.bvd", "load_dataset", "data.load_dataset"),
        ("lmm.train", "prepare_units", "data.prepare_units"),
        ("autodiff.optim", "adam_step", "autodiff.adam_step"),
        ("lmm.train", "lmm_step", "lmm.lmm_step"),
        ("lmm.model:Teacher", "update", "lmm.teacher_update"),
        ("freq.train", "freq_classify_train", "freq.freq_classify_train"),
        ("freq.fft", "fft_magnitude", "freq.fft_magnitude"),
        ("autodiff.nn:LstmEncoder", "__call__", "freq.lstm_forward"),
        ("fusion.train", "finetune_tfe", "fusion.finetune_tfe"),
        ("fusion.train", "classify_batch", "fusion.classify_batch"),
        ("align.train", "train_align", "align.train_align"),
        ("align.model", "align", "align.align"),
        ("diffusion.ddpm", "train_denoiser", "diffusion.train_denoiser"),
        ("diffusion.ddpm", "reverse_step", "diffusion.reverse_step"),
        ("diffusion.denoiser:DenoiserNet", "predict", "diffusion.predict"),
        ("diffusion.cascade", "generate_samples", "diffusion.generate_samples"),
        ("diffusion.ppm", "write_ppm", "diffusion.write_ppm"),
        ("metrics.surrogate", "train_surrogate", "metrics.train_surrogate"),
        ("metrics.report", "evaluate_generation", "metrics.evaluate_generation"),
    ]
    targets = [("pipeline.runner", f"run_{stage}", f"pipeline.{stage}", None, None) for stage in PIPELINE_STAGES]
    targets += [
        ("pipeline.checkpoint", "save_checkpoint", "pipeline.save_checkpoint", None, count_checkpoint_bytes),
        ("autodiff.tensor", "backward", "autodiff.backward", count_tape, None),
        ("freq.train", "spectra_matrix", "freq.spectra_matrix", count_trials, None),
    ]
    targets += [(owner, attr, name, None, None) for owner, attr, name in plain]
    return [(_owner(owner), attr, name, before, after) for owner, attr, name, before, after in targets]


class Tracer:
    """Records spans (name, start, end, parent, taped, phase) while installed.

    `names`, when given, limits the tracer to those span names.
    """

    def __init__(self, names: set[str] | None = None):
        self.names = names
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        from brainvis_forge.autodiff.tensor import active_tape

        tape = active_tape()
        for owner, attr, name, before, after in _targets():
            if self.names is not None and name not in self.names:
                continue
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, tape, before, after)
            for holder in self._holders(owner, attr, original):
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    @staticmethod
    def _holders(owner, attr: str, original) -> list:
        if isinstance(owner, type):
            return [owner]
        return [
            module for name, module in sorted(sys.modules.items())
            if name.startswith("brainvis_forge") and getattr(module, attr, None) is original
        ]

    def _wrap(self, fn, name: str, tape, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tape.enabled, self.phase]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if after is not None:
                    after(counts, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": self.spans, "counts": dict(self.counts)}))

    def seconds(self, name: str, since: int = 0) -> float:
        """Total duration of the `name` spans recorded from index `since` on."""
        return sum(s[2] - s[1] for s in self.spans[since:] if s[0] == name)


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("ms_p50"):
        return "ms"
    if metric.endswith(("bytes", "bytes_per_step")):
        return "B"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith(("calls", "entries_per_step", "spans")):
        return "count"
    if metric.endswith("coverage"):
        return "ratio"
    return "s"


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _step_durations(spans: list[list], starts, end_name: str) -> list[float]:
    """Training-step times: from a taped forward span to the next `end_name` span's end.

    `starts` decides whether a span opens a step; spans run in one thread, so
    their list order is their start order.
    """
    out, opened = [], None
    for span in spans:
        if starts(span):
            opened = span[1] if opened is None else opened
        elif span[0] == end_name and opened is not None:
            out.append(span[2] - opened)
            opened = None
    return out


def layer_metrics(tracer: Tracer, body_start: float, body_wall_s: float) -> dict[str, float]:
    """Per-layer metrics over every span the tracer recorded.

    `trace.body_coverage` is the share of the timed body, which started at
    `body_start`, that top-level spans cover.
    """
    spans = tracer.spans
    durations: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for span in spans:
        durations[span[0]].append(span[2] - span[1])
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    total = defaultdict(float, {name: sum(d) for name, d in durations.items()})
    calls = Counter({name: len(d) for name, d in durations.items()})
    self_time: dict[str, float] = defaultdict(float)
    for span, children in zip(spans, child_time):
        self_time[span[0].split(".")[0]] += (span[2] - span[1]) - children

    names = [s[0] for s in spans]
    lmm_steps = _step_durations(spans, lambda s: s[0] == "lmm.lmm_step" and s[4], "lmm.teacher_update")
    freq_parent_ok = {-1} | {i for i, n in enumerate(names) if n == "freq.freq_classify_train"}
    freq_steps = _step_durations(
        spans, lambda s: s[0] == "freq.lstm_forward" and s[4] and s[3] in freq_parent_ok, "autodiff.adam_step"
    )
    backward_calls = calls["autodiff.backward"]
    body_end = body_start + body_wall_s
    top_level_body = sum(s[2] - s[1] for s in spans if s[3] == -1 and s[1] >= body_start and s[2] <= body_end)

    m: dict[str, float] = {}
    for stage in PIPELINE_STAGES:
        m[f"pipeline.{stage}.s"] = total[f"pipeline.{stage}"]
    m["pipeline.save_checkpoint.s"] = total["pipeline.save_checkpoint"]
    m["pipeline.load_checkpoint.s"] = total["pipeline.load_checkpoint"]
    m["pipeline.checkpoint.bytes"] = tracer.counts["pipeline.checkpoint.bytes"]
    m["autodiff.backward.calls"] = backward_calls
    m["autodiff.backward.s"] = total["autodiff.backward"]
    m["autodiff.adam_step.calls"] = calls["autodiff.adam_step"]
    m["autodiff.adam_step.s"] = total["autodiff.adam_step"]
    m["autodiff.tape.entries_per_step"] = tracer.counts["autodiff.tape.entries"] / max(backward_calls, 1)
    m["autodiff.tape.bytes_per_step"] = tracer.counts["autodiff.tape.bytes"] / max(backward_calls, 1)
    m["lmm.lmm_step.ms_p50"] = _p50_ms(durations["lmm.lmm_step"])
    m["lmm.train_step.ms_p50"] = _p50_ms(lmm_steps)
    m["lmm.teacher_update.ms_p50"] = _p50_ms(durations["lmm.teacher_update"])
    m["freq.spectra_matrix.s"] = total["freq.spectra_matrix"]
    m["freq.fft_magnitude.calls"] = calls["freq.fft_magnitude"]
    m["freq.spectra.trials_per_s"] = (
        tracer.counts["freq.spectra.trials"] / total["freq.spectra_matrix"] if total["freq.spectra_matrix"] else 0.0
    )
    m["freq.lstm_forward.ms_p50"] = _p50_ms(durations["freq.lstm_forward"])
    m["freq.train_step.ms_p50"] = _p50_ms(freq_steps)
    m["fusion.finetune_tfe.s"] = total["fusion.finetune_tfe"]
    m["fusion.classify_batch.s"] = total["fusion.classify_batch"]
    m["align.train_align.s"] = total["align.train_align"]
    m["align.align.calls"] = calls["align.align"]
    m["diffusion.train_denoiser.s"] = total["diffusion.train_denoiser"]
    m["diffusion.reverse_step.calls"] = calls["diffusion.reverse_step"]
    m["diffusion.reverse_step.s"] = total["diffusion.reverse_step"]
    m["diffusion.predict.calls"] = calls["diffusion.predict"]
    m["diffusion.generate_samples.s"] = total["diffusion.generate_samples"]
    m["diffusion.write_ppm.s"] = total["diffusion.write_ppm"]
    m["metrics.train_surrogate.s"] = total["metrics.train_surrogate"]
    m["metrics.evaluate_generation.s"] = total["metrics.evaluate_generation"]
    m["data.generate_synthetic.s"] = total["data.generate_synthetic"]
    m["data.load_dataset.s"] = total["data.load_dataset"]
    m["data.prepare_units.s"] = total["data.prepare_units"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.spans"] = len(spans)
    m["trace.body_coverage"] = top_level_body / body_wall_s if body_wall_s > 0 else 0.0
    return m
