"""Call-site spans around the ban library, installed from outside the package.

`from .x import f` binds a copy of `f` in every importing module, so a
span around `f` is installed in each caller's namespace
(`ban.training.backbone_forward`, `ban.head.conv2d`, ...).  Op backward
passes are wrapped on their classes, and `ban.tensor.backward` in
`ban.tensor` itself, because `Tensor.backward` looks that name up on
every call.  Nothing under `src/` changes, and closing a `Patches` puts
every replaced attribute back.

A span's self time is its total time minus the time of the spans that
ran inside it.  Time between top-level spans is the root's self time:
benchmark code and nothing else.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter

from ban import backbone, checkpoint, evaluation, head, synthetic, tensor, training


class Patches:
    """Attribute replacements, undone in reverse order by `close`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def close(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class IterationClock:
    """Per-iteration wall time of `ban.training.train`.

    An iteration starts at its `learning_rate_at` call and ends when its
    `sgd_step` returns; `train` makes exactly one of each per iteration.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._patches = Patches()
        lr_at, sgd_step = training.learning_rate_at, training.sgd_step

        def timed_lr(*args, **kwargs):
            self.starts.append(perf_counter())
            return lr_at(*args, **kwargs)

        def timed_sgd(*args, **kwargs):
            out = sgd_step(*args, **kwargs)
            self.ends.append(perf_counter())
            return out

        self._patches.set(training, "learning_rate_at", timed_lr)
        self._patches.set(training, "sgd_step", timed_sgd)

    def take_ms(self) -> list[float]:
        """Durations of the iterations finished since the last call."""
        out = [1000.0 * (e - s) for s, e in zip(self.starts, self.ends)]
        self.starts.clear()
        self.ends.clear()
        return out

    def close(self):
        self._patches.close()


def _conv_flop(counts, args, kwargs, out):
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    cout, cin, kh, kw = weight.shape
    n, _, oh, ow = out.shape
    counts["tensor.conv2d.flop"] += 2 * n * cout * cin * kh * kw * oh * ow


def _rois(span):
    def count(counts, args, kwargs, out):
        counts[f"{span}.rois"] += len(args[1])

    return count


def _nms(counts, args, kwargs, kept):
    candidates = len(args[0])
    counts["geometry.nms.candidates"] += candidates
    counts["geometry.nms.kept"] += len(kept)
    # run_detector votes each kept box against every candidate of its class
    counts["evaluation.vote.pairs"] += len(kept) * candidates


def _labels(counts, args, kwargs, rois):
    counts["training.assign_labels.labelled"] += len(rois)
    counts["training.assign_labels.fg"] += sum(1 for r in rois if r.label > 0)


def _saved_bytes(counts, args, kwargs, out):
    counts["checkpoint.save.bytes"] += Path(args[0]).stat().st_size


def _generated_images(counts, args, kwargs, out):
    counts["synthetic.generate_dataset.images"] += args[0].num_images


def _loaded_images(counts, args, kwargs, records):
    counts["synthetic.load_dataset.images"] += len(records)


# (module, attribute, span, counter); one span may gather several call sites
CALL_SITES = (
    (synthetic, "generate_dataset", "synthetic.generate_dataset", _generated_images),
    (synthetic, "load_dataset", "synthetic.load_dataset", _loaded_images),
    (checkpoint, "save_checkpoint", "checkpoint.save", _saved_bytes),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
    (training, "train", "training.train", None),
    (training, "build_model", "training.build_model", None),
    (training, "propose", "training.propose", None),
    (training, "assign_labels", "training.assign_labels", _labels),
    (training, "backbone_forward", "backbone.forward", None),
    (training, "head_forward_graph", "head.forward_graph", None),
    (training, "ohem_select", "training.ohem_select", None),
    (training, "sgd_step", "training.sgd_step", None),
    (tensor, "backward", "tensor.backward", None),
    (backbone, "conv2d", "tensor.conv2d", _conv_flop),
    (head, "conv2d", "tensor.conv2d", _conv_flop),
    (head, "fully_connected", "tensor.fully_connected", None),
    (head, "psroi_pool_rois", "pooling.psroi_pool_rois", _rois("pooling.psroi_pool_rois")),
    (head, "roi_pool_rois", "pooling.roi_pool_rois", _rois("pooling.roi_pool_rois")),
    (head, "vote", "pooling.vote", None),
    (head, "generate_context", "geometry.generate_context", None),
    (evaluation, "run_detector", "evaluation.run_detector", None),
    (evaluation, "propose", "training.propose", None),
    (evaluation, "backbone_forward", "backbone.forward", None),
    (evaluation, "head_forward_graph", "head.forward_graph", None),
    (evaluation, "decode_box", "geometry.decode_clip", None),
    (evaluation, "clip_box", "geometry.decode_clip", None),
    (evaluation, "nms", "geometry.nms", _nms),
    (evaluation, "evaluate", "evaluation.evaluate", None),
    (evaluation, "average_precision", "evaluation.average_precision", None),
)


class SpanStats:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # seconds inside the span
        self.child = 0.0  # seconds of that inside nested spans

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Spans at every call site in `CALL_SITES` and every Op backward.

    Use as a context manager; the block's wall time is the root span.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.wall = 0.0
        self._stack = [0.0]
        self._patches = Patches()
        self._t0 = 0.0

    def __enter__(self):
        for module, attr, span, count in CALL_SITES:
            self._patches.set(module, attr, self._wrap(getattr(module, attr), span, count))
        for cls in tensor.Op.__subclasses__():
            if "backward" in cls.__dict__:
                layer = cls.__module__.rsplit(".", 1)[-1]
                span = f"{layer}.backward.{cls.name}"
                self._patches.set(cls, "backward", self._wrap(cls.backward, span, None))
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._t0
        self._patches.close()
        return False

    def _wrap(self, fn, span, count):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats.child += stack.pop()
                stack[-1] += dt
                stats.total += dt
                stats.calls += 1
            if count is not None:
                count(counts, args, kwargs, out)
            return out

        return traced

    def span(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    @property
    def root_self(self) -> float:
        """Seconds of the traced block spent outside every span."""
        return self.wall - self._stack[0]

    def self_times(self) -> dict[str, float]:
        """Self seconds per span, plus `bench` for the root; sums to `wall`."""
        out = {name: s.self_time for name, s in self.stats.items() if s.calls}
        out["bench"] = self.root_self
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced pass of `steps` iterations or images.

    Times inside the step loop are per step; set-up and per-run work
    (model build, checkpoint I/O, evaluate) is per call.
    """
    t, c = tracer, tracer.counts

    def per_step(seconds):
        return 1000.0 * _ratio(seconds, steps)

    def per_call(name):
        s = t.span(name)
        return 1000.0 * _ratio(s.total, s.calls)

    step_ms = {
        "tensor.backward.ms": t.span("tensor.backward").total,
        "tensor.backward.conv2d.ms": t.span("tensor.backward.conv2d").total,
        "tensor.conv2d.fwd_ms": t.span("tensor.conv2d").total,
        "pooling.psroi_pool_rois.fwd_ms": t.span("pooling.psroi_pool_rois").total,
        "pooling.backward.psroi_pool.ms": t.span("pooling.backward.psroi_pool").total,
        "pooling.vote.fwd_ms": t.span("pooling.vote").total,
        "pooling.backward.vote.ms": t.span("pooling.backward.vote").total,
        "pooling.roi_pool_rois.fwd_ms": t.span("pooling.roi_pool_rois").total,
        "pooling.backward.roi_pool.ms": t.span("pooling.backward.roi_pool").total,
        "tensor.fully_connected.fwd_ms": t.span("tensor.fully_connected").total,
        "head.forward_graph.self_ms": t.span("head.forward_graph").self_time,
        "geometry.generate_context.ms": t.span("geometry.generate_context").total,
        "backbone.forward.ms": t.span("backbone.forward").total,
        "geometry.nms.ms": t.span("geometry.nms").total,
        "geometry.decode_clip.ms": t.span("geometry.decode_clip").total,
        "evaluation.run_detector.self_ms": t.span("evaluation.run_detector").self_time,
        "training.propose.ms": t.span("training.propose").total,
        "training.assign_labels.ms": t.span("training.assign_labels").total,
        "training.ohem_select.ms": t.span("training.ohem_select").total,
        "training.sgd_step.ms": t.span("training.sgd_step").total,
        "training.train.self_ms": t.span("training.train").self_time,
    }
    step_counts = {
        "tensor.conv2d.calls": t.span("tensor.conv2d").calls,
        "pooling.psroi_pool_rois.rois": c["pooling.psroi_pool_rois.rois"],
        "pooling.roi_pool_rois.rois": c["pooling.roi_pool_rois.rois"],
        "geometry.generate_context.calls": t.span("geometry.generate_context").calls,
        "geometry.nms.candidates": c["geometry.nms.candidates"],
        "geometry.nms.kept": c["geometry.nms.kept"],
        "evaluation.vote.pairs": c["evaluation.vote.pairs"],
    }
    out = {name: (per_step(v), "ms/step") for name, v in step_ms.items()}
    out.update({name: (_ratio(v, steps), "count/step") for name, v in step_counts.items()})
    out["tensor.conv2d.gflop"] = (_ratio(c["tensor.conv2d.flop"], steps) / 1e9, "GFLOP/step")
    out["geometry.nms.keep_ratio"] = (
        _ratio(c["geometry.nms.kept"], c["geometry.nms.candidates"]), "ratio")
    out["training.assign_labels.fg_ratio"] = (
        _ratio(c["training.assign_labels.fg"], c["training.assign_labels.labelled"]), "ratio")
    evaluate = t.span("evaluation.evaluate")
    out["evaluation.evaluate.ms"] = (per_call("evaluation.evaluate"), "ms")
    out["evaluation.average_precision.calls"] = (
        _ratio(t.span("evaluation.average_precision").calls, evaluate.calls), "count")
    out["training.build_model.ms"] = (per_call("training.build_model"), "ms")
    out["checkpoint.save.ms"] = (per_call("checkpoint.save"), "ms")
    out["checkpoint.save.bytes"] = (
        _ratio(c["checkpoint.save.bytes"], t.span("checkpoint.save").calls), "B")
    out["checkpoint.load.ms"] = (per_call("checkpoint.load"), "ms")
    for layer in ("generate_dataset", "load_dataset"):
        span = f"synthetic.{layer}"
        out[f"{span}.ms_per_image"] = (
            1000.0 * _ratio(t.span(span).total, c[f"{span}.images"]), "ms/image")
    return out
