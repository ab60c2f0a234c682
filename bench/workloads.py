"""Seeded workloads over the library paths behind `ban train` and `ban eval`.

Each workload generates its inputs from the seed, sets up several times
(the median is `setup_s`), then repeats its measured unit until the
time budget is spent: a whole `train` + `save_checkpoint` +
`write_loss_csv`, or one `run_detector` call per test image followed by
one `evaluate`.  Every repetition's outputs are checked.  An iteration
or image that raises a `BanError` or fails a check counts as failed, and
its repetition gives no timing.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ban import checkpoint, evaluation, synthetic, training
from ban.cli import RunConfig
from ban.errors import BanError

from tracer import IterationClock, Tracer, layer_metrics

MAX_DETS = 100  # run_detector's default, as `ban eval` uses it
MIN_REPS = 2  # the determinism checks compare at least two repetitions
SETUP_REPEATS = 5  # set-ups per run; `setup_s` is their median


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" or "detect"
    overrides: dict  # RunConfig keys on top of the `ban` defaults


WORKLOADS = {
    "train-psroi": Workload("train", {"head_mode": "psroi", "iterations": 12, "train_images": 16}),
    "detect-eval": Workload("detect", {"head_mode": "psroi", "test_images": 48}),
    "train-roi": Workload("train", {"head_mode": "roi", "iterations": 8, "train_images": 16,
                                     "rois_per_image": 64, "ohem_keep": 32}),
}


@dataclass
class Pass:
    """What one measured pass produced."""

    step_ms: list = field(default_factory=list)  # per training iteration
    image_ms: dict = field(default_factory=dict)  # image id -> ms per repetition
    wall_s: list = field(default_factory=list)  # per successful repetition
    eval_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    loss_final: float = math.nan

    def fail(self, ops: int, problem: str):
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(problem)


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def detections_digest(dets) -> str:
    h = hashlib.sha256()
    for d in dets:
        fields = (d.score, d.box.cx, d.box.cy, d.box.w, d.box.h)
        h.update(f"{d.image_id},{d.class_id},{','.join(float(v).hex() for v in fields)}\n".encode())
    return h.hexdigest()


def check_losses(rows, iterations: int) -> list[str]:
    if len(rows) != iterations:
        return [f"loss log has {len(rows)} rows, want {iterations}"]
    return [
        f"non-finite loss at iteration {r.iteration}"
        for r in rows
        if not all(map(math.isfinite, (r.loss_cls, r.loss_reg, r.loss_total)))
    ]


def check_detections(dets, rec, num_classes: int, max_dets: int = MAX_DETS) -> list[str]:
    """Problems with one image's detections; empty when they are valid."""
    problems = []
    if len(dets) > max_dets:
        problems.append(f"{rec.image_id}: {len(dets)} detections > {max_dets}")
    for d in dets:
        x1, y1, x2, y2 = d.box.corners()
        if d.image_id != rec.image_id:
            problems.append(f"{rec.image_id}: detection for {d.image_id}")
        if not 1 <= d.class_id <= num_classes:
            problems.append(f"{rec.image_id}: class {d.class_id}")
        if not 0.0 <= d.score <= 1.0:
            problems.append(f"{rec.image_id}: score {d.score}")
        if not (0.0 <= x1 < x2 <= rec.width and 0.0 <= y1 < y2 <= rec.height):
            problems.append(f"{rec.image_id}: box {(x1, y1, x2, y2)} outside the image")
    return problems


def check_report(report) -> list[str]:
    return [
        f"{name} = {value} outside [0, 1]"
        for name, value in (("map50", report.map50), ("map70", report.map70),
                            ("map_coco", report.map_coco))
        if not 0.0 <= value <= 1.0
    ]


class Run:
    """One workload at one seed, working inside `work_dir`."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work = Path(work_dir)
        self.cfg = RunConfig.from_sources(overrides={"seed": seed, **workload.overrides})
        self.ban = self.cfg.ban_config()
        self.sgd = self.cfg.sgd_config()
        self.reference: "str | None" = None  # digest of the first repetition
        self._dirs = itertools.count()

    def _fresh_dir(self, prefix: str) -> Path:
        # a new file each time: overwriting a large file right after
        # writing it can stall on write-back of the old pages
        return self.work / f"{prefix}{next(self._dirs)}"

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate and load the inputs (and, for detection, the model)."""
        d = self._fresh_dir("setup")
        t0 = perf_counter()
        split = "train" if self.workload.kind == "train" else "test"
        synthetic.generate_dataset(self.cfg.synthetic_spec(split), d / split)
        self.dataset = synthetic.load_dataset(d / split)
        if self.workload.kind == "detect":
            path = d / "model.ckpt"
            checkpoint.save_checkpoint(path, training.build_model(self.ban, self.seed))
            self.params = evaluation.params_from_checkpoint(checkpoint.load_checkpoint(path))
            self.gts = evaluation.dataset_ground_truth(self.dataset)
        return perf_counter() - t0

    # -- measured passes ----------------------------------------------------

    def measure(self, seconds: float, clock: "IterationClock | None") -> Pass:
        p = Pass()
        step = self._train_once if self.workload.kind == "train" else self._detect_once
        start = perf_counter()
        reps = 0
        while reps < MIN_REPS or perf_counter() - start < seconds:
            step(p, clock)
            reps += 1
        return p

    def _agrees(self, p: Pass, digest: str, ops: int, what: str) -> bool:
        if self.reference is None:
            self.reference = digest
        if digest != self.reference:
            p.fail(ops, f"{what} differ from the first repetition with this seed")
            return False
        return True

    def _train_once(self, p: Pass, clock: IterationClock):
        n = self.sgd.iterations
        out = self._fresh_dir("train")
        out.mkdir(parents=True)
        p.attempted += n
        clock.take_ms()
        t0 = perf_counter()
        try:
            result = training.train(self.dataset, self.ban, self.sgd, self.seed)
            checkpoint.save_checkpoint(out / "checkpoint.ckpt", result.params)
            training.write_loss_csv(out / "loss.csv", result.loss_rows)
        except BanError as exc:
            p.fail(n, f"train raised {exc!r}")
            return
        wall = perf_counter() - t0
        iter_ms = clock.take_ms()
        problems = check_losses(result.loss_rows, n)
        if problems:
            p.fail(n, "; ".join(problems))
            return
        digest = file_digest(out / "checkpoint.ckpt", out / "loss.csv")
        shutil.rmtree(out)
        if self._agrees(p, digest, n, "checkpoint.ckpt and loss.csv"):
            p.step_ms += iter_ms
            p.wall_s.append(wall)
            p.loss_final = result.loss_rows[-1].loss_total

    def _detect(self, records):
        return evaluation.run_detector(
            self.params, records, self.ban,
            rng_seed=self.seed, rois_per_image=self.cfg.rois_per_image,
        )

    def _detect_once(self, p: Pass, clock=None):
        dets, times, busy = [], {}, 0.0
        failed = 0
        for rec in self.dataset:
            p.attempted += 1
            t0 = perf_counter()
            try:
                image_dets = self._detect([rec])
            except BanError as exc:
                failed += 1
                p.fail(1, f"{rec.image_id}: run_detector raised {exc!r}")
                continue
            dt = perf_counter() - t0
            busy += dt
            dets += image_dets
            problems = check_detections(image_dets, rec, self.ban.num_classes)
            if problems:
                failed += 1
                p.fail(1, "; ".join(problems[:3]))
            else:
                times[rec.image_id] = 1000.0 * dt
        t0 = perf_counter()
        try:
            report = evaluation.evaluate(
                dets, self.gts, class_ids=list(range(1, self.ban.num_classes + 1)))
        except BanError as exc:
            p.fail(len(times), f"evaluate raised {exc!r}")
            return
        eval_s = perf_counter() - t0
        problems = check_report(report)
        if problems:
            p.fail(len(times), "; ".join(problems))
            return
        if self._agrees(p, detections_digest(dets), len(times), "detections") and not failed:
            for image_id, ms in times.items():
                p.image_ms.setdefault(image_id, []).append(ms)
            p.wall_s.append(busy + eval_s)
            p.eval_ms.append(1000.0 * eval_s)

    def check_whole_split(self, p: Pass):
        """One call over the whole split must return the per-image results."""
        n = len(self.dataset)
        p.attempted += n
        try:
            dets = self._detect(self.dataset)
        except BanError as exc:
            p.fail(n, f"run_detector over the split raised {exc!r}")
            return
        if detections_digest(dets) != self.reference:
            p.fail(n, "one run_detector call over the split differs from per-image calls")


# -- summaries ---------------------------------------------------------------


def tail(values) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples above it.

    With ten samples or fewer no percentile qualifies, and the maximum
    is reported as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 11) / (n - 1)


def timings(p: Pass) -> dict:
    """End-to-end timings of one pass; empty when nothing succeeded.

    A step is a training iteration, or an image at its median over the
    repetitions: every repetition detects the same images, and the
    median keeps a passing stall on a shared machine out of the tail.
    """
    steps = p.step_ms or [statistics.median(v) for v in p.image_ms.values()]
    if not steps or not p.wall_s:
        return {}
    value, pct = tail(steps)
    return {
        "wall_s": statistics.median(p.wall_s),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": value,
        "tail_percentile": pct,
        "samples": len(steps),
    }


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "loadavg_1m": os.getloadavg()[0],
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")},
    }


def _named(kind: str, t: dict, p: Pass, failed_ratio: float) -> dict:
    """The untraced results under the names `ban train` / `ban eval` users know."""
    out = {"ops_failed_ratio": (failed_ratio, "ratio")}
    if not t:
        return out
    if kind == "train":
        out["train_wall_s"] = (t["wall_s"], "s")
        out["iter_ms_p50"] = (t["step_ms_p50"], "ms")
        out["iter_ms_tail"] = (t["step_ms_tail"], "ms")
        out["loss_final"] = (p.loss_final, "loss")
    else:
        out["detect_ms_p50"] = (t["step_ms_p50"], "ms")
        out["detect_ms_tail"] = (t["step_ms_tail"], "ms")
        out["eval_ms"] = (statistics.median(p.eval_ms), "ms")
    return out


def _metrics(values: dict) -> dict:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
        workload: "Workload | None" = None) -> tuple[dict, dict]:
    """Run one workload; returns (details, result line).

    Untraced, the result holds the end-to-end metrics.  With `trace`, an
    untraced pass is followed by a traced set-up and pass, and the result
    holds the per-layer metrics plus the tracing overhead; both passes
    must produce the same checkpoint, loss log and detection bytes.
    """
    workload = workload or WORKLOADS[name]
    env = environment(seed)
    r = Run(workload, seed, work_dir)
    setup_s = statistics.median(r.setup() for _ in range(SETUP_REPEATS))
    clock = IterationClock() if workload.kind == "train" else None
    try:
        base = r.measure(seconds, clock)
        if workload.kind == "detect":
            r.check_whole_split(base)
        passes = [base]
        if trace:
            with Tracer() as tracer:
                traced_setup_s = r.setup()
                traced = r.measure(seconds, clock)
            passes.append(traced)
    finally:
        if clock is not None:
            clock.close()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = timings(base)
    details = {
        "workload": name,
        "env": env,
        "samples": untraced.get("samples", 0),
        "tail_percentile": untraced.get("tail_percentile"),
        "named": _metrics(_named(workload.kind, untraced, base, failed / attempted)),
        "problems": [m for p in passes for m in p.problems],
    }
    if trace:
        steps = traced.attempted
        values = layer_metrics(tracer, steps)
        values["trace.overhead.setup_s"] = (traced_setup_s - setup_s, "s")
        with_trace = timings(traced)
        if untraced and with_trace:
            for key, unit in (("wall_s", "s"), ("step_ms_p50", "ms"), ("step_ms_tail", "ms")):
                values[f"trace.overhead.{key}"] = (with_trace[key] - untraced[key], unit)
        details["traced_wall_s"] = tracer.wall
        details["trace_attributed_share"] = 1.0 - tracer.root_self / tracer.wall
        details["self_ms_per_step"] = {
            k: 1000.0 * v / steps
            for k, v in sorted(tracer.self_times().items(), key=lambda kv: -kv[1])
        }
    else:
        values = {"setup_s": (setup_s, "s")}
        if untraced:
            values["wall_s"] = (untraced["wall_s"], "s")
            values["step_ms_p50"] = (untraced["step_ms_p50"], "ms")
            values["step_ms_tail"] = (untraced["step_ms_tail"], "ms")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values["peak_rss_mb"] = (rss_kib / 1024.0, "MB")

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics(values),
    }
    return details, line
