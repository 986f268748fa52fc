"""The ledger's four workloads.

Each ``run_*`` function sets the system up, measures for ``seconds`` (the
TCP workloads by the clock, the in-process ones by a fixed operation count
sized from ``seconds`` — see :mod:`sut`), checks the outputs and returns a
:class:`Outcome`.  ``seed`` drives only
request keys, the arrival schedule, the read mix and the train shuffle
order.  With ``trace`` the timed part mixes traced and untraced stretches
(slices for the TCP workloads, alternating blocks of operations for the
in-process ones): the per-layer metrics come from the traced part and the
untraced part is the baseline of ``trace.overhead_share``.  End-to-end
metrics are taken from untraced runs only.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import sut
from loadgen import Loader, Phase, encode_frames
from repro.api import build_model
from repro.graph.builder import GraphBuilder
from repro.ndarray import functional as F
from repro.training import Trainer
from repro.training.dataloader import ImpressionDataLoader
from spans import Recorder, span

#: Every timed phase is cut into this many equal runs of operations; the
#: reported value is the median of the per-segment values.
SEGMENTS = 5
#: Share of ``seconds`` each of a traced TCP run's two untraced slices takes.
BASELINE_SHARE = 0.15
#: Operations per block of a traced in-process run (see :class:`Blocks`).
TRACE_BLOCK = 4
#: Keys whose replies are compared with an in-process ``serve_batch``.
CHECKED_KEYS = 64
TOP_K = 10
#: serve-cold encodes this many unique keys per second of budget.
COLD_RATE_CAP = 400

E2E_UNITS = {"setup_s": "s", "lat_p50_ms": "ms", "lat_tail_ms": "ms",
             "throughput_per_s": "1/s", "peak_rss_mb": "MB"}

#: Per-layer metrics of a traced run.  ``*.self_ms`` is the layer's self
#: time and ``*.calls`` its call count, both *per operation* (request,
#: train step or ingest cycle), so runs of different length compare.
LAYER_UNITS = {
    "setup.graph_s": "s", "setup.fit_s": "s", "setup.deploy_s": "s",
    "setup.warm_s": "s",
    "serving.daemon.pre_ms": "ms", "serving.daemon.post_ms": "ms",
    "serving.daemon.self_ms": "ms/op", "serving.daemon.shed": "count",
    "serving.batcher.wait_ms": "ms", "serving.batcher.batch_mean": "count",
    "serving.batcher.timer_flush_share": "ratio",
    "serving.server.calls": "1/op", "serving.server.self_ms": "ms/op",
    "serving.server.batch_ms": "ms",
    "serving.cache.calls": "1/op", "serving.cache.self_ms": "ms/op",
    "serving.cache.hit_ratio": "ratio",
    "serving.index.calls": "1/op", "serving.index.self_ms": "ms/op",
    "serving.index.hit_ratio": "ratio",
    "serving.ann.calls": "1/op", "serving.ann.rows": "1/op",
    "serving.ann.self_ms": "ms/op", "serving.ann.recall_at_10": "ratio",
    "serving.memo.hit_ratio": "ratio",
    "core.request_embedding.calls": "1/op",
    "core.request_embedding.self_ms": "ms/op",
    "core.attention.calls": "1/op", "core.attention.self_ms": "ms/op",
    "core.roi.calls": "1/op", "core.roi.self_ms": "ms/op",
    "sampling.focal.calls": "1/op", "sampling.focal.self_ms": "ms/op",
    "graph.adjacency.calls": "1/op", "graph.adjacency.self_ms": "ms/op",
    "graph.sample.calls": "1/op", "graph.sample.self_ms": "ms/op",
    "core.forward.self_ms": "ms/op", "nn.loss.self_ms": "ms/op",
    "nn.backward.self_ms": "ms/op", "nn.optim.self_ms": "ms/op",
    "training.loader.self_ms": "ms/op", "training.steps": "count",
    "training.auc": "ratio",
    "api.ingest.calls": "1/op", "api.ingest.self_ms": "ms/op",
    "api.ingest.call_p50_ms": "ms",
    "graph.apply_updates.calls": "1/op",
    "graph.apply_updates.self_ms": "ms/op",
    "serving.refresh.calls": "1/op", "serving.refresh.self_ms": "ms/op",
    "serving.refresh.invalidated_keys": "1/op",
    "python.gc.pause_ms": "ms/op",
    "loadgen.late_p99_ms": "ms", "loadgen.cpu_share": "ratio",
    "trace.overhead_share": "ratio", "ledger.unexplained_share": "ratio",
    "ledger.focus_share": "ratio",
}
#: Layers whose spans become ``<layer>.calls`` / ``<layer>.self_ms``.
SPAN_LAYERS = sorted({name.rsplit(".", 1)[0] for name in LAYER_UNITS
                      if name.endswith(".self_ms")})


class CheckFailed(Exception):
    """An output check failed; the run prints no metrics."""


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: Every declared layer metric, 0 until a traced run fills it in.
    per_layer: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(LAYER_UNITS, 0.0))
    #: Per-segment values, spreads, settings; goes to the results file.
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Span sample and layer aggregates of a traced run.
    trace: Dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def tail_percentile(samples_per_segment: int) -> int:
    """The highest of p99/p95/p90 with at least ten samples beyond it."""
    for percentile in (99, 95, 90):
        if samples_per_segment * (100 - percentile) >= 1000:
            return percentile
    return 90


def segmented(latency_ms: np.ndarray, finished: np.ndarray, started: float,
              percentile: int, work: Optional[np.ndarray] = None
              ) -> Dict[str, Any]:
    """Median-of-segments p50, tail and throughput of one phase.

    Operations (at least :data:`SEGMENTS` of them) are ordered by
    completion and cut into :data:`SEGMENTS` equal runs; a segment's
    throughput is its work over the time between the previous segment's
    last completion and its own.
    """
    order = np.argsort(finished, kind="stable")
    latency_ms, finished = latency_ms[order], finished[order]
    work = np.ones(order.size) if work is None else work[order]
    bounds = [round(i * order.size / SEGMENTS) for i in range(SEGMENTS + 1)]
    rows: Dict[str, List[float]] = {"lat_p50_ms": [], "lat_tail_ms": [],
                                    "throughput_per_s": []}
    for low, high in zip(bounds, bounds[1:]):
        begin = started if low == 0 else finished[low - 1]
        p50, tail = np.percentile(latency_ms[low:high], [50, percentile])
        rows["lat_p50_ms"].append(float(p50))
        rows["lat_tail_ms"].append(float(tail))
        rows["throughput_per_s"].append(
            float(work[low:high].sum() / (finished[high - 1] - begin)))
    out: Dict[str, Any] = {"samples": int(order.size),
                           "tail_percentile": percentile}
    for name, values in rows.items():
        out[name] = float(np.median(values))
        out[name + ".segments"] = values
        out[name + ".spread"] = (max(values) - min(values)) / out[name]
    return out


def per_operation(report: Dict[str, Any], operations: int
                  ) -> Dict[str, float]:
    """``<layer>.calls`` / ``<layer>.self_ms`` and GC pauses per operation."""
    layers = report["layers"]
    out = {"python.gc.pause_ms": report["gc_ms"] / max(operations, 1)}
    for layer in SPAN_LAYERS:
        row = layers.get(layer, {"calls": 0, "self_ms": 0.0})
        if f"{layer}.calls" in LAYER_UNITS:
            out[f"{layer}.calls"] = row["calls"] / max(operations, 1)
        out[f"{layer}.self_ms"] = row["self_ms"] / max(operations, 1)
    return out


def subtree_ms(layers: Dict[str, Dict[str, float]],
               prefixes: Sequence[str]) -> float:
    """Summed self time of every layer under one of ``prefixes``."""
    return sum(row["self_ms"] for layer, row in layers.items()
               if layer.startswith(tuple(prefixes)))


def overhead_share(untraced: Sequence[Tuple[float, float]],
                   traced: Tuple[float, float]) -> float:
    """(traced - untraced) / untraced time per unit of work.

    Each argument is ``(work, seconds)``; the untraced stretches are pooled.
    """
    baseline = sum(s for _, s in untraced) / sum(w for w, _ in untraced)
    return traced[1] / traced[0] / baseline - 1.0


# ---------------------------------------------------------------------- #
# serve-hot and serve-cold: the daemon in a host process, over TCP
# ---------------------------------------------------------------------- #
class ServeRun:
    """Host process + loader + bookkeeping shared by both TCP workloads."""

    def __init__(self, scale: sut.Scale, outcome: Outcome):
        cpus = sorted(os.sched_getaffinity(0))
        self.pinned = len(cpus) >= 2
        self.outcome = outcome
        self.host = sut.Host(scale, cpus[0] if self.pinned else None)
        if self.pinned:
            os.sched_setaffinity(0, {cpus[1]})
        self.loader = Loader()
        self.sent = self.served = 0
        outcome.detail["pinned"] = self.pinned
        outcome.per_layer.update(
            {f"setup.{key}": value for key, value in self.host.ready.items()
             if key.endswith("_s")})

    async def connect(self) -> None:
        await self.loader.connect("127.0.0.1", int(self.host.ready["port"]))

    async def phase(self, name: str, run: Callable[[], Any]
                    ) -> Tuple[Phase, Dict[str, Any]]:
        """One traffic phase between the host's begin/end marks.

        The host calls block this coroutine, which is idle between phases.
        """
        gc.collect()
        self.host.call("begin")
        phase: Phase = await run()
        report = self.host.call("end")
        self.sent += phase.attempted
        self.served += int(np.count_nonzero(phase.ok))
        self.outcome.attempted += phase.attempted
        self.outcome.failed += phase.failed
        self.outcome.detail[name] = {
            "attempted": phase.attempted, "failed": phase.failed,
            "wall_s": phase.wall_s, "loadgen_cpu_share":
                phase.cpu_s / max(phase.wall_s, 1e-9),
            "host_cpu_share": report["cpu_s"] / max(phase.wall_s, 1e-9),
            "counters": report["counters"]}
        if phase.failed:
            raise CheckFailed(f"{phase.failed} of {phase.attempted} "
                              f"requests failed in phase {name}")
        return phase, report

    async def check(self, keys: Sequence[Tuple[int, int]],
                    replies: Dict[int, List[int]]) -> None:
        """Replies equal in-process serving; counters reconcile; no shed.

        ``replies`` maps an index into ``keys`` to the ids the daemon sent.
        """
        if not replies:
            raise CheckFailed("no reply was kept for the output check")
        indices = sorted(replies)
        reference = self.host.call("reference",
                                   ([keys[i] for i in indices], TOP_K))
        for index, expected in zip(indices, reference):
            if replies[index] != expected:
                raise CheckFailed(
                    f"key {keys[index]}: daemon replied {replies[index]}, "
                    f"serve_batch gives {expected}")
        stats = await self.loader.stats()
        if stats["received"] != self.sent or stats["served"] != self.served:
            raise CheckFailed(
                f"daemon counted received={stats['received']} "
                f"served={stats['served']}, the loader sent {self.sent} "
                f"and got {self.served} ok replies")
        shed = stats["shed_queue"] + stats["shed_quota"]
        if shed:
            raise CheckFailed(f"the daemon shed {shed} requests")
        self.outcome.per_layer["serving.daemon.shed"] = float(shed)


def latency_ms(phase: Phase) -> np.ndarray:
    return (phase.received - phase.due) * 1000.0


def phase_summary(phase: Phase, percentile: int) -> Dict[str, Any]:
    """Segmented statistics over the phase's requests (all succeeded)."""
    return segmented(latency_ms(phase), phase.received, float(phase.due[0]),
                     percentile)


def served(phase: Phase) -> Tuple[float, float]:
    return float(phase.attempted), phase.wall_s


def request_path(phase: Phase, report: Dict[str, Any]) -> Dict[str, float]:
    """Mean per-request milliseconds on each stretch of the request path.

    late (due -> sent), pre (sent -> batcher.submit), wait (submit ->
    serve_batch), batch (inside serve_batch), post (serve_batch end ->
    reply parsed); their sum against the latency the loader measured is
    the reconciliation ``ledger.unexplained_share`` reports.
    """
    probe = report["probe"]
    count = max(int(probe["requests"]), 1)
    path = {"late_ms": float((phase.sent - phase.due).mean()),
            "pre_ms": (probe["sum_submit"] - float(phase.sent.sum())) / count,
            "wait_ms": probe["sum_wait"] / count,
            "batch_ms": probe["sum_service"] / count,
            "post_ms": (float(phase.received.sum()) - probe["sum_left"])
            / count}
    path = {key: value * 1000.0 for key, value in path.items()}
    path["latency_ms"] = float(latency_ms(phase).mean())
    return path


def serving_layers(report: Dict[str, Any], requests: int
                   ) -> Dict[str, float]:
    """Per-request layer metrics and ratios from one traced phase report.

    The memo ratio counts only ``request_embedding`` calls made directly by
    ``serve_batch``; ``refresh`` makes its own for stale postings.
    """
    counts = report["counters"]
    out = per_operation(report, requests)
    reads = counts["cache.hits"] + counts["cache.misses"]
    out.update({
        "serving.cache.hit_ratio": counts["cache.hits"] / max(reads, 1),
        "serving.index.hit_ratio":
            1.0 - counts["index.misses"] / max(counts["index.lookups"], 1),
        "serving.ann.rows": counts["index.misses"] / max(requests, 1),
        "serving.memo.hit_ratio":
            1.0 - report["embedded"] / max(requests, 1)})
    if "batcher.batches" in counts:       # a host process report
        batches = max(counts["batcher.batches"], 1)
        spans_ms = sum(row["self_ms"] for row in report["layers"].values())
        out.update({
            "serving.batcher.batch_mean": counts["batcher.served"] / batches,
            "serving.batcher.timer_flush_share":
                counts["batcher.flushed_wait"] / batches,
            # What the host burns outside serve_batch: the event loop,
            # framing, JSON, admission, batcher glue (CPU time less span
            # wall time, so it bottoms out at 0 when serve_batch is all).
            "serving.daemon.self_ms": max(
                0.0, report["cpu_s"] * 1000.0 - spans_ms) / max(requests, 1)})
    return out


def path_layers(path: Dict[str, float]) -> Dict[str, float]:
    """Request-path metrics and how much of the latency they explain."""
    explained = sum(value for key, value in path.items()
                    if key != "latency_ms")
    return {"serving.daemon.pre_ms": path["pre_ms"],
            "serving.daemon.post_ms": path["post_ms"],
            "serving.batcher.wait_ms": path["wait_ms"],
            "serving.server.batch_ms": path["batch_ms"],
            "ledger.unexplained_share":
                abs(1.0 - explained / max(path["latency_ms"], 1e-9))}


def hot_keys(scale: sut.Scale, rng: np.random.Generator
             ) -> List[Tuple[int, int]]:
    """Warm users x warm queries (posting hits), then x other queries."""
    spec = sut.serving_spec(scale)
    data = scale.data
    users = min(spec.serving.warm_users, data["num_users"])
    warm = min(spec.serving.warm_queries, data["num_queries"])
    posting = rng.choice(users * warm, size=scale.hot_keys, replace=False)
    others = rng.choice(users * (data["num_queries"] - warm),
                        size=scale.hot_keys, replace=False)
    keys = [(int(i // warm), int(i % warm)) for i in posting]
    keys += [(int(i % users), warm + int(i // users)) for i in others]
    return [keys[i] for i in rng.permutation(len(keys))]


async def serve_hot(scale: sut.Scale, seed: int, seconds: float,
                    trace: bool, started: float, run: ServeRun) -> None:
    """Repeated keys over TCP: the network tier at its best."""
    outcome = run.outcome
    rng = np.random.default_rng(seed)
    keys = hot_keys(scale, rng)
    await run.connect()
    checked = range(min(CHECKED_KEYS, len(keys)))
    warm_started = time.perf_counter()
    warm, _ = await run.phase("warm-up", lambda: run.loader.closed_loop(
        encode_frames(keys, len(keys), TOP_K), sut.COLD_WINDOW, 3600.0,
        keep=checked))
    outcome.per_layer["setup.warm_s"] = time.perf_counter() - warm_started
    outcome.end_to_end["setup_s"] = time.perf_counter() - started

    async def saturation(name: str, duration: float):
        frames = encode_frames(keys, int(30000 * duration) + 1000, TOP_K)
        return await run.phase(name, lambda: run.loader.closed_loop(
            frames, sut.SATURATION_WINDOW, duration))

    budget = seconds
    if trace:
        budget -= 2 * BASELINE_SHARE * seconds
        before, _ = await saturation("saturation-before",
                                     BASELINE_SHARE * seconds)
        run.host.call("trace", True)
    # Saturation first: the nominal phase then meets a host whose caches,
    # allocator and interpreter are past their start-up transients.
    loaded, loaded_report = await saturation("saturation", 0.4 * budget)
    count = max(int(scale.nominal_rate * 0.6 * budget), SEGMENTS)
    due = np.cumsum(rng.exponential(1.0 / scale.nominal_rate, size=count))
    nominal, nominal_report = await run.phase(
        "nominal", lambda: run.loader.open_loop(
            encode_frames(keys, count, TOP_K), due))
    if trace:
        run.host.call("trace", False)
        after, _ = await saturation("saturation-after",
                                    BASELINE_SHARE * seconds)
    await run.check(keys, warm.kept)

    percentile = tail_percentile(count // SEGMENTS)
    latency = phase_summary(nominal, percentile)
    rate = phase_summary(loaded, percentile)
    outcome.detail["nominal"].update(latency)
    outcome.detail["saturation"].update(rate)
    outcome.detail["tail_percentile"] = percentile
    outcome.end_to_end.update(
        lat_p50_ms=latency["lat_p50_ms"], lat_tail_ms=latency["lat_tail_ms"],
        throughput_per_s=rate["throughput_per_s"])
    late = (nominal.sent - nominal.due) * 1000.0
    outcome.per_layer.update({
        "loadgen.late_p99_ms": float(np.percentile(late, 99)),
        "loadgen.cpu_share": outcome.detail["nominal"]["loadgen_cpu_share"]})
    if not trace:
        return
    # Layer self times explain throughput (saturation); the request path
    # and the batcher's batch shape explain latency (nominal).
    outcome.per_layer.update(serving_layers(loaded_report, loaded.attempted))
    at_nominal = serving_layers(nominal_report, nominal.attempted)
    for name in ("serving.batcher.batch_mean",
                 "serving.batcher.timer_flush_share"):
        outcome.per_layer[name] = at_nominal[name]
    path = request_path(nominal, nominal_report)
    outcome.per_layer.update(path_layers(path))
    layers = nominal_report["layers"]
    in_serving = subtree_ms(layers, ["serving."]) \
        / max(subtree_ms(layers, [""]), 1e-9)
    outcome.per_layer.update({
        "ledger.focus_share": (
            path["pre_ms"] + path["wait_ms"] + path["post_ms"]
            + path["batch_ms"] * in_serving) / max(path["latency_ms"], 1e-9),
        "trace.overhead_share": overhead_share(
            [served(before), served(after)], served(loaded))})
    outcome.detail["request_path_ms"] = path
    outcome.trace = {"nominal": nominal_report, "saturation": loaded_report}


async def serve_cold(scale: sut.Scale, seed: int, seconds: float,
                     trace: bool, started: float, run: ServeRun) -> None:
    """Unique keys over TCP: every request pays ROI sampling + attention."""
    outcome = run.outcome
    rng = np.random.default_rng(seed)
    users, queries = scale.data["num_users"], scale.data["num_queries"]
    count = min(int(COLD_RATE_CAP * seconds) + 4 * sut.COLD_WINDOW,
                users * queries)
    keys = [(int(i // queries), int(i % queries))
            for i in rng.choice(users * queries, size=count, replace=False)]
    await run.connect()
    outcome.end_to_end["setup_s"] = time.perf_counter() - started
    cursor = 0

    async def unique(name: str, duration: float, keep: Sequence[int] = ()):
        """Closed loop over the next not-yet-requested keys."""
        nonlocal cursor
        frames = encode_frames(keys[cursor:], count - cursor, TOP_K)
        phase, report = await run.phase(name, lambda: run.loader.closed_loop(
            frames, sut.COLD_WINDOW, duration, keep=keep))
        if phase.attempted >= len(frames):
            raise CheckFailed("the unique-key budget ran out before the "
                              "time did")
        cursor += phase.attempted
        return phase, report

    checked = range(min(CHECKED_KEYS, count))
    budget = seconds
    if trace:
        budget -= 2 * BASELINE_SHARE * seconds
        before, _ = await unique("unique-before", BASELINE_SHARE * seconds,
                                 keep=checked)
        kept = before.kept
        run.host.call("trace", True)
    phase, report = await unique("unique", budget,
                                 keep=() if trace else checked)
    if trace:
        run.host.call("trace", False)
        after, _ = await unique("unique-after", BASELINE_SHARE * seconds)
    else:
        kept = phase.kept
    await run.check(keys, kept)

    summary = phase_summary(phase, 90)
    outcome.detail["unique"].update(summary)
    outcome.detail["tail_percentile"] = 90
    outcome.end_to_end.update(
        lat_p50_ms=summary["lat_p50_ms"], lat_tail_ms=summary["lat_tail_ms"],
        throughput_per_s=summary["throughput_per_s"])
    outcome.per_layer["loadgen.cpu_share"] = \
        outcome.detail["unique"]["loadgen_cpu_share"]
    if not trace:
        return
    outcome.per_layer.update(serving_layers(report, phase.attempted))
    outcome.per_layer.update(path_layers(request_path(phase, report)))
    outcome.per_layer.update({
        "serving.ann.recall_at_10": run.host.call(
            "recall", [keys[i] for i in checked][:32]),
        "ledger.focus_share": subtree_ms(
            report["layers"], ["core.", "sampling.", "graph."])
        / (phase.wall_s * 1000.0),
        "trace.overhead_share": overhead_share(
            [served(before), served(after)], served(phase))})
    outcome.trace = {"unique": report}


def serve(body, scale: sut.Scale, seed: int, seconds: float, trace: bool,
          started: float) -> Outcome:
    """Run a TCP workload's coroutine against a fresh host process."""
    outcome = Outcome()
    run = ServeRun(scale, outcome)

    async def connected() -> None:
        try:
            await body(scale, seed, seconds, trace, started, run)
        finally:
            run.loader.close()

    try:
        asyncio.run(connected())
        outcome.end_to_end["peak_rss_mb"] = run.host.stop()["peak_rss_mb"]
    finally:
        run.host.kill()
    return outcome


# ---------------------------------------------------------------------- #
# The two in-process workloads trace alternate blocks of operations
# ---------------------------------------------------------------------- #
class Blocks:
    """Per-operation record of an in-process timed loop.

    With a recorder, operations alternate between untraced and traced
    blocks of :data:`TRACE_BLOCK`, so both kinds meet the same drift (a
    growing graph, growing caches); the per-layer metrics come from the
    traced operations and the untraced ones are the overhead baseline.
    """

    def __init__(self, recorder: Optional[Recorder]):
        self.recorder = recorder
        self.duration_ms: List[float] = []
        self.finished: List[float] = []
        self.work: List[float] = []
        self.traced: List[bool] = []
        gc.collect()
        self.begun = time.perf_counter()

    def next(self) -> None:
        """Call before each operation: picks its block's tracing state."""
        if self.recorder is not None:
            self.recorder.tag = len(self.traced)
            self.recorder.enabled = \
                (len(self.traced) // TRACE_BLOCK) % 2 == 1
        self.traced.append(self.recorder is not None
                           and self.recorder.enabled)

    def done(self, started: float, work: float) -> None:
        self.finished.append(time.perf_counter())
        self.duration_ms.append((self.finished[-1] - started) * 1000.0)
        self.work.append(work)

    def summary(self, latency_ms: Sequence[float], percentile: int
                ) -> Dict[str, Any]:
        return segmented(np.asarray(latency_ms), np.asarray(self.finished),
                         self.begun, percentile, work=np.asarray(self.work))

    def split(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """``(work, seconds)`` of the untraced and of the traced operations."""
        sums = {False: [0.0, 0.0], True: [0.0, 0.0]}
        for traced, work, duration in zip(self.traced, self.work,
                                          self.duration_ms):
            sums[traced][0] += work
            sums[traced][1] += duration / 1000.0
        return tuple(sums[False]), tuple(sums[True])


# ---------------------------------------------------------------------- #
# train: optimisation steps, in-process
# ---------------------------------------------------------------------- #
def train_step(trainer: Trainer, batch, recorder: Optional[Recorder]
               ) -> float:
    """One optimisation step: the public calls of ``Trainer.train_batch``.

    Spelled out here so a span can sit between them; the determinism probe
    checks that it stays bit-identical to ``Trainer.train_batch``.
    """
    model, config = trainer.model, trainer.config
    model.train()
    trainer.optimizer.zero_grad()
    probabilities = model.forward_batch(batch.user_ids, batch.query_ids,
                                        batch.item_ids)
    with span(recorder, "nn.loss"):
        if config.loss == "focal":
            loss = F.focal_cross_entropy(probabilities, batch.labels,
                                         gamma=config.focal_gamma)
        else:
            loss = F.binary_cross_entropy(probabilities, batch.labels)
        if config.regularization_weight:
            loss = loss + F.l2_regularization(model.parameters(),
                                              config.regularization_weight)
    with span(recorder, "nn.backward"):
        loss.backward()
    with span(recorder, "nn.optim"):
        trainer.optimizer.step()
    return float(loss.item())


def _fresh_trainer(pipeline) -> Trainer:
    spec = pipeline.spec
    model = build_model(spec.model.name, pipeline.graph,
                        **spec.model_kwargs())
    return Trainer(model, spec.training_config())


def _batches(pipeline, seed: int):
    loader = ImpressionDataLoader(pipeline.train_examples,
                                  batch_size=sut.TRAIN_BATCH_SIZE, seed=seed)
    while True:
        yield from loader.epoch()


def _probe(pipeline, seed: int, own_step: bool, steps: int = 4
           ) -> Tuple[float, List[float]]:
    """AUC and losses after ``steps`` fixed steps from a fresh model."""
    trainer = _fresh_trainer(pipeline)
    batches = _batches(pipeline, seed)
    losses = [train_step(trainer, next(batches), None) if own_step
              else trainer.train_batch(next(batches)) for _ in range(steps)]
    return trainer.evaluate(pipeline.test_examples).auc, losses


def run_train(scale, seed, seconds, trace, started) -> Outcome:
    """Sampling + forward + backward + optimiser; serving does nothing."""
    outcome = Outcome()
    marks = [time.perf_counter()]
    pipeline = sut.Pipeline(sut.train_spec(scale)).build_graph()
    # Keep a fixed, strided population and release the generator's full
    # impression log, as a trainer that streams its examples would: with
    # the log resident, a third of every step is the cyclic GC walking it.
    pipeline.train_examples = pipeline.train_examples[::sut.TRAIN_STRIDE]
    pipeline.dataset = None
    marks.append(time.perf_counter())
    trainer = _fresh_trainer(pipeline)
    batches = _batches(pipeline, seed)
    marks.append(time.perf_counter())
    outcome.per_layer.update({"setup.graph_s": marks[1] - marks[0],
                              "setup.deploy_s": marks[2] - marks[1]})
    outcome.end_to_end["setup_s"] = time.perf_counter() - started
    recorder = None
    if trace:
        recorder = Recorder()
        sut.instrument(recorder, pipeline.graph, trainer.model)

    losses: List[float] = []
    blocks = Blocks(recorder)
    for index in range(max(SEGMENTS, round(sut.TRAIN_STEPS_PER_S * seconds))):
        if index % sut.TRAIN_ROI_EPOCH == 0:
            trainer.model.clear_roi_cache()
        blocks.next()
        start = time.perf_counter()
        with span(recorder, "bench.step"):
            with span(recorder, "training.loader"):
                batch = next(batches)
            losses.append(train_step(trainer, batch, recorder))
        blocks.done(start, float(len(batch)))
    summary = blocks.summary(blocks.duration_ms, 90)

    outcome.attempted = len(losses)
    outcome.failed = sum(1 for loss in losses if not math.isfinite(loss))
    outcome.detail.update(steps=summary, tail_percentile=90,
                          batch_size=sut.TRAIN_BATCH_SIZE)
    outcome.end_to_end.update(
        lat_p50_ms=summary["lat_p50_ms"], lat_tail_ms=summary["lat_tail_ms"],
        throughput_per_s=summary["throughput_per_s"],
        peak_rss_mb=sut.peak_rss_mb())

    auc, probe_losses = _probe(pipeline, seed, own_step=True)
    again, trainer_losses = _probe(pipeline, seed, own_step=False)
    if auc != again or probe_losses != trainer_losses:
        raise CheckFailed(
            f"two probes of seed {seed} disagree: auc {auc} vs {again}, "
            f"losses {probe_losses} vs {trainer_losses}")
    if outcome.failed:
        raise CheckFailed(f"{outcome.failed} non-finite losses")
    outcome.per_layer.update({"training.auc": auc,
                              "training.steps": float(len(losses))})
    if recorder is None:
        return outcome
    report = recorder.report()
    layers = report["layers"]
    if subtree_ms(layers, ["serving."]):
        raise CheckFailed("the train workload recorded serving spans")
    step = layers["bench.step"]
    untraced, traced = blocks.split()
    outcome.per_layer.update(per_operation(report, step["calls"]))
    outcome.per_layer.update({
        "ledger.unexplained_share": step["self_ms"] / step["total_ms"],
        "ledger.focus_share": (step["total_ms"] - step["self_ms"])
        / (traced[1] * 1000.0),
        "trace.overhead_share": overhead_share([untraced], traced)})
    outcome.trace = {"steps": report}
    return outcome


# ---------------------------------------------------------------------- #
# ingest-serve: writes beside reads, one thread, in-process
# ---------------------------------------------------------------------- #
def run_ingest_serve(scale, seed, seconds, trace, started) -> Outcome:
    """``Pipeline.ingest`` micro-batches interleaved with hot reads."""
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    warm, tail = sut.ingest_log(scale)
    pipeline, stages = sut.deploy(sut.ingest_spec(scale, warm))
    outcome.per_layer.update({f"setup.{key}": value
                              for key, value in stages.items()})
    pairs = sorted({(s.user_id, s.query_id) for s in warm})
    hot = [pairs[i] for i in rng.choice(
        len(pairs), size=min(scale.read_hot_keys, len(pairs)),
        replace=False)]
    warm_started = time.perf_counter()
    for low in range(0, len(hot), 32):
        pipeline.deployment.serve_batch(hot[low:low + 32], k=TOP_K)
    outcome.per_layer["setup.warm_s"] = time.perf_counter() - warm_started
    outcome.end_to_end["setup_s"] = time.perf_counter() - started
    recorder = None
    if trace:
        recorder = Recorder()
        sut.instrument(recorder, pipeline.graph, pipeline.model,
                       pipeline.server, pipeline)

    size = sut.INGEST_MICRO_BATCH
    ingests: List[float] = []
    reads: List[float] = []
    invalidated = 0
    counted = dict.fromkeys(sut.counters(pipeline), 0)
    blocks = Blocks(recorder)
    cycles = min(max(SEGMENTS, round(sut.INGEST_CYCLES_PER_S * seconds)),
                 len(tail) // size)
    for _ in range(cycles):
        blocks.next()
        before = sut.counters(pipeline) if blocks.traced[-1] else None
        keys = [hot[i] for i in rng.integers(0, len(hot),
                                             size=sut.KEYS_PER_READ)]
        start = time.perf_counter()
        with span(recorder, "bench.cycle"):
            report = pipeline.ingest(
                tail[len(ingests) * size:(len(ingests) + 1) * size])
            ingested = time.perf_counter()
            pipeline.deployment.serve_batch(keys, k=TOP_K)
        blocks.done(start, float(size + len(keys)))
        ingests.append((ingested - start) * 1000.0)
        reads.append((blocks.finished[-1] - ingested) * 1000.0)
        if before is not None:
            invalidated += report.invalidated_cache_keys
            for key, value in sut.counters(pipeline).items():
                counted[key] += value - before[key]
    summary = blocks.summary(reads, 95)

    applied = len(ingests)
    outcome.attempted = 2 * applied         # one ingest + one read per cycle
    outcome.detail.update(
        cycles=summary, tail_percentile=95, cycles_run=applied,
        micro_batch=size, keys_per_read=sut.KEYS_PER_READ)
    outcome.end_to_end.update(
        lat_p50_ms=summary["lat_p50_ms"], lat_tail_ms=summary["lat_tail_ms"],
        throughput_per_s=summary["throughput_per_s"],
        peak_rss_mb=sut.peak_rss_mb())

    if pipeline.graph.version != applied:
        raise CheckFailed(f"graph.version {pipeline.graph.version} after "
                          f"{applied} micro-batches")
    builder = GraphBuilder(
        feature_dim=pipeline.graph.schema.feature_dims["item"])
    for node_type, nodes in pipeline.graph.num_nodes.items():
        builder.set_node_features(
            node_type, np.zeros((nodes, builder.feature_dim)))
    for session in list(warm) + list(tail[:applied * size]):
        builder.add_session(session.user_id, session.query_id,
                            session.clicked_items)
    one_shot = builder.build().summary()["relations"]
    streamed = pipeline.graph.summary()["relations"]
    if one_shot != streamed:
        raise CheckFailed(f"streamed edge counts {streamed} differ from a "
                          f"one-shot build {one_shot}")
    outcome.per_layer["api.ingest.call_p50_ms"] = float(np.median(ingests))
    if recorder is None:
        return outcome
    report = recorder.report()
    report["counters"] = counted
    layers = report["layers"]
    cycle = layers["bench.cycle"]
    untraced, traced = blocks.split()
    # Ratios are per request; layer costs are then restated per *cycle*.
    outcome.per_layer.update(serving_layers(
        report, int(cycle["calls"]) * sut.KEYS_PER_READ))
    outcome.per_layer.update(per_operation(report, cycle["calls"]))
    outcome.per_layer.update({
        "serving.refresh.invalidated_keys": invalidated / cycle["calls"],
        "ledger.unexplained_share": cycle["self_ms"] / cycle["total_ms"],
        "ledger.focus_share": layers["api.ingest"]["total_ms"]
        / (traced[1] * 1000.0),
        "trace.overhead_share": overhead_share([untraced], traced)})
    outcome.trace = {"cycles": report}
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "serve-hot": partial(serve, serve_hot),
    "serve-cold": partial(serve, serve_cold),
    "train": run_train, "ingest-serve": run_ingest_serve}
