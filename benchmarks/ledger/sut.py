"""The fixed system under test, its timing proxies, and its host process.

Every workload measures ``Pipeline(ExperimentSpec(...))`` with the spec
defaults for model, serving and daemon.  Dataset and model seeds are
constants; a run's ``--seed`` never reaches this module, so two seeds
measure the same program state.
"""

from __future__ import annotations

import json
import os
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import (
    DataSpec,
    ExperimentSpec,
    Pipeline,
    StreamingSpec,
    TrainSpec,
    load_dataset,
)
from repro.data import split_sessions_at

from spans import Recorder, wrap

DATA_SEED = 7


@dataclass(frozen=True)
class Scale:
    """Everything that differs between the ledger and its smoke test."""

    name: str
    #: ``synthetic-taobao`` population.
    data: Dict[str, int]
    #: Training budget of the *served* model (one epoch).
    fit_batch_size: int
    fit_batches: int
    #: serve-hot: keys per half (posting-served / ANN-served).
    hot_keys: int
    nominal_rate: float
    #: ingest-serve: sessions per user of the replayed log, hot-set size.
    log_sessions_per_user: float
    read_hot_keys: int
    #: Examples the determinism probe of ``train`` evaluates.
    probe_examples: int


FULL = Scale("full", dict(num_users=1000, num_queries=600, num_items=4000,
                          num_categories=24),
             fit_batch_size=64, fit_batches=2, hot_keys=128,
             nominal_rate=2000.0, log_sessions_per_user=20.0,
             read_hot_keys=128, probe_examples=48)
SMOKE = Scale("smoke", dict(num_users=120, num_queries=80, num_items=300,
                            num_categories=8),
              fit_batch_size=16, fit_batches=1, hot_keys=16,
              nominal_rate=400.0, log_sessions_per_user=8.0,
              read_hot_keys=32, probe_examples=16)
SCALES = {scale.name: scale for scale in (FULL, SMOKE)}

#: serve-hot / serve-cold traffic constants.
SATURATION_WINDOW = 64
COLD_WINDOW = 16
#: The in-process workloads drift as they run (a growing graph, growing
#: caches), so they turn ``--seconds`` into a fixed operation count at the
#: rate of the reference box: every run then covers the same stretch.
TRAIN_STEPS_PER_S = 6.5
INGEST_CYCLES_PER_S = 11.0
TRAIN_BATCH_SIZE = 8
#: train keeps every n-th impression: consecutive ones share a session, and
#: the workload is meant to build a fresh ROI for (nearly) every example.
TRAIN_STRIDE = 16
#: train clears the model's ROI cache every this many steps.  Left to grow
#: (8 trees a step) the cache makes the cyclic GC ever slower and the step
#: time climbs 20 % over a 20 s run, so the median of segments would sit
#: on a slope and reject no slow spell.
TRAIN_ROI_EPOCH = 16
INGEST_MICRO_BATCH = 64
#: Keys of the one read that follows each micro-batch.  Retuned (with the
#: micro-batch) so that the write path takes 40-80 % of ingest-serve.
KEYS_PER_READ = 8
#: Share of the session log the ingest-serve graph is built from.
INGEST_WARM_FRACTION = 0.15


def _fit_budget(scale: Scale) -> TrainSpec:
    return TrainSpec(epochs=1, batch_size=scale.fit_batch_size,
                     max_batches_per_epoch=scale.fit_batches)


def _dataset_params(scale: Scale, **extra: Any) -> Dict[str, Any]:
    return {**scale.data, "seed": DATA_SEED, **extra}


def serving_spec(scale: Scale) -> ExperimentSpec:
    """The deployment serve-hot and serve-cold measure."""
    return ExperimentSpec(
        dataset=DataSpec(name="synthetic-taobao",
                         params=_dataset_params(scale),
                         max_train_examples=300, max_test_examples=0),
        training=_fit_budget(scale))


def train_spec(scale: Scale) -> ExperimentSpec:
    """Same graph as the serving workloads; no cap on the impressions."""
    return ExperimentSpec(
        dataset=DataSpec(name="synthetic-taobao",
                         params=_dataset_params(scale),
                         max_test_examples=scale.probe_examples),
        training=TrainSpec(batch_size=TRAIN_BATCH_SIZE))


def ingest_log(scale: Scale) -> Tuple[List, List]:
    """The session log split into the warm prefix and the replayed tail.

    Similarity edges are skipped: only the sessions are used, and they are
    drawn before (and independently of) those edges.
    """
    source = load_dataset("synthetic-taobao", **_dataset_params(
        scale, similarity_edges=False,
        sessions_per_user=scale.log_sessions_per_user))
    return split_sessions_at(source.sessions, INGEST_WARM_FRACTION)


def ingest_spec(scale: Scale, sessions: Sequence) -> ExperimentSpec:
    """A ``behavior-logs`` pipeline over ``sessions``."""
    return ExperimentSpec(
        dataset=DataSpec(name="behavior-logs",
                         params={"sessions": list(sessions),
                                 "seed": DATA_SEED},
                         max_train_examples=300, max_test_examples=0),
        training=_fit_budget(scale),
        streaming=StreamingSpec(micro_batch_size=INGEST_MICRO_BATCH,
                                refresh_every=1))


def deploy(spec: ExperimentSpec) -> Tuple[Pipeline, Dict[str, float]]:
    """Run the stages one by one; returns the pipeline and stage seconds."""
    pipeline = Pipeline(spec)
    marks = [time.perf_counter()]
    for stage in (pipeline.build_graph, pipeline.fit, pipeline.deploy):
        stage()
        marks.append(time.perf_counter())
    return pipeline, {"graph_s": marks[1] - marks[0],
                      "fit_s": marks[2] - marks[1],
                      "deploy_s": marks[3] - marks[2]}


def peak_rss_mb() -> float:
    """High-water resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Timing proxies
# ---------------------------------------------------------------------- #
def instrument(recorder: Recorder, graph: Any, model: Any,
               server: Any = None, pipeline: Any = None) -> None:
    """Set a span proxy on every layer boundary of the given objects."""
    for attr in ("neighbors", "typed_adjacency"):
        wrap(recorder, graph, attr, "graph.adjacency")
    for attr in ("sample_subgraph_batch", "sample_neighbors_batch"):
        wrap(recorder, graph, attr, "graph.sample")
    wrap(recorder, graph, "apply_updates", "graph.apply_updates")
    wrap(recorder, model, "forward_batch", "core.forward")
    wrap(recorder, model, "request_embedding", "core.request_embedding")
    for attr in ("forward", "feature_projection"):
        wrap(recorder, model.attention, attr, "core.attention")
    for attr in ("build", "build_batch"):
        wrap(recorder, model.roi_builder, attr, "core.roi")
    for attr in ("sample", "sample_batch"):
        wrap(recorder, model.roi_builder.sampler, attr, "sampling.focal")
    if pipeline is not None:
        wrap(recorder, pipeline, "ingest", "api.ingest")
    if server is None:
        return
    wrap(recorder, server, "serve_batch", "serving.server")
    for attr in ("get", "warm", "drain_refreshes"):
        wrap(recorder, server.cache, attr, "serving.cache")
    wrap(recorder, server.inverted_index, "lookup_batch", "serving.index")

    def wrap_ann(_result: Any = None) -> None:
        # refresh() swaps in a freshly derived index object.
        if "search_batch" not in vars(server.ann):
            wrap(recorder, server.ann, "search_batch", "serving.ann")

    wrap_ann()
    wrap(recorder, server, "refresh", "serving.refresh", after=wrap_ann)


def counters(pipeline: Pipeline, daemon: Any = None) -> Dict[str, float]:
    """The program's own public counters (cumulative)."""
    server = pipeline.server
    out = {"cache.hits": server.cache.stats.hits,
           "cache.misses": server.cache.stats.misses,
           "cache.invalidations": server.cache.stats.invalidations,
           "index.lookups": server.inverted_index.lookups,
           "index.misses": server.inverted_index.misses}
    if daemon is not None:
        batcher = daemon.batcher.stats
        out.update({"batcher.served": batcher.served,
                    "batcher.batches": batcher.batches,
                    "batcher.flushed_wait": batcher.flushed_wait,
                    "daemon.received": daemon.stats.received,
                    "daemon.served": daemon.stats.served,
                    "daemon.shed": (daemon.stats.shed_queue
                                    + daemon.stats.shed_quota)})
    return out


class BatchProbe:
    """Per-request instants at the batcher's two public boundaries.

    ``submit`` entry and ``serve_batch`` entry/exit are summed per request,
    which is all a *mean* needs: the loader's summed send and receive
    instants of the same requests give the daemon's share before and after
    without joining individual requests across processes (perf_counter is
    CLOCK_MONOTONIC, one clock for every process on the machine).
    """

    def __init__(self, recorder: Recorder, batcher: Any, server: Any):
        self.reset()
        submit, serve_batch = batcher.submit, server.serve_batch

        def submit_proxy(*args, **kwargs):
            if recorder.enabled:
                self._submitted.append(time.perf_counter())
            return submit(*args, **kwargs)

        def serve_batch_proxy(requests, *args, **kwargs):
            if not recorder.enabled:
                return serve_batch(requests, *args, **kwargs)
            entered = time.perf_counter()
            recorder.tag = self.batches
            results = serve_batch(requests, *args, **kwargs)
            left = time.perf_counter()
            waited = self._submitted[:len(requests)]
            del self._submitted[:len(requests)]
            if waited:          # a direct call has no submissions behind it
                self.requests += len(waited)
                self.batches += 1
                self.sum_submit += sum(waited)
                self.sum_wait += len(waited) * entered - sum(waited)
                self.sum_service += len(waited) * (left - entered)
                self.sum_left += len(waited) * left
            return results

        batcher.submit = submit_proxy
        server.serve_batch = serve_batch_proxy

    def reset(self) -> None:
        self._submitted: List[float] = []
        self.requests = self.batches = 0
        self.sum_submit = self.sum_wait = 0.0
        self.sum_service = self.sum_left = 0.0

    def sums(self) -> Dict[str, float]:
        return {"requests": self.requests, "batches": self.batches,
                "sum_submit": self.sum_submit, "sum_wait": self.sum_wait,
                "sum_service": self.sum_service, "sum_left": self.sum_left}


# ---------------------------------------------------------------------- #
# Host process for the two TCP workloads
# ---------------------------------------------------------------------- #
def host_main(scale_name: str, cpu: Optional[int]) -> None:
    """Child entry: deploy, start the daemon, answer the parent's commands.

    One JSON line per command on stdin (``[command, argument]``), one JSON
    line per answer on stdout; nothing else is ever written to stdout.
    """
    def send(payload: Any) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    pipeline, stages = deploy(serving_spec(SCALES[scale_name]))
    daemon = pipeline.deployment.daemon()
    server = pipeline.server
    send({"port": daemon.port, **stages})
    recorder: Optional[Recorder] = None
    probe: Optional[BatchProbe] = None
    start: Dict[str, float] = {}
    cpu0 = 0.0
    for line in sys.stdin:
        command, argument = json.loads(line)
        if command == "trace":
            if recorder is None:
                recorder = Recorder()
                instrument(recorder, pipeline.graph, pipeline.model, server)
                probe = BatchProbe(recorder, daemon.batcher, server)
            recorder.enabled = bool(argument)
            send(None)
        elif command == "begin":
            start, cpu0 = counters(pipeline, daemon), time.process_time()
            if recorder is not None:
                recorder.clear()
                probe.reset()
            send(None)
        elif command == "end":
            now = counters(pipeline, daemon)
            report: Dict[str, Any] = {
                "cpu_s": time.process_time() - cpu0,
                "counters": {key: now[key] - start[key] for key in now}}
            if recorder is not None and recorder.enabled:
                report.update(recorder.report(), probe=probe.sums())
            send(report)
        elif command == "reference":
            keys, k = argument
            send([[int(i) for i in result.item_ids[:k]] for result
                  in server.serve_batch([tuple(key) for key in keys], k=k)])
        elif command == "recall":
            matrix = np.asarray([pipeline.model.request_embedding(*key)
                                 for key in argument], dtype=server.dtype)
            send(float(server.ann.recall_at_k(matrix, 10)))
        elif command == "stop":
            pipeline.close()
            send({"peak_rss_mb": peak_rss_mb()})
            return


class Host:
    """Parent-side handle on the host process."""

    def __init__(self, scale: Scale, cpu: Optional[int]):
        here = os.path.dirname(os.path.abspath(__file__))
        self._process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), scale.name,
             "" if cpu is None else str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [here] + [path for path in sys.path if path])})
        self.ready: Dict[str, float] = self._receive(timeout=150.0)

    def _receive(self, timeout: float) -> Any:
        ready, _, _ = select.select([self._process.stdout], [], [], timeout)
        line = self._process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the host process did not answer within "
                               f"{timeout:.0f} s")
        return json.loads(line)

    def call(self, command: str, argument: Any = None) -> Any:
        self._process.stdin.write(json.dumps([command, argument]) + "\n")
        self._process.stdin.flush()
        return self._receive(timeout=60.0)

    def stop(self) -> Dict[str, float]:
        """Drain the daemon; returns the child's peak RSS."""
        return self.call("stop")

    def kill(self) -> None:
        """Reap the child; idempotent."""
        for pipe in (self._process.stdin, self._process.stdout):
            pipe.close()
        try:
            self._process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()


if __name__ == "__main__":
    host_main(sys.argv[1], int(sys.argv[2]) if sys.argv[2] else None)
