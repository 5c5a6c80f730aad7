"""In-memory span recorder for the traced benchmark run.

:func:`install` wraps the public functions of every layer module of
``repro`` at module or class level — before any stack is built, because
managers bind policy and device methods into hot-path aliases at
construction — and :func:`uninstall` puts the originals back.  Each call
of a wrapped function records one span ``(name, start_ns, end_ns,
parent, work)``; spans stay in memory and are handed out per benchmark
call with :meth:`Recorder.take`.  A layer's self time is the duration of
its spans minus the part covered by their child spans
(:func:`summarize`).

Cluster shards run in forked worker processes.  The traced run swaps the
cluster engine's job fan-out for a version that runs every shard job
through :func:`_run_worker`, which records the worker's spans in the
child (the wrappers are inherited through ``fork``) and ships them back
with the job result.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

#: The layers whose public functions and methods are wrapped: each
#: package stands for all of its modules loaded when tracing starts.
LAYER_MODULES = (
    "repro.workloads",
    "repro.engine.executor",
    "repro.bench.runner",
    "repro.bufferpool",
    "repro.policies",
    "repro.core",
    "repro.prefetch",
    "repro.storage",
    "repro.cluster",
)

#: Modules reported as a sub-layer of their package; every other module
#: reports as its package (``repro.policies.lru`` -> ``policies``).
SUBLAYERS = {
    "repro.bufferpool.wal": "bufferpool.wal",
    "repro.bufferpool.recovery": "bufferpool.recovery",
    "repro.core.ace": "core.ace",
    "repro.core.writer": "core.writer",
    "repro.core.evictor": "core.evictor",
    "repro.core.reader": "core.reader",
    "repro.cluster.router": "cluster.router",
    "repro.cluster.engine": "cluster.engine",
    "repro.cluster.replication": "cluster.replication",
    # ``build_stack`` lives with the experiment harness but builds a
    # bufferpool stack: device, policy and manager.
    "repro.bench.runner": "bufferpool",
}

#: Private names wrapped as well: the internal steps whose time would
#: otherwise be charged to whichever layer happens to call them.
PRIVATE = {
    "repro.bufferpool.manager": (
        "BufferPoolManager._handle_miss",
        "BufferPoolManager._write_back",
        "BufferPoolManager._evict",
        "BufferPoolManager._load",
        "BufferPoolManager._install_fetched",
    ),
    "repro.core.ace": (
        "ACEBufferPoolManager._handle_miss",
        "ACEBufferPoolManager._fetch_with_prefetch",
    ),
    "repro.cluster.engine": ("_assemble",),
    "repro.cluster.replication": ("_ReplicaGroup", "_GroupNode"),
}

#: Functions whose integer return value is recorded as the span's work
#: count (pages written by one ACE write-back batch).
COUNT_RETURN = {"repro.core.writer.Writer.flush"}

#: Span names that build a whole stack (device, policy, manager); their
#: inclusive time is ``bufferpool.build_s``.
STACK_BUILDS = {
    "repro.bench.runner.build_stack",
    "repro.cluster.engine.build_shard_stack",
    "repro.cluster.replication.build_replica_stack",
}

#: The cluster engine's job fan-out, replaced in the traced run so that
#: worker-side spans come back to the benchmark process.
FANOUT = ("repro.cluster.engine", "_execute_jobs")

#: The recorder of the current traced run, for worker processes forked
#: while it is installed (they cannot receive it through pickling).
_ACTIVE: "Recorder | None" = None


def layer_of(module: str) -> str:
    return SUBLAYERS.get(module, module.split(".")[1])


class Recorder:
    """Span store of one process.

    ``spans`` holds ``(name_id, start_ns, end_ns, parent_index, work)``
    tuples; ``names``/``layers`` map a name id to the span name and its
    layer.  Worker processes fill their own copy and return it as a batch.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.worker_batches: list[tuple[int, list]] = []
        self._ids: dict[str, int] = {}

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def take(self) -> tuple[list, list[tuple[int, list]]]:
        """Hand out (and forget) the spans recorded since the last take:
        this process's spans and the batches shipped back by workers."""
        if self.stack:
            raise RuntimeError("take() inside an open span")
        spans = list(self.spans)
        self.spans.clear()
        workers = self.worker_batches
        self.worker_batches = []
        return spans, workers

    def wrap(self, fn, name: str, layer: str):
        """``fn`` recording one span per call."""
        name_id = self.name_id(name, layer)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        count_return = name in COUNT_RETURN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            work = 0
            try:
                result = fn(*args, **kwargs)
                if count_return:
                    work = result
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, work)

        return traced


def _layer_modules():
    """The loaded modules of every entry of :data:`LAYER_MODULES`."""
    for entry in LAYER_MODULES:
        importlib.import_module(entry)
        for name in sorted(sys.modules):
            if name == entry or name.startswith(entry + "."):
                yield sys.modules[name]


def _targets(module):
    """``(owner, attribute, function, qualified name)`` for everything in
    ``module`` that gets a span."""
    private = PRIVATE.get(module.__name__, ())
    for attr, value in sorted(vars(module).items()):
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            if attr.startswith("_") and attr not in private:
                continue
            if (
                dataclasses.is_dataclass(value)
                or issubclass(value, (enum.Enum, BaseException))
                or getattr(value, "_is_protocol", False)
            ):
                continue
            for method, member in sorted(vars(value).items()):
                qualname = f"{attr}.{method}"
                public = not method.startswith("_") or method == "__init__"
                if not public and qualname not in private:
                    continue
                yield value, method, member, f"{module.__name__}.{qualname}"
        elif inspect.isfunction(value):
            if attr.startswith("_") and attr not in private:
                continue
            yield module, attr, value, f"{module.__name__}.{attr}"


def _spanned(recorder: Recorder, member, name: str, layer: str):
    """The wrapped replacement for a class or module member, or ``None``
    for members a span cannot time (properties, generators)."""
    if isinstance(member, (staticmethod, classmethod)):
        inner = member.__func__
        if inspect.isgeneratorfunction(inner):
            return None
        return type(member)(recorder.wrap(inner, name, layer))
    if not inspect.isfunction(member) or inspect.isgeneratorfunction(member):
        return None
    return recorder.wrap(member, name, layer)


class Tracing:
    """Installed wrappers; :meth:`uninstall` restores every original."""

    def __init__(self, saved: list) -> None:
        self._saved = saved

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        _ACTIVE = None


def install(recorder: Recorder) -> Tracing:
    """Wrap every layer function, recording into ``recorder``."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already installed")
    saved: list = []
    replaced: dict[int, object] = {}
    for module in _layer_modules():
        layer = layer_of(module.__name__)
        for owner, attr, member, name in list(_targets(module)):
            wrapped = _spanned(recorder, member, name, layer)
            if wrapped is None:
                continue
            if owner is module:
                replaced[id(member)] = wrapped
            saved.append((owner, attr, member))
            setattr(owner, attr, wrapped)
    fanout_module = sys.modules.get(FANOUT[0])
    fanout = getattr(fanout_module, FANOUT[1], None) if fanout_module else None
    if fanout is not None:
        saved.append((fanout_module, FANOUT[1], fanout))
        setattr(
            fanout_module,
            FANOUT[1],
            recorder.wrap(
                _collecting_fanout(recorder, fanout),
                ".".join(FANOUT),
                layer_of(FANOUT[0]),
            ),
        )
    # ``from x import f`` copies the function into the importer's
    # namespace: rebind those copies as well.
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None and inspect.isfunction(value):
                saved.append((module, attr, value))
                setattr(module, attr, wrapped)
    _ACTIVE = recorder
    return Tracing(saved)


def _collecting_fanout(recorder: Recorder, original):
    """The fan-out with every job run through :func:`_run_worker`."""
    default = inspect.signature(original).parameters["worker"].default

    def fanout(jobs, workers, worker=default):
        # Registered before the pool forks, so the children share the id.
        recorder.name_id(_worker_name(worker), layer_of(worker.__module__))
        results = original(
            jobs, workers, worker=functools.partial(_run_worker, worker)
        )
        unwrapped = []
        for result, batch in results:
            if batch is not None:
                recorder.worker_batches.append(batch)
            unwrapped.append(result)
        return unwrapped

    return fanout


def _worker_name(worker) -> str:
    return f"{worker.__module__}.{worker.__qualname__}"


def _run_worker(worker, job):
    """Run one shard job; in a forked worker, return its spans with it."""
    recorder = _ACTIVE
    if recorder is None or recorder.pid == os.getpid():
        return worker(job), None
    # A forked child inherits the parent's open stack and spans.
    recorder.spans.clear()
    recorder.stack.clear()
    name = _worker_name(worker)
    result = recorder.wrap(worker, name, layer_of(worker.__module__))(job)
    batch = (os.getpid(), list(recorder.spans))
    recorder.spans.clear()
    return result, batch


@dataclasses.dataclass
class CallSummary:
    """Per-layer totals of one traced benchmark call."""

    #: Self seconds per layer, over every process of the call.
    self_s: dict[str, float]
    #: Span count per layer.
    calls: dict[str, int]
    #: Inclusive seconds and call count per span name.
    inclusive_s: dict[str, float]
    name_calls: dict[str, int]
    #: Work recorded by COUNT_RETURN spans, per span name.
    work: dict[str, int]
    #: Sum of the layers' self seconds in the calling process only (the
    #: quantity the self-check compares with the call's wall time).
    main_self_s: float


def _self_times(spans):
    """Per-span self nanoseconds: duration minus the child durations."""
    self_ns = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            self_ns[parent] -= span[2] - span[1]
    return self_ns


def summarize(recorder: Recorder, spans, worker_batches) -> CallSummary:
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inclusive_s: dict[str, float] = defaultdict(float)
    name_calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    main_self_ns = 0
    batches = [spans] + [batch for _, batch in worker_batches]
    for index, batch in enumerate(batches):
        for span, own_ns in zip(batch, _self_times(batch)):
            name_id = span[0]
            layer = recorder.layers[name_id]
            name = recorder.names[name_id]
            self_s[layer] += own_ns / 1e9
            calls[layer] += 1
            inclusive_s[name] += (span[2] - span[1]) / 1e9
            name_calls[name] += 1
            work[name] += span[4]
            if index == 0:
                main_self_ns += own_ns
    return CallSummary(
        dict(self_s),
        dict(calls),
        dict(inclusive_s),
        dict(name_calls),
        dict(work),
        main_self_ns / 1e9,
    )
