"""The traced run: per-layer busy time, waits and counts.

Wrappers are installed from the benchmark's own files around the public
entry points of each engine module (class methods and module functions,
patched in place and restored afterwards).  Each wrapped call records

* ``busy``: thread CPU time (``time.thread_time``) inside the call, so a
  partition worker waiting for the GIL behind its sibling is not charged;
* ``self``: busy time minus the busy time of wrapped calls nested in it on
  the same thread;
* ``wall``: wall time, so that ``wall - busy`` is the time the call waited.

Generator entry points (``LSMBTree.scan``) are charged per ``next()``.  A
target the engine no longer has fails the traced run (``resolve_targets``
raises) rather than reading 0, which would look like a layer that costs
nothing; a refactor that moves an entry point has to update ``TARGETS``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

from repro import get_registry, metrics_delta

#: (layer name, module, attribute path) of every wrapped entry point.  Several
#: entry points may share a layer name; nested calls of one layer are charged
#: once to its busy time.
TARGETS: List[Tuple[str, str, str]] = [
    ("sqlpp.compile", "repro.sqlpp", "compile"),
    ("query.optimize", "repro.query.executor", "QueryExecutor.prepare_physical"),
    ("query.execute", "repro.query.executor", "QueryExecutor.execute"),
    ("query.execute", "repro.query.executor", "QueryExecutor.execute_physical"),
    ("query.execute", "repro.query.executor", "QueryExecutor.execute_prepared"),
    ("cache.column.store", "repro.cache.column_cache", "ColumnSliceCache.store_chunk"),
    ("lsm.scan", "repro.lsm.lsm_index", "LSMBTree.scan"),
    ("lsm.flush", "repro.lsm.lsm_index", "LSMBTree.flush"),
    ("lsm.merge", "repro.lsm.lsm_index", "LSMBTree.merge"),
    ("lsm.insert", "repro.lsm.lsm_index", "LSMBTree.insert"),
    ("lsm.upsert", "repro.lsm.lsm_index", "LSMBTree.upsert"),
    ("core.tuple_compactor.flush", "repro.core.tuple_compactor", "TupleCompactor.transform_record"),
    ("core.tuple_compactor.flush", "repro.core.tuple_compactor", "TupleCompactor.end_flush"),
    ("core.tuple_compactor.decode", "repro.core.tuple_compactor", "TupleCompactor.decode_record"),
    ("schema.observe", "repro.schema.schema", "InferredSchema.observe"),
    ("vector.encode", "repro.vector.encoder", "VectorEncoder.encode"),
    ("vector.compact", "repro.vector.compaction", "compact_record"),
    ("vector.get_values", "repro.vector.decoder", "VectorRecordView.get_values"),
    ("vector.extract", "repro.vector.batch", "BatchExtractor.extract"),
    ("vector.materialize", "repro.vector.decoder", "VectorRecordView.materialize"),
    ("adm.decode", "repro.adm.decoder", "ADMDecoder.decode"),
    ("adm.decode", "repro.adm.decoder", "ADMRecordView.materialize"),
    ("adm.decode", "repro.adm.decoder", "ADMRecordView.get_field"),
    ("adm.decode", "repro.adm.decoder", "ADMRecordView.get_items"),
    ("storage.read_page", "repro.storage.buffer_cache", "BufferCache.read_page"),
    ("storage.write_page", "repro.storage.buffer_cache", "BufferCache.write_page"),
    ("storage.decompress", "repro.storage.compression", "ZlibCodec.decompress"),
    ("storage.compress", "repro.storage.compression", "ZlibCodec.compress"),
    ("storage.wal.append", "repro.storage.wal", "WriteAheadLog.append"),
]

#: Per-layer metrics: name -> (unit, how it is computed).  ``busy``/``self``/
#: ``wait`` read the wrappers, ``calls`` counts wrapped calls, ``counter``
#: sums engine-registry counters whose name starts with the given prefix,
#: ``ratio`` divides two such sums, and ``trace`` is the traced run's own.
METRICS: Dict[str, Tuple[str, Tuple]] = {
    "sqlpp.compile.busy_s": ("s", ("busy", "sqlpp.compile")),
    "sqlpp.compile.calls": ("count", ("calls", "sqlpp.compile")),
    "query.optimize.busy_s": ("s", ("busy", "query.optimize")),
    "query.execute.self_busy_s": ("s", ("self", "query.execute")),
    "query.execute.wait_s": ("s", ("wait", "query.execute")),
    "query.row_mode_queries": ("count", ("counter", "query_batch_fallbacks")),
    "cache.plan.hit_ratio": ("ratio", ("ratio", "plan_cache_hits", "plan_cache_misses")),
    "cache.column.hit_ratio": ("ratio", ("ratio", "column_cache_hits", "column_cache_misses")),
    "cache.column.hits_per_store": ("ratio", ("per", "column_cache_hits", "column_cache_stores")),
    "cache.column.store_busy_s": ("s", ("busy", "cache.column.store")),
    "lsm.scan.self_busy_s": ("s", ("self", "lsm.scan")),
    "lsm.flush.busy_s": ("s", ("busy", "lsm.flush")),
    "lsm.flush.calls": ("count", ("calls", "lsm.flush")),
    "lsm.merge.busy_s": ("s", ("busy", "lsm.merge")),
    "lsm.merge.calls": ("count", ("calls", "lsm.merge")),
    "lsm.insert.self_busy_s": ("s", ("self", "lsm.insert")),
    "lsm.upsert.self_busy_s": ("s", ("self", "lsm.upsert")),
    "lsm.bytes_flushed": ("bytes", ("counter", "lsm_bytes_flushed")),
    "lsm.bytes_merged": ("bytes", ("counter", "lsm_bytes_merged")),
    "core.tuple_compactor.flush_busy_s": ("s", ("busy", "core.tuple_compactor.flush")),
    "core.tuple_compactor.decode_busy_s": ("s", ("busy", "core.tuple_compactor.decode")),
    "schema.observe.busy_s": ("s", ("busy", "schema.observe")),
    "vector.encode.busy_s": ("s", ("busy", "vector.encode")),
    "vector.compact.busy_s": ("s", ("busy", "vector.compact")),
    "vector.get_values.busy_s": ("s", ("busy", "vector.get_values")),
    "vector.extract.busy_s": ("s", ("busy", "vector.extract")),
    "vector.materialize.busy_s": ("s", ("busy", "vector.materialize")),
    "adm.decode.busy_s": ("s", ("busy", "adm.decode")),
    "storage.read_page.busy_s": ("s", ("busy", "storage.read_page")),
    "storage.decompress.busy_s": ("s", ("busy", "storage.decompress")),
    "storage.pages_read": ("count", ("counter", "device_read_ops{io_class=data}")),
    "storage.buffer_cache.hit_ratio": ("ratio", ("ratio", "cache_hits", "cache_misses")),
    "storage.device.bytes_read": ("bytes", ("counter", "device_bytes_read")),
    "storage.compress.busy_s": ("s", ("busy", "storage.compress")),
    "storage.write_page.busy_s": ("s", ("busy", "storage.write_page")),
    "storage.wal.append.busy_s": ("s", ("busy", "storage.wal.append")),
    "storage.wal.bytes": ("bytes", ("counter", "wal_bytes_written")),
    "storage.device.bytes_written": ("bytes", ("counter", "device_bytes_written")),
    "trace.self_busy_share": ("ratio", ("trace", "self_busy_share")),
    "trace.overhead": ("ratio", ("trace", "overhead")),
}


def resolve_targets() -> List[Tuple[str, Any, str, Any]]:
    """(layer name, owner, attribute, original) of every entry in ``TARGETS``;
    raises ``LookupError`` naming every target the engine does not have."""
    resolved = []
    missing = []
    for name, module_name, path in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{path}")
            continue
        owner_path, _, attribute = path.rpartition(".")
        owner: Any = module
        for part in owner_path.split(".") if owner_path else []:
            owner = getattr(owner, part, None)
        original = (owner.__dict__.get(attribute) if isinstance(owner, type)
                    else getattr(owner, attribute, None))
        if not callable(original):
            missing.append(f"{module_name}.{path}")
            continue
        resolved.append((name, owner, attribute, original))
    if missing:
        raise LookupError("trace targets not found in the engine: " + ", ".join(missing))
    return resolved


class _Frame:
    __slots__ = ("name", "cpu", "wall", "child", "outermost")

    def __init__(self, name: str, outermost: bool) -> None:
        self.name = name
        self.outermost = outermost
        self.child = 0.0
        self.wall = time.perf_counter()
        self.cpu = time.thread_time()


class LayerTracer:
    """Installs the wrappers for one measured phase and accumulates their times."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.totals: Dict[str, List[float]] = {}
        self._cpu_started = 0.0
        self._registry_before: Dict[str, Dict[str, Any]] = {}
        self.process_cpu_s = 0.0
        self.registry_delta: Dict[str, Dict[str, Any]] = {}

    # -- accounting -----------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        frame = _Frame(name, all(outer.name != name for outer in stack))
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, count_call: bool) -> None:
        cpu = time.thread_time() - frame.cpu
        wall = time.perf_counter() - frame.wall
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += cpu
        with self._lock:
            slot = self.totals.get(frame.name)
            if slot is None:
                # busy, self, wall, calls
                slot = self.totals[frame.name] = [0.0, 0.0, 0.0, 0]
            slot[1] += cpu - frame.child
            if frame.outermost:
                slot[0] += cpu
                slot[2] += wall
            if count_call:
                slot[3] += 1

    def _wrap(self, name: str, original: Any) -> Any:
        tracer = self

        if inspect.isgeneratorfunction(original):
            def traced_iterator(iterator):
                first = True
                try:
                    while True:
                        frame = tracer._enter(name)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame, first)
                            first = False
                        yield item
                finally:
                    iterator.close()

            def generator_wrapper(*args, **kwargs):
                return traced_iterator(original(*args, **kwargs))
            generator_wrapper.__wrapped__ = original
            return generator_wrapper

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(frame, True)
        wrapper.__wrapped__ = original
        return wrapper

    # -- install / remove -----------------------------------------------------

    def start(self) -> None:
        """Install every wrapper and start the measured phase."""
        for name, owner, attribute, original in resolve_targets():
            wrapped = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapped)
            else:
                # A module function is also bound by name in every module that
                # imported it; patch each binding.
                for loaded_name, loaded in list(sys.modules.items()):
                    if (loaded_name == "repro" or loaded_name.startswith("repro.")) \
                            and loaded.__dict__.get(attribute) is original:
                        self._patch(loaded, attribute, wrapped)
        self._registry_before = get_registry().snapshot()
        self._cpu_started = time.process_time()

    def _patch(self, owner: Any, attribute: str, wrapped: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapped)

    def stop(self) -> None:
        """End the measured phase and restore every patched attribute."""
        self.process_cpu_s = time.process_time() - self._cpu_started
        self.registry_delta = metrics_delta(get_registry().snapshot(), self._registry_before)
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []

    # -- results ----------------------------------------------------------------

    def self_busy_total(self) -> float:
        return sum(slot[1] for slot in self.totals.values())

    def _counter(self, prefix: str) -> float:
        counters = self.registry_delta.get("counters", {})
        if "{" in prefix:
            return float(counters.get(prefix, 0.0))
        return float(sum(value for key, value in counters.items()
                         if key == prefix or key.startswith(prefix + "{")))

    def metrics(self, overhead: float) -> Dict[str, float]:
        """Every per-layer metric of this phase (0 where a layer did not run)."""
        out: Dict[str, float] = {}
        for metric, (_, how) in METRICS.items():
            kind = how[0]
            slot = self.totals.get(how[1], [0.0, 0.0, 0.0, 0])
            if kind == "busy":
                value = slot[0]
            elif kind == "self":
                value = slot[1]
            elif kind == "wait":
                value = max(0.0, slot[2] - slot[0])
            elif kind == "calls":
                value = float(slot[3])
            elif kind == "counter":
                value = self._counter(how[1])
            elif kind == "ratio":
                hits, misses = self._counter(how[1]), self._counter(how[2])
                value = hits / (hits + misses) if hits + misses else 0.0
            elif kind == "per":
                value = self._counter(how[1]) / max(1.0, self._counter(how[2]))
            elif how[1] == "self_busy_share":
                value = (self.self_busy_total() / self.process_cpu_s
                         if self.process_cpu_s else 0.0)
            else:
                value = overhead
            out[metric] = value
        return out
