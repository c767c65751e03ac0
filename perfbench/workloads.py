"""The three workloads, each as one round of fixed operations.

A round sets up from scratch (input generation with ``repro.datasets`` and a
dataset build or load), then runs a fixed count of operations in a fixed
order derived from the seed, checking every result against ``oracle``.  A
run repeats whole rounds with the same inputs.  Every engine call goes
through the public ``repro`` API; maintenance is synchronous and every
storage and LSM setting the benchmark depends on is pinned below.
"""

from __future__ import annotations

import gc
import json
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    Dataset,
    DeviceKind,
    LSMConfig,
    StorageConfig,
    StorageEnvironment,
    StorageFormat,
)
from repro.datasets import sensors, twitter, wos

import oracle
from hostclock import HostClock, Timing

# -- pinned settings ------------------------------------------------------------

STORAGE = StorageConfig(page_size=8 * 1024, buffer_cache_pages=4096,
                        device_kind=DeviceKind.NVME_SSD, compression="zlib",
                        compression_level=1, io_throttle=0.0)


def _lsm(memory_component_budget: int, merge_policy: str) -> LSMConfig:
    return LSMConfig(memory_component_budget=memory_component_budget, merge_policy=merge_policy,
                     max_mergable_component_size=1024 * 1024 * 1024,
                     max_tolerable_component_count=5, maintain_primary_key_index=True,
                     background_maintenance=False)


#: The feed flushes and merges (prefix policy).  scan-cold builds flush 4x as
#: often and never merge, so each partition ends with 4-6 components for the
#: cold scans to reconcile, and enough inserts carry an inline flush for the
#: write tail to measure flushes.
LSM = _lsm(256 * 1024, "prefix")
COLD_LSM = _lsm(64 * 1024, "none")

# -- sizes (records per dataset) -------------------------------------------------

FEED_RECORDS = 3000
FEED_UPDATE_PROBABILITY = 0.5
FEED_WRITES_PER_QUERY = 50
#: Twitter Q1-Q3 read no field that ``generate_update`` changes; the fourth
#: query counts those fields, so a read of a stale version shows in the feed.
FEED_QUERY_CYCLE = ("Q1", "Q2", "Q3", "updates")

COLD_PARTITIONS = 2
COLD_RECORDS = {"twitter": 600, "wos": 300, "sensors": 240}
COLD_ROTATIONS = 4

WARM_RECORDS = {"twitter": 2000, "wos": 1000, "sensors": 500}
WARM_ROTATIONS = 20
WARM_QUERIES = (("twitter", "Q1"), ("twitter", "Q2"), ("twitter", "Q3"),
                ("wos", "Q1"), ("wos", "Q2"),
                ("sensors", "Q2"), ("sensors", "Q3"), ("sensors", "Q4"))

_GENERATORS = {"twitter": twitter.generate, "wos": wos.generate, "sensors": sensors.generate}
_SEED_OFFSETS = {"twitter": 0, "wos": 1, "sensors": 2}

# -- the Appendix A queries, and the feed's updated-field query, as SQL++ text
#    (pinned here, not read from the engine) --

_WOS_ADDRESS = "t.static_data.fullrecord_metadata.addresses.address_name"
_WOS_SUBJECT = "t.static_data.fullrecord_metadata.category_info.subjects.subject"

QUERIES: Dict[str, Dict[str, str]] = {
    "twitter": {
        "Q1": "SELECT VALUE count(*) FROM Tweets AS t",
        "Q2": "SELECT uname, avg(length(t.text)) AS a FROM Tweets AS t "
              "GROUP BY t.user.name AS uname ORDER BY a DESC LIMIT 10",
        "Q3": "SELECT uname, count(*) AS c FROM Tweets AS t "
              "WHERE SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = 'jobs' "
              "GROUP BY t.user.name AS uname ORDER BY c DESC LIMIT 10",
        "Q4": "SELECT * FROM Tweets AS t ORDER BY t.timestamp_ms",
        "updates": "SELECT count(t.edit_history) AS edited, count(t.coordinates) AS located, "
                   "count(abs(t.retweet_count)) AS numeric_retweets FROM Tweets AS t",
    },
    "wos": {
        "Q1": "SELECT VALUE count(*) FROM Publications AS t",
        "Q2": f"SELECT v, count(*) AS cnt FROM Publications AS t "
              f"UNNEST {_WOS_SUBJECT} AS subject WHERE subject.ascatype = 'extended' "
              f"GROUP BY subject.value AS v ORDER BY cnt DESC LIMIT 10",
        "Q3": f"SELECT country, count(*) AS cnt FROM Publications AS t "
              f"LET countries = array_distinct({_WOS_ADDRESS}[*].address_spec.country) "
              f"UNNEST countries AS country "
              f"WHERE is_array({_WOS_ADDRESS}) AND array_count(countries) > 1 "
              f"AND array_contains(countries, 'USA') AND country != 'USA' "
              f"GROUP BY country ORDER BY cnt DESC LIMIT 10",
        "Q4": f"SELECT pair, count(*) AS cnt FROM Publications AS t "
              f"LET countries = array_distinct({_WOS_ADDRESS}[*].address_spec.country), "
              f"pairs = array_pairs(countries) "
              f"UNNEST pairs AS pair "
              f"WHERE is_array({_WOS_ADDRESS}) AND array_count(countries) > 1 "
              f"GROUP BY pair ORDER BY cnt DESC LIMIT 10",
    },
    "sensors": {
        "Q1": "SELECT VALUE count(*) FROM Sensors AS s UNNEST s.readings AS r",
        "Q2": "SELECT max(r.temp) AS max_temp, min(r.temp) AS min_temp "
              "FROM Sensors AS s UNNEST s.readings AS r",
        "Q3": "SELECT sid, avg(r.temp) AS avg_temp FROM Sensors AS s UNNEST s.readings AS r "
              "GROUP BY s.sensor_id AS sid ORDER BY avg_temp DESC LIMIT 10",
        "Q4": f"SELECT sid, avg(r.temp) AS avg_temp FROM Sensors AS s UNNEST s.readings AS r "
              f"WHERE s.report_time > {oracle.SENSORS_Q4_LOW} "
              f"AND s.report_time < {oracle.SENSORS_Q4_HIGH} "
              f"GROUP BY s.sensor_id AS sid ORDER BY avg_temp DESC LIMIT 10",
    },
}


def json_bytes(record: Dict[str, Any]) -> int:
    """UTF-8 bytes of a record's compact JSON text (the input-byte unit)."""
    return len(json.dumps(record, separators=(",", ":"), ensure_ascii=False).encode("utf-8"))


class Round:
    """Timings, byte counts and check results of one round."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        #: set-up steps, and the operations of the measured phase
        self.setup: List[Timing] = []
        self.measured: List[Timing] = []
        #: (timing, records written by the operation)
        self.writes: List[Tuple[Timing, int]] = []
        #: (query class, timing)
        self.queries: List[Tuple[str, Timing]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.checks = 0
        self.mismatches: List[str] = []
        self.json_bytes_written = 0
        self.device_bytes_written = 0
        self.storage_bytes = 0
        self.live_json_bytes = 0

    # -- operations ------------------------------------------------------------

    def timed_setup(self, fn: Callable, *args) -> Any:
        result, timing = self.clock.timed(fn, *args)
        self.setup.append(timing)
        return result

    def attempt(self, fn: Callable, *args,
                setup: bool = False) -> Tuple[bool, Any, Optional[Timing]]:
        """Run one engine operation; a raised error counts as a failed operation."""
        self.attempted += 1
        try:
            result, timing = self.clock.timed(fn, *args)
        except Exception as exc:  # the engine's error is the result being measured
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return False, None, None
        (self.setup if setup else self.measured).append(timing)
        return True, result, timing

    def write(self, fn: Callable, records: Sequence[Dict[str, Any]], *args,
              setup: bool = False) -> bool:
        ok, _, timing = self.attempt(fn, *args, setup=setup)
        if ok:
            self.writes.append((timing, len(records)))
            self.json_bytes_written += sum(json_bytes(record) for record in records)
        return ok

    def query(self, dataset: Dataset, label: str, text: str, answer: oracle.Answer,
              setup: bool = False) -> None:
        ok, result, timing = self.attempt(dataset.query, text, setup=setup)
        if not ok:
            return
        if not setup:
            self.queries.append((label, timing))
        self.verify(label, oracle.check(result.rows, answer))

    def verify(self, label: str, problem: Optional[str]) -> None:
        self.checks += 1
        if problem is not None:
            self.mismatches.append(f"{label}: {problem}")

    def finish(self, datasets: Sequence[Dataset], environments: Sequence[StorageEnvironment],
               live_records: Sequence[Dict[str, Any]]) -> None:
        self.clock.settle()
        self.storage_bytes = sum(dataset.storage_size() for dataset in datasets)
        self.device_bytes_written = sum(environment.device.snapshot().bytes_written
                                        for environment in environments)
        self.live_json_bytes = sum(json_bytes(record) for record in live_records)


def _generate(kind: str, count: int, seed: int) -> List[Dict[str, Any]]:
    return list(_GENERATORS[kind](count, seed=seed * 10 + _SEED_OFFSETS[kind]))


def _new_dataset(name: str, storage_format: StorageFormat, partitions: int,
                 lsm: LSMConfig = LSM) -> Tuple[Dataset, StorageEnvironment]:
    environment = StorageEnvironment(STORAGE)
    dataset = Dataset.create(name, storage_format, environment=environment,
                             partitions=partitions, lsm=lsm)
    return dataset, environment


def _quiesce() -> None:
    """Collect garbage (the previous round's datasets, set-up temporaries)
    outside any timed region."""
    gc.collect()


# -- feed -------------------------------------------------------------------------

def _feed_script(seed: int) -> List[Tuple[str, Any]]:
    """Inserts, structural updates of earlier records, and a query every 50 writes."""
    records = _generate("twitter", FEED_RECORDS, seed)
    rng = random.Random(seed * 7919 + 17)
    current: Dict[Any, Dict[str, Any]] = {}
    order: List[Any] = []
    script: List[Tuple[str, Any]] = []
    writes = 0
    queries = 0

    def wrote() -> None:
        nonlocal writes, queries
        writes += 1
        if writes % FEED_WRITES_PER_QUERY == 0:
            script.append(("query", FEED_QUERY_CYCLE[queries % len(FEED_QUERY_CYCLE)]))
            queries += 1

    for record in records:
        script.append(("insert", record))
        current[record["id"]] = record
        order.append(record["id"])
        wrote()
        if rng.random() < FEED_UPDATE_PROBABILITY:
            key = order[rng.randrange(len(order))]
            updated = twitter.generate_update(current[key], rng)
            current[key] = updated
            script.append(("upsert", updated))
            wrote()
    return script


def feed_round(seed: int, clock: HostClock, tracer: Any = None) -> Round:
    """A Twitter feed into one INFERRED partition with structural updates."""
    _quiesce()
    rnd = Round(clock)
    script = rnd.timed_setup(_feed_script, seed)
    dataset, environment = rnd.timed_setup(_new_dataset, "Tweets", StorageFormat.INFERRED, 1)
    _quiesce()
    live: Dict[Any, Dict[str, Any]] = {}
    if tracer is not None:
        tracer.start()
    for op, payload in script:
        if op == "query":
            answer = oracle.ANSWERS["twitter"][payload](list(live.values()))
            rnd.query(dataset, f"twitter.{payload}", QUERIES["twitter"][payload], answer)
            continue
        writer = dataset.insert if op == "insert" else dataset.upsert
        if rnd.write(writer, [payload], payload):
            live[payload["id"]] = payload
    if tracer is not None:
        tracer.stop()
    scanned = {record["id"]: record for record in dataset.scan()}
    rnd.verify("feed.final_state", None if scanned == live else
               f"scan() holds {len(scanned)} records, {sum(1 for key in live if scanned.get(key) != live[key])} "
               f"differ from the {len(live)} live records")
    rnd.finish([dataset], [environment], list(live.values()))
    return rnd


# -- scan-cold ----------------------------------------------------------------------

#: (dataset name, storage format, generator) in rotation order.
_COLD_DATASETS = (("Tweets", StorageFormat.INFERRED, "twitter"),
                  ("TweetsOpen", StorageFormat.OPEN, "twitter"),
                  ("Publications", StorageFormat.INFERRED, "wos"),
                  ("Sensors", StorageFormat.INFERRED, "sensors"))


def scan_cold_round(seed: int, clock: HostClock, tracer: Any = None) -> Round:
    """The 16-query rotation over datasets built by insert and flush, caches dropped."""
    _quiesce()
    rnd = Round(clock)
    inputs: Dict[str, List[Dict[str, Any]]] = {}
    built = []
    for name, storage_format, kind in _COLD_DATASETS:
        if kind not in inputs:
            inputs[kind] = rnd.timed_setup(_generate, kind, COLD_RECORDS[kind], seed)
        dataset, environment = rnd.timed_setup(_new_dataset, name, storage_format,
                                               COLD_PARTITIONS, COLD_LSM)
        for record in inputs[kind]:
            rnd.write(dataset.insert, [record], record, setup=True)
        rnd.timed_setup(dataset.flush_all)
        built.append((name, kind, dataset, environment))
    answers = {kind: {label: answer(records) for label, answer in oracle.ANSWERS[kind].items()}
               for kind, records in inputs.items()}
    sizes = {name: dataset.storage_size() for name, _, dataset, _ in built}
    rnd.verify("fig16.inferred_smaller_than_open",
               None if sizes["Tweets"] < sizes["TweetsOpen"] else
               f"INFERRED {sizes['Tweets']} B >= OPEN {sizes['TweetsOpen']} B")
    _quiesce()
    if tracer is not None:
        tracer.start()
    for _ in range(COLD_ROTATIONS):
        for name, kind, dataset, environment in built:
            for label in ("Q1", "Q2", "Q3", "Q4"):
                environment.drop_caches()
                rnd.query(dataset, f"{name}.{label}", QUERIES[kind][label], answers[kind][label])
    if tracer is not None:
        tracer.stop()
    live = [record for _, kind, _, _ in built for record in inputs[kind]]
    rnd.finish([entry[2] for entry in built], [entry[3] for entry in built], live)
    return rnd


# -- scan-warm ----------------------------------------------------------------------

def scan_warm_round(seed: int, clock: HostClock, tracer: Any = None) -> Round:
    """Repeated aggregates over bulk-loaded datasets, served by the column-slice cache."""
    _quiesce()
    rnd = Round(clock)
    names = {"twitter": "Tweets", "wos": "Publications", "sensors": "Sensors"}
    inputs: Dict[str, List[Dict[str, Any]]] = {}
    built: Dict[str, Tuple[Dataset, StorageEnvironment]] = {}
    for kind in ("twitter", "wos", "sensors"):
        inputs[kind] = rnd.timed_setup(_generate, kind, WARM_RECORDS[kind], seed)
        dataset, environment = rnd.timed_setup(_new_dataset, names[kind],
                                               StorageFormat.INFERRED, 1)
        rnd.write(dataset.bulk_load, inputs[kind], inputs[kind], setup=True)
        built[kind] = (dataset, environment)
    answers = {(kind, label): oracle.ANSWERS[kind][label](inputs[kind])
               for kind, label in WARM_QUERIES}
    for kind, label in WARM_QUERIES:  # the warm-up pass, part of set-up
        rnd.query(built[kind][0], f"{names[kind]}.{label}", QUERIES[kind][label],
                  answers[(kind, label)], setup=True)
    _quiesce()
    if tracer is not None:
        tracer.start()
    for _ in range(WARM_ROTATIONS):
        for kind, label in WARM_QUERIES:
            rnd.query(built[kind][0], f"{names[kind]}.{label}", QUERIES[kind][label],
                      answers[(kind, label)])
    if tracer is not None:
        tracer.stop()
    rnd.finish([entry[0] for entry in built.values()], [entry[1] for entry in built.values()],
               [record for records in inputs.values() for record in records])
    return rnd


WORKLOADS = {
    "feed": feed_round,
    "scan-cold": scan_cold_round,
    "scan-warm": scan_warm_round,
}
