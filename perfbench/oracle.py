"""Independent answers for the 12 Appendix A queries and the feed's
updated-field query, and the result checks.

Everything here is plain Python over the generated record dicts.  It imports
nothing from the engine (in particular nothing from ``repro.query`` or
``repro.sqlpp``), so a bug in the engine's shared evaluator cannot hide in
the expected answers.

Each ``answer`` function returns the expected answer; ``check`` compares the
engine's rows with it and returns ``None`` when they agree or a short
description of the first disagreement.

* LIMIT checks are tie-aware: every returned group's value must be right, the
  values must be sorted, and, rank by rank, equal the true top k values (so a
  group may differ from the expected one only where the values tie).
* Float aggregates are compared with a relative tolerance.
* Row envelopes are ignored: ``{"count": n}`` and a bare ``n`` both match a
  scalar answer, and ``{"record": {...}}`` (or any one-field envelope) and a
  bare record both match a ``SELECT *`` row.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations
from typing import Any, Dict, Iterable, List, Optional, Sequence

TOP_K = 10
_REL_TOL = 1e-9
_ABS_TOL = 1e-9

#: Sensors Q4 window: report_time in (base - 1, base - 1 + 2 minutes).
SENSORS_Q4_LOW = 1_556_496_000_000 - 1
SENSORS_Q4_HIGH = SENSORS_Q4_LOW + 2 * 60_000


class Answer:
    """An expected answer and how to compare rows with it."""

    def __init__(self, kind: str, value: Any, key: str = "", agg: str = "") -> None:
        #: "scalar", "aggregates" (one row of named values), "top" (grouped,
        #: ordered descending, LIMIT 10) or "records" (SELECT * in order).
        self.kind = kind
        self.value = value
        self.key = key
        self.agg = agg


# ---------------------------------------------------------------------------
# Twitter (Appendix A.1)
# ---------------------------------------------------------------------------

def twitter_q1(records: Sequence[Dict[str, Any]]) -> Answer:
    return Answer("scalar", len(records))


def twitter_q2(records: Sequence[Dict[str, Any]]) -> Answer:
    totals: Dict[Any, List[float]] = defaultdict(lambda: [0, 0])
    for record in records:
        slot = totals[record["user"]["name"]]
        slot[0] += len(record["text"])
        slot[1] += 1
    return Answer("top", {name: total / count for name, (total, count) in totals.items()},
                  key="uname", agg="a")


def twitter_q3(records: Sequence[Dict[str, Any]]) -> Answer:
    counts: Dict[Any, int] = defaultdict(int)
    for record in records:
        tags = record["entities"]["hashtags"]
        if any(tag["text"].lower() == "jobs" for tag in tags):
            counts[record["user"]["name"]] += 1
    return Answer("top", dict(counts), key="uname", agg="c")


def twitter_q4(records: Sequence[Dict[str, Any]]) -> Answer:
    return Answer("records", sorted(records, key=lambda record: record["timestamp_ms"]))


def twitter_updated_fields(records: Sequence[Dict[str, Any]]) -> Answer:
    """Counts of the fields ``twitter.generate_update`` adds, removes or retypes,
    so a query that reads a stale version of an upserted record disagrees."""
    return Answer("aggregates", {
        "edited": sum(record.get("edit_history") is not None for record in records),
        "located": sum(record.get("coordinates") is not None for record in records),
        "numeric_retweets": sum(isinstance(record.get("retweet_count"), (int, float))
                                and not isinstance(record.get("retweet_count"), bool)
                                for record in records),
    })


# ---------------------------------------------------------------------------
# Web of Science (Appendix A.2)
# ---------------------------------------------------------------------------

def _wos_countries(record: Dict[str, Any]) -> Optional[List[str]]:
    """Distinct countries of a record whose address list is an array."""
    addresses = record["static_data"]["fullrecord_metadata"]["addresses"]["address_name"]
    if not isinstance(addresses, list):
        return None
    return sorted({address["address_spec"]["country"] for address in addresses})


def wos_q1(records: Sequence[Dict[str, Any]]) -> Answer:
    return Answer("scalar", len(records))


def wos_q2(records: Sequence[Dict[str, Any]]) -> Answer:
    counts: Dict[Any, int] = defaultdict(int)
    for record in records:
        subjects = record["static_data"]["fullrecord_metadata"]["category_info"]["subjects"]
        for subject in subjects["subject"]:
            if subject["ascatype"] == "extended":
                counts[subject["value"]] += 1
    return Answer("top", dict(counts), key="v", agg="cnt")


def wos_q3(records: Sequence[Dict[str, Any]]) -> Answer:
    counts: Dict[Any, int] = defaultdict(int)
    for record in records:
        countries = _wos_countries(record)
        if countries and len(countries) > 1 and "USA" in countries:
            for country in countries:
                if country != "USA":
                    counts[country] += 1
    return Answer("top", dict(counts), key="country", agg="cnt")


def wos_q4(records: Sequence[Dict[str, Any]]) -> Answer:
    counts: Dict[Any, int] = defaultdict(int)
    for record in records:
        countries = _wos_countries(record)
        if countries and len(countries) > 1:
            for pair in combinations(countries, 2):
                counts[pair] += 1
    return Answer("top", dict(counts), key="pair", agg="cnt")


# ---------------------------------------------------------------------------
# Sensors (Appendix A.3)
# ---------------------------------------------------------------------------

def sensors_q1(records: Sequence[Dict[str, Any]]) -> Answer:
    return Answer("scalar", sum(len(record["readings"]) for record in records))


def sensors_q2(records: Sequence[Dict[str, Any]]) -> Answer:
    temps = [reading["temp"] for record in records for reading in record["readings"]]
    return Answer("aggregates", {"max_temp": max(temps), "min_temp": min(temps)})


def _sensor_averages(records: Iterable[Dict[str, Any]]) -> Dict[Any, float]:
    totals: Dict[Any, List[float]] = defaultdict(lambda: [0.0, 0])
    for record in records:
        slot = totals[record["sensor_id"]]
        for reading in record["readings"]:
            slot[0] += reading["temp"]
            slot[1] += 1
    return {sensor: total / count for sensor, (total, count) in totals.items() if count}


def sensors_q3(records: Sequence[Dict[str, Any]]) -> Answer:
    return Answer("top", _sensor_averages(records), key="sid", agg="avg_temp")


def sensors_q4(records: Sequence[Dict[str, Any]]) -> Answer:
    window = (record for record in records
              if SENSORS_Q4_LOW < record["report_time"] < SENSORS_Q4_HIGH)
    return Answer("top", _sensor_averages(window), key="sid", agg="avg_temp")


ANSWERS = {
    "twitter": {"Q1": twitter_q1, "Q2": twitter_q2, "Q3": twitter_q3, "Q4": twitter_q4,
                "updates": twitter_updated_fields},
    "wos": {"Q1": wos_q1, "Q2": wos_q2, "Q3": wos_q3, "Q4": wos_q4},
    "sensors": {"Q1": sensors_q1, "Q2": sensors_q2, "Q3": sensors_q3, "Q4": sensors_q4},
}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _close(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return math.isclose(left, right, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    return left == right


def _bare_record(row: Any) -> Any:
    """Strip a one-field ``{name: record}`` envelope (``"record"`` today, the
    range variable under SQL++ semantics) down to the record."""
    if isinstance(row, dict) and len(row) == 1:
        inner = next(iter(row.values()))
        if isinstance(inner, dict):
            return inner
    return row


def _scalar(row: Any) -> Any:
    if isinstance(row, dict) and len(row) == 1:
        return next(iter(row.values()))
    return row


def _hashable(value: Any) -> Any:
    return tuple(value) if isinstance(value, list) else value


def check(rows: Sequence[Any], answer: Answer) -> Optional[str]:
    """``None`` when ``rows`` match ``answer``, else what differs."""
    if answer.kind == "scalar":
        if len(rows) != 1 or not _close(_scalar(rows[0]), answer.value):
            return f"expected [{answer.value}], got {list(rows)[:3]}"
        return None
    if answer.kind == "aggregates":
        if len(rows) != 1 or not isinstance(rows[0], dict):
            return f"expected one row, got {list(rows)[:3]}"
        for name, value in answer.value.items():
            if not _close(rows[0].get(name), value):
                return f"{name}: expected {value}, got {rows[0].get(name)}"
        return None
    if answer.kind == "records":
        if len(rows) != len(answer.value):
            return f"expected {len(answer.value)} records, got {len(rows)}"
        for position, (row, record) in enumerate(zip(rows, answer.value)):
            if _bare_record(row) != record:
                return f"record {position} differs (id {record.get('id')})"
        return None
    return _check_top(rows, answer)


def _check_top(rows: Sequence[Any], answer: Answer) -> Optional[str]:
    expected: Dict[Any, Any] = {_hashable(key): value for key, value in answer.value.items()}
    want = min(TOP_K, len(expected))
    if len(rows) != want:
        return f"expected {want} groups, got {len(rows)}"
    seen = set()
    values: List[Any] = []
    for row in rows:
        if not isinstance(row, dict) or answer.key not in row or answer.agg not in row:
            return f"malformed row {row!r}"
        key = _hashable(row[answer.key])
        value = row[answer.agg]
        if key in seen:
            return f"group {key!r} returned twice"
        seen.add(key)
        if key not in expected or not _close(value, expected[key]):
            return f"group {key!r}: expected {expected.get(key)}, got {value}"
        if values and value > values[-1] and not _close(value, values[-1]):
            return f"not sorted descending at group {key!r}"
        values.append(value)
    # Ties at the k-th value may be broken either way, but the returned values
    # must be the true top k values: a group left out above the cut shows here.
    true_top = sorted(expected.values(), reverse=True)[:want]
    for rank, (value, true_value) in enumerate(zip(values, true_top), start=1):
        if not _close(value, true_value):
            return f"value at rank {rank} is {value}, the true one is {true_value}"
    return None


def altered(answer: Answer) -> Answer:
    """A copy of ``answer`` with one value changed (for the self-test)."""
    if answer.kind == "scalar":
        return Answer("scalar", answer.value + 1)
    if answer.kind == "aggregates":
        name = sorted(answer.value)[0]
        return Answer("aggregates", dict(answer.value, **{name: answer.value[name] + 1.0}))
    if answer.kind == "records":
        records = list(answer.value)
        records[0] = dict(records[0], text="altered")
        return Answer("records", records)
    ranked = sorted(answer.value, key=answer.value.__getitem__, reverse=True)
    changed = dict(answer.value)
    changed[ranked[0]] = changed[ranked[0]] + 1
    return Answer("top", changed, key=answer.key, agg=answer.agg)


def without_top_group(rows: Sequence[Dict[str, Any]], answer: Answer) -> Optional[List[Any]]:
    """``rows`` of a top-k answer with the largest group left out and the best
    group not returned appended in its place (for the self-test).  ``None``
    when the result would still be a right answer: the two groups tie."""
    returned = {_hashable(row[answer.key]) for row in rows}
    spare = [key for key in sorted(answer.value, key=answer.value.__getitem__, reverse=True)
             if _hashable(key) not in returned]
    if not rows:
        return None
    if spare:
        if _close(answer.value[spare[0]], rows[0][answer.agg]):
            return None
        return list(rows[1:]) + [{answer.key: spare[0], answer.agg: answer.value[spare[0]]}]
    return list(rows[1:])
