"""Plaintext oracle: what the encrypted store must answer.

The oracle mirrors every write the benchmark issues and keeps each
version it wrote per document, so results can be checked after the timed
phase without timing the checks.  A write that raised leaves the store
in a state the benchmark cannot know (that is the crash-consistency
defect tracked separately), so documents touched by a failed write are
*tainted* and left out of the comparisons; the failure itself is already
counted.
"""

from __future__ import annotations

import math
import threading
from typing import Any

#: Fixed-point codec of the Paillier tactic: six decimal digits.  An
#: average of values rounded to 1e-6 is off by at most 5e-7.
AVERAGE_TOLERANCE = 1e-6


def _plain(document: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in document.items() if key != "_id"}


class Oracle:
    """Thread-safe mirror of the live document set."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.live: dict[str, dict[str, Any]] = {}
        self.versions: dict[str, list[dict[str, Any]]] = {}
        self.tainted: set[str] = set()
        self.failed_inserts = 0

    # -- mirrored writes -----------------------------------------------------

    def inserted(self, doc_id: str, document: dict[str, Any]) -> None:
        with self._lock:
            self.live[doc_id] = dict(document)
            self.versions.setdefault(doc_id, []).append(dict(document))

    def updating(self, doc_id: str, changes: dict[str, Any]) -> None:
        """Record the version an update is about to write."""
        with self._lock:
            merged = {**self.live[doc_id], **changes}
            self.live[doc_id] = merged
            self.versions[doc_id].append(dict(merged))

    def deleted(self, doc_id: str) -> None:
        with self._lock:
            self.live.pop(doc_id, None)

    def write_failed(self, doc_id: str | None) -> None:
        with self._lock:
            if doc_id is None:
                self.failed_inserts += 1
            else:
                self.tainted.add(doc_id)

    # -- expected answers ----------------------------------------------------

    def ids_where(self, field: str, value: Any) -> set[str]:
        return {doc_id for doc_id, document in self.live.items()
                if document.get(field) == value}

    def average(self, field: str, where_field: str,
                where_value: Any) -> float | None:
        values = [document[field] for document in self.live.values()
                  if document.get(where_field) == where_value]
        return sum(values) / len(values) if values else None

    # -- checks --------------------------------------------------------------

    def check_found(self, field: str, value: Any,
                    documents: list[dict[str, Any]]) -> list[str]:
        """Per-op check of one ``find`` result.

        Every returned document satisfies the predicate and equals a
        version the benchmark wrote for its id.
        """
        errors = []
        for document in documents:
            doc_id = document.get("_id")
            if document.get(field) != value:
                errors.append(f"find({field}={value!r}) returned {doc_id} "
                              f"with {field}={document.get(field)!r}")
            elif doc_id in self.tainted:
                continue
            elif _plain(document) not in self.versions.get(doc_id, []):
                errors.append(f"find({field}={value!r}) returned {doc_id} "
                              f"in a version never written: {document}")
        return errors

    def check_ids(self, field: str, value: Any, got: set[str]) -> list[str]:
        """After the timed phase: the index answers exactly the oracle."""
        expected = self.ids_where(field, value)
        unknown = got - self.versions.keys()
        if self.failed_inserts:
            # A failed insert may have left an id the oracle never saw.
            got = got - unknown
        elif unknown:
            return [f"find_ids({field}={value!r}) returned ids never "
                    f"written: {sorted(unknown)[:3]}"]
        missing = (expected - got) - self.tainted
        extra = (got - expected) - self.tainted
        if missing or extra:
            return [f"find_ids({field}={value!r}): missing "
                    f"{sorted(missing)[:3]} extra {sorted(extra)[:3]}"]
        return []

    def check_average(self, subject: str, got: Any) -> list[str]:
        if self.tainted or self.failed_inserts:
            return []  # a tainted document may or may not be counted
        expected = self.average("value", "subject", subject)
        if expected is None:
            if got is None:
                return []
            return [f"average(subject={subject!r}) = {got!r}, expected None"]
        if got is None or not math.isclose(got, expected, rel_tol=0.0,
                                           abs_tol=AVERAGE_TOLERANCE):
            return [f"average(subject={subject!r}) = {got!r}, "
                    f"expected {expected!r}"]
        return []

    def check_count(self, status: str, counted: int,
                    ids: set[str]) -> list[str]:
        """Churn only: count == len(find_ids) == oracle."""
        expected = len(self.ids_where("status", status) - self.tainted)
        if self.tainted or self.failed_inserts:
            return [] if counted == len(ids) else [
                f"count(status={status!r}) = {counted} but find_ids "
                f"returned {len(ids)}"]
        if not counted == len(ids) == expected:
            return [f"count(status={status!r}) = {counted}, find_ids "
                    f"{len(ids)}, oracle {expected}"]
        return []
