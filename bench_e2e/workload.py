"""The benchmark's inputs: schema, documents and per-user op streams.

Everything here is derived from ``--seed`` and nothing else, so the same
seed replays the same inputs.  The program under test only ever sees the
generated documents and predicates.

Op kinds are dealt from shuffled decks rather than drawn independently:
every block of a deck holds the workload's exact mix, so the mix (and
with it throughput and round trips per op) does not wander from seed to
seed, while order and values still do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro import FieldAnnotation, Schema

SCHEMA = "observation"
STATUSES = ("registered", "preliminary", "final", "amended")
CODES = ("glucose", "heart-rate", "systolic-bp", "body-temperature", "bmi")
PERFORMERS = ("Dr. Smith", "Dr. Jones", "Dr. Vermeulen", "Nurse Adams",
              "Nurse Peters", "Dr. Laurent")
#: Equality-searchable fields of the schema.  A ``status`` search returns
#: about a quarter of the corpus, the others a handful of documents, so
#: eq_search latency is bimodal; the field deck keeps the two modes in a
#: fixed ratio.
SEARCH_FIELDS = ("status", "code", "subject", "effective", "issued", "value")
#: Subjects; a multiple of every workload's user count, so each user owns
#: the same number of them (see ``UserStream``).
COHORT = 24
_EPOCH_2012 = 1325376000
_SIX_YEARS = 6 * 365 * 24 * 3600

INSERT, EQ_SEARCH, AGGREGATE = "insert", "eq_search", "aggregate"
UPDATE, DELETE, COUNT = "update", "delete", "count"

#: The paper's section 5.2 mix: a third each of insert, equality search
#: and Paillier average.
MIX_DECK = (INSERT, EQ_SEARCH, AGGREGATE) * 2
#: Churn: inserts equal deletes, so the live set keeps its size.
CHURN_DECK = ((INSERT,) * 4 + (UPDATE,) * 6 + (DELETE,) * 4
              + (EQ_SEARCH,) * 3 + (COUNT,) * 3)


def observation_schema() -> Schema:
    """The section 5.2 annotation: 8 tactic instances.

    DET on status, code, effective, issued and value; Mitra on subject;
    RND on performer; Paillier on value (for the average).
    """
    return Schema.define(
        SCHEMA,
        id="string",
        identifier="int",
        status=("string", FieldAnnotation.parse("C4", "I,EQ")),
        code=("string", FieldAnnotation.parse("C4", "I,EQ")),
        subject=("string", FieldAnnotation.parse("C2", "I,EQ")),
        effective=("int", FieldAnnotation.parse("C4", "I,EQ")),
        issued=("int", FieldAnnotation.parse("C4", "I,EQ")),
        performer=("string", FieldAnnotation.parse("C1", "I")),
        value=("float", FieldAnnotation.parse("C4", "I,EQ", "avg")),
        interpretation="string",
    )


def subjects() -> list[str]:
    return [f"patient-{index:02d}" for index in range(COHORT)]


def make_document(rng: random.Random, label: str,
                  cohort: tuple[str, ...] | None = None) -> dict[str, Any]:
    """One FHIR-shaped Observation with every field set; its subject is
    drawn from ``cohort`` (default: every subject)."""
    value = round(min(max(rng.gauss(60.0, 25.0), 1.0), 200.0), 2)
    effective = _EPOCH_2012 + rng.randrange(_SIX_YEARS)
    return {
        "id": label,
        "identifier": rng.randrange(1000, 100000),
        "status": rng.choice(STATUSES),
        "code": rng.choice(CODES),
        "subject": rng.choice(cohort or subjects()),
        "effective": effective,
        "issued": effective + rng.randrange(3600, 30 * 24 * 3600),
        "performer": rng.choice(PERFORMERS),
        "value": value,
        "interpretation": "high" if value > 85 else "normal",
    }


def corpus(seed: int, size: int) -> list[dict[str, Any]]:
    """The preloaded documents."""
    rng = random.Random(f"{seed}:corpus")
    return [make_document(rng, f"pre-{index}") for index in range(size)]


@dataclass(frozen=True)
class Op:
    """One step of a user's stream.

    ``handle`` names a document the user inserted (or was given from the
    preload): the harness maps it to the id the system assigned.
    """

    kind: str
    document: dict[str, Any] | None = None
    field: str = ""
    value: Any = None
    changes: dict[str, Any] | None = None
    handle: str = ""


class _Deck:
    """Deals items from a deck reshuffled every time it runs out."""

    def __init__(self, rng: random.Random, items: tuple):
        self._rng = rng
        self._items = items
        self._hand: list = []

    def deal(self):
        if not self._hand:
            self._hand = list(self._items)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


@dataclass
class UserStream:
    """A closed-loop user's endless, seed-determined op sequence.

    ``known`` holds documents the user may draw search values from;
    ``owned`` maps handles of documents only this user updates and
    deletes to their current plaintext.

    ``cohort`` holds the subjects only this user inserts, searches and
    averages.  Subject is the Mitra field, and a Mitra read of a keyword
    whose insert is still in flight fails at random (the gateway bumps
    its counter before the cloud holds the entry,
    ``src/repro/tactics/mitra.py:131``), about one op in 4,000.  A
    benchmark gate needs failure counts that repeat from run to run, so
    no two users share a subject; every user still reads and writes.
    """

    seed: int
    workload: str
    user: int
    deck: tuple
    search_fields: tuple
    known: list[dict[str, Any]]
    cohort: tuple[str, ...]
    owned: dict[str, dict[str, Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = random.Random(f"{self.seed}:{self.workload}:{self.user}")
        self._rng = rng
        self._kinds = _Deck(rng, self.deck)
        self._fields = _Deck(rng, self.search_fields)
        self._inserted = 0

    def next(self) -> Op:
        kind = self._kinds.deal()
        if kind in (UPDATE, DELETE) and not self.owned:
            # A user whose live set ran dry inserts instead; with the
            # preload share far above the deck's drift this is rare.
            kind = INSERT
        return getattr(self, f"_{kind}")()

    def _insert(self) -> Op:
        self._inserted += 1
        handle = f"u{self.user}-{self._inserted}"
        document = make_document(self._rng, handle, self.cohort)
        self.known.append(document)
        self.owned[handle] = document
        return Op(INSERT, document=document, handle=handle)

    def _eq_search(self) -> Op:
        name = self._fields.deal()
        if name == "subject":
            value = self._rng.choice(self.cohort)
        else:
            value = self._rng.choice(self.known)[name]
        return Op(EQ_SEARCH, field=name, value=value)

    def _aggregate(self) -> Op:
        return Op(AGGREGATE, field="subject",
                  value=self._rng.choice(self.cohort))

    def _update(self) -> Op:
        handle = self._rng.choice(sorted(self.owned))
        changes = {
            "status": self._rng.choice(STATUSES),
            "value": round(self._rng.uniform(1.0, 200.0), 2),
        }
        self.owned[handle] = {**self.owned[handle], **changes}
        return Op(UPDATE, changes=changes, handle=handle)

    def _delete(self) -> Op:
        handle = self._rng.choice(sorted(self.owned))
        del self.owned[handle]
        return Op(DELETE, handle=handle)

    def _count(self) -> Op:
        return Op(COUNT, field="status", value=self._rng.choice(STATUSES))


def user_streams(seed: int, workload: str, deck: tuple,
                 search_fields: tuple, users: int,
                 preload: list[dict[str, Any]]) -> list[UserStream]:
    """One stream per user; preloaded documents are dealt round-robin
    to owners (only churn updates or deletes them), and so are the
    subjects."""
    streams = []
    for user in range(users):
        owned = {
            f"pre-{index}": document
            for index, document in enumerate(preload)
            if index % users == user
        }
        streams.append(UserStream(seed, workload, user, deck,
                                  search_fields, known=list(preload),
                                  cohort=tuple(subjects()[user::users]),
                                  owned=owned))
    return streams


def warmup_ops(seed: int, deck: tuple,
               search_fields: tuple) -> list[list[Op]]:
    """One op per tactic and plan shape the workload uses, in stages
    whose ops may run side by side.

    The warm-up document is the benchmark's own (handle ``warm``) so the
    user streams' simulated live sets stay untouched; churn deletes it
    again at the end.
    """
    rng = random.Random(f"{seed}:warmup")
    document = make_document(rng, "warm")
    reads = [Op(EQ_SEARCH, field=name, value=document[name])
             for name in search_fields]
    if AGGREGATE in deck:
        reads.append(Op(AGGREGATE, field="subject",
                        value=document["subject"]))
    if UPDATE in deck:
        reads.append(Op(UPDATE, changes={"status": rng.choice(STATUSES),
                                         "value": 42.5}, handle="warm"))
    if COUNT in deck:
        reads.append(Op(COUNT, field="status", value=document["status"]))
    stages = [[Op(INSERT, document=document, handle="warm")], reads]
    if DELETE in deck:
        stages.append([Op(DELETE, handle="warm")])
    return stages
