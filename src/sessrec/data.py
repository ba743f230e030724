"""Click-stream ingestion, train/test splitting and session-parallel batching.

The on-disk format is UTF-8 CSV with header ``SessionId,ItemId,Time`` where
``Time`` is integer milliseconds since the epoch (ISO-8601 accepted behind a
flag). Sessions of length one and sessions longer than a configurable bot
threshold are dropped at ingestion.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

__all__ = [
    "Event",
    "ItemVocab",
    "SessionStore",
    "MiniBatch",
    "SessionBatcher",
    "DataFormatError",
    "EventColumns",
    "index_sessions",
    "ingest_events",
    "read_events_csv",
    "write_sessions_csv",
    "split_train_test",
]

CSV_HEADER = ("SessionId", "ItemId", "Time")

DEFAULT_MAX_SESSION_LEN = 200


class DataFormatError(ValueError):
    """Raised for malformed input records; carries the offending line number."""


@dataclass(frozen=True)
class Event:
    session_id: str
    item_id: str
    timestamp: int  # milliseconds since epoch

    def __post_init__(self):
        if not self.session_id or not self.item_id:
            raise ValueError("session_id and item_id must be non-empty")
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp: {self.timestamp}")


class ItemVocab:
    """Bijection between item ids and dense indices, with popularity counts.

    Popularity is the number of training events per item; it sums to the
    total event count of the store it was built from.
    """

    def __init__(self, items: Sequence[str], popularity: Sequence[int]):
        if len(items) != len(popularity):
            raise ValueError("items and popularity length mismatch")
        self.items: list[str] = list(items)
        self.index: dict[str, int] = {it: i for i, it in enumerate(self.items)}
        if len(self.index) != len(self.items):
            raise ValueError("duplicate item ids in vocabulary")
        self.popularity = np.asarray(popularity, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.index


@dataclass
class Session:
    session_id: str
    items: np.ndarray  # item indices, int64
    times: np.ndarray  # per-event timestamps, int64

    @property
    def start_time(self) -> int:
        return int(self.times[0])

    def __len__(self) -> int:
        return len(self.items)


class SessionStore:
    """Time-ordered sessions of item indices (relative to some ItemVocab)."""

    def __init__(self, sessions: Sequence[Session]):
        self.sessions: list[Session] = list(sessions)

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    @property
    def n_events(self) -> int:
        return sum(len(s) for s in self.sessions)

    @property
    def n_pairs(self) -> int:
        return sum(len(s) - 1 for s in self.sessions)

    def order(self) -> list[int]:
        """Indices into ``sessions`` in iteration order: start time ascending,
        id as tiebreak."""
        s = self.sessions
        return sorted(range(len(s)), key=lambda i: (s[i].start_time, s[i].session_id))

    def ordered(self) -> list[Session]:
        """Sessions in iteration order (see :meth:`order`)."""
        return [self.sessions[i] for i in self.order()]


@dataclass
class MiniBatch:
    """One step of session-parallel iteration.

    ``prev_lanes[k]`` names the lane of the previous batch whose hidden row
    lane ``k`` continues; rows flagged in ``reset_mask`` are zeroed before
    stepping, so their mapping is immaterial. A :class:`SessionBatcher` also
    says which case each lane holds: the index of its session in the store's
    ``sessions`` list and the position of its input event in that session.
    """

    inputs: np.ndarray  # item indices, shape (B,)
    targets: np.ndarray  # item indices, shape (B,)
    reset_mask: np.ndarray  # bool, shape (B,)
    prev_lanes: np.ndarray  # int, shape (B,)
    sessions: np.ndarray | None = None  # int, shape (B,)
    positions: np.ndarray | None = None  # int, shape (B,)

    @property
    def width(self) -> int:
        return len(self.inputs)


def _parse_time(text: str, iso: bool, line_no: int) -> int:
    try:
        if iso:
            dt = datetime.fromisoformat(text)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            return int(dt.timestamp() * 1000)
        return int(text)
    except ValueError as exc:
        raise DataFormatError(f"line {line_no}: bad timestamp {text!r}") from exc


def read_events_csv(source: TextIO | str, iso_time: bool = False) -> list[Event]:
    """Parse the CSV schema into events; malformed rows name their line."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    events: list[Event] = []
    header = next(reader, None)
    if header is None:
        return events
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataFormatError(f"line 1: expected header {','.join(CSV_HEADER)}")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"line {line_no}: expected 3 fields, got {len(row)}")
        sid, item, t = (f.strip() for f in row)
        if not sid or not item:
            raise DataFormatError(f"line {line_no}: empty session or item id")
        events.append(Event(sid, item, _parse_time(t, iso_time, line_no)))
    return events


class EventColumns(NamedTuple):
    """Events column by column, with their ids interned: event ``k`` belongs
    to session ``session_ids[sessions[k]]``, clicks item
    ``item_ids[items[k]]`` and happens at ``times[k]``."""

    sessions: np.ndarray
    session_ids: list[str]
    items: np.ndarray
    item_ids: list[str]
    times: np.ndarray

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventColumns":
        events = list(events)
        session_code: dict[str, int] = {}
        item_code: dict[str, int] = {}
        sessions = [session_code.setdefault(e.session_id, len(session_code)) for e in events]
        items = [item_code.setdefault(e.item_id, len(item_code)) for e in events]
        return cls(
            np.array(sessions, dtype=np.int64), list(session_code),
            np.array(items, dtype=np.int64), list(item_code),
            np.array([e.timestamp for e in events], dtype=np.int64),
        )


def index_sessions(
    events: EventColumns,
    vocab: ItemVocab | None = None,
    max_session_len: int | None = DEFAULT_MAX_SESSION_LEN,
) -> tuple[SessionStore, ItemVocab, int]:
    """Group events into sessions and index their items.

    Events are sorted by timestamp within each session (stable on ties).
    Sessions shorter than two events are dropped, as are sessions longer
    than ``max_session_len`` (a bot filter; None keeps every length). The
    rest are ordered by start time, then id.

    Without ``vocab``, a vocabulary is built over the kept events, with
    indices assigned by first appearance in session order and popularity
    counting the kept events. With ``vocab``, items it does not know are
    dropped, then sessions left shorter than two events. Returns the store,
    the vocabulary and the number of events dropped for an unknown item.
    """
    sessions, times = events.sessions, events.times
    n = len(events.session_ids)
    length = np.bincount(sessions, minlength=n)
    ok = length >= 2
    if max_session_len is not None:
        ok &= length <= max_session_len
    start = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(start, sessions, times)
    _, id_rank = np.unique(np.array(events.session_ids, dtype=object), return_inverse=True)
    # by start time, id, then time within the session; stable, so ties keep input order
    order = np.lexsort((times, sessions, id_rank[sessions], start[sessions]))
    order = order[ok[sessions[order]]]
    sessions, codes, times = sessions[order], events.items[order], times[order]

    if vocab is None:
        codes_seen, first = np.unique(codes, return_index=True)
        by_first = codes_seen[np.argsort(first)]
        index = np.full(len(events.item_ids), -1, dtype=np.int64)
        index[by_first] = np.arange(len(by_first))
        vocab = ItemVocab([events.item_ids[c] for c in by_first.tolist()],
                          np.bincount(index[codes], minlength=len(by_first)))
    else:
        index = np.array([vocab.index.get(it, -1) for it in events.item_ids], dtype=np.int64)
    items = index[codes]
    known = items >= 0
    dropped = len(items) - int(known.sum())
    if dropped:
        keep = known & (np.bincount(sessions[known], minlength=n) >= 2)[sessions]
        sessions, items, times = sessions[keep], items[keep], times[keep]
    first = np.flatnonzero(np.diff(sessions, prepend=-1)).tolist()
    store = SessionStore([
        Session(events.session_ids[sessions[a]], items[a:b], times[a:b])
        for a, b in zip(first, first[1:] + [len(sessions)])
    ])
    return store, vocab, dropped


def ingest_events(
    events: Iterable[Event],
    max_session_len: int = DEFAULT_MAX_SESSION_LEN,
) -> tuple[SessionStore, ItemVocab]:
    """Group events into sessions and build the item vocabulary
    (:func:`index_sessions` without a vocabulary)."""
    store, vocab, _ = index_sessions(EventColumns.from_events(events),
                                     max_session_len=max_session_len)
    return store, vocab


def write_sessions_csv(store: SessionStore, vocab: ItemVocab, out: TextIO) -> None:
    """Serialize a store in canonical form: sessions in iteration order."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for sess in store.ordered():
        for item_idx, t in zip(sess.items, sess.times):
            writer.writerow([sess.session_id, vocab.items[item_idx], int(t)])


def split_train_test(
    store: SessionStore,
    vocab: ItemVocab,
    boundary: int,
) -> tuple[SessionStore, ItemVocab, SessionStore]:
    """Split whole sessions at a time boundary and re-index on the train vocab.

    Sessions starting before ``boundary`` go to train, the rest to test.
    Test events whose item never occurs in train are removed; test sessions
    left shorter than two events are dropped.
    """

    def columns(sessions: list[Session]) -> EventColumns:
        empty = np.empty(0, dtype=np.int64)
        return EventColumns(
            np.repeat(np.arange(len(sessions)), [len(s) for s in sessions]),
            [s.session_id for s in sessions],
            np.concatenate([empty, *(s.items for s in sessions)]), vocab.items,
            np.concatenate([empty, *(s.times for s in sessions)]),
        )

    train_raw = [s for s in store.sessions if s.start_time < boundary]
    test_raw = [s for s in store.sessions if s.start_time >= boundary]
    train, train_vocab, _ = index_sessions(columns(train_raw), max_session_len=None)
    test, _, _ = index_sessions(columns(test_raw), train_vocab, max_session_len=None)
    return train, train_vocab, test


class SessionBatcher:
    """Session-parallel mini-batch iterator.

    Lanes carry independent sessions, advanced one event per call. When a
    lane's session runs out of (input, target) pairs, the next unconsumed
    session takes its place (reset flagged); when no session is available
    the batch width shrinks. Lanes filled at the very start are flagged for
    reset as well, so "zero the state before this lane's first step" holds
    uniformly.
    """

    def __init__(self, store: SessionStore, batch_width: int):
        if batch_width < 1:
            raise ValueError(f"batch width must be >= 1, got {batch_width}")
        self._sessions = store.sessions
        self._order = [i for i in store.order() if len(self._sessions[i]) >= 2]
        self._next_session = 0
        self._lanes: list[int] = []  # index into store.sessions per lane
        self._pos: list[int] = []  # index of the current input event per lane
        self._fresh: list[bool] = []
        while len(self._lanes) < batch_width and self._next_session < len(self._order):
            self._lanes.append(self._order[self._next_session])
            self._pos.append(0)
            self._fresh.append(True)
            self._next_session += 1

    def __iter__(self) -> Iterator[MiniBatch]:
        return self

    def __next__(self) -> MiniBatch:
        # Replace or drop lanes whose session has no remaining pair.
        lanes: list[int] = []
        pos: list[int] = []
        fresh: list[bool] = []
        prev_lanes: list[int] = []
        for k, s in enumerate(self._lanes):
            if self._pos[k] + 1 < len(self._sessions[s]):
                lanes.append(s)
                pos.append(self._pos[k])
                fresh.append(self._fresh[k])
                prev_lanes.append(k)
            elif self._next_session < len(self._order):
                lanes.append(self._order[self._next_session])
                self._next_session += 1
                pos.append(0)
                fresh.append(True)
                prev_lanes.append(k)
        if not lanes:
            raise StopIteration
        self._lanes, self._pos = lanes, pos

        items = [self._sessions[s].items for s in lanes]
        inputs = np.array([it[p] for it, p in zip(items, pos)], dtype=np.int64)
        targets = np.array([it[p + 1] for it, p in zip(items, pos)], dtype=np.int64)
        batch = MiniBatch(
            inputs=inputs,
            targets=targets,
            reset_mask=np.array(fresh, dtype=bool),
            prev_lanes=np.array(prev_lanes, dtype=np.int64),
            sessions=np.array(lanes, dtype=np.int64),
            positions=np.array(pos, dtype=np.int64),
        )
        self._pos = [p + 1 for p in self._pos]
        self._fresh = [False] * len(lanes)
        return batch
