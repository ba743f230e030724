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

_INT64_MAX = int(np.iinfo(np.int64).max)


class DataFormatError(ValueError):
    """Raised for malformed input records; carries the offending line number."""


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
    """One session's events; ``len`` is its event count."""

    session_id: str
    items: np.ndarray  # item indices, int64
    times: np.ndarray  # per-event timestamps, int64

    def __len__(self) -> int:
        return len(self.items)


class SessionStore:
    """Sessions of item indices (relative to some ItemVocab) laid end to end
    in the one iteration order: start time ascending, id as tiebreak.

    Session ``k`` is ``session_ids[k]``; its events are
    ``items[offsets[k]:offsets[k + 1]]`` at ``times[offsets[k]:offsets[k + 1]]``.
    """

    def __init__(self, sessions: Iterable[Session] = ()):
        """Store non-empty sessions given in any order."""
        sessions = sorted(sessions, key=lambda s: (int(s.times[0]), s.session_id))
        self.session_ids: list[str] = [s.session_id for s in sessions]
        self.offsets = np.cumsum([0] + [len(s) for s in sessions], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        self.items = np.concatenate([empty] + [s.items for s in sessions], dtype=np.int64)
        self.times = np.concatenate([empty] + [s.times for s in sessions], dtype=np.int64)

    @classmethod
    def _from_columns(cls, session_ids: list[str], offsets: np.ndarray, items: np.ndarray,
                      times: np.ndarray) -> "SessionStore":
        """A store of columns already in iteration order."""
        store = cls()
        store.session_ids, store.offsets, store.items, store.times = (
            session_ids, offsets, items, times)
        return store

    def __len__(self) -> int:
        return len(self.session_ids)

    def __iter__(self) -> Iterator[Session]:
        """Each session as a view of the columns, in iteration order."""
        bounds = self.offsets.tolist()
        for sid, a, b in zip(self.session_ids, bounds, bounds[1:]):
            yield Session(sid, self.items[a:b], self.times[a:b])

    @property
    def n_events(self) -> int:
        return len(self.items)

    @property
    def n_pairs(self) -> int:
        return len(self.items) - len(self.session_ids)

    def ordered(self) -> list[Session]:
        """The sessions in iteration order, as a list."""
        return list(self)


@dataclass
class MiniBatch:
    """One step of session-parallel iteration.

    ``prev_lanes[k]`` names the lane of the previous batch whose hidden row
    lane ``k`` continues; rows flagged in ``reset_mask`` are zeroed before
    stepping, so their mapping is immaterial. A :class:`SessionBatcher` also
    says which case each lane holds: the index of its session in the store's
    iteration order and the position of its input event in that session.
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
    """Milliseconds since the epoch; a value that int64 cannot hold or that is
    negative is an error naming its line."""
    try:
        if iso:
            dt = datetime.fromisoformat(text)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            ms = int(dt.timestamp() * 1000)
        else:
            ms = int(text)
    except ValueError as exc:
        raise DataFormatError(f"line {line_no}: bad timestamp {text!r}") from exc
    if ms > _INT64_MAX:
        raise DataFormatError(f"line {line_no}: timestamp out of range {text!r}")
    if ms < 0:
        raise DataFormatError(f"line {line_no}: negative timestamp {text!r}")
    return ms


class EventColumns(NamedTuple):
    """Events column by column, with their ids interned: event ``k`` belongs
    to session ``session_ids[sessions[k]]``, clicks item
    ``item_ids[items[k]]`` and happens at ``times[k]``."""

    sessions: np.ndarray
    session_ids: list[str]
    items: np.ndarray
    item_ids: list[str]
    times: np.ndarray


def read_events_csv(source: TextIO | str, iso_time: bool = False) -> EventColumns:
    """Parse the CSV schema into columns, ids interned in order of first
    appearance; malformed rows name their line."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    session_code: dict[str, int] = {}
    item_code: dict[str, int] = {}
    sessions: list[int] = []
    items: list[int] = []
    times: list[int] = []
    header = next(reader, None)
    if header is not None and tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataFormatError(f"line 1: expected header {','.join(CSV_HEADER)}")
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"line {line_no}: expected 3 fields, got {len(row)}")
        sid, item, t = (f.strip() for f in row)
        if not sid or not item:
            raise DataFormatError(f"line {line_no}: empty session or item id")
        times.append(_parse_time(t, iso_time, line_no))
        sessions.append(session_code.setdefault(sid, len(session_code)))
        items.append(item_code.setdefault(item, len(item_code)))
    return EventColumns(
        np.array(sessions, dtype=np.int64), list(session_code),
        np.array(items, dtype=np.int64), list(item_code),
        np.array(times, dtype=np.int64),
    )


def index_sessions(
    events: EventColumns,
    vocab: ItemVocab | None = None,
    max_session_len: int | None = DEFAULT_MAX_SESSION_LEN,
) -> tuple[SessionStore, ItemVocab, int]:
    """Group events into sessions and index their items.

    Events are sorted by timestamp within each session (stable on ties).
    Sessions shorter than two events are dropped, as are sessions longer
    than ``max_session_len`` (a bot filter; None keeps every length). With
    ``vocab``, items it does not know are dropped, then sessions left shorter
    than two events. The rest are stored in the one iteration order: the
    start time of their kept events, then id.

    Without ``vocab``, a vocabulary is built over the kept events, with
    indices assigned by first appearance in session order and popularity
    counting the kept events. Returns the store, the vocabulary and the
    number of events dropped for an unknown item.
    """
    sessions, codes, times = events.sessions, events.items, events.times
    n = len(events.session_ids)
    length = np.bincount(sessions, minlength=n)
    ok = length >= 2
    if max_session_len is not None:
        ok &= length <= max_session_len
    keep = ok[sessions]
    dropped = 0
    if vocab is not None:
        index = np.array([vocab.index.get(it, -1) for it in events.item_ids], dtype=np.int64)
        known = index[codes] >= 0
        dropped = int(np.count_nonzero(keep & ~known))
        keep &= known
        keep &= (np.bincount(sessions[keep], minlength=n) >= 2)[sessions]
    start = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(start, sessions[keep], times[keep])
    _, id_rank = np.unique(np.array(events.session_ids, dtype=object), return_inverse=True)
    # by start time, id, then time within the session; stable, so ties keep input order
    order = np.lexsort((times, sessions, id_rank[sessions], start[sessions]))
    order = order[keep[order]]
    sessions, codes, times = sessions[order], codes[order], times[order]

    if vocab is None:
        codes_seen, first = np.unique(codes, return_index=True)
        by_first = codes_seen[np.argsort(first)]
        index = np.full(len(events.item_ids), -1, dtype=np.int64)
        index[by_first] = np.arange(len(by_first))
        vocab = ItemVocab([events.item_ids[c] for c in by_first.tolist()],
                          np.bincount(index[codes], minlength=len(by_first)))
    first = np.flatnonzero(np.diff(sessions, prepend=-1))
    store = SessionStore._from_columns(
        [events.session_ids[s] for s in sessions[first].tolist()],
        np.append(first, len(sessions)), index[codes], times)
    return store, vocab, dropped


def ingest_events(
    events: EventColumns,
    max_session_len: int = DEFAULT_MAX_SESSION_LEN,
) -> tuple[SessionStore, ItemVocab]:
    """Group events into sessions and build the item vocabulary
    (:func:`index_sessions` without a vocabulary)."""
    store, vocab, _ = index_sessions(events, max_session_len=max_session_len)
    return store, vocab


def write_sessions_csv(store: SessionStore, vocab: ItemVocab, out: TextIO) -> None:
    """Serialize a store in canonical form: sessions in iteration order."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    ids = np.repeat(np.arange(len(store)), np.diff(store.offsets)).tolist()
    writer.writerows((store.session_ids[k], vocab.items[i], t)
                     for k, i, t in zip(ids, store.items.tolist(), store.times.tolist()))


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

    def columns(a: int, b: int) -> EventColumns:
        """Sessions ``a`` to ``b`` of the store, as events over ``vocab``."""
        lo, hi = store.offsets[a], store.offsets[b]
        return EventColumns(
            np.repeat(np.arange(b - a), np.diff(store.offsets[a:b + 1])),
            store.session_ids[a:b], store.items[lo:hi], vocab.items, store.times[lo:hi],
        )

    # the store is ordered by start time, so the train sessions come first
    cut = int(np.searchsorted(store.times[store.offsets[:-1]], boundary))
    train, train_vocab, _ = index_sessions(columns(0, cut), max_session_len=None)
    test, _, _ = index_sessions(columns(cut, len(store)), train_vocab, max_session_len=None)
    return train, train_vocab, test


class SessionBatcher:
    """Session-parallel mini-batch iterator.

    Lanes carry independent sessions, advanced one event per call. When a
    lane's session runs out of (input, target) pairs, the next unconsumed
    session takes its place (reset flagged); when no session is available
    the batch width shrinks. Lanes filled at the very start are flagged for
    reset as well, so "zero the state before this lane's first step" holds
    uniformly. Sessions are taken in the store's iteration order; those of
    fewer than two events are skipped.
    """

    def __init__(self, store: SessionStore, batch_width: int):
        if batch_width < 1:
            raise ValueError(f"batch width must be >= 1, got {batch_width}")
        self._items = store.items
        self._start = store.offsets[:-1]
        self._length = np.diff(store.offsets)
        self._queue = np.flatnonzero(self._length >= 2)
        # Per lane: its session and the position of its current input event,
        # 0 on the lane's first step. These arrays go into the batches, so a
        # step replaces them and never writes into them.
        self._lanes = self._queue[:batch_width]
        self._pos = np.zeros(len(self._lanes), dtype=np.int64)
        self._next_session = len(self._lanes)

    def __iter__(self) -> Iterator[MiniBatch]:
        return self

    def __next__(self) -> MiniBatch:
        lanes, pos = self._lanes, self._pos
        prev_lanes = np.arange(len(lanes))
        # Replace lanes whose session has no remaining pair, in lane order,
        # while unconsumed sessions remain; drop the others.
        done = np.flatnonzero(pos + 1 >= self._length[lanes])
        if done.size:
            new = self._queue[self._next_session:self._next_session + done.size]
            self._next_session += len(new)
            lanes, pos = lanes.copy(), pos.copy()
            lanes[done[:len(new)]], pos[done[:len(new)]] = new, 0
            if len(new) < done.size:
                prev_lanes = np.delete(prev_lanes, done[len(new):])
                lanes, pos = lanes[prev_lanes], pos[prev_lanes]
        if not len(lanes):
            raise StopIteration
        at = self._start[lanes] + pos
        batch = MiniBatch(
            inputs=self._items[at],
            targets=self._items[at + 1],
            reset_mask=pos == 0,
            prev_lanes=prev_lanes,
            sessions=lanes,
            positions=pos,
        )
        self._lanes, self._pos = lanes, pos + 1
        return batch
