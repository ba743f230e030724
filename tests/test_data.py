import csv
import io
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sessrec.data import (
    CSV_HEADER,
    DataFormatError,
    EventColumns,
    ItemVocab,
    SessionBatcher,
    SessionStore,
    index_sessions,
    ingest_events,
    read_events_csv,
    split_train_test,
    write_sessions_csv,
)

from conftest import store_from_lists


@dataclass(frozen=True)
class Event:
    """One CSV row: the per-row reader's record."""

    session_id: str
    item_id: str
    timestamp: int  # milliseconds since epoch


def ev(sid, item, t):
    return Event(sid, item, t)


def read(events):
    """Events through the CSV schema's text and :func:`read_events_csv`."""
    return read_events_csv("SessionId,ItemId,Time\n" + "".join(
        f"{e.session_id},{e.item_id},{e.timestamp}\n" for e in events))


def read_events_by_row(source, iso_time=False):
    """The reader by its definition: one checked :class:`Event` per row.

    :func:`read_events_csv` plus :func:`columns_of` must give the same
    columns and raise the same errors.
    """
    rows = csv.reader(io.StringIO(source))
    header = next(rows, None)
    if header is None:
        return []
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataFormatError(f"line 1: expected header {','.join(CSV_HEADER)}")
    out = []
    for line_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"line {line_no}: expected 3 fields, got {len(row)}")
        sid, item, text = (f.strip() for f in row)
        if not sid or not item:
            raise DataFormatError(f"line {line_no}: empty session or item id")
        try:
            if iso_time:
                dt = datetime.fromisoformat(text)
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                t = int(dt.timestamp() * 1000)
            else:
                t = int(text)
        except ValueError:
            raise DataFormatError(f"line {line_no}: bad timestamp {text!r}") from None
        if t >= 2**63:
            raise DataFormatError(f"line {line_no}: timestamp out of range {text!r}")
        if t < 0:
            raise DataFormatError(f"line {line_no}: negative timestamp {text!r}")
        out.append(Event(sid, item, t))
    return out


def columns_of(events):
    """Events as columns, ids interned in order of first appearance."""
    session_code, item_code = {}, {}
    sessions = [session_code.setdefault(e.session_id, len(session_code)) for e in events]
    items = [item_code.setdefault(e.item_id, len(item_code)) for e in events]
    return EventColumns(
        np.array(sessions, dtype=np.int64), list(session_code),
        np.array(items, dtype=np.int64), list(item_code),
        np.array([e.timestamp for e in events], dtype=np.int64),
    )


class TestIngest:
    def test_length_one_sessions_dropped(self):
        store, vocab = ingest_events(read(
            [ev("a", "x", 1), ev("a", "y", 2), ev("a", "z", 3), ev("b", "q", 5)]
        ))
        assert len(store) == 1
        assert len(store.ordered()[0]) == 3
        assert "q" not in vocab
        assert vocab.popularity.sum() == 3

    def test_events_sorted_by_timestamp(self):
        store, vocab = ingest_events(read(
            [ev("a", "x", 30), ev("a", "y", 10), ev("a", "z", 20)]
        ))
        items = [vocab.items[i] for i in store.ordered()[0].items]
        assert items == ["y", "z", "x"]

    def test_popularity_matches_brute_force_recount(self, rng):
        events = []
        for s in range(10):
            n = int(rng.integers(1, 6))
            for k in range(n):
                events.append(ev(f"s{s}", f"i{rng.integers(8)}", 100 * s + k))
        store, vocab = ingest_events(read(events))
        kept = Counter()
        by_sid = Counter(e.session_id for e in events)
        for e in events:
            if by_sid[e.session_id] >= 2:
                kept[e.item_id] += 1
        for item, count in kept.items():
            assert vocab.popularity[vocab.index[item]] == count
        assert vocab.popularity.sum() == sum(kept.values())

    def test_bot_filter(self):
        long = [ev("bot", f"i{k % 3}", k) for k in range(50)]
        short = [ev("ok", "i0", 0), ev("ok", "i1", 1)]
        store, _ = ingest_events(read(long + short), max_session_len=10)
        assert [s.session_id for s in store] == ["ok"]

    def test_empty_input(self):
        store, vocab = ingest_events(read([]))
        assert len(store) == 0 and len(vocab) == 0

    def test_vocab_is_bijection(self):
        _, vocab = ingest_events(read(
            [ev("a", "x", 1), ev("a", "y", 2), ev("b", "y", 3), ev("b", "x", 4)]
        ))
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        for item, i in vocab.index.items():
            assert vocab.items[i] == item


class TestCsv:
    def test_round_trip_and_idempotence(self, rng):
        events = []
        for s in range(6):
            for k in range(int(rng.integers(2, 5))):
                events.append(ev(f"s{s}", f"i{rng.integers(5)}", 1000 * s + k))
        store, vocab = ingest_events(read(events))
        buf = io.StringIO()
        write_sessions_csv(store, vocab, buf)
        first = buf.getvalue()
        store2, vocab2 = ingest_events(read_events_csv(first))
        buf2 = io.StringIO()
        write_sessions_csv(store2, vocab2, buf2)
        assert buf2.getvalue() == first

    def test_malformed_row_names_line(self):
        text = "SessionId,ItemId,Time\na,x,1\na,y,notatime\n"
        with pytest.raises(DataFormatError, match="line 3"):
            read_events_csv(text)

    def test_wrong_field_count_names_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            read_events_csv("SessionId,ItemId,Time\na,x\n")

    def test_bad_header_rejected(self):
        with pytest.raises(DataFormatError, match="header"):
            read_events_csv("foo,bar,baz\n")

    def test_iso_time_flag(self):
        events = read_events_csv(
            "SessionId,ItemId,Time\na,x,2014-04-01T00:00:00+00:00\n", iso_time=True
        )
        assert events.times.tolist() == [1396310400000]


class TestSplit:
    def test_all_before_boundary_gives_empty_test(self):
        store, vocab = ingest_events(read([ev("a", "x", 1), ev("a", "y", 2)]))
        train, tv, test = split_train_test(store, vocab, boundary=100)
        assert len(train) == 1 and len(test) == 0

    def test_unseen_item_removed_from_test_session(self):
        events = [
            ev("tr", "A", 0), ev("tr", "B", 1),
            ev("te", "A", 100), ev("te", "X", 101), ev("te", "B", 102),
        ]
        store, vocab = ingest_events(read(events))
        train, tv, test = split_train_test(store, vocab, boundary=50)
        assert "X" not in tv
        sess = test.ordered()[0]
        assert [tv.items[i] for i in sess.items] == ["A", "B"]

    def test_short_test_sessions_dropped_after_removal(self):
        events = [
            ev("tr", "A", 0), ev("tr", "B", 1),
            ev("te", "A", 100), ev("te", "X", 101),
        ]
        store, vocab = ingest_events(read(events))
        _, _, test = split_train_test(store, vocab, boundary=50)
        assert len(test) == 0

    def test_no_test_index_exceeds_train_vocab(self, rng):
        events = []
        for s in range(40):
            t0 = int(rng.integers(0, 200))
            for k in range(int(rng.integers(2, 6))):
                events.append(ev(f"s{s:03d}", f"i{rng.integers(20)}", t0 * 1000 + k))
        store, vocab = ingest_events(read(events))
        train, tv, test = split_train_test(store, vocab, boundary=100_000)
        for sess in test:
            assert np.all(sess.items < len(tv))
        # train popularity is consistent after re-indexing
        assert tv.popularity.sum() == train.n_events


def store_rows(store, items):
    """A store's sessions as (session id, item ids, times), in iteration order."""
    return [(s.session_id, [items[i] for i in s.items], s.times.tolist()) for s in store]


def index_by_hand(events, vocab=None, max_len=None):
    """Straight-line grouping and indexing: the reference for index_sessions.

    Returns (session id, item ids, times) per kept session, the vocabulary's
    items and popularity, and the count of events dropped as unknown.
    """
    by_session = {}
    for e in events:
        by_session.setdefault(e.session_id, []).append(e)
    kept, dropped = [], 0
    for sid, evs in by_session.items():
        evs = sorted(evs, key=lambda e: e.timestamp)  # stable
        if len(evs) < 2 or (max_len is not None and len(evs) > max_len):
            continue
        known = [e for e in evs if vocab is None or e.item_id in vocab.index]
        dropped += len(evs) - len(known)
        if len(known) >= 2:
            kept.append((known[0].timestamp, sid, known))
    kept.sort(key=lambda k: (k[0], k[1]))
    items = [] if vocab is None else list(vocab.items)
    counts = Counter()
    sessions = []
    for _, sid, known in kept:
        for e in known:
            if e.item_id not in items:
                items.append(e.item_id)
            counts[e.item_id] += 1
        sessions.append((sid, [e.item_id for e in known], [e.timestamp for e in known]))
    popularity = [counts[it] for it in items] if vocab is None else list(vocab.popularity)
    return sessions, items, popularity, dropped


class TestIndexSessions:
    def test_against_vocab_drops_unknown_then_short_sessions(self):
        vocab = ItemVocab(["A", "B"], [5, 7])
        events = [ev("s", "A", 3), ev("s", "X", 1), ev("s", "B", 2),
                  ev("t", "X", 0), ev("t", "A", 1), ev("u", "A", 9)]
        store, got_vocab, dropped = index_sessions(read(events), vocab)
        assert got_vocab is vocab
        assert [(s.session_id, s.items.tolist(), s.times.tolist()) for s in store] == [
            ("s", [1, 0], [2, 3])]
        assert dropped == 2  # one X in each of s and t; u was too short to start with

    def test_sessions_ordered_by_start_then_id_not_by_file(self):
        events = [ev("late", "x", 50), ev("b", "x", 9), ev("late", "y", 5),
                  ev("a", "y", 20), ev("b", "y", 10), ev("a", "x", 9)]
        store, _, _ = index_sessions(read(events))
        assert [s.session_id for s in store] == ["late", "a", "b"]

    def test_order_follows_the_kept_start_time(self):
        vocab = ItemVocab(["A", "B"], [1, 1])
        events = [ev("s", "X", 0), ev("s", "A", 10), ev("s", "B", 11),
                  ev("t", "A", 5), ev("t", "B", 6)]
        store, _, _ = index_sessions(read(events), vocab)
        assert store.session_ids == ["t", "s"]
        assert SessionStore(store.ordered()).session_ids == ["t", "s"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("abcdef"), st.sampled_from("pqrstu"),
                           st.integers(0, 6)), max_size=40),
        st.sampled_from([None, 2, 3, 5]),
        st.one_of(st.none(), st.lists(st.sampled_from("pqrstuv"), unique=True)),
    )
    def test_equals_straight_line_reference(self, rows, max_len, vocab_items):
        events = [ev(*row) for row in rows]
        vocab = None
        if vocab_items is not None:
            vocab = ItemVocab(vocab_items, list(range(len(vocab_items))))
        store, got_vocab, dropped = index_sessions(
            read(events), vocab, max_len)
        sessions, items, popularity, want_dropped = index_by_hand(events, vocab, max_len)
        assert got_vocab.items == items
        assert got_vocab.popularity.tolist() == popularity
        assert store_rows(store, items) == sessions
        assert dropped == want_dropped


def outcome(run, *args, **kwargs):
    """A call's result, or the message of the DataFormatError it raised."""
    try:
        return run(*args, **kwargs)
    except DataFormatError as exc:
        return f"DataFormatError: {exc}"


ODD_ROWS = ["", "a,p", "a,p,1,2", ",p,1", "a, ,1", '"a,b",p,3', "a,p,x", "a,p,1.5", "a,p,",
            "a,p,-1", "a,p,-0", "a,p,+7", "a,p, 8 ", f"a,p,{2**63 - 1}", f"a,p,{2**63}",
            "a,p,99999999999999999999", "a,p,2014-04-01T00:00:00+00:00",
            "a,p,1969-12-31T23:59:59", "a,p,0001-01-01T00:00:00+01:00"]


class TestReader:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_per_row_reader(self, data):
        """Generated CSVs, each with at most one odd row: the columns, the
        indexed store and vocabulary, or the error, equal the per-row
        reader's and the straight-line indexer's."""
        iso_time = data.draw(st.booleans(), label="iso_time")
        rows = data.draw(st.lists(st.tuples(
            st.sampled_from(["a", "b", " c", "d"]), st.sampled_from(["p", "q", "r ", "s"]),
            st.integers(0, 40)), max_size=30), label="rows")
        lines = [f"{sid},{item},1970-01-01T00:00:{t:02d}" if iso_time else f"{sid},{item},{t}"
                 for sid, item, t in rows]
        odd = data.draw(st.one_of(st.none(), st.sampled_from(ODD_ROWS)), label="odd")
        if odd is not None:
            lines.insert(data.draw(st.integers(0, len(lines)), label="at"), odd)
        header = data.draw(st.sampled_from(
            ["SessionId,ItemId,Time", " SessionId , ItemId,Time", "a,b,c", None]), label="header")
        text = "" if header is None else "\n".join([header] + lines) + "\n"

        want = outcome(read_events_by_row, text, iso_time)
        got = outcome(read_events_csv, text, iso_time)
        if isinstance(want, str):
            assert got == want
            return
        want_columns = columns_of(want)
        assert got.session_ids == want_columns.session_ids
        assert got.item_ids == want_columns.item_ids
        for name in ("sessions", "items", "times"):
            column = getattr(got, name)
            assert column.dtype == np.int64
            assert column.tolist() == getattr(want_columns, name).tolist()

        max_len = data.draw(st.sampled_from([None, 2, 3]), label="max_len")
        vocab_items = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(["p", "q", "r", "s"]), unique=True)), label="vocab")
        vocab = None
        if vocab_items is not None:
            vocab = ItemVocab(vocab_items, list(range(len(vocab_items))))
        store, got_vocab, dropped = index_sessions(got, vocab, max_len)
        sessions, items, popularity, want_dropped = index_by_hand(want, vocab, max_len)
        assert store_rows(store, got_vocab.items) == sessions
        assert got_vocab.items == items
        assert got_vocab.popularity.tolist() == popularity
        assert dropped == want_dropped

    @pytest.mark.parametrize("text,message", [
        ("99999999999999999999", "line 3: timestamp out of range '99999999999999999999'"),
        ("9223372036854775808", "line 3: timestamp out of range '9223372036854775808'"),
        ("-5", "line 3: negative timestamp '-5'"),
    ])
    def test_timestamp_outside_int64_or_negative_names_its_line(self, text, message):
        with pytest.raises(DataFormatError) as exc:
            read_events_csv(f"SessionId,ItemId,Time\na,x,1\na,y,{text}\n")
        assert str(exc.value) == message

    def test_iso_timestamp_before_the_epoch_rejected(self):
        with pytest.raises(DataFormatError, match="line 2: negative timestamp"):
            read_events_csv("SessionId,ItemId,Time\na,x,1969-12-31T23:59:59\n", iso_time=True)


class TestBatcher:
    def test_hand_simulation(self):
        # S1=[a,b,c], S2=[d,e], S3=[f,g,h], B=2
        store, _ = store_from_lists([[0, 1, 2], [3, 4], [5, 6, 7]])
        batches = list(SessionBatcher(store, 2))
        assert len(batches) == 3
        b1, b2, b3 = batches
        assert b1.inputs.tolist() == [0, 3] and b1.targets.tolist() == [1, 4]
        assert b1.reset_mask.tolist() == [True, True]
        assert b2.inputs.tolist() == [1, 5] and b2.targets.tolist() == [2, 6]
        assert b2.reset_mask.tolist() == [False, True]
        assert b3.inputs.tolist() == [6] and b3.targets.tolist() == [7]
        assert b3.reset_mask.tolist() == [False]
        assert b3.prev_lanes.tolist() == [1]

    def test_single_session_b1(self):
        store, _ = store_from_lists([[0, 1, 2, 3, 4]])
        batches = list(SessionBatcher(store, 1))
        assert len(batches) == 4
        assert all(b.width == 1 for b in batches)

    def test_rejects_bad_width(self):
        store, _ = store_from_lists([[0, 1]])
        with pytest.raises(ValueError):
            SessionBatcher(store, 0)

    @pytest.mark.parametrize("width", [1, 2, 7, 32])
    def test_pair_conservation(self, width, rng):
        sessions = [
            list(rng.integers(0, 9, int(rng.integers(2, 8)))) for _ in range(60)
        ]
        store, _ = store_from_lists(sessions, n_items=9)
        expected = Counter()
        for s in sessions:
            for a, b in zip(s, s[1:]):
                expected[(a, b)] += 1
        got = Counter()
        total = 0
        for batch in SessionBatcher(store, width):
            for a, b in zip(batch.inputs, batch.targets):
                got[(int(a), int(b))] += 1
            total += batch.width
        assert got == expected
        assert total == store.n_pairs

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_later_steps_leave_earlier_batches_unchanged(self, width, rng):
        sessions = [list(rng.integers(0, 9, int(rng.integers(1, 8)))) for _ in range(40)]
        store, _ = store_from_lists(sessions, n_items=9)
        fields = ("inputs", "targets", "reset_mask", "prev_lanes", "sessions", "positions")
        batches, copies = [], []
        for batch in SessionBatcher(store, width):
            batches.append(batch)
            copies.append([getattr(batch, f).copy() for f in fields])
        for batch, copy in zip(batches, copies):
            for f, want in zip(fields, copy):
                assert getattr(batch, f).tolist() == want.tolist(), f

    def test_reset_marks_first_step_of_each_session(self):
        store, _ = store_from_lists([[0, 1, 2], [3, 4, 5], [6, 7]])
        seen_resets = 0
        for batch in SessionBatcher(store, 2):
            seen_resets += int(batch.reset_mask.sum())
        assert seen_resets == 3  # one per session, including initial fills


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 5), min_size=2, max_size=6), min_size=1, max_size=12
    ),
    st.integers(1, 6),
)
def test_pair_conservation_property(sessions, width):
    store, _ = store_from_lists(sessions, n_items=6)
    expected = Counter()
    for s in sessions:
        for a, b in zip(s, s[1:]):
            expected[(a, b)] += 1
    got = Counter()
    for batch in SessionBatcher(store, width):
        for a, b in zip(batch.inputs, batch.targets):
            got[(int(a), int(b))] += 1
    assert got == expected
