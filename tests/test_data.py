import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sessrec.data import (
    DataFormatError,
    Event,
    EventColumns,
    ItemVocab,
    SessionBatcher,
    index_sessions,
    ingest_events,
    read_events_csv,
    split_train_test,
    write_sessions_csv,
)

from conftest import store_from_lists


def ev(sid, item, t):
    return Event(sid, item, t)


class TestIngest:
    def test_length_one_sessions_dropped(self):
        store, vocab = ingest_events(
            [ev("a", "x", 1), ev("a", "y", 2), ev("a", "z", 3), ev("b", "q", 5)]
        )
        assert len(store) == 1
        assert len(store.sessions[0]) == 3
        assert "q" not in vocab
        assert vocab.popularity.sum() == 3

    def test_events_sorted_by_timestamp(self):
        store, vocab = ingest_events(
            [ev("a", "x", 30), ev("a", "y", 10), ev("a", "z", 20)]
        )
        items = [vocab.items[i] for i in store.sessions[0].items]
        assert items == ["y", "z", "x"]

    def test_popularity_matches_brute_force_recount(self, rng):
        events = []
        for s in range(10):
            n = int(rng.integers(1, 6))
            for k in range(n):
                events.append(ev(f"s{s}", f"i{rng.integers(8)}", 100 * s + k))
        store, vocab = ingest_events(events)
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
        store, _ = ingest_events(long + short, max_session_len=10)
        assert [s.session_id for s in store] == ["ok"]

    def test_empty_input(self):
        store, vocab = ingest_events([])
        assert len(store) == 0 and len(vocab) == 0

    def test_vocab_is_bijection(self):
        _, vocab = ingest_events(
            [ev("a", "x", 1), ev("a", "y", 2), ev("b", "y", 3), ev("b", "x", 4)]
        )
        assert sorted(vocab.index.values()) == list(range(len(vocab)))
        for item, i in vocab.index.items():
            assert vocab.items[i] == item


class TestCsv:
    def test_round_trip_and_idempotence(self, rng):
        events = []
        for s in range(6):
            for k in range(int(rng.integers(2, 5))):
                events.append(ev(f"s{s}", f"i{rng.integers(5)}", 1000 * s + k))
        store, vocab = ingest_events(events)
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
        assert events[0].timestamp == 1396310400000


class TestSplit:
    def test_all_before_boundary_gives_empty_test(self):
        store, vocab = ingest_events([ev("a", "x", 1), ev("a", "y", 2)])
        train, tv, test = split_train_test(store, vocab, boundary=100)
        assert len(train) == 1 and len(test) == 0

    def test_unseen_item_removed_from_test_session(self):
        events = [
            ev("tr", "A", 0), ev("tr", "B", 1),
            ev("te", "A", 100), ev("te", "X", 101), ev("te", "B", 102),
        ]
        store, vocab = ingest_events(events)
        train, tv, test = split_train_test(store, vocab, boundary=50)
        assert "X" not in tv
        sess = test.sessions[0]
        assert [tv.items[i] for i in sess.items] == ["A", "B"]

    def test_short_test_sessions_dropped_after_removal(self):
        events = [
            ev("tr", "A", 0), ev("tr", "B", 1),
            ev("te", "A", 100), ev("te", "X", 101),
        ]
        store, vocab = ingest_events(events)
        _, _, test = split_train_test(store, vocab, boundary=50)
        assert len(test) == 0

    def test_no_test_index_exceeds_train_vocab(self, rng):
        events = []
        for s in range(40):
            t0 = int(rng.integers(0, 200))
            for k in range(int(rng.integers(2, 6))):
                events.append(ev(f"s{s:03d}", f"i{rng.integers(20)}", t0 * 1000 + k))
        store, vocab = ingest_events(events)
        train, tv, test = split_train_test(store, vocab, boundary=100_000)
        for sess in test:
            assert np.all(sess.items < len(tv))
        # train popularity is consistent after re-indexing
        assert tv.popularity.sum() == train.n_events


def index_by_hand(events, vocab=None, max_len=None):
    """Straight-line grouping and indexing: the reference for index_sessions.

    Returns (session id, item ids, times) per kept session, the vocabulary's
    items and popularity, and the count of events dropped as unknown.
    """
    by_session = {}
    for e in events:
        by_session.setdefault(e.session_id, []).append(e)
    kept = []
    for sid, evs in by_session.items():
        evs = sorted(evs, key=lambda e: e.timestamp)  # stable
        if len(evs) >= 2 and (max_len is None or len(evs) <= max_len):
            kept.append((evs[0].timestamp, sid, evs))
    kept.sort(key=lambda k: (k[0], k[1]))
    items = [] if vocab is None else list(vocab.items)
    counts = Counter()
    sessions, dropped = [], 0
    for _, sid, evs in kept:
        known = [e for e in evs if vocab is None or e.item_id in vocab.index]
        dropped += len(evs) - len(known)
        if len(known) < 2:
            continue
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
        store, got_vocab, dropped = index_sessions(EventColumns.from_events(events), vocab)
        assert got_vocab is vocab
        assert [(s.session_id, s.items.tolist(), s.times.tolist()) for s in store] == [
            ("s", [1, 0], [2, 3])]
        assert dropped == 2  # one X in each of s and t; u was too short to start with

    def test_sessions_ordered_by_start_then_id_not_by_file(self):
        events = [ev("late", "x", 50), ev("b", "x", 9), ev("late", "y", 5),
                  ev("a", "y", 20), ev("b", "y", 10), ev("a", "x", 9)]
        store, _, _ = index_sessions(EventColumns.from_events(events))
        assert [s.session_id for s in store] == ["late", "a", "b"]

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
            EventColumns.from_events(events), vocab, max_len)
        sessions, items, popularity, want_dropped = index_by_hand(events, vocab, max_len)
        assert got_vocab.items == items
        assert got_vocab.popularity.tolist() == popularity
        assert [(s.session_id, [items[i] for i in s.items], s.times.tolist())
                for s in store] == sessions
        assert dropped == want_dropped


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
