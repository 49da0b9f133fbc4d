"""CSV ingestion, resampling, and alphabet encoding."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqobf import ingest
from seqobf.core import Alphabet, Trace
from seqobf.ingest import (
    RawTrace,
    encode,
    parse_csv,
    read_trace_file,
    resample,
    write_trace_file,
)
from oracles import greedy_thin

HEADER = "user_id,timestamp,category\n"


def write_csv(tmp_path, body, name="raw.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


class TestParseCsv:
    def test_empty_file_with_header(self, tmp_path):
        assert parse_csv(write_csv(tmp_path, "")) == []

    def test_interleaved_users_are_grouped(self, tmp_path):
        body = (
            "alice,100,tower_a\n"
            "bob,90,tower_b\n"
            "alice,200,tower_b\n"
            "bob,150,tower_a\n"
            "alice,300,tower_a\n"
            "bob,160,tower_c\n"
        )
        raws = {r.user_id: r for r in parse_csv(write_csv(tmp_path, body))}
        assert len(raws) == 2
        assert len(raws["alice"]) == 3
        assert len(raws["bob"]) == 3
        assert [t for t, _ in raws["alice"].events] == [100.0, 200.0, 300.0]

    def test_out_of_order_rows_sort_stably_with_warning(self, tmp_path):
        body = "u,300,a\nu,100,b\nu,100,c\nu,200,d\n"
        with pytest.warns(UserWarning):
            raws = parse_csv(write_csv(tmp_path, body))
        assert [c for _, c in raws[0].events] == ["b", "c", "d", "a"]

    def test_each_user_is_checked_for_order_once(self, tmp_path, monkeypatch):
        checks = []
        in_order = ingest._in_order

        def counted(events):
            checks.append(len(events))
            return in_order(events)

        monkeypatch.setattr(ingest, "_in_order", counted)
        body = "u,300,a\nv,100,b\nu,100,c\nw,5,d\nv,200,e\n"
        with pytest.warns(UserWarning, match="'u'"):
            raws = parse_csv(write_csv(tmp_path, body))
        assert [len(raw) for raw in raws] == [2, 2, 1]
        # u is checked again once sorted.
        assert checks == [2, 2, 2, 1]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("user,when\nu,1\n")
        with pytest.raises(ValueError):
            parse_csv(path)

    def test_unparseable_timestamp_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, "u,100,a\nu,noon,b\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_csv(tmp_path, "u,100,a\nu,200\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_csv(path)


class TestResample:
    def test_regular_events_thin_to_every_tenth(self):
        raw = RawTrace("u", tuple((60.0 * i, "a") for i in range(100)))
        kept = resample(raw, 600.0)
        assert [t for t, _ in kept.events] == [600.0 * i for i in range(10)]

    def test_single_event_is_kept(self):
        raw = RawTrace("u", ((5.0, "a"),))
        assert resample(raw, 600.0).events == raw.events

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            resample(RawTrace("u", ()), 0)

    def test_matches_reference_greedy(self):
        gen = np.random.default_rng(100)
        for _ in range(300):
            ts = np.sort(gen.uniform(0, 5000, size=int(gen.integers(1, 60))))
            raw = RawTrace("u", tuple((float(t), "x") for t in ts))
            interval = float(gen.uniform(1, 800))
            kept = resample(raw, interval)
            want = [float(ts[i]) for i in greedy_thin(ts, interval)]
            assert [t for t, _ in kept.events] == want

    @given(
        st.lists(st.floats(0, 10000, allow_nan=False), min_size=1, max_size=50),
        st.floats(0.5, 500),
    )
    @settings(max_examples=200)
    def test_kept_events_are_spaced_apart(self, ts, interval):
        raw = RawTrace("u", tuple((t, "x") for t in sorted(ts)))
        kept = [t for t, _ in resample(raw, interval).events]
        assert all(b - a >= interval for a, b in zip(kept, kept[1:]))


class TestEncode:
    def raws(self):
        return [
            RawTrace("u1", ((1.0, "a"), (2.0, "b"), (3.0, "a"), (4.0, "c"))),
            RawTrace("u2", ((1.0, "b"), (2.0, "a"), (3.0, "d"), (4.0, "a"))),
        ]

    def test_exact_alphabet_drops_nothing(self):
        traces, mapping = encode(self.raws(), 4)
        assert sorted(mapping) == ["a", "b", "c", "d"]
        assert mapping["a"] == 0  # most frequent
        assert all(t.length == 4 for t in traces)

    def test_frequency_ties_break_lexicographically(self):
        traces, mapping = encode(self.raws(), 4)
        # b appears twice; c and d once each: c before d.
        assert mapping["b"] == 1 and mapping["c"] == 2 and mapping["d"] == 3

    def test_rare_categories_are_dropped(self):
        traces, mapping = encode(self.raws(), 2)
        kept = sum(t.length for t in traces)
        total = sum(len(r) for r in self.raws())
        in_top = sum(
            1 for r in self.raws() for _, c in r.events if c in mapping
        )
        assert kept == in_top < total

    def test_too_few_categories_rejected(self):
        with pytest.raises(ValueError):
            encode(self.raws(), 9)

    def test_min_length_filters_users(self):
        traces, _ = encode(self.raws(), 2, min_length=3)
        assert all(t.length >= 3 for t in traces)

    def test_deterministic(self):
        a = encode(self.raws(), 3)
        b = encode(self.raws(), 3)
        assert a[1] == b[1]
        assert all(x == y for x, y in zip(a[0], b[0]))


class TestTraceFileRoundTrip:
    def test_round_trip(self, tmp_path):
        alphabet = Alphabet(5)
        traces = [
            Trace(np.array([0, 4, 2, 2], dtype=np.int64), alphabet),
            Trace(np.array([1], dtype=np.int64), alphabet),
        ]
        path = tmp_path / "traces.txt"
        write_trace_file(path, traces)
        again = read_trace_file(path, 5)
        assert again == traces

    def test_rejects_non_integer_symbols(self, tmp_path):
        path = tmp_path / "traces.txt"
        path.write_text("0 1 x\n")
        with pytest.raises(ValueError, match="line 1"):
            read_trace_file(path, 5)

    def test_encoded_traces_survive_emission_and_reparse(self, tmp_path):
        raws = [
            RawTrace("u1", tuple((float(i), "abc"[i % 3]) for i in range(12))),
            RawTrace("u2", tuple((float(i), "cab"[i % 3]) for i in range(9))),
        ]
        traces, _ = encode(raws, 3)
        path = tmp_path / "t.txt"
        write_trace_file(path, traces)
        assert read_trace_file(path, 3) == traces
