import contextlib
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idletune import (
    Event,
    EventKind,
    ModelParams,
    ParseError,
    SequencingError,
    WindowStats,
    format_event,
    generate_event_log,
    parse_event,
    read_events,
    windowize,
)
from idletune import ingest


def req(ts: float) -> tuple[float, bool]:
    return ts, False


def bind(ts: float) -> tuple[float, bool]:
    return ts, True


class TestParseEvent:
    def test_request_line(self):
        assert parse_event('{"ts": 100.5, "kind": "request"}') == Event(100.5, EventKind.REQUEST)

    def test_bind_line(self):
        assert parse_event('{"ts": 100.5, "kind": "bind"}') == Event(100.5, EventKind.BIND)

    def test_extra_fields_ignored(self):
        line = '{"ts": 1.0, "kind": "bind", "user": "u17"}'
        assert parse_event(line) == Event(1.0, EventKind.BIND)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ('{"ts": "abc", "kind": "request"}', "ts must be a number"),
            ('{"ts": true, "kind": "request"}', "ts must be a number"),
            ('{"kind": "request"}', "missing field 'ts'"),
            ('{"ts": 1.0}', "missing field 'kind'"),
            ('{"ts": 1.0, "kind": "search"}', "unknown kind"),
            ('{"ts": -5.0, "kind": "bind"}', "ts must be finite and >= 0"),
            ("not json at all", "invalid record"),
            ("[1, 2]", "expected an object"),
        ],
    )
    def test_malformed_lines(self, line, fragment):
        with pytest.raises(ParseError) as err:
            parse_event(line, line_no=7)
        assert err.value.line_no == 7
        assert fragment in str(err.value)

    def test_round_trips_through_to_json(self):
        event = Event(12345.6789012345, EventKind.BIND)
        assert parse_event(event.to_json()) == event


class TestReadEvents:
    def test_skips_blank_lines_but_keeps_numbering(self):
        lines = ['{"ts": 1, "kind": "request"}', "", "   ", '{"ts": 2, "kind": "bind"}']
        assert list(read_events(lines)) == [req(1.0), bind(2.0)]

    def test_error_carries_position(self):
        lines = ['{"ts": 1, "kind": "request"}', "", "oops"]
        with pytest.raises(ParseError) as err:
            list(read_events(lines))
        assert err.value.line_no == 3


@contextlib.contextmanager
def counting_parse_event():
    """Count the lines read_events hands to parse_event, its slow path."""
    calls = []

    def counted(line, line_no=0):
        calls.append(line_no)
        return parse_event(line, line_no)

    with mock.patch.object(ingest, "parse_event", counted):
        yield calls


def as_pair(event: Event) -> tuple[float, bool]:
    return event.ts, event.kind is EventKind.BIND


def outcome(call):
    """Pairs (with the sign of ts) or the ParseError's message and line."""
    try:
        events = list(call())
    except ParseError as exc:
        return ("error", str(exc), exc.line_no)
    return [(repr(ts), is_bind) for ts, is_bind in events]


class TestCanonicalFastPath:
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                    st.integers(min_value=0, max_value=10**300),
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @example([(0.0, False), (5e-324, True), (1e308, False)])
    @example([(7, True), (1e16, False), (2.5e-7, True)])
    @settings(max_examples=200, deadline=None)
    def test_canonical_and_compact_lines_agree(self, records):
        canonical, written, compact = [], [], []
        for ts, is_bind in records:
            kind = "bind" if is_bind else "request"
            canonical.append('{"ts": %r, "kind": "%s"}\n' % (ts, kind))
            written.append(format_event(ts, is_bind) + "\n")
            compact.append(json.dumps({"ts": ts, "kind": kind}, separators=(",", ":")) + "\n")
        expected = [(float(ts), is_bind) for ts, is_bind in records]
        with counting_parse_event() as slow:
            fast_events = list(read_events(canonical))
            written_events = list(read_events(written))
            assert slow == []
            slow_events = list(read_events(compact))
            assert slow == list(range(1, len(records) + 1))
        assert fast_events == written_events == slow_events == expected

    @pytest.mark.parametrize(
        "line",
        [
            '{"ts": 1e999, "kind": "request"}',
            '{"ts": 1E999, "kind": "bind"}\n',
            '{"ts": -0.0, "kind": "bind"}',
            '{"ts": -1.0, "kind": "request"}',
            '{"ts": 01, "kind": "request"}',
            '{"ts": 1., "kind": "request"}',
            '{"ts": .5, "kind": "request"}',
            '{"ts": 1E5, "kind": "bind"}',
            '{"ts": 1e+5, "kind": "request"}',
            '{"ts": 1e-400, "kind": "request"}',
            '{"ts": 12345678901234567890123, "kind": "bind"}',
            '{"ts": 1.5, "kind": "request"}\r\n',
            '{"ts": 1.5, "kind": "request"}  \t \n',
            '{"ts": 1.5, "kind": "request"}\f',
            '{"ts": 1.5, "kind": "request"}}',
            ' {"ts": 1.5, "kind": "request"}',
            '{"ts":1.5,"kind":"request"}',
            '{"kind": "bind", "ts": 1.5}',
            '{"ts": 1.0, "kind": "bind", "ts": 2.0}',
            '{"ts": 1.0, "ts": 2.0, "kind": "bind"}',
            '{"ts": 1.0, "kind": "bind", "kind": "request"}',
            '{"ts": 1.0, "kind": "bind", "user": "u17"}',
            '{"ts": 1.0, "kind": "Bind"}',
            '{"ts": 1.0, "kind": "search"}',
            '{"ts": 1_000, "kind": "request"}',
            '{"ts": \u0661, "kind": "request"}',
            '{"ts": 1\u0661, "kind": "request"}',
            '{"ts": 1.\u0661, "kind": "request"}',
            '{"ts": 1e\u0661, "kind": "request"}',
            '{"ts": "1.0", "kind": "request"}',
        ],
    )
    def test_edge_lines_match_parse_event(self, line):
        lines = ['{"ts": 0.5, "kind": "request"}', "", line]
        expected = outcome(lambda: [as_pair(parse_event(lines[0], 1)), as_pair(parse_event(line, 3))])
        assert outcome(lambda: read_events(lines)) == expected

    def test_bytes_lines_take_the_slow_path(self):
        lines = [b'{"ts": 1.0, "kind": "bind"}\n', b"  \n", b'{"ts": 2, "kind": "request"}']
        assert list(read_events(lines)) == [bind(1.0), req(2.0)]

    def test_to_json_writes_the_canonical_line(self):
        for ts, is_bind in (bind(12345.6789012345), req(1e-05), req(1e16), bind(0.0)):
            event = Event(ts, EventKind.BIND if is_bind else EventKind.REQUEST)
            for line in (event.to_json(), format_event(ts, is_bind)):
                assert line == json.dumps({"ts": ts, "kind": event.kind.value})
                with counting_parse_event() as slow:
                    assert list(read_events([line])) == [(ts, is_bind)]
                assert slow == []


class TestEvent:
    def test_rejects_bad_timestamps(self):
        for ts in (-1.0, math.nan, math.inf, "3"):
            with pytest.raises(ValueError):
                Event(ts, EventKind.REQUEST)

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            Event(1.0, "request")


class TestWindowStats:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            WindowStats(0.0, 600.0, 1, 2, 1.0, 0.1, False)
        with pytest.raises(ValueError):
            WindowStats(0.0, 600.0, 0, 0, 0.0, 0.0, False)
        with pytest.raises(ValueError):
            WindowStats(0.0, -1.0, 0, 0, 0.0, 0.0, True)

    def test_serialization_keys(self):
        stats = WindowStats.from_counts(0.0, 600.0, 1, 0, 50)
        record = json.loads(stats.to_json())
        assert list(record) == [
            "window_start_ts",
            "window_s",
            "n_requests",
            "n_marked",
            "chi",
            "theta",
            "zero_traffic",
        ]


class TestWindowize:
    def test_uniform_stream_makes_six_windows(self):
        events = [req(float(i)) for i in range(3600)]
        wins = list(windowize(events, 600.0, 10))
        assert len(wins) == 6
        assert all(w.n_requests == 600 for w in wins)

    def test_half_open_boundary(self):
        events = [req(0.0), bind(599.9), req(600.0)]
        wins = list(windowize(events, 600.0, 10))
        assert [(w.n_requests, w.n_marked) for w in wins] == [(2, 1), (1, 0)]

    def test_quiet_gap_emits_empty_windows(self):
        events = [req(0.0), req(100.0), req(2500.0)]
        wins = list(windowize(events, 600.0, 10))
        assert [w.zero_traffic for w in wins] == [False, True, True, True, False]
        assert [w.n_requests for w in wins] == [2, 0, 0, 0, 1]

    def test_windows_are_contiguous_from_anchor(self):
        events = [req(50.0), req(700.0), req(1900.0)]
        wins = list(windowize(events, 600.0, 10))
        assert [w.window_start_ts for w in wins] == [50.0, 650.0, 1250.0, 1850.0]

    def test_small_regression_lands_in_right_window(self):
        jittered = [req(0.0), req(599.5), req(600.2), bind(599.8)]
        wins = list(windowize(jittered, 600.0, 10))
        assert [(w.n_requests, w.n_marked) for w in wins] == [(3, 1), (1, 0)]

    def test_regression_beyond_tolerance_fails(self):
        events = [req(0.0), req(100.0), req(98.5)]
        with pytest.raises(SequencingError):
            list(windowize(events, 600.0, 10))

    def test_straggler_just_before_anchor_is_kept(self):
        events = [req(10.0), req(9.5), req(700.0)]
        wins = list(windowize(events, 600.0, 10))
        assert wins[0].n_requests == 2

    def test_empty_stream_yields_nothing(self):
        assert list(windowize([], 600.0, 10)) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(windowize([req(0.0)], 0.0, 10))
        with pytest.raises(ValueError):
            list(windowize([req(0.0)], 600.0, 0))
        with pytest.raises(ValueError):
            list(windowize([req(0.0)], 600.0, 150.5))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
                st.booleans(),
            ),
            min_size=1,
            max_size=200,
        ),
        st.floats(min_value=1.0, max_value=900.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation(self, raw, window_s):
        raw.sort(key=lambda pair: pair[0])
        wins = list(windowize(raw, window_s, 25))
        assert sum(w.n_requests for w in wins) == len(raw)
        assert sum(w.n_marked for w in wins) == sum(is_bind for _, is_bind in raw)

    @pytest.mark.parametrize(
        "events, window_s, tolerance_s",
        [
            # the last event's index rounds down into a window that the
            # close test, rounding the other way, has already released
            ([req(0.3), req(12.6), bind(12.6)], 0.3, 0.0),
            ([req(0.0), req(6.5), bind(5.5)], 1.1, ingest.REORDER_TOLERANCE_S),
        ],
    )
    def test_event_in_released_window_is_kept(self, events, window_s, tolerance_s):
        wins = list(windowize(events, window_s, 25, tolerance_s=tolerance_s))
        assert sum(w.n_requests for w in wins) == len(events)
        assert sum(w.n_marked for w in wins) == sum(is_bind for _, is_bind in events)

    def test_pooled_chi_is_count_weighted(self):
        # one busy window (1000 requests, 100 binds) and one sparse (2, 2):
        # the unweighted mean of per-window chi would be badly wrong
        events = [bind(float(i)) if i < 100 else req(float(i)) for i in range(1000)]
        events += [bind(1200.0), bind(1201.0)]
        wins = list(windowize(events, 1000.0, 25))
        pooled = sum(w.n_marked for w in wins) / sum(w.n_requests for w in wins)
        assert pooled == pytest.approx(102 / 1002)
        unweighted = sum(w.chi for w in wins) / len(wins)
        assert abs(unweighted - pooled) > 0.4


class TestSyntheticLogRecovery:
    def test_pooled_estimates_match_generator_truth(self):
        params = ModelParams(50, 1e-3, 0.3)
        duration = 2.0e6
        events = list(generate_event_log(params, duration, seed=424242))
        n_total = len(events)
        assert n_total > 50_000
        wins = list(windowize(iter(events), 5000.0, params.n_users))
        pooled_n = sum(w.n_requests for w in wins)
        pooled_marked = sum(w.n_marked for w in wins)
        assert pooled_n == n_total
        chi = pooled_marked / pooled_n
        se_chi = math.sqrt(params.xi * (1 - params.xi) / n_total)
        assert abs(chi - params.xi) <= 4 * se_chi
        # windows cover [anchor, anchor + k*T); measure theta over that span
        span = len(wins) * 5000.0
        theta = pooled_n / (params.n_users * span)
        se_theta = math.sqrt(n_total) / (params.n_users * span)
        assert abs(theta - params.beta) <= 4 * se_theta
