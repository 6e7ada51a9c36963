import contextlib
import io
import json
import math
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idletune import (
    Event,
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
        assert parse_event('{"ts": 100.5, "kind": "request"}') == Event(100.5, False)

    def test_bind_line(self):
        assert parse_event('{"ts": 100.5, "kind": "bind"}') == Event(100.5, True)

    def test_extra_fields_ignored(self):
        line = '{"ts": 1.0, "kind": "bind", "user": "u17"}'
        assert parse_event(line) == Event(1.0, True)

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ('{"ts": "abc", "kind": "request"}', "ts must be a number"),
            ('{"ts": true, "kind": "request"}', "ts must be a number"),
            ('{"kind": "request"}', "missing field 'ts'"),
            ('{"ts": 1.0}', "missing field 'kind'"),
            ('{"ts": 1.0, "kind": "search"}', "unknown kind"),
            ('{"ts": -5.0, "kind": "bind"}', "ts must be finite and >= 0"),
            ('{"ts": NaN, "kind": "bind"}', "ts must be finite and >= 0, got nan"),
            ('{"ts": Infinity, "kind": "bind"}', "ts must be finite and >= 0, got inf"),
            ('{"ts": 1e400, "kind": "bind"}', "ts must be finite and >= 0, got inf"),
            ('{"ts": 1%s, "kind": "bind"}' % ("0" * 400), "ts must be finite and >= 0, got inf"),
            ('{"ts": "3", "kind": "request"}', "ts must be a number, got '3'"),
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
        event = Event(12345.6789012345, True)
        assert parse_event(event.to_json()) == event


class TestReadEvents:
    def test_skips_blank_lines_but_keeps_numbering(self):
        lines = ['{"ts": 1, "kind": "request"}', "", "   ", '{"ts": 2, "kind": "bind"}']
        assert list(read_events(lines)) == [req(1.0), bind(2.0)]

    def test_reads_bytes_lines(self):
        lines = [b'{"ts": 1.0, "kind": "bind"}\n', b"  \n", b'{"ts": 2, "kind": "request"}']
        assert list(read_events(lines)) == [bind(1.0), req(2.0)]

    def test_error_carries_position(self):
        lines = ['{"ts": 1, "kind": "request"}', "", "oops"]
        with pytest.raises(ParseError) as err:
            list(read_events(lines))
        assert err.value.line_no == 3


@contextlib.contextmanager
def counting_parse_event():
    """Count the lines the block reader hands to parse_event, its line-by-line path."""
    calls = []

    def counted(line, line_no=0):
        calls.append(line_no)
        return parse_event(line, line_no)

    with mock.patch.object(ingest, "parse_event", counted):
        yield calls


def outcome(windows):
    """The windows released, then the error that stopped them, if any."""
    got = []
    try:
        for window in windows:
            got.append(window)
    except (ParseError, SequencingError) as exc:
        got.append((type(exc).__name__, str(exc), getattr(exc, "line_no", None)))
    return got


def read_windows(data: bytes, window_s: float, **kwargs):
    return ingest._read_windows(io.BytesIO(data), window_s, 25, **kwargs)


def parsed_windows(lines, window_s: float):
    """windowize over parse_event's value of each numbered line, or its ParseError."""
    try:
        events = [parse_event(line, line_no) for line_no, line in lines]
    except ParseError as exc:
        return [("ParseError", str(exc), exc.line_no)]
    return outcome(windowize(events, window_s, 25))


class TestCanonicalFastPath:
    """The block reader counts a block of canonical lines as columns; it must
    agree with parse_event and windowize on every input."""

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
        # in time order, so that the canonical block is counted as columns
        records.sort(key=lambda record: float(record[0]))
        canonical, written, compact = [], [], []
        for ts, is_bind in records:
            kind = "bind" if is_bind else "request"
            canonical.append('{"ts": %r, "kind": "%s"}\n' % (ts, kind))
            written.append(format_event(ts, is_bind) + "\n")
            compact.append(json.dumps({"ts": ts, "kind": kind}, separators=(",", ":")) + "\n")
        # windows as wide as an eighth of the newest ts, so at most nine
        window_s = max(float(records[-1][0]), 1.0) / 8
        expected = outcome(windowize([(float(ts), is_bind) for ts, is_bind in records], window_s, 25))
        with counting_parse_event() as slow:
            fast = outcome(read_windows("".join(canonical).encode(), window_s))
            from_format_event = outcome(read_windows("".join(written).encode(), window_s))
            assert slow == []
            by_line = outcome(read_windows("".join(compact).encode(), window_s))
            assert slow == list(range(1, len(records) + 1))
        assert fast == from_format_event == by_line == expected

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
            '{"ts": ١, "kind": "request"}',
            '{"ts": 1١, "kind": "request"}',
            '{"ts": 1.١, "kind": "request"}',
            '{"ts": 1e١, "kind": "request"}',
            '{"ts": "1.0", "kind": "request"}',
        ],
    )
    def test_edge_lines_match_parse_event(self, line):
        # alone, the line's value is the anchor, the first window's start
        alone = line if line.endswith("\n") else line + "\n"
        assert outcome(read_windows(alone.encode(), 600.0)) == parsed_windows([(1, line)], 600.0)
        # third, after a blank line, its error carries its line number; one
        # window holds every value
        lines = ['{"ts": 0.5, "kind": "request"}', "", line]
        expected = parsed_windows([(1, lines[0]), (3, line)], 1e30)
        assert outcome(read_windows("\n".join(lines).encode(), 1e30)) == expected

    def test_to_json_writes_the_canonical_line(self):
        for ts, is_bind in (bind(12345.6789012345), req(1e-05), req(1e16), bind(0.0)):
            event = Event(ts, is_bind)
            for line in (event.to_json(), format_event(ts, is_bind)):
                assert line == json.dumps({"ts": ts, "kind": "bind" if is_bind else "request"})
                with counting_parse_event() as slow:
                    (window,) = read_windows(line.encode() + b"\n", 600.0)
                assert slow == []
                assert (window.window_start_ts, window.n_requests, window.n_marked) == (ts, 1, int(is_bind))

    @pytest.mark.parametrize("window_s", [0.1, 0.3, 1.1])
    def test_lines_after_a_close_go_to_the_next_window(self, window_s):
        # with no tolerance, the first line on a window edge closes the window
        # before it even where its key rounds down into it; the second line
        # there is counted in the next window, as windowize counts it
        events = [(k * window_s, is_bind) for k in range(200) for is_bind in (False, True)]
        log = "".join(format_event(ts, is_bind) + "\n" for ts, is_bind in events).encode()
        assert sum((k * window_s) // window_s < k for k in range(200)) > 50
        expected = list(windowize(events, window_s, 25, tolerance_s=0.0))
        with counting_parse_event() as slow:
            assert list(read_windows(log, window_s, tolerance_s=0.0)) == expected
        assert slow == []

    @given(
        st.data(),
        st.sampled_from([0.3, 1.1, 7.0, 600.0]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([7, 40, 97, 256, 1 << 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_blocks_count_as_windowize_does(self, data, window_s, tolerance_s, block_size):
        # timestamps on window edges, 1e-12 either side of them, in between,
        # and a little behind the newest; in half the logs, a few lines that
        # are not canonical or blank send their blocks down the line-by-line
        # path
        anchor = data.draw(st.floats(min_value=0.0, max_value=1e4))
        forms = ["canonical"] + data.draw(st.sampled_from([[], ["canonical"] * 20 + ["compact", "blank"]]))
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["edge", "edge", "below", "above", "gap", "gap", "behind"]),
                    st.integers(min_value=0, max_value=6),
                    st.floats(min_value=0.0, max_value=1.0),
                    st.booleans(),
                    st.sampled_from(forms),
                ),
                min_size=1,
                max_size=120,
            )
        )
        events, lines = [], []
        newest, k = anchor, 0
        for step, gap, fraction, is_bind, form in steps:
            k += gap // 3
            edge = anchor + k * window_s
            ts = {
                "edge": edge,
                "below": edge - 1e-12,
                "above": edge + 1e-12,
                "gap": newest + fraction * gap * window_s,
                "behind": newest - fraction * 1.5,
            }[step]
            ts = max(ts, 0.0)
            if form == "blank":
                lines.append("  ")
            kind = "bind" if is_bind else "request"
            if form == "compact":
                lines.append(json.dumps({"ts": ts, "kind": kind}, separators=(",", ":")))
            else:
                lines.append(format_event(ts, is_bind))
            events.append((ts, is_bind))
            newest = max(newest, ts)
        log = ("\n".join(lines) + data.draw(st.sampled_from(["", "\n"]))).encode()
        expected = outcome(windowize(events, window_s, 25, tolerance_s=tolerance_s))
        with mock.patch.object(ingest, "_BLOCK_SIZE", block_size):
            got = outcome(read_windows(log, window_s, tolerance_s=tolerance_s))
        if expected and isinstance(expected[-1], tuple):
            # the reader reports the failing line's number; windowize has none
            assert got[-1][:2] == expected[-1][:2]
            got[-1], expected[-1] = got[-1][:2], expected[-1][:2]
        assert got == expected

    @given(
        st.data(),
        st.sampled_from([0.1, 1 / 3, 1e-3]),
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([64, 1 << 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_cuts_at_window_edges_match_windowize(self, data, window_s, tolerance_s, block_size):
        # in order, so every block is counted as columns: timestamps on
        # window edges anchor + k*window_s and one ulp either side of them,
        # where the float edge and the window key can disagree
        anchor = data.draw(st.sampled_from([0.0, 0.7, 2.9, 1e4 / 3, 1e6 + 0.1]))
        ks = data.draw(st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=80))
        ts = [anchor]
        for k in sorted(ks):
            edge = anchor + k * window_s
            ts.append(data.draw(st.sampled_from([math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)])))
        ts = [anchor] + sorted(max(t, anchor) for t in ts[1:])
        binds = data.draw(st.lists(st.booleans(), min_size=len(ts), max_size=len(ts)))
        lines = [format_event(t, is_bind) + "\n" for t, is_bind in zip(ts, binds)]
        expected = list(windowize(read_events(lines), window_s, 25, tolerance_s=tolerance_s))
        with counting_parse_event() as slow, mock.patch.object(ingest, "_BLOCK_SIZE", block_size):
            got = list(read_windows("".join(lines).encode(), window_s, tolerance_s=tolerance_s))
        assert slow == []
        assert got == expected

    @pytest.mark.parametrize("window_s", [0.1, 1 / 3, 1e-3])
    @pytest.mark.parametrize("anchor", [0.0, 0.7, 2.9, 1e6 + 0.1])
    @pytest.mark.parametrize("tolerance_s", [0.0, 1.0])
    def test_every_edge_and_its_neighbours(self, window_s, anchor, tolerance_s):
        # the float edge can fall on either side of the first line its key
        # puts past the window: 2.9 is past 0.7 + 22 * 0.1 by its key, but
        # below that sum
        assert (2.9 - 0.7) // 0.1 == 22 and 2.9 < 0.7 + 22 * 0.1
        ts = sorted(
            {t for k in range(300) for t in (math.nextafter(anchor + k * window_s, -math.inf),
                                             anchor + k * window_s,
                                             math.nextafter(anchor + k * window_s, math.inf)) if t >= anchor}
        )
        lines = [format_event(t, n % 2 == 0) for n, t in enumerate(ts)]
        expected = list(windowize(read_events(lines), window_s, 25, tolerance_s=tolerance_s))
        with counting_parse_event() as slow:
            got = list(read_windows("".join(line + "\n" for line in lines).encode(), window_s, tolerance_s=tolerance_s))
        assert slow == []
        assert got == expected

    @pytest.mark.parametrize(
        "anchor,edge,idx",
        [
            # 0.5 is the float end of window 4 of 0.1 s from 0, but its key
            # puts it in window 4
            (0.0, 0.5, 4),
            # 2.9 is below the float start of window 22 of 0.1 s from 0.7,
            # but its key puts it in window 22
            (0.7, 2.9, 22),
        ],
    )
    @pytest.mark.parametrize("block_size", [1 << 16, 1 << 22])
    @pytest.mark.parametrize("tolerance_s", [0.0, 1.0])
    def test_a_long_run_of_equal_timestamps_on_an_edge(self, anchor, edge, idx, block_size, tolerance_s):
        # each cut must find the run's ends by bisection, in one block or
        # across many, as the run's window closes or while it is open
        window_s = 0.1
        assert (edge - anchor) // window_s == idx
        assert not anchor + idx * window_s <= edge < anchor + (idx + 1) * window_s
        lines = [format_event(anchor, False)] + [format_event(edge, n % 3 == 0) for n in range(50_000)]
        lines.append(format_event(anchor + 3.0, True))
        log = "".join(line + "\n" for line in lines).encode()
        start = time.perf_counter()
        with counting_parse_event() as slow, mock.patch.object(ingest, "_BLOCK_SIZE", block_size):
            got = list(read_windows(log, window_s, tolerance_s=tolerance_s))
        elapsed = time.perf_counter() - start
        assert slow == []
        assert got == list(windowize(read_events(lines), window_s, 25, tolerance_s=tolerance_s))
        # in its key's window, or from the line that closes that window on,
        # clamped into the next
        run = got[idx : idx + 2]
        assert (sum(w.n_requests for w in run), sum(w.n_marked for w in run)) == (50_000, 16_667)
        assert elapsed < 0.5

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=40.0), st.booleans(), st.sampled_from(["canonical", "compact"])),
            min_size=2,
            max_size=60,
        ),
        st.sampled_from([0.3, 1.1, 7, 600.0]),
        st.sampled_from([0.0, 1.0]),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_window_is_what_from_counts_makes(self, records, window_s, tolerance_s, gap):
        # sorted, with a gap of at least ``gap`` windows between the halves,
        # so ``gap - 1`` empty windows or more; counted as columns or, where
        # a line is compact, line by line
        records.sort()
        half = len(records) // 2
        records[half:] = [(ts + 41 + gap * window_s, is_bind, form) for ts, is_bind, form in records[half:]]
        lines = [
            format_event(ts, is_bind) if form == "canonical"
            else json.dumps({"ts": ts, "kind": "bind" if is_bind else "request"}, separators=(",", ":"))
            for ts, is_bind, form in records
        ]
        windows = list(read_windows("\n".join(lines).encode(), window_s, tolerance_s=tolerance_s))
        assert sum(window.zero_traffic for window in windows) >= gap - 1
        for window in windows:
            expected = WindowStats.from_counts(
                window.window_start_ts, window_s, window.n_requests, window.n_marked, 25
            )
            assert [(type(value), repr(value)) for value in vars(window).values()] == [
                (type(value), repr(value)) for value in vars(expected).values()
            ]
            assert list(vars(window)) == list(WindowStats.__dataclass_fields__)


class TestWindowStats:
    @pytest.mark.parametrize(
        "counts,line",
        [
            ((0, 0), '"n_requests": 0, "n_marked": 0, "chi": 0.0, "theta": 0.0, "zero_traffic": true}'),
            ((4, 1), '"n_requests": 4, "n_marked": 1, "chi": 0.25, "theta": 0.08, "zero_traffic": false}'),
        ],
    )
    def test_from_counts_gives_float_rates(self, counts, line):
        # as the --windows-out sidecar writes them, for an empty window too
        stats = WindowStats.from_counts(0, 10, *counts, 5)
        assert stats.to_json() == '{"window_start_ts": 0.0, "window_s": 10.0, ' + line

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            WindowStats(0.0, 600.0, 1, 2, 1.0, 0.1, False)
        with pytest.raises(ValueError):
            WindowStats(0.0, 600.0, 0, 0, 0.0, 0.0, False)
        with pytest.raises(ValueError):
            WindowStats(0.0, -1.0, 0, 0, 0.0, 0.0, True)

    @pytest.mark.parametrize("n_requests", [0, 1])
    def test_from_counts_checks_the_length_before_dividing_by_it(self, n_requests):
        with pytest.raises(ValueError) as err:
            WindowStats.from_counts(0, 0.0, n_requests, 0, 5)
        assert str(err.value) == "window_s must be positive and finite, got 0.0"

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

    def test_integer_timestamps_and_length_give_float_fields(self):
        # as from_counts gives them
        windows = list(windowize([(3, True), (4, False), (1500, False)], 600, 25))
        expected = [WindowStats.from_counts(3 + 600 * k, 600, n, m, 25) for k, n, m in [(0, 2, 1), (1, 0, 0), (2, 1, 0)]]
        assert [[(type(v), v) for v in vars(window).values()] for window in windows] == [
            [(type(v), v) for v in vars(window).values()] for window in expected
        ]
        assert type(windows[0].window_start_ts) is type(windows[0].window_s) is float

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
