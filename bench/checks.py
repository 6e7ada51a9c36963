"""Output checks that any correct build of idletune passes.

They hold for the program as it is and for the changes the roadmap plans:
extra fields in a record, a closing summary record, and a last window that
is corrected for the part of it the log actually covered.  Each function
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from inputs import Window

# 4 standard errors: a correct program fails one of these about once in
# 16000 checks.
Z = 4.0
REL = 1e-9


@dataclass
class TuneOutput:
    records: list[dict] = field(default_factory=list)
    publishes: list[dict] = field(default_factory=list)
    record_lines: list[int] = field(default_factory=list)  # stdout line index of each record

    @property
    def published(self) -> list[dict]:
        return [r for r in self.records if r.get("published")]

    @property
    def feasible(self) -> int:
        return sum(1 for r in self.records if r.get("timeout_s") is not None)


def parse_tune(lines: list[bytes]) -> TuneOutput:
    """Split ``tune`` stdout into per-window records and publish lines.

    Lines with an ``event`` key other than ``publish`` (a summary record,
    say) are neither.
    """
    out = TuneOutput()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        event = obj.get("event")
        if event == "publish":
            out.publishes.append(obj)
        elif event is None:
            out.records.append(obj)
            out.record_lines.append(i)
    return out


def publish_failures(stderr: str) -> int:
    """Failed publishes the ``tune`` summary on stderr reports, 0 if none."""
    match = re.search(r"(\d+) publish failures", stderr)
    return int(match.group(1)) if match else 0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


def check_tune(out: TuneOutput, expected: list[Window], n_users: int, window_s: float, eps: float) -> list[str]:
    """Records against the benchmark's own windows and the model's solver."""
    from idletune.errors import InfeasibleTargetError
    from idletune.model import ModelParams, solve_timeout

    errors: list[str] = []
    if len(out.records) != len(expected):
        errors.append(f"{len(out.records)} records for {len(expected)} nonempty windows")
    for i, (rec, win) in enumerate(zip(out.records, expected)):
        if not _close(rec["window_end_ts"], win.end_ts):
            errors.append(f"record {i}: window_end_ts {rec['window_end_ts']} != {win.end_ts}")
            break
        full = i < len(expected) - 1
        if full and not (
            _close(rec["chi"], win.n_marked / win.n_requests)
            and _close(rec["theta"], win.n_requests / (n_users * window_s))
        ):
            errors.append(f"record {i}: chi/theta {rec['chi']}/{rec['theta']} disagree with the counts")
            break
        xi_hat, beta_hat, timeout_s = rec["xi_hat"], rec["beta_hat"], rec["timeout_s"]
        try:
            want = solve_timeout(ModelParams(n_users, beta_hat, xi_hat), eps).timeout_s
        except (InfeasibleTargetError, ValueError):
            # ModelParams refuses beta_hat = 0, which admits no timeout either
            want = None
        if timeout_s != want and (timeout_s is None or want is None or not _close(timeout_s, want)):
            errors.append(f"record {i}: timeout_s {timeout_s} but solve_timeout gives {want}")
            break
    return errors


def check_publish_lines(out: TuneOutput) -> list[str]:
    """Each publish line matches the published record at the same position."""
    published = out.published
    if len(out.publishes) != len(published):
        return [f"{len(out.publishes)} publish lines for {len(published)} published records"]
    for line, rec in zip(out.publishes, published):
        if line["timeout_s"] != rec["timeout_s"] or line.get("iteration", rec["iteration"]) != rec["iteration"]:
            return [f"publish line {line} does not match record {rec}"]
    return []


def check_ldif(text: str, out: TuneOutput) -> list[str]:
    """The snippet left behind carries ceil of the last published timeout."""
    published = out.published
    if not published:
        return ["no record was published"]
    want = math.ceil(published[-1]["timeout_s"])
    match = re.search(r"^nsslapd-idletimeout: (\d+)$", text, re.MULTILINE)
    if match is None or int(match.group(1)) != want:
        return [f"LDIF holds {match and match.group(1)}, want {want}"]
    return []


def check_gen_log(data: bytes, n_users: int, beta: float, xi: float, duration_s: float) -> list[str]:
    """Event count and marked fraction against the generating parameters."""
    n = data.count(b"\n")
    marked = data.count(b'"bind"')
    mean = n_users * beta * duration_s
    errors = []
    if abs(n - mean) > Z * math.sqrt(mean):
        errors.append(f"gen-log wrote {n} events, expected {mean:.0f}")
    if n and abs(marked / n - xi) > Z * math.sqrt(xi * (1 - xi) / n):
        errors.append(f"gen-log marked fraction {marked / n:.5f}, expected {xi}")
    return errors


def check_sim_system(report: dict, n_users: int, beta: float, xi: float, timeout_s: float, processes: int) -> list[str]:
    """Per-bind failure rate against exp(-N beta xi t / P).

    Marked requests reach each pooled process as a Poisson stream of rate
    N beta xi / P, so each idle gap exceeds the timeout with that probability.
    """
    p = math.exp(-n_users * beta * xi * timeout_s / processes)
    n = report["marked_requests"]
    if not n or abs(report["failure_rate"] - p) > Z * math.sqrt(p * (1 - p) / n):
        return [f"sim-system failure rate {report['failure_rate']} over {n} binds, expected {p:.5f}"]
    return []


def check_simulate(result: dict, n_users: int, beta: float, xi: float, timeout_s: float) -> list[str]:
    """Monte Carlo estimate against the model's failure probability."""
    from idletune.model import ModelParams, failure_probability

    p = failure_probability(ModelParams(n_users, beta, xi), timeout_s)
    n = result["trials"]
    if abs(result["p_hat"] - p) > Z * math.sqrt(p * (1 - p) / n):
        return [f"simulate p_hat {result['p_hat']} over {n} trials, expected {p:.5f}"]
    return []
