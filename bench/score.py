"""Score one CLI CSV against the oracle's reference rows.

A value counts as wrong when its row is missing, its value is not
finite, or it lies outside the reference tolerance; an unexpected row
counts as one more wrong value. A non-zero exit code, an unreadable CSV
or a CSV whose bytes differ from the reference run of the same code
makes every value of the invocation wrong. Such faults, and missing,
unexpected or non-finite rows, also mark the score ``broken``: the
program did not produce the table it promises, as opposed to producing
it with inaccurate numbers.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

CSV_HEADER = ["experiment", "p", "scheme", "N", "h", "dt", "t", "metric", "value"]


@dataclass
class Score:
    attempted: int
    failed: int
    broken: bool
    wrong: list = field(default_factory=list)  # (key, got, expected) per wrong value
    reason: str = ""


def _opt(text: str, kind):
    return None if text == "" else kind(text)


def parse_csv(data: bytes) -> list[tuple[tuple, float]]:
    """(key, value) per row; the key matches ``oracle.Key``."""
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
    if next(reader, None) != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for fields in reader:
        experiment, p, scheme, n, h, dt, t, metric, value = fields
        key = (
            experiment,
            _opt(p, int),
            scheme,
            int(n),
            _opt(h, float),
            _opt(dt, float),
            _opt(t, float),
            metric,
        )
        rows.append((key, float(value)))
    return rows


def score_csv(data: bytes | None, exit_code: int, expected: dict, reference_bytes: bytes | None = None) -> Score:
    """Count the wrong values of one invocation's CSV."""
    attempted = len(expected)
    if exit_code != 0:
        return Score(attempted, attempted, True, reason=f"exit code {exit_code}")
    if data is None:
        return Score(attempted, attempted, True, reason="no CSV written")
    if reference_bytes is not None and data != reference_bytes:
        return Score(attempted, attempted, True, reason="CSV differs from the reference run")
    try:
        rows = parse_csv(data)
    except (ValueError, UnicodeDecodeError) as exc:
        return Score(attempted, attempted, True, reason=f"unreadable CSV: {exc}")

    got: dict = {}
    unexpected = []
    for key, value in rows:
        if key in expected and key not in got:
            got[key] = value
        else:
            unexpected.append((key, value, None))
    wrong = list(unexpected)
    broken = bool(unexpected)
    for key, ref in expected.items():
        value = got.get(key)
        if value is None or not ref.accepts(value):
            wrong.append((key, value, ref.value))
            broken = broken or value is None or not math.isfinite(value)
    return Score(attempted + len(unexpected), len(wrong), broken, wrong)
