"""Scoring of one CSV: what counts as a wrong value."""

import csv
import io
import math

from oracle import ABS_FLOOR, Expected
from score import CSV_HEADER, score_csv

KEYS = [
    ("comm-sweep", None, "fd", 32, 0.03125, None, None, "[A,B]"),
    ("comm-sweep", None, "fd", 32, 0.03125, None, None, "[[A,B],O]"),
    ("comm-sweep", 2, "fd", 32, 0.03125, None, None, "beta_comm"),
]
VALUES = [4.609729733, 0.9033381, 38.72374]
EXPECTED = {k: Expected(v) for k, v in zip(KEYS, VALUES)}


def csv_bytes(rows) -> bytes:
    """Rows written the way the CLI writes them (RFC 4180 quoting, repr floats)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for key, value in rows:
        writer.writerow(["" if x is None else repr(x) if isinstance(x, float) else x for x in key + (value,)])
    return out.getvalue().encode()


GOOD = csv_bytes(list(zip(KEYS, VALUES)))


def test_correct_csv_scores_zero():
    s = score_csv(GOOD, 0, EXPECTED, GOOD)
    assert (s.attempted, s.failed, s.broken) == (3, 0, False)


def test_roundoff_within_the_floor_is_accepted():
    data = csv_bytes([(KEYS[0], VALUES[0] + 0.5 * ABS_FLOOR)] + list(zip(KEYS[1:], VALUES[1:])))
    assert score_csv(data, 0, EXPECTED).failed == 0


def test_perturbed_value_is_wrong_but_not_broken():
    data = csv_bytes([(KEYS[0], VALUES[0] * (1 + 1e-6))] + list(zip(KEYS[1:], VALUES[1:])))
    s = score_csv(data, 0, EXPECTED)
    assert (s.failed, s.broken) == (1, False)
    assert s.wrong[0][0] == KEYS[0]


def test_missing_row_is_wrong_and_broken():
    s = score_csv(csv_bytes(list(zip(KEYS[1:], VALUES[1:]))), 0, EXPECTED)
    assert (s.attempted, s.failed, s.broken) == (3, 1, True)


def test_non_finite_value_is_wrong_and_broken():
    data = csv_bytes([(KEYS[0], math.nan)] + list(zip(KEYS[1:], VALUES[1:])))
    s = score_csv(data, 0, EXPECTED)
    assert (s.failed, s.broken) == (1, True)


def test_unexpected_row_counts_as_one_more_wrong_value():
    extra = (("comm-sweep", None, "fd", 32, 0.03125, None, None, "[B,A]"), 1.0)
    s = score_csv(csv_bytes(list(zip(KEYS, VALUES)) + [extra]), 0, EXPECTED)
    assert (s.attempted, s.failed, s.broken) == (4, 1, True)


def test_changed_byte_makes_every_value_wrong():
    changed = GOOD.replace(b"38.72374", b"38.72375")
    s = score_csv(changed, 0, EXPECTED, GOOD)
    assert (s.attempted, s.failed, s.broken) == (3, 3, True)


def test_nonzero_exit_makes_every_value_wrong():
    s = score_csv(GOOD, 3, EXPECTED, GOOD)
    assert (s.failed, s.broken) == (3, True)
    assert score_csv(None, 0, EXPECTED).failed == 3


def test_cli_csv_rows_match_the_oracle_keys(tmp_path):
    from semitrotter import cli

    import oracle
    from workloads import Invocation

    inv = Invocation("comm-sweep", h_values=(1.0 / 8, 1.0 / 16))
    config = tmp_path / "comm.conf"
    config.write_text(inv.config_text())
    assert cli.main(inv.argv(str(config), str(tmp_path))) == 0
    s = score_csv((tmp_path / "comm_sweep.csv").read_bytes(), 0, oracle.reference(inv))
    assert (s.attempted, s.broken) == (10, False)
