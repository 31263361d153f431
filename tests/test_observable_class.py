"""Both sides of the uniform-in-h observable class O = sum_m y_m h^m d^m.

On the resolved grid (N = 1/h) a term y h^m d^d has a norm that scales like
h^(m - d), so a symbol's predicted h-exponent is min(m - d) over its terms.
The symbolic engine predicts the comm-sweep slopes from that rule, and the
h-sweep must show observables outside the class growing like 1/h.
"""

import csv
import dataclasses
import io
import itertools

from semitrotter import experiments
from semitrotter.experiments import build_config, fit_slope, rows_to_csv, run_comm_sweep, run_h_sweep
from semitrotter.symbolic_lie import (
    SymOp,
    kinetic_symbol,
    observable_symbol,
    potential_symbol,
    sym_commutator,
)

A, B = kinetic_symbol(), potential_symbol()
DEFAULT_O = observable_symbol(0, "y0") + observable_symbol(1, "y1")  # "0:cos(x), 1:sin(x)"


def _exponent(op: SymOp) -> float:
    """Predicted h-exponent on the resolved grid: min(m - d) over the terms; inf for zero."""
    return min((m - d for _, m, d in op.terms), default=float("inf"))


def _chain_exponents(obs: SymOp, letters: int) -> list[float]:
    """Exponents of every ad-chain of obs with the given number of letters in {A, B}."""
    exponents = []
    for word in itertools.product((A, B), repeat=letters):
        chain = obs
        for gen in word:
            chain = sym_commutator(gen, chain)
        exponents.append(_exponent(chain))
    return exponents


def test_comm_sweep_slopes_follow_symbolic_exponents():
    ab = sym_commutator(A, B)
    ab_o = sym_commutator(ab, DEFAULT_O)
    a_ab_o = sym_commutator(A, ab_o)
    words = dict(zip(experiments.COMM_WORD_LABELS, (ab, ab_o, a_ab_o, sym_commutator(A, a_ab_o))))
    predicted = {label: _exponent(op) for label, op in words.items()}
    assert list(predicted.values()) == [-1, 0, 0, 0]

    records = list(csv.DictReader(io.StringIO(rows_to_csv(run_comm_sweep(build_config("comm-sweep"))))))
    for label, exponent in predicted.items():
        slope = fit_slope([(float(r["h"]), float(r["value"])) for r in records if r["metric"] == label]).slope
        # criterion 3's tolerances: 0.1 on [A,B], 0.15 on the words with O
        assert abs(slope - exponent) <= (0.1 if label == "[A,B]" else 0.15), (label, slope)

    # beta is flat: no (p+1)-letter ad-chain of O carries a negative power of h
    for p in (2, 4):
        assert min(_chain_exponents(DEFAULT_O, p + 1)) == 0
    no_h = SymOp.term(1, (("y", 0),), hpow=0, dord=1)  # y d, outside the class
    assert _exponent(no_h) == -1
    assert min(_chain_exponents(no_h, 3)) == -1


def test_h_sweep_negative_control(monkeypatch):
    """Only the in-class observable keeps its error flat in h."""
    cfg = build_config("h-sweep", {"h": "1/32, 1/64, 1/128, 1/256", "orders": "2, 4"})
    parse = experiments.parse_observable_spec

    def slopes(observable: str, spec_h) -> list[float]:
        # the spec's h sets the h^m factors: spec_h(h) = h is the class
        monkeypatch.setattr(
            experiments,
            "parse_observable_spec",
            lambda text, h: dataclasses.replace(parse(text, h), h=spec_h(h)),
        )
        rows = run_h_sweep(dataclasses.replace(cfg, observable=observable))
        series = experiments.series_from_rows(rows, "observable_error", "h")
        assert [label for label, _ in series] == ["observable_error p=2", "observable_error p=4"]
        return [fit_slope(pts).slope for _, pts in series]

    # cos + sin h D_1: height 1 = width 1
    assert all(-0.2 <= s <= 0.2 for s in slopes("0:cos(x), 1:sin(x)", lambda h: h))
    # cos + sin D_1: no h, exponent -1
    assert all(s < -0.7 for s in slopes("0:cos(x), 1:sin(x)", lambda h: 1.0))
    # cos + sin (h^1/2)^2 D_2 = cos + sin h D_2: height 2 > width 1, exponent -1
    assert all(s < -0.7 for s in slopes("0:cos(x), 2:sin(x)", lambda h: h**0.5))
