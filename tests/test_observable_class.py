"""Both sides of the uniform-in-h observable class O = sum_m y_m h^m d^m.

On the resolved grid (N = 1/h) a term y h^m d^d has a norm that scales like
h^(m - d), so a symbol's predicted h-exponent is min(m - d) over its terms.
The symbolic engine predicts the comm-sweep slopes from that rule, and the
h-sweep must show observables outside the class growing like 1/h.

The operator-norm bounds are h-uniform for the finite-difference scheme
only. The spectral xi^2 has a kink where the frequency grid wraps at the
Nyquist mode, with a second difference of about 2N, and multiplying by
cos(x) aliases the top modes across it: so the spectral [[A,B],O], which
takes that second difference through A's D_2, grows like 1/h although the
symbol predicts 0. Swapping the spectral D_2 for the FD one flattens it.
"""

import csv
import dataclasses
import io
import itertools
import random

from semitrotter import experiments
from semitrotter.experiments import (
    build_config,
    fit_slope,
    run_experiment,
)
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


def test_comm_sweep_slopes_follow_symbolic_exponents(default_comm_sweep):
    ab = sym_commutator(A, B)
    ab_o = sym_commutator(ab, DEFAULT_O)
    a_ab_o = sym_commutator(A, ab_o)
    words = dict(zip(experiments.COMM_WORD_LABELS, (ab, ab_o, a_ab_o, sym_commutator(A, a_ab_o))))
    predicted = {label: _exponent(op) for label, op in words.items()}
    assert list(predicted.values()) == [-1, 0, 0, 0]

    records = list(csv.DictReader(io.StringIO(default_comm_sweep[1].decode("utf-8"))))  # criterion 3's run
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


_WAVES = ("sin({k}*x)", "cos({k}*x)", "exp(cos({k}*x))")


def _random_observable(rng: random.Random, degrees=()) -> dict[int, str]:
    """An in-class spec {m: y_m}: one to three degrees in 0 ... 3 plus those given, y_m a sum of one or two waves."""
    chosen = sorted(set(rng.sample(range(4), rng.randint(1, 3))) | set(degrees))
    return {m: " + ".join(rng.choice(_WAVES).format(k=rng.randint(1, 2)) for _ in range(rng.randint(1, 2))) for m in chosen}


def _spec_text(coefficients: dict[int, str]) -> str:
    return ", ".join(f"{m}:{y}" for m, y in coefficients.items())


def _word_exponents(coefficients: dict[int, str], dropped=None) -> list[float]:
    """Symbolic exponents of the comm-sweep's three words with O, then p = 2 beta's; term `dropped` lacks its h^m."""
    terms = [SymOp.term(1, ((f"y{m}", 0),), hpow=0 if m == dropped else m, dord=m) for m in coefficients]
    obs = sum(terms[1:], terms[0])
    words = [sym_commutator(sym_commutator(A, B), obs)]  # [[A,B],O], then ad_A of it twice
    for _ in range(2):
        words.append(sym_commutator(A, words[-1]))
    return [_exponent(word) for word in words] + [min(_chain_exponents(obs, 3))]


def _fine_end_word_slopes(monkeypatch, coefficients: dict[int, str], dropped=None) -> list[float]:
    """Local slopes from h = 1/256 to 1/512 of an FD comm-sweep's words with O and beta, in _word_exponents' order.

    Term `dropped` is parsed with its coefficient times h^-m, so the library builds y_m D_m without h^m.
    """
    parse = experiments.parse_observable_spec

    def parsed(text, h):
        terms = dict(coefficients)
        terms[dropped] = f"({terms[dropped]})*{h ** -dropped!r}"
        return parse(_spec_text(terms), h)

    with monkeypatch.context() as patch:
        if dropped is not None:
            patch.setattr(experiments, "parse_observable_spec", parsed)
        rows = run_experiment(build_config("comm-sweep", {"h": "1/256, 1/512", "observable": _spec_text(coefficients)}))
    labels = experiments.COMM_WORD_LABELS[1:] + ("beta_comm",)
    return [fit_slope([(r.h, r.value) for r in rows if r.metric == label]).slope for label in labels]


def test_random_observables_keep_their_symbolic_exponents(monkeypatch):
    # the class as a property: seeded draws of in-class observables keep every word with O, and
    # beta, at the symbolic exponent 0; draws whose degree-1 term lost its h read -1. Each is
    # judged by its local slope at the fine end (h = 1/256 to 1/512), within criterion 3's 0.15
    rng = random.Random(6)
    cases = [(_random_observable(rng), None) for _ in range(8)] + [(_random_observable(rng, (1,)), 1) for _ in range(4)]
    failures = []
    for coefficients, dropped in cases:
        predicted = _word_exponents(coefficients, dropped)
        assert predicted == [0 if dropped is None else -1] * 4, (coefficients, predicted)
        slopes = _fine_end_word_slopes(monkeypatch, coefficients, dropped)
        if any(abs(slope - exponent) > 0.15 for slope, exponent in zip(slopes, predicted)):
            failures.append((_spec_text(coefficients), dropped, slopes))
    assert not failures, failures


def test_operator_norm_uniformity_holds_for_fd_only():
    # criterion 3's 0.15: FD's [[A,B],O] is flat as the symbol predicts, spectral's grows like 1/h
    for scheme, exponent in (("fd", 0.0), ("spectral", -1.0)):
        cfg = build_config("comm-sweep", {"h": "1/32, 1/64, 1/128, 1/256", "scheme": scheme})
        slope = fit_slope([(r.h, r.value) for r in run_experiment(cfg) if r.metric == "[[A,B],O]"]).slope
        assert abs(slope - exponent) <= 0.15, (scheme, slope)


def test_beta_is_uniform_at_orders_4_and_6():
    # the paper's arbitrary order on the commutator side: criterion 4's max/min ratio <= 2
    rows = run_experiment(build_config("beta", {"h": "1/32, 1/64, 1/128, 1/256", "orders": "2, 4, 6"}))
    for p in (2, 4, 6):
        values = [r.value for r in rows if r.p == p and r.metric == "beta_comm"]
        assert len(values) == 4
        assert max(values) / min(values) <= 2.0, (p, values)


def _fine_end_slope(rows, p: int, metric: str) -> float:
    """Local slope of one series between its two smallest h."""
    pts = sorted((r.h, r.value) for r in rows if r.p == p and r.metric == metric)
    return fit_slope(pts[:2]).slope


def test_h_uniformity_at_orders_8_and_10():
    # the paper's arbitrary order on the evolution side, resolved and above the float64 floor at
    # dt = 1/2: criterion 2's bands, the observable error's judged by its local slope at the fine end
    cfg = build_config("h-sweep", {"h": "1/32, 1/64, 1/128, 1/256", "orders": "8, 10", "dt": "1/2"})
    rows = run_experiment(cfg)
    for p in (8, 10):
        observable = _fine_end_slope(rows, p, "observable_error")
        unitary = _fine_end_slope(rows, p, "unitary_error")
        assert -0.2 <= observable <= 0.2 and -1.3 <= unitary <= -0.7, (p, observable, unitary)


def test_beta_is_uniform_at_order_8():
    # criterion 4's max/min ratio <= 2 at p = 8
    rows = run_experiment(build_config("beta", {"h": "1/32, 1/64, 1/128", "orders": "8"}))
    values = [r.value for r in rows if r.metric == "beta_comm"]
    assert len(values) == 3
    assert max(values) / min(values) <= 2.0, values


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
        rows = run_experiment(dataclasses.replace(cfg, observable=observable))
        series = experiments.series_from_rows(rows, "observable_error", "h")
        assert [label for label, _ in series] == ["observable_error p=2", "observable_error p=4"]
        return [fit_slope(pts).slope for _, pts in series]

    # cos + sin h D_1: height 1 = width 1
    assert all(-0.2 <= s <= 0.2 for s in slopes("0:cos(x), 1:sin(x)", lambda h: h))
    # cos + sin D_1: no h, exponent -1
    assert all(s < -0.7 for s in slopes("0:cos(x), 1:sin(x)", lambda h: 1.0))
    # cos + sin (h^1/2)^2 D_2 = cos + sin h D_2: height 2 > width 1, exponent -1
    assert all(s < -0.7 for s in slopes("0:cos(x), 2:sin(x)", lambda h: h**0.5))
