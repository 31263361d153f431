"""Symbolic height/width algebra tests."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from semitrotter import experiments, symbolic_lie
from semitrotter.discretize import Grid, build_diag, build_Dk
from semitrotter.expr import parse_expr
from semitrotter.linalg import commutator
from semitrotter.symbolic_lie import (
    SymOp,
    discrete_height_estimate,
    grade_n_commutator,
    height,
    kinetic_symbol,
    observable_symbol,
    potential_symbol,
    sym_commutator,
    to_string,
    verify_height_width,
    width,
)


def _derivative(factors, r):
    """r-th derivative of a product of symbols: sum over a_1 + ... + a_k = r of r! / (a_1! ... a_k!) prod f_i^(a_i)."""
    out = {}
    for orders in itertools.product(range(r + 1), repeat=len(factors)):
        if sum(orders) == r:
            key = tuple(sorted((name, order + a) for (name, order), a in zip(factors, orders)))
            out[key] = out.get(key, 0) + math.factorial(r) // math.prod(map(math.factorial, orders))
    return out


def _product(p, q):
    """PQ with every Leibniz term, r = 0 included: d^d1 o f2 = sum_r C(d1, r) f2^(r) d^(d1 - r)."""
    out = {}
    for (f1, m1, d1), c1 in p.terms.items():
        for (f2, m2, d2), c2 in q.terms.items():
            for r in range(d1 + 1):
                for f2r, mult in _derivative(f2, r).items():
                    key = (tuple(sorted(f1 + f2r)), m1 + m2, d1 + d2 - r)
                    out[key] = out.get(key, 0) + c1 * c2 * math.comb(d1, r) * mult
    return SymOp(out)


def _reference_commutator(p, q):
    return _product(p, q) - _product(q, p)


def _reference_word(word):
    symbols = {"A": kinetic_symbol(), "B": potential_symbol()}
    acc = symbols[word[0]]
    for label in word[1:]:
        acc = _reference_commutator(symbols[label], acc)
    return acc


def test_commutator_matches_reference_on_random_pairs():
    rng = random.Random(2026)
    for _ in range(2000):
        p, q = symbolic_lie._random_symop(rng), symbolic_lie._random_symop(rng)
        assert sym_commutator(p, q) == _reference_commutator(p, q)


def test_commutator_matches_reference_with_fraction_scalars():
    rng = random.Random(5)

    def rand_op():
        op = SymOp.zero()
        for _ in range(rng.randint(1, 4)):
            op = op + SymOp.term(
                Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5)),
                tuple((rng.choice("Vyz"), rng.randint(0, 3)) for _ in range(rng.randint(0, 3))),
                hpow=rng.randint(-3, 3),
                dord=rng.randint(0, 5),
            )
        return op

    for _ in range(300):
        p, q = rand_op(), rand_op()
        assert sym_commutator(p, q) == _reference_commutator(p, q)


def test_commutator_matches_reference_on_words_and_observables():
    words = [w for n in range(1, 5) for w in itertools.product("AB", repeat=n)]
    assert len(words) == 30
    for word in words:
        c_n = grade_n_commutator(word)
        assert c_n == _reference_word(word)
        for q in range(4):
            assert sym_commutator(c_n, observable_symbol(q)) == _reference_commutator(c_n, observable_symbol(q))
    rng = random.Random(3)
    for _ in range(40):  # three nested layers [C_w3, [C_w2, [C_w1, O_q]]]
        nested = expected = observable_symbol(rng.randint(0, 3))
        for _ in range(3):
            word = rng.choice(words)
            nested = sym_commutator(grade_n_commutator(word), nested)
            expected = _reference_commutator(_reference_word(word), expected)
            assert nested == expected


def test_verifier_catches_a_commutator_that_does_not_subtract(monkeypatch):
    # the verifier is not vacuous: PQ alone, with QP never subtracted, breaks the height law
    monkeypatch.setattr(symbolic_lie, "sym_commutator", _product)
    report = verify_height_width(50, seed=42)
    assert report.failures > 0
    assert report.first_failure is not None
    rows = experiments.run_experiment(experiments.build_config("verify-symbolic", {"trials": "50"}))
    by_metric = {r.metric: r.value for r in rows}
    assert by_metric["ht_wd_violations"] > 0
    assert by_metric["first_failure_flag"] == 1.0


def test_hand_check_potential_with_d2():
    # [V, d^2] = -V'' - 2 V' d, term for term
    v = SymOp.term(1, (("V", 0),))
    d2 = SymOp.term(1, (), hpow=0, dord=2)
    expected = SymOp.term(-1, (("V", 2),)) + SymOp.term(-2, (("V", 1),), dord=1)
    assert sym_commutator(v, d2) == expected


def test_weighted_bracket_h_powers():
    # [V h^-1, h d^2] carries h^0 on every surviving term
    result = sym_commutator(potential_symbol(), kinetic_symbol())
    expected = SymOp.term(-1, (("V", 2),), hpow=0, dord=0) + SymOp.term(
        -2, (("V", 1),), hpow=0, dord=1
    )
    assert result == expected
    assert height(result) == 1
    assert width(result) == 0


def test_self_commutators_vanish():
    assert sym_commutator(kinetic_symbol(), kinetic_symbol()).is_zero()
    p = SymOp.term(Fraction(3, 2), (("y", 1),), hpow=-2, dord=3)
    assert sym_commutator(p, p).is_zero()


def test_heights_and_widths_of_generators():
    a, b = kinetic_symbol(), potential_symbol()
    assert (height(a), width(a)) == (2, 1)
    assert (height(b), width(b)) == (0, -1)
    zero = SymOp.zero()
    assert height(zero) == 0
    assert width(zero) == math.inf


def test_observable_symbol_is_diagonal_in_height_width():
    for q in range(4):
        o = observable_symbol(q)
        assert height(o) == q
        assert width(o) == q


def test_grade_one_returns_generator():
    assert grade_n_commutator(("A",)) == kinetic_symbol()
    assert grade_n_commutator(("B",)) == potential_symbol()


def test_grade_two_word_bounds():
    # word (B, A) means [U_2, U_1] with U_1 = B, U_2 = A
    c = grade_n_commutator(("B", "A"))
    assert c == sym_commutator(kinetic_symbol(), potential_symbol())
    assert height(c) <= 1
    assert width(c) >= 0


def test_general_word_bounds():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        word = tuple(rng.choice("AB") for _ in range(n))
        m = word.count("A")
        c = grade_n_commutator(word)
        if c.is_zero():
            continue
        assert height(c) <= 2 * m - (n - 1)
        assert width(c) >= 2 * m - n


_GENERATORS = {"A": kinetic_symbol(), "B": potential_symbol()}


def _nonzero_chains(chain, word, letters, bracket):
    """(word, chain) for chain and every nonzero [U_k, ... [U_1, chain]] up to `letters` letters in all.

    Depth first, so each prefix's chain is built once; a zero chain stays zero and is not extended.
    """
    yield word, chain
    if len(word) < letters:
        for label, gen in _GENERATORS.items():
            longer = bracket(gen, chain)
            if not longer.is_zero():
                yield from _nonzero_chains(longer, word + (label,), letters, bracket)


def _grade_n_violations(letters, bracket):
    """Nonzero chains C_n of 1 ... letters generators off ht(C_n) <= 2m - (n - 1) or wd(C_n) >= 2m - n, m the A count."""
    chains = [c for label, gen in _GENERATORS.items() for c in _nonzero_chains(gen, (label,), letters, bracket)]
    bad = [w for w, c in chains if height(c) > 2 * w.count("A") - (len(w) - 1) or width(c) < 2 * w.count("A") - len(w)]
    return bad, len(chains)


def _lowest_exponent(obs, letters, bracket):
    """The least h-exponent min(m - d) over the terms of every ad-chain of obs with at most `letters` letters."""
    return min(min(m - d for _, m, d in c.terms) for _, c in _nonzero_chains(obs, (), letters, bracket))


def test_grade_n_bounds_hold_for_every_word_the_package_runs():
    # order p <= 10 takes (p + 1)-letter words: all 4094 words of 1 ... 11 letters, of which
    # 1052 have a nonzero chain; the engine is exact, so the enumeration decides
    bad, chains = _grade_n_violations(11, sym_commutator)
    assert bad == [] and chains == 1052


def test_observable_monomials_stay_h_uniform_through_every_ad_chain():
    # the class O = sum_q y_q h^q d^q: every ad-chain of a monomial up to 9 letters (p <= 8) keeps
    # min(m - d) >= 0, and reaches 0; a chain is linear in O, so the monomials cover every sum
    for q in range(4):
        assert _lowest_exponent(observable_symbol(q), 9, sym_commutator) == 0


def test_lemma_checks_catch_a_bracket_without_qp_and_an_observable_without_h():
    no_h = SymOp.term(1, (("y", 0),), hpow=0, dord=1)  # y d, outside the class
    assert _lowest_exponent(no_h, 3, sym_commutator) == -1
    assert _grade_n_violations(3, _product)[0]  # PQ alone, with QP never subtracted
    assert min(_lowest_exponent(observable_symbol(q), 2, _product) for q in range(4)) < 0


def test_antisymmetry_and_jacobi_exact():
    rng = random.Random(9)

    def rand_op():
        op = SymOp.zero()
        for _ in range(rng.randint(1, 3)):
            op = op + SymOp.term(
                Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)),
                ((rng.choice(["V", "y"]), rng.randint(0, 2)),),
                hpow=rng.randint(-2, 2),
                dord=rng.randint(0, 3),
            )
        return op

    for _ in range(20):
        p, q, r = rand_op(), rand_op(), rand_op()
        assert sym_commutator(p, q) == -1 * sym_commutator(q, p)
        jacobi = (
            sym_commutator(p, sym_commutator(q, r))
            + sym_commutator(q, sym_commutator(r, p))
            + sym_commutator(r, sym_commutator(p, q))
        )
        assert jacobi.is_zero()


def test_per_term_height_reduction_and_width_expansion():
    rng = random.Random(11)

    def rand_op():
        op = SymOp.zero()
        for _ in range(rng.randint(1, 4)):
            op = op + SymOp.term(
                Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2)),
                tuple((rng.choice(["V", "y", "z"]), rng.randint(0, 2)) for _ in range(rng.randint(0, 2))),
                hpow=rng.randint(-3, 3),
                dord=rng.randint(0, 4),
            )
        return op

    for _ in range(50):
        p, q = rand_op(), rand_op()
        bracket = sym_commutator(p, q)
        if bracket.is_zero():
            continue
        for (_, hpow, dord) in bracket.terms:
            assert dord <= height(p) + height(q) - 1
            assert hpow >= width(p) + width(q)


def test_verifier_clean_run():
    report = verify_height_width(150, seed=7)
    assert report.failures == 0
    assert report.first_failure is None
    assert report.checks > report.trials


def test_verifier_pinned_report():
    # pins the random stream: integer scalars draw exactly what the Fractions drew
    # and grade_n_commutator's cache shares each word's SymOp without changing a check
    report = verify_height_width(1000, 42)
    assert (report.trials, report.checks, report.failures) == (1000, 4531, 0)
    report = verify_height_width(1000, 1)
    assert (report.trials, report.checks, report.failures) == (1000, 4594, 0)
    for seed, checks in ((0, 4559), (7, 4513), (2026, 4562)):
        report = verify_height_width(1000, seed)
        assert (report.trials, report.checks, report.failures) == (1000, checks, 0)


def test_verifier_describes_only_failures(monkeypatch):
    rendered = []
    monkeypatch.setattr(symbolic_lie, "to_string", lambda op: rendered.append(op) or "")
    assert verify_height_width(50, seed=3).passed
    assert rendered == []


def test_symop_scalar_types():
    (int_scalar,) = SymOp.term(2).terms.values()
    (frac_scalar,) = SymOp.term(Fraction(3, 2)).terms.values()
    assert type(int_scalar) is int
    assert type(frac_scalar) is Fraction
    assert SymOp.term(2) == SymOp.term(Fraction(2))
    assert hash(SymOp.term(2)) == hash(SymOp.term(Fraction(2)))
    (scaled,) = (3 * SymOp.term(Fraction(1, 2))).terms.values()
    assert scaled == Fraction(3, 2)
    assert to_string(SymOp.term(Fraction(-3, 2), (("V", 1),), hpow=1)) == "-3/2 * V^(1) * h^1 * d^0"


def test_verifier_validates_trials():
    with pytest.raises(ValueError):
        verify_height_width(0, seed=1)


def test_pretty_printer_golden():
    op = SymOp.term(-1, (("V", 2),)) + SymOp.term(-2, (("V", 1),), dord=1)
    assert to_string(op) == "-2 * V^(1) * h^0 * d^1 + -1 * V^(2) * h^0 * d^0"
    assert to_string(SymOp.zero()) == "0"
    assert to_string(kinetic_symbol()) == "1 * h^1 * d^2"
    assert (
        to_string(SymOp.term(Fraction(3, 2), (("y", 0), ("V", 1)), hpow=-1, dord=2))
        == "3/2 * V^(1)·y^(0) * h^-1 * d^2"
    )


def test_pretty_printer_sort_order():
    op = (
        SymOp.term(1, (), hpow=2, dord=0)
        + SymOp.term(1, (), hpow=-1, dord=3)
        + SymOp.term(1, (), hpow=1, dord=3)
    )
    assert to_string(op) == "1 * h^-1 * d^3 + 1 * h^1 * d^3 + 1 * h^2 * d^0"


def test_discrete_height_estimate_Dk():
    sizes = (16, 32, 64, 128)
    slope = discrete_height_estimate(lambda n: build_Dk(Grid(-math.pi, math.pi, n), 2), sizes)
    assert abs(slope - 2.0) <= 0.1


def test_discrete_height_estimate_commutator_with_diag():
    cos = parse_expr("cos(x)")
    slope = discrete_height_estimate(
        lambda n: commutator(
            build_Dk(Grid(-math.pi, math.pi, n), 1),
            build_diag(Grid(-math.pi, math.pi, n), cos),
        ),
        (16, 32, 64, 128),
    )
    assert slope <= 0.15


def test_discrete_height_estimate_degenerate():
    assert discrete_height_estimate(lambda n: np.zeros((n, n)), (8, 16, 32)) == -math.inf
    with pytest.raises(ValueError):
        discrete_height_estimate(lambda n: np.eye(n), (8, 16))


def test_cross_validation_three_ledgers():
    """Symbolic ht/wd, discrete N-slope, and numeric h-slope tell one story.

    For C = [A, B]: symbolically ht = 1, wd = 0. The discrete N-growth
    slope should match ht, and on the resolved grid N = 1/h the numeric
    h-slope should match wd - ht.
    """
    c_sym = grade_n_commutator(("B", "A"))
    ht_sym, wd_sym = height(c_sym), width(c_sym)
    assert (ht_sym, wd_sym) == (1, 0)

    cos = parse_expr("cos(x)")

    def numeric_c(n, h):
        g = Grid(-math.pi, math.pi, n)
        a = -0.5 * h * build_Dk(g, 2)
        b = build_diag(g, cos) / h
        return commutator(a, b)

    n_slope = discrete_height_estimate(lambda n: numeric_c(n, 1.0 / 16), (16, 32, 64, 128))
    assert abs(n_slope - ht_sym) <= 0.2

    hs = [2.0**-k for k in range(4, 8)]
    norms = [np.linalg.norm(numeric_c(round(1 / h), h), 2) for h in hs]
    h_slope = np.polyfit(np.log(hs), np.log(norms), 1)[0]
    assert abs(h_slope - (wd_sym - ht_sym)) <= 0.2

    # one layer deeper: W = [[A,B], O_0] has symbolic ht = wd = 0
    w_sym = sym_commutator(c_sym, observable_symbol(0))
    assert height(w_sym) <= width(w_sym)
    sin = parse_expr("sin(x)")

    def numeric_w(n, h):
        g = Grid(-math.pi, math.pi, n)
        return commutator(numeric_c(n, h), build_diag(g, sin))

    w_slope = discrete_height_estimate(lambda n: numeric_w(n, 1.0 / 16), (16, 32, 64, 128))
    assert w_slope <= height(w_sym) + 0.2
