"""Nested-commutator coefficient tests with hand-computed oracles."""

import functools
import itertools
import math

import numpy as np
import pytest

from semitrotter import commutator_lab, experiments
from semitrotter.commutator_lab import (
    ad,
    compute_alpha_comm,
    compute_alpha_tilde,
    compute_beta_comm,
    nested_comm,
)
from semitrotter.discretize import Grid, SchemeKind
from semitrotter.experiments import _build_operators, build_config, run_experiment
from semitrotter.expr import parse_expr
from semitrotter.linalg import (
    ConvergenceError,
    DimensionMismatchError,
    NonHermitianError,
    commutator,
    Stencil,
    spectral_norm,
)
from semitrotter.model import ModelParams, PolyObservableSpec, build_A, build_B, build_observable
from semitrotter.splitting import StagePlan, suzuki_plan


def _setup(h=1.0 / 64, n=64):
    grid = Grid(-math.pi, math.pi, n)
    params = ModelParams(
        h=h, potential=parse_expr("cos(x)"), grid=grid, scheme=SchemeKind.FINITE_DIFFERENCE
    )
    spec = PolyObservableSpec(terms=((0, parse_expr("cos(x)")), (1, parse_expr("sin(x)"))), h=h)
    return build_A(params), build_B(params), build_observable(spec, grid)


def test_nested_comm_empty_word():
    a, b, obs = _setup(n=16)
    assert np.array_equal(nested_comm((), a, b, obs), obs)


def test_nested_comm_single_letters():
    a, b, _ = _setup(n=16)
    obs = np.diag(np.cos(Grid(-math.pi, math.pi, 16).nodes)).astype(complex)
    assert spectral_norm(nested_comm(("A",), a, b, obs)) > 1e-3  # [A, O] nonzero
    assert np.all(nested_comm(("B",), a, b, obs) == 0)  # diagonals commute exactly


def test_nested_comm_matches_manual_fold():
    a, b, obs = _setup(n=16)
    manual = commutator(a, commutator(b, obs))
    assert np.array_equal(nested_comm(("B", "A"), a, b, obs), manual)


def test_nested_comm_takes_declared_operators():
    # FD's A and O are stencils and B comes as its diagonal, as the sweeps build them; each
    # word's chain is the dense fold of their matrices, to the rounding of both
    _, a, b, obs = _build_operators(build_config("comm-sweep"), 1.0 / 16)
    dense = (np.asarray(a), np.diag(b), np.asarray(obs))
    b = Stencil({0: b}, 16)
    scale = functools.reduce(np.maximum, (np.max(np.abs(m)) for m in dense))
    for word in itertools.product("AB", repeat=3):
        expected = nested_comm(word, *dense)
        got = nested_comm(word, a, b, obs)
        assert isinstance(got, Stencil)
        assert np.max(np.abs(np.asarray(got) - expected)) <= 1e-13 * scale**4
        assert np.max(np.abs(nested_comm(word, dense[0], b, dense[2]) - expected)) <= 1e-13 * scale**4


def test_ad_b_of_a_stencil_drops_its_offset_0_tap():
    # B's diagonal commutes with O's offset-0 tap exactly; the one tap left is a weighted shift
    _, a, b, obs = _build_operators(build_config("comm-sweep"), 1.0 / 64)
    b = Stencil({0: b}, 64)
    assert 0 in obs.taps and 0 in a.taps
    for m in (obs, a, ad(a, obs)):
        assert 0 not in ad(b, m).taps
    chain = ad(b, ad(b, obs))
    assert list(chain.taps) == [1]
    assert spectral_norm(chain) == float(np.max(np.abs(chain.taps[1])))


def test_beta_all_diagonal_is_zero():
    d1 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    d2 = np.diag([0.5, -1.0, 2.0]).astype(complex)
    d3 = np.diag([4.0, 0.0, 1.0]).astype(complex)
    assert compute_beta_comm(1, d1, np.diag(d2), d3) == 0.0


def test_beta_p1_brute_force_oracle():
    a, b, obs = _setup()
    words = [("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")]
    oracle = max(spectral_norm(nested_comm(w, a, b, obs)) for w in words)
    assert compute_beta_comm(1, a, np.diag(b), obs) == pytest.approx(oracle, rel=1e-12)


def test_beta_p2_enumerates_eight_words():
    a, b, obs = _setup(n=32)
    oracle = max(
        spectral_norm(nested_comm(w, a, b, obs)) for w in itertools.product("AB", repeat=3)
    )
    assert compute_beta_comm(2, a, np.diag(b), obs) == pytest.approx(oracle, rel=1e-12)


def _sweep_operators(scheme, n):
    # A and O in declared form, as the sweeps build them: FD's are stencils
    cfg = build_config("comm-sweep", {"scheme": scheme})
    _, a, potential, obs = _build_operators(cfg, 1.0 / n)
    return a, np.diag(potential), obs


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
@pytest.mark.parametrize("n", [32, 256])
def test_beta_pruning_equals_full_maximum(scheme, n):
    # the reference chains fold the walk's ad steps from the dense O. FD's walk keeps stencils,
    # whose taps add in another order, so their matrices agree to rounding: within 1e-15 of the
    # largest entry of the same fold on |A|, |B| and |O|, which bounds both roundings (ad_A^3(O)
    # cancels to 1e-9 of that scale at N = 256, so the chain's own largest entry is no scale)
    a, b, obs = _sweep_operators(scheme, n)
    generators = {"A": np.asarray(a), "B": Stencil({0: np.diag(b)}, n)}
    mags = {"A": np.abs(generators["A"]), "B": np.abs(b)}
    root = np.asarray(obs)
    for p in (1, 2, 3):
        chains = dict(commutator_lab._word_chains(p, a, np.diag(b), obs))
        for w in itertools.product("AB", repeat=p + 1):
            folded = functools.reduce(lambda m, label: ad(generators[label], m), w, root)
            chain = np.asarray(chains[w])
            assert isinstance(chains[w], Stencil) == isinstance(obs, Stencil)
            if scheme == "fd":
                scale = functools.reduce(lambda m, label: mags[label] @ m + m @ mags[label], w, np.abs(root))
                assert np.max(np.abs(chain - folded)) <= 1e-15 * np.max(scale), w
            else:
                assert np.array_equal(chain, folded), w
        assert compute_beta_comm(p, a, np.diag(b), obs) == max(spectral_norm(m) for m in chains.values())


def test_beta_pruning_skips_norms(monkeypatch):
    # B comes first in the walk, and ad_B^(p+1)(O) is the largest chain on these operators
    calls = []

    def counting_norm(m):
        calls.append(1)
        return spectral_norm(m)

    monkeypatch.setattr(commutator_lab, "spectral_norm", counting_norm)
    for scheme in ("fd", "spectral"):
        a, b, obs = _sweep_operators(scheme, 256)
        for p in (2, 4, 6):
            calls.clear()
            compute_beta_comm(p, a, np.diag(b), obs)
            assert len(calls) == 1, (scheme, p)


@pytest.mark.parametrize(
    "scheme, per_h",
    [
        ("fd", {"comm-sweep": 0, "beta": 0, "dt-sweep": 0, "h-sweep": 0}),
        ("spectral", {"comm-sweep": 10, "beta": 7, "dt-sweep": 2 * 2, "h-sweep": 2 * 1}),
    ],
)
def test_only_dense_operators_take_dense_commutators(monkeypatch, scheme, per_h):
    # FD's A and O are stencils in every cell. The spectral ones take, per h, ad_A's 7 products
    # of beta at p = 2, plus [[A,B],O] and two ad_A for the words; and [O, W - I] once per
    # (p, dt) cell of the evolution sweeps
    runs = {
        "comm-sweep": {"h": "1/32, 1/64"},
        "beta": {"h": "1/32, 1/64"},
        "dt-sweep": {"N": "32", "orders": "2, 4", "dt": "1/4, 1/8"},
        "h-sweep": {"h": "1/32, 1/64", "orders": "2, 4", "dt": "1/4"},
    }
    calls = []
    monkeypatch.setattr(commutator_lab, "commutator", lambda x, y, f=commutator: calls.append(1) or f(x, y))
    for experiment, count in per_h.items():
        calls.clear()
        cfg = build_config(experiment, {**runs[experiment], "scheme": scheme})
        run_experiment(cfg)
        assert len(calls) == len(cfg.h_values) * count, experiment


def test_beta_holds_few_chains(traced_peak):
    # the walk keeps at most p + 2 chains alive, plus the ad-steps' and the norm's temporaries
    n, p = 256, 6
    cfg = build_config("beta")
    _, a, potential, obs = _build_operators(cfg, 1.0 / n)
    _, peak = traced_peak(compute_beta_comm, p, a, potential, obs)
    assert peak < (p + 6) * 8 * n * n


def _nan_at_3_5(operand):
    a, b, obs = _setup(n=16)
    ops = [a.copy(), np.diag(b), obs.copy()]
    ops[operand][3, 5] = np.nan
    return ops


@pytest.mark.parametrize(
    "p, ops",
    [
        pytest.param(2, _nan_at_3_5(0), id="0"),
        pytest.param(2, _nan_at_3_5(2), id="2"),
        pytest.param(1, [np.eye(3), np.array([1.0, np.nan, 2.0]), np.eye(3)], id="nan-on-B-diagonal"),
        pytest.param(2, [Stencil({-1: 1.0, 0: -2.0, 1: 1.0}, 16), np.arange(16.0), Stencil({0: np.where(np.arange(16) == 3, np.nan, 1.0)}, 16)], id="nan-in-stencil-O"),
    ],
)
def test_beta_non_finite_chain_raises(p, ops):
    # a NaN in A leaves the finite chain (B, B, B), which must not end the visit;
    # a NaN in B's diagonal is a non-finite B
    with pytest.raises(ConvergenceError):
        compute_beta_comm(p, *ops)


@pytest.mark.parametrize(
    "p, ops",
    [
        pytest.param(2, _nan_at_3_5(0), id="0"),
        pytest.param(2, _nan_at_3_5(2), id="2"),
        pytest.param(1, [np.eye(3), np.array([1.0, np.nan, 2.0]), np.eye(3)], id="nan-on-B-diagonal"),
        pytest.param(2, [Stencil({-1: 1.0, 0: -2.0, 1: 1.0}, 16), np.arange(16.0), Stencil({0: np.where(np.arange(16) == 3, np.nan, 1.0)}, 16)], id="nan-in-stencil-O"),
    ],
)
def test_alpha_non_finite_chain_raises(p, ops):
    with pytest.raises(ConvergenceError):
        compute_alpha_comm(p, suzuki_plan(2), *ops)


@pytest.mark.parametrize("n", [4, 5, 16, 64])
def test_ad_on_stencils_matches_dense(n):
    # ad_B, ad of a stencil and ad of a matrix on a stencil with per-row taps at offsets
    # that meet mod N at N = 4 and 5, and the norm bound from its taps
    rng = np.random.default_rng(50 + n)
    b = 10.0 * rng.standard_normal(n)
    a = Stencil({-1: 3.0, 0: -6.0, 1: 3.0}, n)
    x = rng.standard_normal((n, n))
    for m in (Stencil({r: rng.standard_normal(n) for r in (-3, -1, 0, 2, 5)}, n), Stencil({0: np.cos(np.arange(n)), 1: 2.0}, n)):
        dense = np.asarray(m)
        for gen, dense_gen in ((Stencil({0: b}, n), np.diag(b)), (a, np.asarray(a))):
            got = ad(gen, m)
            assert isinstance(got, Stencil)
            scale = np.max(np.abs(dense_gen) @ np.abs(dense) + np.abs(dense) @ np.abs(dense_gen))
            assert np.max(np.abs(np.asarray(got) - commutator(dense_gen, dense))) <= 1e-14 * scale
        assert np.array_equal(ad(x, m), commutator(x, dense))
        bound = commutator_lab._norm_bound(m)
        assert bound >= np.linalg.norm(dense, 2)
        if n > 10:  # no two offsets meet: the bound is the dense matrix's
            assert bound == pytest.approx(commutator_lab._norm_bound(dense), rel=1e-14)
    assert commutator_lab._norm_bound(Stencil({}, n)) == 0.0


def test_alpha_tilde_takes_either_form():
    # H = A + B and O from the FD sweep at N = 16, each as a stencil or as its matrix
    n = 16
    _, a, potential, obs = _build_operators(build_config("comm-sweep"), 1.0 / n)
    h = Stencil({**a.taps, 0: a.taps[0] + potential}, n)
    for p in (1, 2):
        reference = compute_alpha_tilde(p, np.asarray(h), np.asarray(obs))
        for hh, oo in itertools.product((h, np.asarray(h)), (obs, np.asarray(obs))):
            assert compute_alpha_tilde(p, hh, oo) == pytest.approx(reference, rel=1e-12, abs=0)


def test_potential_length_must_match():
    a, b, obs = _setup(n=16)
    with pytest.raises(DimensionMismatchError):
        compute_beta_comm(1, a, np.diag(b)[:8], obs)
    with pytest.raises(DimensionMismatchError):
        compute_alpha_comm(1, suzuki_plan(1), a, np.diag(b)[:8], obs)
    with pytest.raises(DimensionMismatchError):
        compute_beta_comm(1, a, b, obs)  # the dense B is not its diagonal


def test_complex_potential_is_rejected():
    # a potential with an imaginary part is no Hermitian B, as trotter_step holds too
    potential = np.array([1.0, 2.0, 3.0, 4.0]) + 1j
    with pytest.raises(NonHermitianError):
        compute_beta_comm(1, np.eye(4), potential, np.ones((4, 4)))
    with pytest.raises(NonHermitianError):
        compute_alpha_comm(1, suzuki_plan(1), np.eye(4), potential, np.ones((4, 4)))


def test_comm_sweep_ab_row_is_dense_commutator_norm():
    cfg = build_config("comm-sweep", {"h": "0.03125"})
    (value,) = [r.value for r in run_experiment(cfg) if r.metric == "[A,B]"]
    params, _ = experiments._model(cfg, 0.03125)
    assert value == spectral_norm(commutator(build_A(params), build_B(params)))


def test_beta_rejects_p_zero():
    a, b, obs = _setup(n=16)
    with pytest.raises(ValueError):
        compute_beta_comm(0, a, np.diag(b), obs)


def test_alpha_commuting_is_zero():
    d1 = np.diag([1.0, 2.0]).astype(complex)
    d2 = np.diag([3.0, 4.0]).astype(complex)
    d3 = np.diag([5.0, 6.0]).astype(complex)
    assert compute_alpha_comm(1, suzuki_plan(1), d1, np.diag(d2), d3) == 0.0
    assert compute_alpha_tilde(1, d1, d3) == 0.0


def test_alpha_p1_hand_computed_sum():
    # plan (A, B), p = 1: compositions of 2 over two stages are
    # (2,0), (1,1), (0,2) with multinomial weights 1, 2, 1
    a, b, obs = _setup()
    expected = (
        spectral_norm(nested_comm(("A", "A"), a, b, obs))
        + 2.0 * spectral_norm(nested_comm(("A", "B"), a, b, obs))
        + spectral_norm(nested_comm(("B", "B"), a, b, obs))
    )
    assert compute_alpha_comm(1, suzuki_plan(1), a, np.diag(b), obs) == pytest.approx(expected, rel=1e-12)


def test_alpha_dominates_any_single_term():
    a, b, obs = _setup(n=32)
    alpha = compute_alpha_comm(2, suzuki_plan(2), a, np.diag(b), obs)
    single = spectral_norm(nested_comm(("A", "B", "A"), a, b, obs))
    assert alpha >= single


def _plan(labels: str) -> StagePlan:
    """A plan of unit stages with the given generator labels, first stage first."""
    return StagePlan(tuple((1.0, g) for g in labels))


@pytest.mark.parametrize(
    "p, labels",
    # a plan alternating from A is named by its stage count, any other by its labels
    [pytest.param(p, "ABABA"[:k], id=f"{p}-{k}") for p, k in ((1, 1), (1, 2), (2, 3), (2, 5), (4, 5))]
    + [pytest.param(p, labels, id=f"{p}-{labels}") for p, labels in ((1, "BAB"), (2, "BAB"), (2, "AAB"), (2, "ABBA"))],
)
def test_alpha_brute_force_sum(p, labels):
    # every suffix of the plan's stages, every composition of p + 1 over its stages (zero parts
    # included), multinomial weights, innermost stage first; the labels are the plan's, so a
    # B-first plan or one with repeated labels weighs its own words
    a, b, obs = _setup(n=32)
    sums = []
    for k in range(1, len(labels) + 1):
        suffix = labels[len(labels) - k:]
        total = 0.0
        for qs in itertools.product(range(p + 2), repeat=k):
            if sum(qs) != p + 1:
                continue
            word = tuple(g for g, q in zip(suffix, qs) for _ in range(q))
            weight = math.factorial(p + 1) // math.prod(math.factorial(q) for q in qs)
            total += weight * spectral_norm(nested_comm(word, a, b, obs))
        sums.append(total)
    assert compute_alpha_comm(p, _plan(labels), a, np.diag(b), obs) == pytest.approx(max(sums), rel=1e-12)


def test_alpha_rejects_an_empty_plan():
    a, b, obs = _setup(n=16)
    with pytest.raises(ValueError):
        compute_alpha_comm(1, StagePlan(()), a, np.diag(b), obs)


@pytest.mark.parametrize("p", [4, 6, 8])
def test_alpha_at_high_order_weighs_every_word(p):
    # with 2 (p + 1) or more stages every word embeds in the plan with all exponents 1,
    # so the full plan's sum holds (p + 1)! times the largest chain's norm
    a, b, obs = _sweep_operators("fd", 32)
    plan = suzuki_plan(p)
    assert len(plan.stages) >= 2 * (p + 1)
    alpha = compute_alpha_comm(p, plan, a, np.diag(b), obs)
    assert alpha >= math.factorial(p + 1) * compute_beta_comm(p, a, np.diag(b), obs)


def test_alpha_is_uniform_at_orders_4_and_6():
    # criterion 4's max/min ratio <= 2, for alpha on the Suzuki plans over h = 1/32 ... 1/256
    for p in (4, 6):
        values = []
        for n in (32, 64, 128, 256):
            a, b, obs = _sweep_operators("fd", n)
            values.append(compute_alpha_comm(p, suzuki_plan(p), a, np.diag(b), obs))
        assert max(values) / min(values) <= 2.0, (p, values)


def test_alpha_tilde_2x2_hand_case():
    # H = diag(1, 2), O = [[0,1],[1,0]]: ad_H(O) = [[0,-1],[1,0]],
    # ad_H^2(O) = [[0,1],[1,0]], norm 1
    h = np.diag([1.0, 2.0]).astype(complex)
    obs = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    step1 = commutator(h, obs)
    assert np.array_equal(step1, np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert compute_alpha_tilde(1, h, obs) == pytest.approx(1.0, rel=1e-10)


def test_alpha_tilde_bounded_by_beta():
    a, b, obs = _setup(n=32)
    for p in (1, 2):
        alpha_tilde = compute_alpha_tilde(p, a + b, obs)
        beta = compute_beta_comm(p, a, np.diag(b), obs)
        assert alpha_tilde <= 2 ** (p + 1) * beta * (1 + 1e-10)


def test_jacobi_identity_random():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 33))
        x, y, z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3))
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        scale = spectral_norm(x) * spectral_norm(y) * spectral_norm(z)
        assert spectral_norm(total) <= 1e-9 * scale


def test_word_set_uniform_in_h_on_resolved_grid():
    # ht <= wd words stay O(1) while [A,B] grows like 1/h when N = 1/h
    words = (("A",), ("B", "A"), ("A", "B", "A"), ("A", "A", "B", "A"))
    hs = [2.0**-k for k in range(5, 9)]
    word_norms = {w: [] for w in words}
    ab_norms = []
    for h in hs:
        a, b, obs = _setup(h=h, n=round(1 / h))
        for w in words:
            word_norms[w].append(spectral_norm(nested_comm(w, a, b, obs)))
        ab_norms.append(spectral_norm(commutator(a, b)))
    log_h = np.log(hs)
    for w, norms in word_norms.items():
        slope = np.polyfit(log_h, np.log(norms), 1)[0]
        assert abs(slope) <= 0.15, f"word {w}: slope {slope}"
    ab_slope = np.polyfit(log_h, np.log(ab_norms), 1)[0]
    assert abs(ab_slope + 1.0) <= 0.1



@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than float64 here")
def test_comm_sweep_words_match_long_double_chains():
    # the four words at N = 512 against their chains folded in long double from the same
    # float64 taps, by row and column shifts of the dense chain, rounded once and normed by SVD
    n = 512
    cfg = build_config("comm-sweep", {"h": "1/512"})
    values = {r.metric: r.value for r in run_experiment(cfg)}
    _, a, potential, obs = _build_operators(cfg, 1.0 / n)

    def bracket(taps, m):  # [S, M]: row i of SM adds c_r[i] M[i + r], column j of MS M[:, j - r] c_r[j - r]
        taps = {r: c.astype(np.longdouble) for r, c in taps.items()}
        return sum(c[:, None] * np.roll(m, -r, axis=0) - np.roll(m * c, r, axis=1) for r, c in taps.items())

    b = potential.astype(np.longdouble)
    chain = np.asarray(a).astype(np.longdouble) * (b[None, :] - b[:, None])
    chains = [chain, -bracket(obs.taps, chain)]
    chains += [bracket(a.taps, chains[-1])]
    chains += [bracket(a.taps, chains[-1])]
    for label, chain in zip(experiments.COMM_WORD_LABELS, chains):
        reference = float(np.linalg.norm(chain.astype(np.float64), 2))
        assert values[label] == pytest.approx(reference, rel=2e-14, abs=0), label
