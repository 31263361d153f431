"""Exact symbolic algebra for operators y(x) h^m d^d/dx^d.

Coefficient functions are opaque formal symbols tagged with a derivative
order: the multiset {("V", 2), ("y", 0)} stands for V''(x) * y(x). Only
this structural bookkeeping matters for the height/width lemmas, and it
makes cancellation exact: commutators expand through the Leibniz rule

    d^d o g = sum_r C(d, r) g^(r) d^(d-r)

with exact integer or rational scalars. The r = 0 terms of PQ and QP are equal
and cancel exactly, so [P, Q] is formed in one pass from the r >= 1 terms
alone; each has derivative order at most ht(P) + ht(Q) - 1 and h-power at
least wd(P) + wd(Q).

Height of an operator is the largest derivative order among nonzero
terms (0 for the zero operator); width is the smallest h-power
(+infinity for the zero operator). Coincidental analytic cancellation
(a coefficient function that happens to vanish) is invisible here; the
lemmas are inequalities, so that only makes the checks conservative.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import spectral_norm

Factors = tuple[tuple[str, int], ...]  # sorted ((name, derivative_order), ...)
TermKey = tuple[Factors, int, int]  # (factors, h_power, derivative_order)


class SymOp:
    """Sum of terms scalar * factors * h^m * d^d, canonically combined."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[TermKey, int | Fraction] | None = None):
        self._terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "SymOp":
        return cls()

    @classmethod
    def term(cls, scalar, factors: Factors = (), hpow: int = 0, dord: int = 0) -> "SymOp":
        scalar = scalar if isinstance(scalar, int) else Fraction(scalar)  # ints: far cheaper arithmetic
        return cls({(tuple(sorted(factors)), hpow, dord): scalar})

    @property
    def terms(self) -> dict[TermKey, int | Fraction]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, SymOp) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "SymOp") -> "SymOp":
        out = dict(self._terms)
        for key, val in other._terms.items():
            out[key] = out.get(key, 0) + val
        return SymOp(out)

    def __sub__(self, other: "SymOp") -> "SymOp":
        out = dict(self._terms)
        for key, val in other._terms.items():
            out[key] = out.get(key, 0) - val
        return SymOp(out)

    def __mul__(self, scalar) -> "SymOp":
        s = scalar if isinstance(scalar, int) else Fraction(scalar)
        return SymOp({k: v * s for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"SymOp({to_string(self)!r})"


@lru_cache(maxsize=None)
def _derivative_poly(factors: Factors, times: int) -> dict[Factors, int]:
    """times-th derivative of a factor product, as multiplicity-weighted terms (cached: read only)."""
    poly = {factors: 1}
    for _ in range(times):
        nxt: dict[Factors, int] = {}
        for f, mult in poly.items():
            for i, (name, order) in enumerate(f):  # product rule: bump one factor's order
                g = tuple(sorted(f[:i] + ((name, order + 1),) + f[i + 1 :]))
                nxt[g] = nxt.get(g, 0) + mult
        poly = nxt
    return poly


@lru_cache(maxsize=None)
def _leibniz(factors: Factors, d: int) -> tuple[tuple[Factors, int, int], ...]:
    """The r >= 1 terms of d^d o f as (f^(r), r, C(d, r) * multiplicity), r = 1 ... d (cached: read only)."""
    return tuple(
        (g, r, math.comb(d, r) * mult)
        for r in range(1, d + 1)
        for g, mult in _derivative_poly(factors, r).items()
    )


def sym_commutator(p: SymOp, q: SymOp) -> SymOp:
    """Exact [P, Q] = PQ - QP: per pair of terms, the r >= 1 terms of f1 d^d1 o f2 less those of f2 d^d2 o f1."""
    out: dict[TermKey, int | Fraction] = {}
    for (f1, m1, d1), c1 in p._terms.items():
        for (f2, m2, d2), c2 in q._terms.items():
            c12, m, d = c1 * c2, m1 + m2, d1 + d2
            for g, r, k in _leibniz(f2, d1):
                key = (tuple(sorted(f1 + g)) if f1 else g, m, d - r)
                out[key] = out.get(key, 0) + c12 * k
            for g, r, k in _leibniz(f1, d2):
                key = (tuple(sorted(f2 + g)) if f2 else g, m, d - r)
                out[key] = out.get(key, 0) - c12 * k
    return SymOp(out)


def height(p: SymOp) -> int:
    """Largest derivative order among nonzero terms; 0 for the zero operator."""
    if p.is_zero():
        return 0
    return max(d for (_, _, d) in p._terms)


def width(p: SymOp) -> float:
    """Smallest h-power among nonzero terms; +inf for the zero operator."""
    if p.is_zero():
        return math.inf
    return min(m for (_, m, _) in p._terms)


def kinetic_symbol() -> SymOp:
    """h * d^2/dx^2 (height 2, width 1)."""
    return SymOp.term(1, (), hpow=1, dord=2)


def potential_symbol(name: str = "V") -> SymOp:
    """h^-1 * V(x) (height 0, width -1)."""
    return SymOp.term(1, ((name, 0),), hpow=-1, dord=0)


def observable_symbol(q: int, name: str = "y") -> SymOp:
    """y(x) h^q d^q, the monomial observable with height = width = q."""
    return SymOp.term(1, ((name, 0),), hpow=q, dord=q)


def grade_n_commutator(word: tuple[str, ...] | list[str]) -> SymOp:
    """Right-nested commutator [U_n, [U_{n-1}, ..., [U_2, U_1]...]].

    The word lists U_1 (innermost) first; each letter is 'A' for the
    kinetic symbol or 'B' for the potential symbol.
    """
    if not word:
        raise ValueError("word must be non-empty")
    symbols = {"A": kinetic_symbol(), "B": potential_symbol()}
    acc = symbols[word[0]]
    for label in word[1:]:
        acc = sym_commutator(symbols[label], acc)
    return acc


def to_string(op: SymOp) -> str:
    """Render terms as `q * V^(a)·y^(b) * h^m * d^d`, sorted by (d desc, m asc)."""
    if op.is_zero():
        return "0"
    keys = sorted(op._terms, key=lambda k: (-k[2], k[1], k[0]))
    rendered = []
    for factors, hpow, dord in keys:
        scalar = op._terms[(factors, hpow, dord)]
        parts = [str(scalar)]
        if factors:
            parts.append("·".join(f"{name}^({order})" for name, order in factors))
        parts.append(f"h^{hpow}")
        parts.append(f"d^{dord}")
        rendered.append(" * ".join(parts))
    return " + ".join(rendered)


@dataclass
class VerificationReport:
    trials: int
    checks: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _random_symop(rng: random.Random) -> SymOp:
    """Random operator: <= 4 terms, derivative order <= 4, |h-power| <= 3."""
    names = ("V", "y", "z")
    terms: dict[TermKey, int] = {}
    for _ in range(rng.randint(1, 4)):
        # num/den with den in {1, 2, 3}, times 6: an int, with the same heights and widths
        scalar = rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]) * (6 // rng.randint(1, 3))
        factors = tuple(
            sorted((rng.choice(names), rng.randint(0, 2)) for _ in range(rng.randint(0, 2)))
        )
        key = (factors, rng.randint(-3, 3), rng.randint(0, 4))
        terms[key] = terms.get(key, 0) + scalar
    return SymOp(terms)


def _random_word(rng: random.Random) -> tuple[str, ...]:
    # grade <= 4, biased toward low grades to keep expansions small
    n = rng.choice([1, 1, 2, 2, 2, 3, 3, 4])
    return tuple(rng.choice("AB") for _ in range(n))


def verify_height_width(trials: int, seed: int) -> VerificationReport:
    """Randomized machine check of the height/width lemmas.

    Per trial: the pair law ht([P,Q]) <= ht(P)+ht(Q)-1 and
    wd([P,Q]) >= wd(P)+wd(Q) on random operators; the grade-n bounds
    ht(C_n) <= 2m-(n-1), wd(C_n) >= 2m-n for a random generator word
    with m kinetic letters; and ht <= wd for [C_n, O_q] and for up to
    three nested layers on a monomial observable. Failures are counted
    and the first counterexample is reported, not raised.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    report = VerificationReport(trials=trials, checks=0, failures=0)
    grade_n = lru_cache(maxsize=None)(grade_n_commutator)  # at most 30 words; SymOps are never mutated

    def check(condition: bool, describe: Callable[[], str]) -> None:
        report.checks += 1
        if not condition:
            report.failures += 1
            if report.first_failure is None:
                report.first_failure = describe()

    for trial in range(trials):
        p = _random_symop(rng)
        q = _random_symop(rng)
        c = sym_commutator(p, q)
        if not c.is_zero():
            check(
                height(c) <= height(p) + height(q) - 1,
                lambda: f"trial {trial}: ht([P,Q]) for P={to_string(p)}, Q={to_string(q)}",
            )
        check(
            width(c) >= width(p) + width(q),
            lambda: f"trial {trial}: wd([P,Q]) for P={to_string(p)}, Q={to_string(q)}",
        )

        word = _random_word(rng)
        n = len(word)
        m = word.count("A")
        c_n = grade_n(word)
        if not c_n.is_zero():
            check(
                height(c_n) <= 2 * m - (n - 1),
                lambda: f"trial {trial}: ht(C_n) for word {word}",
            )
            check(width(c_n) >= 2 * m - n, lambda: f"trial {trial}: wd(C_n) for word {word}")

        q_deg = rng.randint(0, 3)
        obs = observable_symbol(q_deg)
        w = sym_commutator(c_n, obs)
        if not w.is_zero():
            check(height(w) <= width(w), lambda: f"trial {trial}: ht<=wd for [C_n, O_{q_deg}]")

        layers = rng.randint(1, 3)
        nested = obs
        for _ in range(layers):
            nested = sym_commutator(grade_n(_random_word(rng)), nested)
            if not nested.is_zero():
                check(
                    height(nested) <= width(nested),
                    lambda: f"trial {trial}: ht<=wd for nested W_k, word depth {layers}",
                )
    return report


def discrete_height_estimate(builder, grid_sizes) -> float:
    """Fitted log-log slope of ||P(N)||_2 against N: the empirical height.

    builder maps a grid size to a matrix. Returns -inf if the operator
    is degenerate (zero norm) at any size.
    """
    sizes = list(grid_sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 grid sizes")
    norms = [spectral_norm(builder(n)) for n in sizes]
    if any(v == 0.0 for v in norms):
        return -math.inf
    slope, _ = np.polyfit(np.log(np.asarray(sizes, float)), np.log(norms), 1)
    return float(slope)
