"""Nested commutators and the commutator coefficients.

A commutator word is a sequence of labels over {A, B} applied
innermost-first to the observable: word (B, A) means [A, [B, O]].

Three coefficients bound the one-step observable error of an order-p
splitting:

  beta:        max over all (p+1)-letter words of ||ad-chain(O)||,
  alpha:       the multinomial-weighted sum over compositions
               q_1 + ... + q_k = p+1 of ||ad_{H_k}^{q_k} ... ad_{H_1}^{q_1}(O)||
               with H_j following the alternating stage-generator
               sequence of the splitting plan (maximized over suffixes
               of the sequence, which dominates every stage index),
  alpha_tilde: ||ad_H^{p+1}(O)|| for the full Hamiltonian H.

All enumerations are over at most 2^(p+1) distinct matrix chains, shared
through a prefix tree, so desk-scale orders (p <= 8) stay cheap. B is the
diagonal by role, so ad_B is the O(N^2) scaling M_ij (b_i - b_j); beta skips
the norms of chains whose bound sqrt(||M||_1 ||M||_inf) cannot set the maximum.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence

import numpy as np

from .linalg import as_matrix, commutator, spectral_norm

CommWord = Sequence[str]


def nested_comm(word: CommWord, a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Apply the ad-chain for the word to O, innermost label first."""
    generators = {"A": as_matrix(a), "B": as_matrix(b)}
    result = as_matrix(obs)
    for label in word:
        result = commutator(generators[label], result)
    return result


def _word_chains(p: int, a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> dict[tuple[str, ...], np.ndarray]:
    """Every (p+1)-letter ad-chain, via a shared prefix tree; B is the diagonal by role."""
    b = as_matrix(b)
    d = np.diag(b)
    if not np.array_equal(b, np.diag(d), equal_nan=True):
        raise ValueError("B must be diagonal")
    ad = {"A": lambda m: commutator(a, m), "B": lambda m: d[:, None] * m - m * d}
    level: dict[tuple[str, ...], np.ndarray] = {(): as_matrix(obs)}
    for _ in range(p + 1):
        level = {word + (label,): ad[label](mat) for word, mat in level.items() for label in "AB"}
    return level


def _norm_bound(m: np.ndarray) -> float:
    """sqrt(||M||_1 ||M||_inf) >= ||M||_2, in O(N^2)."""
    mag = np.abs(m)
    return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))


def compute_beta_comm(p: int, a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> float:
    """Largest ||ad-chain(O)|| over all (p+1)-letter words in {A, B}; B is the diagonal.

    Visits chains by decreasing bound sqrt(||M||_1 ||M||_inf) >= ||M||_2 and stops once
    bound * (1 + 1e-8) is below the running maximum. The margin covers the O(N eps)
    rounding of the bound and the Gram norm, so the result is the full maximum's float.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    bounded = [(_norm_bound(m), m) for m in _word_chains(p, a, b, obs).values()]
    best = 0.0
    for bound, mat in sorted(bounded, key=lambda item: item[0], reverse=True):
        if bound * (1.0 + 1e-8) < best:
            break
        best = max(best, spectral_norm(mat))
    return best


def _multinomial(parts: Sequence[int]) -> int:
    total = sum(parts)
    out = 1
    for q in parts:
        out *= math.comb(total, q)
        total -= q
    return out


def _positive_compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def _subsequence_counts(seq: Sequence[str], pattern: Sequence[str]) -> int:
    """Number of index-increasing embeddings of pattern into seq."""
    counts = [0] * (len(pattern) + 1)
    counts[0] = 1
    for letter in seq:
        for i in range(len(pattern), 0, -1):
            if pattern[i - 1] == letter:
                counts[i] += counts[i - 1]
    return counts[len(pattern)]


def compute_alpha_comm(p: int, plan_len: int, a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> float:
    """Multinomial-weighted nested-commutator sum for an order-p plan.

    The stage-generator sequence is the alternating word A, B, A, ... of
    length plan_len (the canonical form of a merged Suzuki plan); the
    returned value is the maximum of the composition sum over all
    suffixes of that sequence.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if plan_len < 1:
        raise ValueError(f"need plan_len >= 1, got {plan_len}")
    norms = {word: spectral_norm(m) for word, m in _word_chains(p, a, b, obs).items()}
    labels = tuple("A" if i % 2 == 0 else "B" for i in range(plan_len))

    # Group compositions by their effective chain: positions with q_j = 0
    # drop out, so a pattern of r labeled blocks with positive exponents
    # contributes once per embedding of its labels into the suffix.
    patterns: list[tuple[tuple[str, ...], tuple[int, ...], int, float]] = []
    for r in range(1, p + 2):
        for word in itertools.product("AB", repeat=r):
            for exponents in _positive_compositions(p + 1, r):
                expanded = tuple(
                    g for g, e in zip(word, exponents) for _ in range(e)
                )
                patterns.append(
                    (word, exponents, _multinomial(exponents), norms[expanded])
                )

    best = 0.0
    for k in range(1, plan_len + 1):
        suffix = labels[plan_len - k:]
        value = sum(
            weight * count * norm
            for word, _, weight, norm in patterns
            if (count := _subsequence_counts(suffix, word)) > 0
        )
        best = max(best, value)
    return best


def compute_alpha_tilde(p: int, h: np.ndarray, obs: np.ndarray) -> float:
    """||ad_H^(p+1)(O)||."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    h = as_matrix(h)
    result = as_matrix(obs)
    for _ in range(p + 1):
        result = commutator(h, result)
    return spectral_norm(result)
