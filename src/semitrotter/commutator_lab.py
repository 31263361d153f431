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

The 2^(p+1) chains are walked depth-first, each prefix's chain built once and
dropped after its subtree, so at most p + 2 N x N chains are alive. B comes as
its diagonal b, so ad_B is the O(N^2) scaling M_ij (b_i - b_j); A and O come in
declared form (see ad), FD's as stencils, so ad_A costs O(N^2) too. Beta skips
the norms of chains whose bound sqrt(||M||_1 ||M||_inf) cannot set the maximum.
Alpha norms every chain and weighs it by one backward recurrence over the
stages, which yields its multinomial weight in every suffix at once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .linalg import DimensionMismatchError, NonHermitianError, as_matrix, commutator, spectral_norm, stencil_commutator, stencil_matrix

CommWord = Sequence[str]


def nested_comm(word: CommWord, a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Apply the ad-chain for the word to O, innermost label first."""
    generators = {"A": as_matrix(a), "B": as_matrix(b)}
    result = as_matrix(obs)
    for label in word:
        result = commutator(generators[label], result)
    return result


def ad(x, m: np.ndarray) -> np.ndarray:
    """[X, M], X a stencil (FD's A, O), a diagonal's entries (B) or a matrix; FloatingPointError on overflow."""
    with np.errstate(over="raise", invalid="raise"):
        if isinstance(x, dict):
            return stencil_commutator(x, m)
        if np.ndim(x) == 1:
            return x[:, None] * m - m * x
        return commutator(x, m)


def _word_chains(p: int, a, potential: np.ndarray, obs) -> Iterator[tuple[CommWord, np.ndarray]]:
    """Yield every (p+1)-letter word with its ad-chain, depth-first; potential is B's diagonal.

    A and O are stencils or matrices (see ad); O is made dense as the walk's root.
    B comes before A: on the sweeps' operators the first leaf, ad_B^(p+1)(O), is the
    largest, so beta's pruning takes a single norm.
    """
    d = np.asarray(potential)
    obs = as_matrix(stencil_matrix(obs, len(d)))
    if d.shape != obs.shape[:1]:
        raise DimensionMismatchError(f"need B's diagonal of length {obs.shape[0]}, got shape {d.shape}")
    if d.imag.any():
        raise NonHermitianError("B must have a real diagonal")
    generators = {"A": a, "B": d}

    def walk(word: tuple[str, ...], mat: np.ndarray) -> Iterator[tuple[CommWord, np.ndarray]]:
        if len(word) == p + 1:
            yield word, mat
            return
        for label in "BA":
            yield from walk(word + (label,), ad(generators[label], mat))

    return walk((), obs)


def _norm_bound(m: np.ndarray) -> float:
    """sqrt(||M||_1 ||M||_inf) >= ||M||_2, in O(N^2)."""
    mag = np.abs(m)
    return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))


def compute_beta_comm(p: int, a, potential: np.ndarray, obs) -> float:
    """Largest ||ad-chain(O)|| over all (p+1)-letter words in {A, B}; potential is B's diagonal.

    Norms each streamed chain unless bound * (1 + 1e-8) is below the running maximum, with
    bound = sqrt(||M||_1 ||M||_inf) >= ||M||_2; the margin covers the bound's and the Gram norm's
    O(N eps) rounding. A NaN bound is not below it, so a non-finite chain is normed and raises.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    best = 0.0
    for _, mat in _word_chains(p, a, potential, obs):
        if not _norm_bound(mat) * (1.0 + 1e-8) < best:
            best = max(best, spectral_norm(mat))
    return best


def compute_alpha_comm(p: int, plan_len: int, a, potential: np.ndarray, obs) -> float:
    """Multinomial-weighted nested-commutator sum for an order-p plan; potential is B's diagonal.

    The stage-generator sequence is the alternating word A, B, A, ... of length plan_len
    (the canonical form of a merged Suzuki plan); the returned value is the maximum of the
    composition sum over all suffixes of that sequence. One backward pass over the stages
    weighs each word: w[i] sums the multinomial weights of the ways stages s, s+1, ... spell
    word[i:], so stage s adds comb(p+1-i, t) w[i+t] per run word[i:i+t] of its label.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    if plan_len < 1:
        raise ValueError(f"need plan_len >= 1, got {plan_len}")
    sums = [0.0] * plan_len
    for word, mat in _word_chains(p, a, potential, obs):
        norm = spectral_norm(mat)
        w = [0] * (p + 1) + [1]
        for s in range(plan_len - 1, -1, -1):
            label = "AB"[s % 2]
            for i in range(p + 1):  # ascending, so w[i + t] still holds stage s + 1's weight
                t = 0
                while i + t <= p and word[i + t] == label:
                    t += 1
                    w[i] += math.comb(p + 1 - i, t) * w[i + t]
            sums[s] += w[0] * norm
    return max(sums)


def compute_alpha_tilde(p: int, h: np.ndarray, obs: np.ndarray) -> float:
    """||ad_H^(p+1)(O)||."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    h = as_matrix(h)
    result = as_matrix(obs)
    for _ in range(p + 1):
        result = commutator(h, result)
    return spectral_norm(result)
