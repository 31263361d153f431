"""Nested commutators and the commutator coefficients.

A commutator word is a sequence of labels over {A, B} applied
innermost-first to the observable: word (B, A) means [A, [B, O]].

Three coefficients bound the one-step observable error of an order-p
splitting:

  beta:        max over all (p+1)-letter words of ||ad-chain(O)||,
  alpha:       the multinomial-weighted sum over compositions
               q_1 + ... + q_k = p+1 of ||ad_{H_k}^{q_k} ... ad_{H_1}^{q_1}(O)||
               with H_j following the stage-generator sequence
               read from the splitting plan (maximized over suffixes
               of the sequence, which dominates every stage index),
  alpha_tilde: ||ad_H^{p+1}(O)|| for the full Hamiltonian H.

The 2^(p+1) chains are walked depth-first, each prefix's chain built once and
dropped after its subtree, so at most p + 2 chains are alive. B comes as its
diagonal b, the walk's one-tap stencil {0: b}, and A and O in declared form (see ad).
FD's A and O are linalg.Stencil, so every chain is a stencil: ad_B scales its
taps by b_i - b_(i+r) and ad_A brackets taps, in O(N) per pair of taps, and a
chain's norm and bound are read from its taps (see linalg.spectral_norm).
Spectral chains are dense N x N matrices: ad_B is the O(N^2) scaling
M_ij (b_i - b_j) and ad_A two products. Beta skips
the norms of chains whose bound sqrt(||M||_1 ||M||_inf) cannot set the maximum.
Alpha norms every chain and weighs it by one backward recurrence over the
stages, which yields its multinomial weight in every suffix at once.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .linalg import DimensionMismatchError, NonHermitianError, Stencil, commutator, spectral_norm
from .splitting import StagePlan

CommWord = Sequence[str]


def nested_comm(word: CommWord, a, b, obs):
    """Apply the ad-chain for the word to O, innermost label first, each operand a stencil or a matrix.

    Matrices fold by dense commutators and stencils stay stencils (see ad).
    """
    generators = {"A": a, "B": b}
    result = obs
    for label in word:
        result = ad(generators[label], result)
    return result


def ad(x, m):
    """[X, M], X and M each a stencil or a matrix; FloatingPointError on overflow.

    The result is a stencil when X and M are stencils: for B, the stencil {0: b}, ad_B of taps
    {r: c_r} is {r: (b_i - b_(i+r)) c_r[i]}, the difference first (see linalg.Stencil.commutator).
    A matrix X makes a stencil M dense first.
    """
    with np.errstate(over="raise", invalid="raise"):
        if isinstance(x, Stencil):
            return x.commutator(m)
        return commutator(x, m)


def _word_chains(p: int, a, potential: np.ndarray, obs) -> Iterator[tuple[CommWord, np.ndarray]]:
    """Yield every (p+1)-letter word with its ad-chain, depth-first; potential is B's diagonal.

    A and O are stencils or matrices (see ad), and the chains keep O's form.
    B comes before A: on the sweeps' operators the first leaf, ad_B^(p+1)(O), is the
    largest, so beta's pruning takes a single norm.
    """
    d = np.asarray(potential)
    if d.ndim != 1 or np.shape(obs) != (d.size, d.size):
        raise DimensionMismatchError(f"need B's diagonal to match O's shape {np.shape(obs)}, got shape {d.shape}")
    if d.imag.any():
        raise NonHermitianError("B must have a real diagonal")
    generators = {"A": a, "B": Stencil({0: d}, d.size)}

    def walk(word: tuple[str, ...], mat: np.ndarray) -> Iterator[tuple[CommWord, np.ndarray]]:
        if len(word) == p + 1:
            yield word, mat
            return
        for label in "BA":
            yield from walk(word + (label,), ad(generators[label], mat))

    return walk((), obs)


def _norm_bound(m) -> float:
    """sqrt(||M||_1 ||M||_inf) >= ||M||_2, in O(N^2), or O(taps N) from a stencil's taps.

    A stencil's row i sums |c_r[i]| and its column j |c_r[j - r]|; taps whose offsets meet
    mod N only raise the sums, so the bound holds.
    """
    if isinstance(m, Stencil):
        rows, cols = m.abs_sums()
    else:
        mag = np.abs(m)
        rows, cols = mag.sum(axis=1), mag.sum(axis=0)
    return float(np.sqrt(np.max(cols) * np.max(rows)))


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


def compute_alpha_comm(p: int, plan: StagePlan, a, potential: np.ndarray, obs) -> float:
    """Multinomial-weighted nested-commutator sum for an order-p plan; potential is B's diagonal.

    The stage-generator sequence is the plan's labels, stage by stage as given (a Suzuki plan
    alternates from A); the returned value is the maximum of the composition sum over all
    suffixes of that sequence. One backward pass over the stages weighs each word: w[i] sums
    the multinomial weights of the ways stages s, s+1, ... spell word[i:], so stage s adds
    comb(p+1-i, t) w[i+t] per run word[i:i+t] of its label. The coefficients do not weigh it.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    labels = [g for _, g in plan.stages]
    if not labels:
        raise ValueError("need a plan of at least one stage")
    sums = [0.0] * len(labels)
    for word, mat in _word_chains(p, a, potential, obs):
        norm = spectral_norm(mat)
        w = [0] * (p + 1) + [1]
        for s in range(len(labels) - 1, -1, -1):
            for i in range(p + 1):  # ascending, so w[i + t] still holds stage s + 1's weight
                t = 0
                while i + t <= p and word[i + t] == labels[s]:
                    t += 1
                    w[i] += math.comb(p + 1 - i, t) * w[i + t]
            sums[s] += w[0] * norm
    return max(sums)


def compute_alpha_tilde(p: int, h, obs) -> float:
    """||ad_H^(p+1)(O)||, H and O each a stencil or a matrix (see ad)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return spectral_norm(nested_comm("A" * (p + 1), h, None, obs))
