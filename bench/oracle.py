"""Independent dense reference values for every CSV row a workload writes.

Operators come only from ``build_A``, ``build_B``, ``build_observable``
and ``suzuki_plan``. Everything numerical is plain numpy: stage
exponentials and e^{-iHt} by ``np.linalg.eigh``, the Trotter step as a
dense stage-by-stage product, commutators as XY - YX and norms by
``np.linalg.norm(., 2)``. Nothing here calls ``spectral_norm``,
``trotter_step``, ``circulant_exp``, ``is_circulant`` or any other
package kernel, so a defect in one of them shows up as wrong values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from semitrotter.discretize import Grid, SchemeKind
from semitrotter.expr import parse_expr
from semitrotter.model import (
    ModelParams,
    PolyObservableSpec,
    build_A,
    build_B,
    build_observable,
)
from semitrotter.splitting import suzuki_plan

# the accuracy spectral_norm documents, relative to the reference
REL_TOL = 1e-8
# absolute roundoff floor: values built from many unitary products carry
# roundoff the reference shares. The largest gap seen between this oracle
# and the CLI on a correct row is 1.1e-12 (order 6, dt = 1/64, 1632 stage
# products, where the value itself is at roundoff level); the floor is
# about four times that, and 0.6 % of the smallest headline value (8e-10)
ABS_FLOOR = 5e-12

# the CLI's Gaussian wavepacket for expectation errors (center, width, momentum)
STATE = (0.0, 0.5, 1.0)

Key = tuple  # (experiment, p, scheme, N, h, dt, t, metric), as parsed from the CSV


@dataclass(frozen=True)
class Expected:
    """Reference for one CSV value; ``value`` None accepts any finite value."""

    value: float | None
    exact: bool = False

    def accepts(self, got: float) -> bool:
        if not np.isfinite(got):
            return False
        if self.value is None:
            return True
        if self.exact:
            return got == self.value
        return abs(got - self.value) <= REL_TOL * abs(self.value) + ABS_FLOOR


def norm2(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def exp_from_eigh(w: np.ndarray, v: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} from the eigenpairs (w, v) of Hermitian M."""
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def grid_size(inv, h: float) -> int:
    """The pinned N, else the resolved grid: 1/h rounded up to even, at least 4."""
    if inv.n is not None:
        return inv.n
    size = round(1.0 / h)
    return max(4, size + size % 2)


def operators(inv, h: float, n: int):
    """Dense (A, B, O) on the invocation's grid, densified as arrays."""
    grid = Grid(inv.a, inv.b, n)
    scheme = SchemeKind(inv.scheme)
    params = ModelParams(h=h, potential=parse_expr(inv.potential), grid=grid, scheme=scheme)
    spec = PolyObservableSpec(
        terms=tuple((m, parse_expr(y)) for m, y in inv.observable), h=h
    )
    built = (build_A(params), build_B(params), build_observable(spec, grid, scheme))
    return (grid, *(np.asarray(m, dtype=np.complex128) for m in built))


def trotter_product(plan, eig: dict, dt: float) -> np.ndarray:
    """U = u_l ... u_1 with u_j = e^{-i dt c_j H_j}, one dense product per stage."""
    n = eig["A"][1].shape[0]
    stages: dict = {}
    step = np.eye(n, dtype=np.complex128)
    for c, g in plan.stages:
        if (c, g) not in stages:
            stages[(c, g)] = exp_from_eigh(*eig[g], c * dt)
        step = stages[(c, g)] @ step
    return step


def gaussian(grid: Grid) -> np.ndarray:
    center, width, momentum = STATE
    x = grid.nodes
    psi = np.exp(-((x - center) ** 2) / (2.0 * width**2) + 1j * momentum * x)
    return psi / np.linalg.norm(psi)


def _evolution(inv) -> dict[Key, Expected]:
    out: dict[Key, Expected] = {}
    for h in inv.h_values:
        n = grid_size(inv, h)
        grid, a, b, obs = operators(inv, h, n)
        eig = {"A": np.linalg.eigh(a), "B": np.linalg.eigh(b)}
        u_exact = exp_from_eigh(*np.linalg.eigh(a + b), inv.t_final)
        eye = np.eye(n, dtype=np.complex128)
        for p in inv.orders:
            plan = suzuki_plan(p)
            for dt in inv.dt_values:
                steps = round(inv.t_final / dt)
                u_trot = np.linalg.matrix_power(trotter_product(plan, eig, dt), steps)
                # ||T_trot - T_exact|| = ||[O, W - I]|| and ||U_trot - U_exact|| = ||W - I||
                # for W = U_trot U_exact^dagger, by unitary invariance
                w = u_trot @ u_exact.conj().T
                obs_comm = comm(obs, w - eye)
                key = (inv.experiment, p, inv.scheme, n, h, dt, inv.t_final)
                out[key + ("observable_error",)] = Expected(norm2(obs_comm))
                out[key + ("unitary_error",)] = Expected(norm2(w - eye))
                if inv.state:
                    # <psi|T_trot - T_exact|psi> = <phi|W^dagger [O, W - I]|phi>, phi = U_exact psi
                    phi = u_exact @ gaussian(grid)
                    value = abs(np.vdot(w @ phi, obs_comm @ phi))
                    out[key + ("expectation_error",)] = Expected(float(value))
    return out


def _beta(p: int, a, b, obs) -> float:
    best = 0.0
    for word in itertools.product("AB", repeat=p + 1):
        chain = obs
        for label in word:
            chain = comm(a if label == "A" else b, chain)
        best = max(best, norm2(chain))
    return best


def _comm_sweep(inv) -> dict[Key, Expected]:
    out: dict[Key, Expected] = {}
    for h in inv.h_values:
        n = grid_size(inv, h)
        _, a, b, obs = operators(inv, h, n)
        key = (inv.experiment, None, inv.scheme, n, h, None, None)
        ab = comm(a, b)
        ab_o = comm(ab, obs)
        a_ab_o = comm(a, ab_o)
        out[key + ("[A,B]",)] = Expected(norm2(ab))
        out[key + ("[[A,B],O]",)] = Expected(norm2(ab_o))
        out[key + ("[A,[[A,B],O]]",)] = Expected(norm2(a_ab_o))
        out[key + ("[A,[A,[[A,B],O]]]",)] = Expected(norm2(comm(a, a_ab_o)))
        p = inv.orders[0]
        beta_key = (inv.experiment, p, inv.scheme, n, h, None, None, "beta_comm")
        out[beta_key] = Expected(_beta(p, a, b, obs))
    return out


def _beta_sweep(inv) -> dict[Key, Expected]:
    out: dict[Key, Expected] = {}
    for h in inv.h_values:
        n = grid_size(inv, h)
        _, a, b, obs = operators(inv, h, n)
        for p in inv.orders:
            key = (inv.experiment, p, inv.scheme, n, h, None, None, "beta_comm")
            out[key] = Expected(_beta(p, a, b, obs))
    return out


def _verify_symbolic(inv) -> dict[Key, Expected]:
    key = (inv.experiment, None, inv.scheme, 0, None, None, None)
    return {
        key + ("ht_wd_trials",): Expected(float(inv.trials), exact=True),
        key + ("ht_wd_checks",): Expected(None),
        key + ("ht_wd_violations",): Expected(0.0, exact=True),
        key + ("hand_check_v_d2",): Expected(1.0, exact=True),
    }


_BY_EXPERIMENT = {
    "dt-sweep": _evolution,
    "h-sweep": _evolution,
    "comm-sweep": _comm_sweep,
    "beta": _beta_sweep,
    "verify-symbolic": _verify_symbolic,
}


def reference(inv) -> dict[Key, Expected]:
    """Every row the invocation's CSV must hold, with its reference value."""
    return _BY_EXPERIMENT[inv.experiment](inv)
