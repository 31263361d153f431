"""Budgeting one Trotter step with commutator coefficients.

Three numbers bound the one-step observable error of an order-p scheme:
beta (worst nested commutator), alpha (multinomial-weighted sum along
the stage sequence), and alpha-tilde (the (p+1)-fold adjoint of the full
Hamiltonian). The measured one-step error sits far below
(alpha + alpha_tilde) dt^(p+1) and shrinks 2^(p+1)-fold per halving,
and the step-count formula turns that budget into a schedule.

Run: python demos/local_error_budget.py
"""

import numpy as np

from semitrotter import (
    Grid,
    compute_alpha_comm,
    compute_alpha_tilde,
    compute_beta_comm,
    compute_steps,
    evolution_errors,
    suzuki_plan,
    trotter_step,
    unitary_exp,
)
from semitrotter.discretize import SchemeKind
from semitrotter.expr import parse_expr
from semitrotter.model import ModelParams, PolyObservableSpec, build_A, build_B, build_observable

h = 1 / 64
grid = Grid(-np.pi, np.pi, 64)
params = ModelParams(h=h, potential=parse_expr("cos(x)"), grid=grid,
                     scheme=SchemeKind.FINITE_DIFFERENCE)
a, b = build_A(params), build_B(params)
spec = PolyObservableSpec(terms=((0, parse_expr("cos(x)")), (1, parse_expr("sin(x)"))), h=h)
obs = build_observable(spec, grid)

p = 2
plan = suzuki_plan(p)
potential = np.diag(b)  # the commutator coefficients take B as its diagonal
beta = compute_beta_comm(p, a, potential, obs)
alpha = compute_alpha_comm(p, plan, a, potential, obs)
alpha_tilde = compute_alpha_tilde(p, a + b, obs)
print(f"order p = {p}:  beta {beta:.3f}   alpha {alpha:.3f}   alpha~ {alpha_tilde:.3f}")
print(f"alpha~ <= 2^(p+1) beta: {alpha_tilde:.3f} <= {2**(p+1) * beta:.3f}")

print("\none-step observable error vs the (alpha + alpha~) dt^3 budget:")
prev = None
for dt in (1 / 8, 1 / 16, 1 / 32):
    w = trotter_step(plan, a[0], potential, dt, m=unitary_exp(a + b, dt).conj().T)  # U_trot U_exact^dag
    _, err, _ = evolution_errors(w, obs)  # ||U_trot^dag O U_trot - U_exact^dag O U_exact||
    budget = (alpha + alpha_tilde) * dt**3
    note = f"  ({prev/err:.2f}x down)" if prev else ""
    print(f"  dt = 1/{round(1/dt):<3}  err {err:.3e}  <=  {budget:.3e}{note}")
    prev = err

print("\nsteps needed for |error| <= eps at t = 1 (C calibrated to beta):")
for eps in (1e-3, 1e-6, 1e-9):
    for order in (2, 4):
        n = compute_steps(1.0, eps, order, beta)
        print(f"  eps {eps:.0e}, order {order}: n = {n}")
