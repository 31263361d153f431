"""A tour of Suzuki stage schedules.

The order-2 step is the familiar half-kick sandwich
exp(-i dt/2 A) exp(-i dt B) exp(-i dt/2 A); every higher even order is
five scaled copies of the previous one with adjacent like stages merged,
which is why the stage counts run 3, 11, 51, 251. The middle copy gets
the negative weight 1 - 4 u_k: the scheme marches backward in time for
part of every step, and that is essential, not a defect.

Run: python demos/suzuki_schedules.py
"""

import numpy as np

from semitrotter import Grid, spectral_norm, suzuki_plan, trotter_step, unitary_exp
from semitrotter.discretize import SchemeKind
from semitrotter.expr import parse_expr
from semitrotter.model import ModelParams, build_A, build_B

for p in (1, 2, 4, 6, 8):
    plan = suzuki_plan(p)
    negative = sum(1 for c, _ in plan.stages if c < 0)
    print(f"order {p}: {len(plan.stages)} stages, {negative} negative, "
          f"A-sum {plan.coefficient_sum('A'):+.15f}, "
          f"B-sum {plan.coefficient_sum('B'):+.15f}, "
          f"palindromic {plan.is_palindromic()}")

print("\norder-4 schedule (coefficient, generator):")
for c, g in suzuki_plan(4).stages:
    bar = "#" * max(1, round(abs(c) * 40))
    print(f"  {c:+.6f} {g}  {bar}")

# one-step error against the exact flow confirms the order on a real model; the
# step takes A's first row and B's diagonal, the exact flow the dense H = A + B
params = ModelParams(
    h=1 / 64,
    potential=parse_expr("cos(x)"),
    grid=Grid(-np.pi, np.pi, 64),
    scheme=SchemeKind.FINITE_DIFFERENCE,
)
a, b = build_A(params), build_B(params)
h_full = a + b
print("\none-step error vs dt (each column should drop ~2^(p+1) per halving):")
dts = [1 / 4, 1 / 8, 1 / 16]
header = "     dt " + "".join(f"{f'p={p}':>12}" for p in (1, 2, 4))
print(header)
for dt in dts:
    errs = [
        spectral_norm(trotter_step(suzuki_plan(p), a[0], np.diag(b), dt) - unitary_exp(h_full, dt))
        for p in (1, 2, 4)
    ]
    print(f"  1/{round(1/dt):<4} " + "".join(f"{e:>12.2e}" for e in errs))
