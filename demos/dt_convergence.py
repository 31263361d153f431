"""Observable vs unitary convergence in the time step.

Heisenberg-evolve a polynomial observable O = cos(x) + h sin(x) d/dx
under Trotterized and exact dynamics for the cos(x) potential at
h = 1/64, then fit log-log slopes of both error norms against dt.
Each order-p scheme converges at rate p for both metrics; the point of
the whole exercise is that the constant in front of the observable
error does not care about h (see h_uniformity.py for that half).

Run: python demos/dt_convergence.py        (writes dt_convergence.svg)
"""

from semitrotter.experiments import (
    build_config,
    emit_svg,
    fit_slope,
    run_experiment,
    series_from_rows,
)

cfg = build_config("dt-sweep")
print(f"grid N={cfg.n}, h={cfg.h_values[0]}, t={cfg.t_final}, V = {cfg.potential}")
rows = run_experiment(cfg)

for metric in ("observable_error", "unitary_error"):
    print(f"\n{metric}:")
    for label, pts in series_from_rows(rows, metric, "dt"):
        fit = fit_slope(pts)
        print(f"  {label:<24} slope {fit.slope:+.3f}  r^2 {fit.r2:.5f}")

series = series_from_rows(rows, "observable_error", "dt")
refs = [(f"dt^{p}", float(p)) for p in cfg.orders]
path = emit_svg(series, refs, "dt_convergence.svg",
                title="observable error vs dt", xlabel="dt", ylabel="error")
print(f"\nwrote {path}")
