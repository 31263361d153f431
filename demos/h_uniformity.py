"""Why the observable error ignores the semiclassical parameter.

Two sweeps over h = 1/32 ... 1/512 at a fixed time step dt = 0.1:

  1. resolved grid, N = 1/h: the spatial resolution tracks the
     oscillation scale. The unitary error blows up like 1/h, yet the
     observable error barely moves. This is the headline phenomenon:
     you may step far too coarsely to follow the wavefunction and still
     read off polynomial observables at full accuracy.

  2. frozen grid, N = 64: once h drops below 1/N the discretization no
     longer resolves the dynamics and nothing is uniform; the
     observable error picks up inverse powers of h. Uniformity is a
     statement about the resolved regime, not a free lunch at any N.

Run: python demos/h_uniformity.py        (writes h_uniformity.svg)
"""

from dataclasses import replace

from semitrotter.experiments import (
    build_config,
    emit_svg,
    fit_slope,
    run_experiment,
    series_from_rows,
)

hs = ", ".join(f"1/{2**k}" for k in range(5, 10))
base = build_config("h-sweep", {"h": hs, "orders": "2, 4"})

print("resolved grid (N = 1/h):")
rows = run_experiment(base)
for metric in ("observable_error", "unitary_error"):
    for label, pts in series_from_rows(rows, metric, "h"):
        print(f"  {label:<24} slope {fit_slope(pts).slope:+.3f}")

print("\nfrozen grid (N = 64):")
frozen_rows = run_experiment(replace(base, n=64))
for metric in ("observable_error", "unitary_error"):
    for label, pts in series_from_rows(frozen_rows, metric, "h"):
        print(f"  {label:<24} slope {fit_slope(pts).slope:+.3f}")

series = [
    (f"resolved {label}", pts)
    for label, pts in series_from_rows(rows, "observable_error", "h")
    + series_from_rows(rows, "unitary_error", "h")
]
path = emit_svg(series, [("h^-1", -1.0)], "h_uniformity.svg",
                title="errors vs h at dt = 0.1 (resolved grid)",
                xlabel="h", ylabel="error")
print(f"\nwrote {path}")
