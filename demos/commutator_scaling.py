"""Nested commutators: 1/h for the bare bracket, O(1) once O enters.

The splitting error is driven by nested commutators of the kinetic part
A and the potential part B = V(x)/h. The bare bracket [A, B] has norm
growing like 1/h on the resolved grid, which is exactly why wavefunction
accuracy degrades. But every further nesting against a polynomial
observable O trades a derivative for a power of h (height reduction vs
width expansion), so [[A,B],O], [A,[[A,B],O]], ... stay bounded. The
beta coefficient, the worst (p+1)-fold nesting, inherits the same
uniformity.

Run: python demos/commutator_scaling.py    (writes commutator_scaling.svg)
"""

from semitrotter.experiments import (
    COMM_WORD_LABELS,
    build_config,
    emit_svg,
    fit_slope,
    run_experiment,
)

hs = ", ".join(f"1/{2**k}" for k in range(5, 10))
cfg = build_config("comm-sweep", {"h": hs})
rows = run_experiment(cfg)

series = []
for label in COMM_WORD_LABELS + ("beta_comm",):
    pts = sorted((r.h, r.value) for r in rows if r.metric == label)
    series.append((label, pts))
    fit = fit_slope(pts)
    values = "  ".join(f"{v:9.3e}" for _, v in pts)
    print(f"{label:<20} slope {fit.slope:+.3f}   {values}")

print("\n(h increases left to right; only [A,B] should have slope near -1)")
path = emit_svg(series, [("h^-1", -1.0)], "commutator_scaling.svg",
                title="commutator norms vs h (N = 1/h)",
                xlabel="h", ylabel="spectral norm")
print(f"wrote {path}")
