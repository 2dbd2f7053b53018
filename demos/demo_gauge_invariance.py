"""Gauge invariance of the sector energies.

Applies a random smooth time-independent gauge transformation to the
initial data (matter rotates in its representation, the potential picks up
the discrete Maurer-Cartan term) and evolves original and transformed data
side by side.  Pointwise gauge scalars match at machine precision; the
covariant Sobolev energies agree to the stencil's discretization error.
"""

from ymtorus import driver, lattice

cfg = driver.preset_config("gauge_invariance")
grid, model, bg, couplings = driver.build_run(cfg)
u0, _ = driver.prepare_initial_state(cfg, grid, model, bg, couplings,
                                     k=int(cfg["numerics", "energy_k"]))

gt = lattice.GaugeTransform.random_smooth(
    grid, model, seed=int(cfg["gauge_experiment", "seed"]),
    amplitude=float(cfg["gauge_experiment", "amplitude"]), cutoff=1)
print("gauge transform: random smooth su(2) field, unitarity defect %.2e"
      % lattice.unitarity_defect(gt.matrices(model.lie.defining)))

res = driver.run_gauge_invariance(cfg, u0, bg, couplings)
print("\n tau      rel. mismatch (yang-mills, higgs, dirac)")
for row in res["rows"]:
    print(" %.3f    %.2e  %.2e  %.2e"
          % (row["tau"], row["yangmills"], row["higgs"], row["dirac"]))
print("\nworst relative sector-energy mismatch: %.3e"
      % res["worst_relative_mismatch"])
