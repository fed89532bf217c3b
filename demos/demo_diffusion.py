"""Adoption contagion under the seven policy cases."""

import numpy as np

from solartwin.diffusion import DiffusionConfig, build_nodes, simulate
from solartwin.seeds import rng_for
from solartwin.toygen import ToyConfig, gen_network, gen_population

n = 800
pop = gen_population(ToyConfig(n_households=n, seed=5))
graph = gen_network(n, 0.01, groups=2, seed=5)
print(f"{n} nodes, {graph.edge_count} edges")

rng = rng_for(5, "demo-diffusion")
benefit = rng.random(n)                     # stand-in for modeled generation
annual_kwh = 4000.0 + rng.random(n) * 5000.0
initial = np.flatnonzero(pop.solar.filled(False))
print(f"seeding with {initial.size} planted adopters\n")
# the node arrays every case shares, built once for the sweep
nodes = build_nodes(pop, graph, benefit)

cases = ("1a", "1b", "2a", "2b", "3", "4", "5")
print("case  " + "  ".join(f"t={t:02d}" for t in range(11)))
finals = {}
for case in cases:
    config = DiffusionConfig(case=case, time_steps=10, iterations=5, seed=11)
    rows = simulate(nodes, config, initial, annual_kwh)
    totals = [row["total_adopters"] for row in rows]
    finals[case] = rows[-1]
    print(f"  {case:2s}  " + "  ".join(f"{t:4.0f}" for t in totals))

print("\nfinal split (mean over iterations):")
print("case   lmi_rural  lmi_urban  nonlmi_rural  nonlmi_urban")
for case in cases:
    row = finals[case]
    print(f"  {case:2s}   {row['lmi_rural']:8.1f}  {row['lmi_urban']:8.1f}"
          f"  {row['nonlmi_rural']:11.1f}  {row['nonlmi_urban']:11.1f}")

lift = finals["2b"]["lmi_rural"] + finals["2b"]["lmi_urban"] \
    - finals["2a"]["lmi_rural"] - finals["2a"]["lmi_urban"]
print(f"\nLMI adopters gained by 2b over 2a: {lift:.1f}")
