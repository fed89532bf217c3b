"""Generate a toy world and look at what's in it."""

from collections import Counter

import numpy as np

from solartwin.records import FEATURE_NAMES
from solartwin.toygen import ToyConfig, gen_irradiance, gen_network, gen_population, gen_survey, tract_ids

cfg = ToyConfig(n_households=400, n_tracts=4, seed=0)
pop = gen_population(cfg)

print(f"{len(pop)} households in {cfg.n_tracts} tracts")
solar = pop.labels("solar")
print("planted adopters:", np.count_nonzero(solar))
print("LMI households:  ", np.count_nonzero(pop.labels("lmi")))
print("rural households:", np.count_nonzero(pop.labels("rural")))

classes = Counter(pop.labels("sqft_class").tolist())
print("sqft class mix:", dict(sorted(classes.items())))

# adopters skew wealthier and owner-occupied by construction
income = pop.features[:, FEATURE_NAMES.index("MONEYPY")]
print(f"mean income code: adopters {income[solar].mean():.2f}"
      f" vs rest {income[~solar].mean():.2f}")

tract = tract_ids(cfg)[0]
series = gen_irradiance(cfg, tract)
day = series.ghi_for_date(cfg.start_date)
print(f"\ntract {tract}, {cfg.start_date}: hourly GHI W/m2")
print("  " + " ".join(f"{v:.0f}" for v in day))

graph = gen_network(len(pop), 0.02, groups=2, seed=0)
print(f"\nnetwork: {graph.edge_count} edges over {graph.node_count} nodes")

survey = gen_survey(cfg, 1000)
print(f"survey: {len(survey)} responses, {min(survey):.0f}-{max(survey):.0f} sqft")
