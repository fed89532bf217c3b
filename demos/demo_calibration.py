"""Search (beta, tau) until the booster reproduces a known adopter count."""

from solartwin.boosting import GbtParams, apply_threshold, predict_proba
from solartwin.calibrate import calibrate
from solartwin.preprocess import dataset_from_households, smoten_oversample
from solartwin.records import AdopterTarget
from solartwin.toygen import ToyConfig, gen_population

pop = gen_population(ToyConfig(n_households=1200, seed=4))
target = AdopterTarget("VA", int(pop.labels("solar").sum()))
print(f"target: {target.count} adopters out of {len(pop)} households")

data = dataset_from_households(pop, "solar")
balanced = smoten_oversample(data, k=5, seed=4)
print("training rows after balancing:", balanced.y.size)

result = calibrate(
    balanced, pop, target,
    budget=300, init=10, seed=4,
    gbt_params=GbtParams(rounds=60),
)

print(f"\nconverged: {result.converged} after {result.rounds_used} evaluations")
print(f"beta* = {result.beta_star:.2f}  tau* = {result.tau_star:.2f}"
      f"  |target - predicted| = {result.discrepancy}")

print("\nlast trace entries (round, beta, tau, predicted, |diff|):")
for entry in result.trace[-5:]:
    print(f"  {entry.round:3d}  {entry.beta:.2f}  {entry.tau:.2f}"
          f"  {entry.predicted:4d}  {entry.discrepancy:3d}")

# the calibrated model is ready to label the twin population
probs = predict_proba(result.model, pop.features)
decisions = apply_threshold(probs, result.tau_star)
print("\ntwin adopters at tau*:", int(decisions.sum()))
