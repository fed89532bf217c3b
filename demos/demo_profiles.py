"""Hourly PV energy with uncertainty for a handful of adopters."""

from datetime import timedelta

from solartwin.pv import generate_profiles
from solartwin.toygen import ToyConfig, gen_irradiance, gen_population, tract_ids

cfg = ToyConfig(n_households=40, n_tracts=2, days=3, seed=7)
pop = gen_population(cfg)

# give everyone a roof size and mark the first few as adopters
fitted = pop.replace(solar=pop.id < 5, sqft_value=900.0 + 40.0 * pop.id)
irradiance = {t: gen_irradiance(cfg, t) for t in tract_ids(cfg)}
dates = [cfg.start_date + timedelta(days=i) for i in range(cfg.days)]

profiles = generate_profiles(fitted, irradiance, dates, workers=1, seed=7, n_samples=50)
print(f"{len(profiles)} household-day profiles "
      f"({len(profiles.household)} adopters x {len(profiles.dates)} days), "
      f"hourly block {profiles.hourly_mean.shape}\n")

daily_mean, daily_std = profiles.daily_mean, profiles.daily_std
print(f"household {profiles.household[0]}, {dates[0]}: kWh by hour (mean +/- std)")
for hour in range(24):
    m = profiles.hourly_mean[0, 0, hour]
    s = profiles.hourly_std[0, 0, hour]
    bar = "#" * int(m * 40)
    print(f"  {hour:02d}  {m:.4f} +/- {s:.4f}  {bar}")
print(f"  daily total {daily_mean[0, 0]:.3f} kWh +/- {daily_std[0, 0]:.3f}")

print("\ndaily means per household-day:")
for k, household in enumerate(profiles.household):
    for j, date in enumerate(profiles.dates):
        print(f"  household {household}  {date}  {daily_mean[k, j]:.3f} kWh")
