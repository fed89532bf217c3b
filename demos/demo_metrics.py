"""Distribution distances between two generation samples."""

import numpy as np

from solartwin.metrics import (
    jsd_histogram,
    jsd_kde,
    pearson_monthly,
    relative_pct_diff,
    scott_bandwidth,
)
from solartwin.seeds import rng_for

rng = rng_for(0, "demo-metrics")

# pretend these are daily kWh totals from the real and twin sides
real = rng.normal(12.0, 3.0, 400).clip(min=0.0)
twin = rng.normal(12.5, 3.2, 380).clip(min=0.0)
shifted = real + 8.0

print("histogram JSD (50 shared bins), base 2:")
print(f"  real vs twin    {jsd_histogram(real, twin):.4f}")
print(f"  real vs real+8  {jsd_histogram(real, shifted):.4f}")

h = scott_bandwidth(real)
print(f"\nScott bandwidth for the real sample: {h:.4f}")
print("KDE-smoothed JSD:")
print(f"  real vs twin    {jsd_kde(real, twin):.4f}")
print(f"  real vs real+8  {jsd_kde(real, shifted):.4f}")

# monthly 24-hour shape correlation; each side is (months, hours, values)
shape = np.sin(np.linspace(0, np.pi, 24)) ** 2
months, hours = ["2018-06"] * 24, list(range(24))
noisy = [float(shape[h] * 0.9 + rng.normal(0, 0.01)) for h in hours]
r = pearson_monthly((months, hours, shape), (months, hours, noisy))
print(f"\nJune hourly-shape correlation: {r['2018-06']:.4f}")

print(f"\nadopter count drift, 62 real vs 338 twin:"
      f" {relative_pct_diff(62, 338):.1f}%")
