"""Synthetic rooftop-solar digital twins.

Library for building household-level rooftop PV datasets: calibrated
adopter identification, square-footage estimation, hourly PV energy
profiles with uncertainty, validation metrics, and a network contagion
simulator for policy studies.  All stages run at desk scale on synthetic
toy data generated by :mod:`solartwin.toygen`.
"""

from solartwin.records import (
    AdopterTarget,
    Graph,
    HouseholdTable,
    IngestError,
    IrradianceSeries,
    load_households,
    load_irradiance,
    load_network,
    load_targets,
    save_households,
    save_irradiance,
    save_network,
    save_targets,
    sqft_class_range,
)
from solartwin.toygen import (
    ToyConfig,
    gen_irradiance,
    gen_network,
    gen_population,
    gen_survey,
)
from solartwin.preprocess import (
    LabeledDataset,
    correlation_matrix,
    cramers_v,
    dataset_from_households,
    smoten_oversample,
)
from solartwin.boosting import (
    GbtModel,
    GbtParams,
    LossParams,
    MajorityBaseline,
    OvrModel,
    apply_threshold,
    ensemble_vote,
    ensemble_votes,
    load_model,
    loss_grad_hess,
    predict_proba,
    save_model,
    train_gbt,
    train_ovr,
    weighted_log_loss,
)
from solartwin.calibrate import (
    CalibrationResult,
    GpModel,
    calibrate,
    expected_improvement,
    gp_fit,
    gp_predict,
    parameter_grid,
    save_trace,
)
from solartwin.sqft import SubclassWeights, estimate_sqft, subclass_weights
from solartwin.pv import (
    EnergyProfiles,
    SamplingTables,
    TimeInvariantSamples,
    declination,
    generate_profiles,
    sample_time_invariant,
    save_daily,
    save_profiles,
    tilted_radiation,
)
from solartwin.metrics import (
    DiscreteDistribution,
    jsd,
    jsd_histogram,
    jsd_kde,
    kld_histogram,
    pearson_monthly,
    relative_pct_diff,
    scott_bandwidth,
)
from solartwin.diffusion import (
    DiffusionConfig,
    DiffusionState,
    SimulationResult,
    node_probability,
    rebate_value,
    save_timeline,
    simulate,
    threshold_from_barriers,
    utility,
)
from solartwin.config import RunConfig, load_config
from solartwin.seeds import rng_for, seed_sequence

__version__ = "0.1.0"
