"""Synthetic rooftop-solar digital twins.

Library for building household-level rooftop PV datasets: calibrated
adopter identification, square-footage estimation, hourly PV energy
profiles with uncertainty, validation metrics, and a network contagion
simulator for policy studies.  All stages run at desk scale on synthetic
toy data generated by :mod:`solartwin.toygen`.
"""

__version__ = "0.1.0"
