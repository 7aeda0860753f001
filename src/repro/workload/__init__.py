"""Latency-critical workload models: requests, service times, apps, traces."""

from .apps import APP_NAMES, PAPER_APPS, SIM_APPS, AppSpec, get_app
from .arrivals import OpenLoopSource
from .burst import mmpp_trace
from .request import Request
from .service_time import (
    FEATURE_DIM,
    DeterministicService,
    LognormalCorrelatedService,
    ServiceModel,
)
from .trace import WorkloadTrace, constant_trace, diurnal_trace, synthesize_month

__all__ = [
    "Request",
    "ServiceModel",
    "LognormalCorrelatedService",
    "DeterministicService",
    "FEATURE_DIM",
    "AppSpec",
    "PAPER_APPS",
    "SIM_APPS",
    "APP_NAMES",
    "get_app",
    "WorkloadTrace",
    "synthesize_month",
    "diurnal_trace",
    "constant_trace",
    "OpenLoopSource",
    "mmpp_trace",
]
