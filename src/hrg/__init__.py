"""Hierarchical renormalization group engine for the p-adic quartic model.

Covariances, bulk and deviation flows, fixed-point analysis, partial
linearization, correlator assembly, and Monte Carlo validation, all at
desk scale with the remainder coordinate pinned to ZERO.
"""

from .covariance import CovarianceTable, covariance_table, free_pairing_c_inf
from .geometry import ModelParams, make_params
from .observables import ObservableReport, full_report
from .rg import BulkVector, FlowCoefficients, bulk_step, flow_coefficients

__all__ = [
    "BulkVector",
    "CovarianceTable",
    "FlowCoefficients",
    "ModelParams",
    "ObservableReport",
    "bulk_step",
    "covariance_table",
    "flow_coefficients",
    "free_pairing_c_inf",
    "full_report",
    "make_params",
]

__version__ = "0.1.0"
