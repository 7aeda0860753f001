"""Comparison power-management policies.

The paper's evaluation compares DeepPower against a no-management baseline
and two state-of-the-art prediction-based managers (ReTail, Gemini); this
package implements all of them plus two reference policies: a fixed
frequency and a utilisation oracle.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .base import PowerManager
    from .gemini import GeminiPolicy
    from .predictors import (
        LinearServicePredictor,
        MlpServicePredictor,
        ServicePredictor,
        profile_app,
        relative_rmse_matrix,
    )
    from .retail import RetailPolicy
    from .simple import FixedFrequencyPolicy, MaxFrequencyPolicy, UtilizationOraclePolicy

__all__ = [
    "PowerManager",
    "ServicePredictor",
    "LinearServicePredictor",
    "MlpServicePredictor",
    "profile_app",
    "relative_rmse_matrix",
    "MaxFrequencyPolicy",
    "FixedFrequencyPolicy",
    "UtilizationOraclePolicy",
    "RetailPolicy",
    "GeminiPolicy",
]

__getattr__, __dir__ = lazy_exports(__name__)
