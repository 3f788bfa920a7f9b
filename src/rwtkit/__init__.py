"""Interpretable reservoir water temperature modelling.

The package covers the full workflow: profile ingestion and normalization,
five model kinds (a decision tree, a random forest, gradient boosting, a
small MLP and a spline-edge network), exact Shapley attribution, distillation
of the spline-edge network into closed-form equations, and a bank of twenty
published temperature equations with their test scores.
"""

__version__ = "0.1.0"

from .features import (  # noqa: F401
    Feature,
    ObservationProfile,
    Scaler,
    scaler_fit,
)
