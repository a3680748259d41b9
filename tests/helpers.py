"""Test data shared by the test modules."""

import numpy as np

from microdiag.types import SERIES_DTYPE


def series_array(samples) -> np.ndarray:
    """(t_ms, value) pairs as one metric series of a `TelemetryStream`."""
    return np.array(list(samples), dtype=SERIES_DTYPE)
