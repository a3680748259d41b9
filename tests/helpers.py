"""Test data shared by the test modules."""

import numpy as np

from microdiag.types import LOG_DTYPE, SERIES_DTYPE


def series_array(samples) -> np.ndarray:
    """(t_ms, value) pairs as one metric series of a `TelemetryStream`."""
    return np.array(list(samples), dtype=SERIES_DTYPE)


def log_array(lines) -> np.ndarray:
    """(t_ms, node index, text) rows as the log lines of a `TelemetryStream`."""
    return np.array(list(lines), dtype=LOG_DTYPE)
