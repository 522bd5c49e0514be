"""The rule for the counts, seeds and scales a caller passes in. Each check
raises ``error`` with a message that starts with the parameter's name."""

import math

import numpy as np


def check_count(name: str, v, least: int, error: type[Exception] = ValueError) -> None:
    """``v`` must be an ``int`` or a numpy integer, never a ``bool``, and at
    least ``least``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise error(f"{name} must be an integer >= {least}, got {v!r}")


def check_scale(name: str, v, error: type[Exception] = ValueError) -> None:
    """``v`` must be a Python or numpy real number, never a ``bool`` or a
    string, finite and greater than 0."""
    # concrete types rather than numbers.Real, whose isinstance is several
    # times slower and runs on every Sinkhorn draw; NaN fails v > 0 but would
    # pass a bare v <= 0 check
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    if not (real and math.isfinite(v) and v > 0):
        raise error(f"{name} must be finite and positive, got {v!r}")
