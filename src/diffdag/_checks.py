"""The rule for the counts, seeds, scales, real numbers and named choices a
caller passes in, and for two node counts that must agree. Each check raises
``error`` with a message that starts with the parameter's name."""

import math

import numpy as np


def check_count(name: str, v, least: int, error: type[Exception] = ValueError) -> None:
    """``v`` must be an ``int`` or a numpy integer, never a ``bool``, and at
    least ``least``."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < least:
        raise error(f"{name} must be an integer >= {least}, got {v!r}")


def _finite_real(v) -> bool:
    """A Python or numpy real number, never a ``bool`` or a string, and finite."""
    # concrete types rather than numbers.Real, whose isinstance is several
    # times slower and runs on every Sinkhorn draw
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    return real and math.isfinite(v)


def check_real(name: str, v, error: type[Exception] = ValueError) -> None:
    """``v`` must be a Python or numpy real number, never a ``bool`` or a
    string, and finite; a range check on ``v`` can then compare it."""
    if not _finite_real(v):
        raise error(f"{name} must be a finite real number, got {v!r}")


def check_scale(name: str, v, error: type[Exception] = ValueError) -> None:
    """``v`` must be a Python or numpy real number, never a ``bool`` or a
    string, finite and greater than 0."""
    # NaN fails v > 0 but would pass a bare v <= 0 check
    if not (_finite_real(v) and v > 0):
        raise error(f"{name} must be finite and positive, got {v!r}")


def check_choice(name: str, v, choices: tuple[str, ...], error: type[Exception] = ValueError) -> None:
    """``v`` must be a ``str`` equal to one of ``choices``, case included."""
    if not (isinstance(v, str) and v in choices):
        raise error(f"{name} must be {' or '.join(map(repr, choices))}, got {v!r}")


def check_same_n(what: str, n: int, other: str, m: int) -> None:
    """``what``, on ``n`` nodes, and ``other``, on ``m``, must agree."""
    if n != m:
        raise ValueError(f"node counts differ: {what} has {n}, {other} has {m}")
