"""Input validation helpers shared across the library.

All public entry points funnel user-provided arrays through these helpers
so error messages are uniform and failures happen at the API boundary
rather than deep inside a vectorized kernel.
"""

from __future__ import annotations

import numpy as np


def as_points(arr, name: str = "points", dims: int | None = 3) -> np.ndarray:
    """Coerce ``arr`` to a C-contiguous float64 ``(N, dims)`` array.

    Parameters
    ----------
    arr:
        Anything ``np.asarray`` accepts.
    name:
        Argument name used in error messages.
    dims:
        Required dimensionality (2 or 3). ``None`` accepts either.

    Returns
    -------
    numpy.ndarray
        ``(N, dims)`` float64, C-contiguous.

    Raises
    ------
    ValueError
        If the array is not 2-D, has the wrong number of columns, or
        contains non-finite values.
    """
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    if out.ndim == 1:
        if dims is not None and out.size == dims:
            out = out.reshape(1, dims)
        elif dims is None and out.size in (2, 3):
            # a bare coordinate with the dimensionality left open: its
            # length is unambiguous, so accept it as a single point
            out = out.reshape(1, out.size)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {out.shape}")
    if dims is not None and out.shape[1] != dims:
        raise ValueError(
            f"{name} must have {dims} columns, got {out.shape[1]}"
        )
    if out.shape[1] not in (2, 3):
        raise ValueError(
            f"{name} must be 2-D or 3-D coordinates, got {out.shape[1]} columns"
        )
    check_finite(out, name)
    return out


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` if ``arr`` contains NaN or infinity."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values (NaN or inf)")


#: the engine's numeric domain: inside it, squared distances and the
#: cubed megacell widths that partitioning divides by stay finite and
#: nonzero. The radius ceiling clears the diameter of any in-domain
#: cloud, which true-kNN radius expansion may grow to.
MAX_ABS_COORD = 1e100
RADIUS_DOMAIN = (1e-100, 1e102)


def check_cloud_domain(points: np.ndarray, name: str = "points") -> None:
    """Raise ``ValueError`` if a finite cloud has coordinates beyond
    ``±MAX_ABS_COORD`` (their squared distances would overflow)."""
    if points.size and np.abs(points).max() > MAX_ABS_COORD:
        raise ValueError(
            f"{name} has coordinates beyond ±{MAX_ABS_COORD:g}, outside the "
            "engine's numeric domain; rescale the cloud"
        )


def check_radius(value: float, name: str = "radius") -> float:
    """Validate a search radius against ``RADIUS_DOMAIN`` and return it."""
    value = check_positive(value, name)
    lo, hi = RADIUS_DOMAIN
    if not lo <= value <= hi:
        raise ValueError(
            f"{name} {value:g} is outside the engine's numeric domain "
            f"[{lo:g}, {hi:g}]; rescale the cloud and radius"
        )
    return value


def check_positive(value: float, name: str) -> float:
    """Validate a strictly positive scalar and return it as ``float``."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate a strictly positive integer and return it as ``int``.

    Accepts any integral number (``numpy`` integer scalars, integral
    floats like ``4.0``) but rejects booleans: ``int(True) == 1``, so
    ``k=True`` would otherwise silently mean ``k=1``.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    ivalue = int(value)
    if ivalue != value or ivalue <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return ivalue
