"""Hampel filtering, used by PhaseBeat for detrending and denoising.

The classic Hampel filter slides a window over the series, computes the local
median and the local median absolute deviation (MAD), and replaces any sample
farther than ``threshold`` robust standard deviations from the local median
with that median.

PhaseBeat (Section III-B2) uses the filter twice, both with a *tiny*
threshold of 0.01 so that essentially every sample is replaced by its local
median:

* window 2000 samples @ 400 Hz (5 s) → the output is the slow *trend* of the
  series; subtracting it removes the DC component (detrending);
* window 50 samples (0.125 s) → the output is a median-smoothed series with
  high-frequency noise removed (denoising).

Both uses are exposed here: :func:`hampel_filter` is the generic filter and
:func:`rolling_median` / :func:`rolling_mad` are the building blocks.  They
are the 1-D, centered face of the packed kernel and the Hampel rule in
:mod:`repro.dsp.streaming_kernels.rolling`, which every other Hampel stage
of the program shares.
"""

from __future__ import annotations

import numpy as np

# The servicebench call counter finds scipy's median filter through the
# repro modules that bind it, and its shim tests use this module as theirs.
from scipy.ndimage import median_filter  # noqa: F401

from ..contracts import FloatArray
from ..errors import ConfigurationError
from .stats import MAD_TO_SIGMA
from .streaming_kernels import rolling

__all__ = ["rolling_median", "rolling_mad", "hampel_filter", "hampel_trend"]


def _validate_window(x: FloatArray, window: int) -> FloatArray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError(
            f"Hampel filtering expects a 1-D series, got shape {x.shape}"
        )
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return x


def rolling_median(x: FloatArray, window: int) -> FloatArray:
    """Centered rolling median with edge replication.

    The window is clipped at the signal edges (``mode='nearest'``), so the
    first and last samples are medians of partially replicated windows rather
    than zero-padded ones — zero padding would fabricate a trend step at the
    boundaries, which then leaks into the detrended vital-sign band.
    """
    x = _validate_window(x, window)
    return rolling.rolling_median(x, max(1, min(window, x.size)), align="centered")


def rolling_mad(
    x: FloatArray, window: int, *, median: FloatArray | None = None
) -> FloatArray:
    """Centered rolling median absolute deviation (about the rolling median).

    Args:
        x: 1-D input series.
        window: Window length in samples.
        median: The rolling median of ``x`` over the same window, when the
            caller has already computed it (as :func:`hampel_filter` has);
            omitted, it is recomputed here.

    Returns:
        The rolling MAD series, same shape as ``x``.
    """
    med = rolling_median(x, window) if median is None else np.asarray(
        median, dtype=float
    )
    return rolling_median(np.abs(np.asarray(x, dtype=float) - med), window)


def hampel_filter(
    x: FloatArray,
    window: int,
    threshold: float,
    *,
    scale: float = MAD_TO_SIGMA,
) -> FloatArray:
    """Apply a Hampel filter and return the filtered series.

    A sample ``x[i]`` is replaced by the local median ``m[i]`` when
    ``|x[i] - m[i]| > threshold * scale * mad[i]``.  With the paper's
    ``threshold=0.01`` virtually every sample fails the test, so the output
    collapses to the rolling median — that degenerate regime is exactly how
    PhaseBeat extracts trends and smooths noise.

    Args:
        x: 1-D input series.
        window: Window length in samples.
        threshold: Number of robust standard deviations beyond which a sample
            is declared an outlier and replaced.
        scale: MAD-to-sigma factor (Gaussian-consistent by default).

    Returns:
        The filtered series, same shape as ``x``.
    """
    x = _validate_window(x, window)
    window = max(1, min(window, x.size))
    return rolling.hampel_rule(x, window, threshold, align="centered", scale=scale)[0]


def hampel_trend(x: FloatArray, window: int, threshold: float = 0.01) -> FloatArray:
    """Trend of the series as PhaseBeat computes it (large-window Hampel).

    Equivalent to :func:`hampel_filter` with the paper's large window and
    small threshold; split out so calibration code reads as
    ``x - hampel_trend(x, 2000)``.
    """
    return hampel_filter(x, window, threshold)
