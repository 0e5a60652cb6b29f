"""The packed rolling-median kernel and the one Hampel rule built on it.

Every Hampel stage in the program — the batch calibration's centered
detrend/denoise, the streaming engine's trailing ones, and the 1-D filters
of :mod:`repro.dsp.hampel` — reduces to rolling medians over the columns of
an ``[n_samples × n_series]`` matrix.  :func:`rolling_median` computes them
for all columns in **one** ``scipy.ndimage.median_filter`` call.

**Alignment.**  The value at row ``i`` is the rank ``window // 2`` order
statistic of

* ``"trailing"``: rows ``[i - w + 1, i]`` — causal, so a value never changes
  once computed, which is what makes incremental streaming exact;
* ``"centered"``: rows ``[i - w // 2, i + (w - 1) // 2]`` — the paper's
  calibration windows.

Rows outside ``[0, n)`` are replicated edge samples (scipy's
``mode="nearest"``).

**Packing.**  Each column becomes one segment of a 1-D buffer: the rows its
outputs need, with out-of-range rows replaced by copies of the first (or
last) sample — ``w - 1`` leading copies for trailing, ``w // 2`` leading and
``(w - 1) // 2`` trailing copies for centered.  That padding is exactly what
a per-column ``mode="nearest"`` call sees, so every output window lies
inside its own segment and one centered call over the whole buffer yields
the per-column results.  scipy's 1-D rank filter is used on purpose: a 2-D
``size=(w, 1)`` or ``axes=`` call over the matrix is tens of times *slower*
at these window sizes.  With ``tail=m`` only the last ``m`` rows are produced and the
leading padding shrinks to ``max(0, w - 1 - (n - m))`` rows (trailing), so a
streaming hop with full context packs no padding at all.

**Columns that are filtered alone.**  The packed result is bitwise equal to
the per-column loop because an order statistic is an exact element of its
window.  Two kinds of value break that argument, and a column holding one
takes the per-column call instead: a non-finite value (scipy's running
median mis-orders NaN, and the disturbance can outlive the window — in a
packed buffer it would reach the next column) and ``-0.0`` (it ties with
``+0.0``, and which of the two is reported depends on the filter's history).
A lone column takes that call as well: it has nothing to pack with.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
from scipy.ndimage import median_filter

from ...contracts import BoolArray, FloatArray
from ...errors import ConfigurationError
from ..stats import MAD_TO_SIGMA

__all__ = ["Align", "rolling_median", "hampel_rule", "batched_hampel_filter"]

Align = Literal["trailing", "centered"]

_NEGATIVE_ZERO = np.uint64(0x8000_0000_0000_0000)


def _validate(x: FloatArray, window: int) -> FloatArray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ConfigurationError(
            f"rolling kernels expect a 1-D series or 2-D matrix, got shape {x.shape}"
        )
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return x


def _column_median(column: FloatArray, window: int, align: Align) -> FloatArray:
    """The per-column reference: one scipy call with edge replication.

    For trailing windows ``origin=(window - 1) // 2`` shifts the centered
    footprint fully to the left, onto ``[i - w + 1, i]``.
    """
    origin = (window - 1) // 2 if align == "trailing" else 0
    return median_filter(column, size=window, mode="nearest", origin=origin)


def _lone_columns(matrix: FloatArray) -> BoolArray:
    """Columns that must take the per-column call (see the module docstring).

    A column sum is non-finite when the column holds a NaN or an infinity
    (or overflows, which only sends a finite column the exact slow way).
    """
    if matrix.shape[1] == 1:
        return np.ones(1, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        lone = ~np.isfinite(matrix.sum(axis=0))
    lone |= (matrix.view(np.uint64) == _NEGATIVE_ZERO).any(axis=0)
    return lone


def _packed_median(
    matrix: FloatArray, window: int, align: Align, m: int
) -> FloatArray:
    """Last ``m`` rows of every column's rolling median, from one scipy call.

    Each column becomes a segment of ``m + window - 1`` rows — the rows its
    last ``m`` windows cover, out-of-range rows replaced by edge copies — so
    the centered output at offset ``window // 2 + j`` of a segment is the
    median of that column's ``j``-th window for either alignment.
    """
    n, n_cols = matrix.shape
    first = n - m - (window - 1 if align == "trailing" else window // 2)
    length = m + window - 1
    lo, hi = max(first, 0), min(first + length, n)
    segments = np.empty((n_cols, length))
    segments[:, lo - first : hi - first] = matrix[lo:hi].T
    segments[:, : lo - first] = matrix[:1].T
    segments[:, hi - first :] = matrix[-1:].T
    filtered = median_filter(segments.ravel(), size=window, mode="nearest")
    return filtered.reshape(n_cols, length)[:, window // 2 : window // 2 + m].T


def rolling_median(
    x: FloatArray,
    window: int,
    *,
    align: Align = "trailing",
    tail: int | None = None,
) -> FloatArray:
    """Rolling median of every column, from one packed scipy call.

    Bitwise equal to calling ``median_filter(x[:, j], size=window,
    mode="nearest")`` (with the trailing origin for ``"trailing"``) on each
    column ``j`` and keeping the last ``tail`` rows.  The window is not
    clamped to the series length; replicated edges cover any deficit.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix.
        window: Window length in samples.
        align: ``"trailing"`` or ``"centered"`` (see the module docstring).
        tail: Return only the last ``tail`` rows; all rows when omitted.

    Returns:
        ``[tail × n_series]`` medians (1-D in, 1-D out).
    """
    x = _validate(x, window)
    if align not in ("trailing", "centered"):
        raise ConfigurationError(f"align must be 'trailing' or 'centered', got {align!r}")
    matrix = x[:, np.newaxis] if x.ndim == 1 else x
    n, n_cols = matrix.shape
    m = n if tail is None else int(tail)
    if not 0 <= m <= n:
        raise ConfigurationError(f"tail must be in [0, {n}], got {tail}")
    out = np.empty((m, n_cols))
    if m and n_cols:
        lone = _lone_columns(matrix)
        for col in np.flatnonzero(lone):
            out[:, col] = _column_median(matrix[:, col], window, align)[n - m :]
        if not lone.all():
            cols = np.flatnonzero(~lone) if lone.any() else slice(None)
            out[:, cols] = _packed_median(matrix[:, cols], window, align, m)
    return out if x.ndim == 2 else out[:, 0]


def hampel_rule(
    x: FloatArray,
    window: int,
    threshold: float,
    *,
    align: Align = "trailing",
    scale: float = MAD_TO_SIGMA,
    deviation: FloatArray | None = None,
) -> tuple[FloatArray, FloatArray]:
    """The Hampel rule every filter stage applies: median, MAD, replace.

    A sample is replaced by its local median when it sits more than
    ``threshold * scale * mad`` away, ``mad`` being the rolling median of
    the absolute deviations from the rolling median.

    ``x`` may start with context rows whose deviations the caller already
    holds (a trailing stream continuing from earlier blocks): pass them as
    ``deviation`` and only the rows after them are filtered.

    Args:
        x: 1-D series or ``[n_samples × n_series]`` matrix.
        window: Window length in samples.
        threshold: Robust standard deviations beyond which a sample is
            replaced by the local median.
        align: Window alignment of both medians.
        scale: MAD-to-sigma factor (Gaussian-consistent by default).
        deviation: Absolute deviations of the leading context rows of ``x``.

    Returns:
        ``(filtered, deviation)``: the filtered rows after the context, and
        the absolute deviations of every row of ``x``.
    """
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    x = _validate(x, window)
    known = 0 if deviation is None else deviation.shape[0]
    m = x.shape[0] - known
    med = rolling_median(x, window, align=align, tail=m)
    new = x[known:]
    new_dev = np.abs(new - med)
    dev = new_dev if deviation is None else np.concatenate([deviation, new_dev])
    mad = rolling_median(dev, window, align=align, tail=m)
    outlier = new_dev > threshold * scale * mad
    out = new.copy()
    out[outlier] = med[outlier]
    return out, dev


def batched_hampel_filter(
    matrix: FloatArray,
    window: int,
    threshold: float,
    *,
    scale: float = MAD_TO_SIGMA,
) -> FloatArray:
    """Centered Hampel filter applied independently to each column.

    Bitwise equal to looping :func:`repro.dsp.hampel.hampel_filter` over
    columns; :mod:`repro.core.calibration` uses it to calibrate all
    subcarriers of all antenna pairs at once.

    Args:
        matrix: ``[n_samples × n_series]`` matrix (1-D input is treated as
            a single column and returned 2-D).
        window: Centered window length in samples (clamped to the series
            length, matching the 1-D filter).
        threshold: Robust standard deviations beyond which a sample is
            replaced by the local median.
        scale: MAD-to-sigma factor.

    Returns:
        Filtered ``[n_samples × n_series]`` matrix.
    """
    matrix = _validate(matrix, window)
    if matrix.ndim == 1:
        matrix = matrix[:, np.newaxis]
    window = max(1, min(window, matrix.shape[0]))
    return hampel_rule(matrix, window, threshold, align="centered", scale=scale)[0]
