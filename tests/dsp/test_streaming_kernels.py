"""Streaming-kernel exactness: packed medians, cycle unwrap, sliding DFT.

The incremental monitor's correctness argument rests on three bitwise claims
pinned here against naive reference implementations:

* the packed rolling-median kernel equals a per-column scipy loop bit for
  bit, for both alignments, any ``tail`` and any input (non-finite values
  and signed zeros included);
* trailing (causal) order statistics are frozen once computed, so blockwise
  incremental evaluation — and rebuilding from a buffered suffix — equals a
  from-scratch pass exactly;
* the integer cycle counter of ``cycle_unwrap`` is exactly associative, so
  blockwise unwrapping equals a single pass bitwise.

Float-tolerance claims (sliding DFT vs a fresh rFFT) are tested against the
1e-9 equivalence budget used throughout the streaming suite.
"""

import numpy as np
import pytest
from scipy.ndimage import median_filter

from repro.dsp.fft_utils import (
    batched_magnitude_spectrum,
    magnitude_spectrum,
    rfft_plan,
)
from repro.dsp.hampel import hampel_filter
from repro.dsp.hampel import rolling_median as centered_median_1d
from repro.dsp.stats import MAD_TO_SIGMA
from repro.dsp.streaming_kernels import (
    SlidingDFT,
    StreamingCalibrator,
    TrailingHampelState,
    batched_hampel_filter,
    cycle_unwrap,
    hampel_rule,
    rolling_median,
    trailing_calibrate,
    trailing_window_samples,
)
from repro.errors import ConfigurationError


def naive_trailing_median(x, window):
    """Reference: rank ``window // 2`` statistic of ``[i - w + 1, i]``,
    negative indices replicated with ``x[0]`` (scipy's ``mode='nearest'``)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        lo = i - window + 1
        pad = np.full(max(0, -lo), x[0])
        win = np.concatenate([pad, x[max(0, lo) : i + 1]])
        out[i] = np.sort(win)[window // 2]
    return out


def naive_trailing_hampel(x, window, threshold):
    """Reference trailing Hampel filter, column by column, from the naive median."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    for col in range(x.shape[1]):
        med = naive_trailing_median(x[:, col], window)
        dev = np.abs(x[:, col] - med)
        mad = naive_trailing_median(dev, window)
        outlier = dev > threshold * MAD_TO_SIGMA * mad
        out[outlier, col] = med[outlier]
    return out


def per_column_median(x, window, align):
    """Reference: one ``median_filter`` call per column (edge replication;
    the trailing origin shifts the footprint onto ``[i - w + 1, i]``)."""
    origin = (window - 1) // 2 if align == "trailing" else 0
    out = np.empty_like(x)
    for col in range(x.shape[1]):
        out[:, col] = median_filter(
            x[:, col], size=window, mode="nearest", origin=origin
        )
    return out


def assert_bitwise(actual, expected):
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(actual).view(np.uint64),
        np.ascontiguousarray(expected).view(np.uint64),
    )


def tied_series(rng, n=120):
    """A series with many exact ties — the regime where median conventions
    (rank choice, even-window averaging) diverge if mismatched."""
    return rng.integers(0, 5, size=n) / 4.0


class TestTrailingMedian:
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 10, 50, 51])
    def test_matches_naive_reference_bitwise(self, rng, window):
        x = rng.normal(size=120)
        np.testing.assert_array_equal(
            rolling_median(x, window), naive_trailing_median(x, window)
        )

    @pytest.mark.parametrize("window", [2, 3, 4, 7])
    def test_ties_and_even_windows(self, rng, window):
        x = tied_series(rng)
        np.testing.assert_array_equal(
            rolling_median(x, window), naive_trailing_median(x, window)
        )

    def test_window_longer_than_series(self, rng):
        x = rng.normal(size=8)
        np.testing.assert_array_equal(
            rolling_median(x, 20), naive_trailing_median(x, 20)
        )

    def test_2d_filters_each_column_independently(self, rng):
        x = rng.normal(size=(60, 4))
        out = rolling_median(x, 9)
        for col in range(4):
            np.testing.assert_array_equal(out[:, col], rolling_median(x[:, col], 9))

    def test_causality_extending_never_changes_past_outputs(self, rng):
        x = rng.normal(size=100)
        full = rolling_median(x, 11)
        np.testing.assert_array_equal(rolling_median(x[:60], 11), full[:60])

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ConfigurationError):
            rolling_median(rng.normal(size=(2, 2, 2)), 3)
        with pytest.raises(ConfigurationError):
            rolling_median(rng.normal(size=10), 0)


ALIGNS = ["trailing", "centered"]


class TestPackedRollingMedian:
    """``rolling_median`` against the per-column scipy loop, bit for bit."""

    @pytest.mark.parametrize("align", ALIGNS)
    @pytest.mark.parametrize(
        "n, n_series, window",
        [
            (20, 3, 50),  # n < w
            (1, 4, 7),  # a single row
            (30, 3, 1),  # w = 1
            (64, 4, 10),  # even window
            (64, 4, 11),
            (5, 2, 6),  # even window longer than the series
            (449, 60, 250),  # fleet 50 Hz window, trend stage
            (2399, 60, 2000),  # solo 400 Hz hop context, trend stage
        ],
    )
    def test_matches_per_column_loop(self, rng, align, n, n_series, window):
        x = rng.normal(size=(n, n_series))
        assert_bitwise(
            rolling_median(x, window, align=align),
            per_column_median(x, window, align),
        )

    @pytest.mark.parametrize("align", ALIGNS)
    @pytest.mark.parametrize("window", [2, 3, 4, 7, 50])
    def test_ties(self, rng, align, window):
        x = np.stack([tied_series(rng) for _ in range(4)], axis=1)
        assert_bitwise(
            rolling_median(x, window, align=align),
            per_column_median(x, window, align),
        )

    @pytest.mark.parametrize("align", ALIGNS)
    @pytest.mark.parametrize(
        "n, window, tail",
        [(100, 11, 1), (100, 11, 37), (100, 11, 100), (100, 11, 0),
         (30, 50, 7), (449, 250, 50), (2399, 2000, 400)],
    )
    def test_tail_is_the_last_rows_of_the_full_output(
        self, rng, align, n, window, tail
    ):
        x = rng.normal(size=(n, 5))
        full = rolling_median(x, window, align=align)
        out = rolling_median(x, window, align=align, tail=tail)
        assert_bitwise(out, full[n - tail :])
        assert_bitwise(out, per_column_median(x, window, align)[n - tail :])

    @pytest.mark.parametrize("align", ALIGNS)
    def test_1d_input_is_one_column(self, rng, align):
        x = rng.normal(size=40)
        out = rolling_median(x, 9, align=align, tail=10)
        assert out.shape == (10,)
        assert_bitwise(out, per_column_median(x[:, None], 9, align)[-10:, 0])

    def test_non_finite_values_stay_in_their_column(self):
        # scipy's running median mis-orders NaN and the disturbance can
        # outlive the window; packed with its neighbours, a poisoned column
        # must not change theirs, and its own output must be the per-column one.
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 700))
            n_series = int(rng.integers(2, 6))
            window = int(rng.choice([1, 2, 3, 10, 49, 50, 250, 2000]))
            align = ALIGNS[int(rng.integers(2))]
            x = rng.normal(size=(n, n_series))
            col = int(rng.integers(n_series))
            hits = rng.integers(0, n, size=int(rng.integers(1, 4)))
            x[hits, col] = rng.choice([np.nan, np.inf, -np.inf], size=hits.size)
            tail = int(rng.integers(0, n + 1))
            expected = per_column_median(x, window, align)
            assert_bitwise(rolling_median(x, window, align=align), expected)
            assert_bitwise(
                rolling_median(x, window, align=align, tail=tail),
                expected[n - tail :],
            )

    @pytest.mark.parametrize("align", ALIGNS)
    def test_signed_zeros_match_the_per_column_loop(self, rng, align):
        # -0.0 ties with +0.0; which one a window reports depends on the
        # filter's history, so such columns must see the per-column call.
        x = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=(150, 6))
        for window in (2, 5, 16):
            assert_bitwise(
                rolling_median(x, window, align=align),
                per_column_median(x, window, align),
            )

    def test_rejects_bad_inputs(self, rng):
        x = rng.normal(size=(10, 2))
        with pytest.raises(ConfigurationError):
            rolling_median(x, 3, align="leading")
        with pytest.raises(ConfigurationError):
            rolling_median(x, 3, tail=11)
        with pytest.raises(ConfigurationError):
            rolling_median(x, 3, tail=-1)


class TestTrailingMadAndHampel:
    def test_hampel_applies_outlier_rule_about_trailing_stats(self, rng):
        x = rng.normal(size=90)
        x[40] += 25.0  # a spike the small threshold must replace
        out, dev = hampel_rule(x, 9, 0.01)
        med = naive_trailing_median(x, 9)
        mad = naive_trailing_median(np.abs(x - med), 9)
        outlier = np.abs(x - med) > 0.01 * MAD_TO_SIGMA * mad
        assert outlier[40]
        np.testing.assert_array_equal(dev, np.abs(x - med))
        np.testing.assert_array_equal(out[outlier], med[outlier])
        np.testing.assert_array_equal(out[~outlier], x[~outlier])

    def test_rejects_negative_threshold(self, rng):
        with pytest.raises(ConfigurationError):
            hampel_rule(rng.normal(size=10), 3, -1.0)


class TestBatchedCenteredKernels:
    def test_batched_rolling_median_matches_per_column(self, rng):
        matrix = rng.normal(size=(64, 5))
        out = rolling_median(matrix, 9, align="centered")
        for col in range(5):
            np.testing.assert_array_equal(
                out[:, col], centered_median_1d(matrix[:, col], 9)
            )

    def test_batched_hampel_matches_per_column_loop(self, rng):
        matrix = rng.normal(size=(64, 5))
        matrix[10, 2] += 30.0
        out = batched_hampel_filter(matrix, 11, 0.01)
        for col in range(5):
            np.testing.assert_array_equal(
                out[:, col], hampel_filter(matrix[:, col], 11, 0.01)
            )

    def test_window_clamped_to_series_length_like_1d_filter(self, rng):
        matrix = rng.normal(size=(6, 3))
        out = batched_hampel_filter(matrix, 50, 0.01)
        for col in range(3):
            np.testing.assert_array_equal(
                out[:, col], hampel_filter(matrix[:, col], 50, 0.01)
            )

    def test_1d_input_treated_as_single_column(self, rng):
        x = rng.normal(size=40)
        out = batched_hampel_filter(x, 7, 0.01)
        assert out.shape == (40, 1)
        np.testing.assert_array_equal(out[:, 0], hampel_filter(x, 7, 0.01))


class TestCycleUnwrap:
    def wrapped_walk(self, rng, shape):
        steps = rng.normal(scale=0.7, size=shape)
        phase = np.cumsum(steps, axis=0)
        return np.angle(np.exp(1j * phase)), phase

    def test_matches_np_unwrap_to_float_rounding(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (400,))
        unwrapped, cycles = cycle_unwrap(wrapped)
        assert cycles.dtype == np.int64
        np.testing.assert_allclose(
            unwrapped, np.unwrap(wrapped), rtol=0, atol=1e-9
        )

    def test_blockwise_continuation_is_bitwise_exact(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (300, 4))
        full, full_cycles = cycle_unwrap(wrapped)
        pieces, cycles_pieces = [], []
        prev_angle, prev_cycles = None, None
        for block in np.array_split(wrapped, [1, 7, 64, 65, 200], axis=0):
            if block.shape[0] == 0:
                continue
            if prev_angle is None:
                u, c = cycle_unwrap(block)
            else:
                u, c = cycle_unwrap(
                    block, prev_angle=prev_angle, prev_cycles=prev_cycles
                )
            pieces.append(u)
            cycles_pieces.append(c)
            prev_angle, prev_cycles = block[-1], c[-1]
        np.testing.assert_array_equal(np.concatenate(pieces), full)
        np.testing.assert_array_equal(np.concatenate(cycles_pieces), full_cycles)

    def test_empty_block_is_a_noop(self, rng):
        wrapped, _ = self.wrapped_walk(rng, (50, 2))
        first, cycles = cycle_unwrap(wrapped[:20])
        empty, empty_cycles = cycle_unwrap(
            wrapped[:0], prev_angle=wrapped[19], prev_cycles=cycles[-1]
        )
        assert empty.shape == (0, 2) and empty_cycles.shape == (0, 2)
        rest, _ = cycle_unwrap(
            wrapped[20:], prev_angle=wrapped[19], prev_cycles=cycles[-1]
        )
        full, _ = cycle_unwrap(wrapped)
        np.testing.assert_array_equal(np.concatenate([first, rest]), full)


class TestSlidingDFT:
    def test_full_window_matches_direct_rfft(self, rng):
        n = 64
        x = rng.normal(size=3 * n)
        sdft = SlidingDFT(n, resync_every=0)
        for v in x[:-1]:
            sdft.push(v)
        spectrum = sdft.push(x[-1])
        np.testing.assert_allclose(
            spectrum, np.fft.rfft(x[-n:]), rtol=0, atol=1e-9
        )

    def test_block_extend_replacing_window_is_exact(self, rng):
        n = 32
        sdft = SlidingDFT(n)
        x = rng.normal(size=100)
        spectrum = sdft.extend(x)
        np.testing.assert_array_equal(spectrum, np.fft.rfft(x[-n:]))

    def test_partial_window_equals_zero_padded_rfft(self, rng):
        n = 16
        sdft = SlidingDFT(n, resync_every=0)
        x = rng.normal(size=5)
        for v in x:
            spectrum = sdft.push(v)
        padded = np.concatenate([np.zeros(n - 5), x])
        np.testing.assert_allclose(spectrum, np.fft.rfft(padded), atol=1e-9)

    def test_tracked_bin_subset(self, rng):
        n = 64
        bins = np.array([2, 3, 4])
        sdft = SlidingDFT(n, bins=bins, resync_every=0)
        x = rng.normal(size=n)
        spectrum = sdft.extend(x)
        np.testing.assert_allclose(spectrum, np.fft.rfft(x)[bins], atol=1e-9)

    def test_resync_bounds_drift(self, rng):
        n = 16
        sdft = SlidingDFT(n, resync_every=8)
        x = rng.normal(size=200)
        for v in x:
            spectrum = sdft.push(v)
        np.testing.assert_allclose(spectrum, np.fft.rfft(x[-n:]), atol=1e-9)

    def test_window_contents_oldest_first(self, rng):
        sdft = SlidingDFT(4, resync_every=0)
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            sdft.push(v)
        np.testing.assert_array_equal(
            sdft.window_contents(), [2.0, 3.0, 4.0, 5.0]
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlidingDFT(1)
        with pytest.raises(ConfigurationError):
            SlidingDFT(8, bins=np.array([], dtype=int))
        with pytest.raises(ConfigurationError):
            SlidingDFT(8, bins=np.array([5]))  # > n // 2
        with pytest.raises(ConfigurationError):
            SlidingDFT(8, resync_every=-1)


class TestRfftPlan:
    def test_cached_instance_is_reused(self):
        assert rfft_plan(256, 20.0) is rfft_plan(256, 20.0)

    def test_grid_matches_numpy_and_is_frozen(self):
        plan = rfft_plan(100, 50.0)
        np.testing.assert_array_equal(
            plan.freqs_hz, np.fft.rfftfreq(100, d=1.0 / 50.0)
        )
        assert plan.n_bins == 51
        assert plan.bin_width_hz == pytest.approx(0.5)
        with pytest.raises(ValueError):
            plan.freqs_hz[0] = 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rfft_plan(0, 20.0)
        with pytest.raises(ConfigurationError):
            rfft_plan(64, 0.0)


class TestBatchedSpectrum:
    # The batched rFFT takes a different (vectorized) FFT code path than the
    # 1-D transform, so per-column agreement is to float rounding, not
    # bitwise — well inside the suite's 1e-9 budget either way.
    def test_matches_per_column_magnitude_spectrum(self, rng):
        matrix = rng.normal(size=(128, 4))
        freqs, mags = batched_magnitude_spectrum(matrix, 20.0)
        for col in range(4):
            f_col, m_col = magnitude_spectrum(matrix[:, col], 20.0)
            np.testing.assert_array_equal(freqs, f_col)
            np.testing.assert_allclose(mags[:, col], m_col, rtol=0, atol=1e-9)

    def test_zero_padding_matches(self, rng):
        matrix = rng.normal(size=(100, 3))
        freqs, mags = batched_magnitude_spectrum(matrix, 20.0, nfft=256)
        f0, m0 = magnitude_spectrum(matrix[:, 0], 20.0, nfft=256)
        np.testing.assert_array_equal(freqs, f0)
        np.testing.assert_allclose(mags[:, 0], m0, rtol=0, atol=1e-9)


def wrapped_phase_matrix(rng, n, n_series):
    """Wrapped phase differences with realistic slow drift + oscillation."""
    t = np.arange(n) / 100.0
    drift = np.cumsum(rng.normal(scale=0.05, size=(n, n_series)), axis=0)
    tone = 1.5 * np.sin(2 * np.pi * 0.3 * t)[:, None]
    return np.angle(np.exp(1j * (drift + tone)))


class TestTrailingHampelState:
    @pytest.mark.parametrize("splits", [[7], [1, 2, 3], [50], [10, 10, 10, 10]])
    def test_blocked_extends_match_full_pass_bitwise(self, rng, splits):
        x = wrapped_phase_matrix(rng, 90, 3)
        state = TrailingHampelState(11, 0.01)
        blocks = [
            state.extend(b)
            for b in np.array_split(x, np.cumsum(splits), axis=0)
            if b.shape[0]
        ]
        np.testing.assert_array_equal(
            np.concatenate(blocks), naive_trailing_hampel(x, 11, 0.01)
        )

    def test_window_longer_than_first_block(self, rng):
        x = rng.normal(size=(40, 2))
        state = TrailingHampelState(25, 0.01)
        out = np.concatenate([state.extend(x[:5]), state.extend(x[5:])])
        np.testing.assert_array_equal(out, naive_trailing_hampel(x, 25, 0.01))

    def test_empty_block_is_a_noop(self, rng):
        x = rng.normal(size=(30, 2))
        state = TrailingHampelState(7, 0.01)
        first = state.extend(x[:15])
        assert state.extend(x[:0]).shape == (0, 2)
        out = np.concatenate([first, state.extend(x[15:])])
        np.testing.assert_array_equal(out, naive_trailing_hampel(x, 7, 0.01))

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            TrailingHampelState(0, 0.01)
        with pytest.raises(ConfigurationError):
            TrailingHampelState(5, -1.0)
        with pytest.raises(ConfigurationError):
            TrailingHampelState(5, 0.01).extend(rng.normal(size=10))


class TestTrailingWindowSamples:
    def test_matches_batch_formula(self):
        assert trailing_window_samples(5.0, 400.0) == 2000
        assert trailing_window_samples(0.125, 400.0) == 50
        assert trailing_window_samples(0.001, 400.0) == 3  # floor of 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trailing_window_samples(0.0, 400.0)
        with pytest.raises(ConfigurationError):
            trailing_window_samples(1.0, 0.0)


# Short windows keep the reference fast: trend 1 s / noise 0.1 s at 100 Hz
# gives trend_w=100, noise_w=10, rebuild context 2*99 + 2*9 = 216 rows.
CAL_KW = dict(trend_window_s=1.0, noise_window_s=0.1, hampel_threshold=0.01)


class TestTrailingCalibrate:
    def test_decimation_grid_anchored_at_row_zero(self, rng):
        wrapped = wrapped_phase_matrix(rng, 400, 3)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        dec = trailing_calibrate(wrapped, 100.0, decimation_factor=5, **CAL_KW)
        np.testing.assert_array_equal(dec.series, ref.predecimation_series[::5])
        np.testing.assert_array_equal(dec.predecimation_series, ref.predecimation_series)
        assert dec.sample_rate_hz == pytest.approx(20.0)

    def test_unwrap_uses_integer_cycles(self, rng):
        wrapped = wrapped_phase_matrix(rng, 300, 2)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        np.testing.assert_array_equal(
            ref.unwrapped, wrapped + 2.0 * np.pi * ref.cycles
        )
        np.testing.assert_array_equal(ref.cycles[0], np.zeros(2, dtype=np.int64))

    def test_initial_cycles_shift_whole_series_by_whole_turns(self, rng):
        wrapped = wrapped_phase_matrix(rng, 200, 2)
        base = np.array([3, -2], dtype=np.int64)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        shifted = trailing_calibrate(wrapped, 100.0, initial_cycles=base, **CAL_KW)
        np.testing.assert_array_equal(shifted.cycles, ref.cycles + base)

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            trailing_calibrate(rng.normal(size=50), 100.0)
        with pytest.raises(ConfigurationError):
            trailing_calibrate(np.empty((0, 2)), 100.0)
        with pytest.raises(ConfigurationError):
            trailing_calibrate(rng.normal(size=(50, 2)), 100.0, decimation_factor=0)
        with pytest.raises(ConfigurationError):
            # Denoise window not shorter than the trend window.
            trailing_calibrate(
                rng.normal(size=(50, 2)), 100.0,
                trend_window_s=0.1, noise_window_s=1.0,
            )


class TestStreamingCalibrator:
    def make_engine(self, n_series, factor=1, initial_cycles=None):
        return StreamingCalibrator(
            100.0,
            n_series,
            decimation_factor=factor,
            initial_cycles=initial_cycles,
            **CAL_KW,
        )

    @pytest.mark.parametrize("splits", [[123], [1, 5, 50], [30, 30, 30, 30]])
    def test_blocked_extends_match_stateless_reference_bitwise(self, rng, splits):
        wrapped = wrapped_phase_matrix(rng, 400, 3)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        engine = self.make_engine(3)
        for block in np.array_split(wrapped, np.cumsum(splits), axis=0):
            engine.extend(block)
        assert engine.n_rows == 400
        np.testing.assert_array_equal(engine.unwrapped_window(0), ref.unwrapped)
        np.testing.assert_array_equal(
            engine.calibrated_window(0), ref.predecimation_series
        )
        np.testing.assert_array_equal(engine.base_cycles, ref.cycles[0])

    def test_decimated_window_keeps_grid_phase_across_eviction(self, rng):
        wrapped = wrapped_phase_matrix(rng, 400, 2)
        ref = trailing_calibrate(wrapped, 100.0, decimation_factor=5, **CAL_KW)
        engine = self.make_engine(2, factor=5)
        engine.extend(wrapped)
        np.testing.assert_array_equal(engine.calibrated_window(0), ref.series)
        engine.evict(50)
        # Rows kept after eviction are absolute rows 50, 55, ... — the same
        # grid, just starting later.
        np.testing.assert_array_equal(engine.calibrated_window(0), ref.series[10:])
        np.testing.assert_array_equal(
            engine.base_cycles, ref.cycles[50]
        )
        # start_row rounds up to the next grid row.
        np.testing.assert_array_equal(
            engine.calibrated_window(3), engine.calibrated_window(5)
        )

    def test_cached_rows_survive_growth_and_eviction(self, rng):
        # A window handed out earlier must keep its values while later
        # hops append to and evict from the caches it was taken from.
        wrapped = wrapped_phase_matrix(rng, 900, 2)
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        engine = self.make_engine(2)
        engine.extend(wrapped[:300])
        held = engine.unwrapped_window(0)
        expected = held.copy()
        evicted = 0
        for start in range(300, 900, 40):
            engine.extend(wrapped[start : start + 40])
            engine.evict(30)
            evicted += 30
            np.testing.assert_array_equal(held, expected)
        assert engine.n_rows == 900 - evicted
        np.testing.assert_array_equal(engine.unwrapped_window(0), ref.unwrapped[evicted:])
        np.testing.assert_array_equal(
            engine.calibrated_window(0), ref.predecimation_series[evicted:]
        )
        np.testing.assert_array_equal(engine.base_cycles, ref.cycles[evicted])

    def test_eviction_must_respect_decimation_quantum(self, rng):
        engine = self.make_engine(2, factor=5)
        engine.extend(wrapped_phase_matrix(rng, 100, 2))
        with pytest.raises(ConfigurationError):
            engine.evict(7)
        engine.evict(0)  # no-op
        assert engine.n_rows == 100

    def test_rebuild_from_suffix_exact_past_context(self, rng):
        wrapped = wrapped_phase_matrix(rng, 500, 2)
        engine = self.make_engine(2)
        engine.extend(wrapped)
        start = 150
        context = engine.rebuild_context_samples
        assert context == 2 * 99 + 2 * 9
        ref = trailing_calibrate(wrapped, 100.0, **CAL_KW)
        rebuilt = self.make_engine(2, initial_cycles=ref.cycles[start])
        rebuilt.extend(wrapped[start:])
        # Cycles and unwrapped values are exact everywhere (integer anchor);
        # the Hampel cascade is exact once its windows stop reaching past
        # the suffix start.
        np.testing.assert_array_equal(
            rebuilt.unwrapped_window(0), engine.unwrapped_window(start)
        )
        np.testing.assert_array_equal(
            rebuilt.calibrated_window(0)[context:],
            engine.calibrated_window(start + context),
        )

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            self.make_engine(0)
        with pytest.raises(ConfigurationError):
            self.make_engine(2, factor=0)
        with pytest.raises(ConfigurationError):
            StreamingCalibrator(
                100.0, 2, trend_window_s=0.1, noise_window_s=1.0
            )
        engine = self.make_engine(2)
        with pytest.raises(ConfigurationError):
            engine.extend(rng.normal(size=(10, 3)))  # wrong width
        engine.extend(np.empty((0, 2)))  # empty extend is a no-op
        assert engine.n_rows == 0
