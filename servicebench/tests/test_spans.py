"""Self-time arithmetic and the layer shims."""

import pytest

from svcbench.spans import Shims, ShimError, SpanRecorder, covered_length, self_times


def test_covered_length_merges_overlaps_and_clips_to_parent():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    # Children sticking out of the parent count only inside it.
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    # A child inside another child is covered once.
    assert covered_length([(1.0, 8.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(7.0)


def test_self_time_with_nested_children():
    # root [0, 10] -> a [1, 6] -> b [2, 4]; root -> c [7, 9]
    spans = [
        (0, -1, 0.0, 10.0),
        (1, 0, 1.0, 6.0),
        (2, 1, 2.0, 4.0),
        (1, 0, 7.0, 9.0),
    ]
    self_s, calls = self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_s[1] == pytest.approx((5.0 - 2.0) + 2.0)
    assert self_s[2] == pytest.approx(2.0)
    assert calls == {0: 1, 1: 2, 2: 1}
    # Properly nested spans: self times add up to the root's duration.
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_self_time_with_overlapping_children():
    # Two children of one parent overlap on [3, 5]: the parent loses
    # [2, 7] once, not 3 + 4 seconds.
    spans = [
        (0, -1, 0.0, 10.0),
        (1, 0, 2.0, 5.0),
        (2, 0, 3.0, 7.0),
    ]
    self_s, _ = self_times(spans)
    assert self_s[0] == pytest.approx(5.0)
    assert self_s[1] == pytest.approx(3.0)
    assert self_s[2] == pytest.approx(4.0)


def test_self_time_of_a_slice_uses_the_offset():
    # Rows 40..42 of a larger recorder; row 39 lies outside the slice.
    spans = [(0, 39, 0.0, 4.0), (1, 40, 1.0, 2.0), (2, 41, 1.5, 1.8)]
    self_s, _ = self_times(spans, offset=40)
    assert self_s[0] == pytest.approx(3.0)
    assert self_s[1] == pytest.approx(0.7)
    assert self_s[2] == pytest.approx(0.3)


def test_recorder_links_parents_and_separates_passes():
    recorder = SpanRecorder(["outer", "inner"])
    outer = recorder.open(0)
    inner = recorder.open(1)
    recorder.close(inner)
    recorder.close(outer)
    recorder.current_pass = 1
    recorder.close(recorder.open(1))
    offset, rows = recorder.pass_spans(0)
    assert offset == 0
    assert [(layer, parent) for layer, parent, _, _ in rows] == [(0, -1), (1, 0)]
    offset, rows = recorder.pass_spans(1)
    assert offset == 2 and len(rows) == 1 and rows[0][1] == -1
    assert all(end >= start for _, _, start, end in rows)


def test_shims_wrap_and_restore_methods_and_rebound_functions():
    import sys

    import numpy as np

    import repro.dsp.hampel as hampel
    from repro.core.streaming import StreamingMonitor

    original_push = StreamingMonitor.__dict__["push_packet"]
    original_filter = hampel.hampel_filter
    rebound = [
        (name, module)
        for name, module in sys.modules.items()
        if name.startswith("repro.") and module is not None
        and any(v is original_filter for v in vars(module).values())
    ]
    recorder = SpanRecorder(["streaming", "hampel"])
    shims = Shims(recorder)
    shims.add("repro.core.streaming:StreamingMonitor.push_packet", layer=0)
    shims.add("repro.dsp.hampel:hampel_filter", layer=1)
    with shims:
        assert StreamingMonitor.__dict__["push_packet"] is not original_push
        assert hampel.hampel_filter is not original_filter
        for _, module in rebound:
            assert original_filter not in vars(module).values()
        out = hampel.hampel_filter(np.arange(20.0), 5, 3.0)
        assert out.shape == (20,)
    assert StreamingMonitor.__dict__["push_packet"] is original_push
    assert hampel.hampel_filter is original_filter
    for _, module in rebound:
        assert original_filter in vars(module).values()
    assert shims.snapshot_calls()["repro.dsp.hampel:hampel_filter"] >= 1
    assert recorder.layer[0] == 1


def test_hook_sees_the_arguments():
    import numpy as np

    import repro.dsp.hampel as hampel

    seen = []
    shims = Shims()
    shims.add("repro.dsp.hampel:rolling_median", hook=lambda a, k: seen.append(a[1]))
    with shims:
        hampel.rolling_median(np.arange(10.0), 3)
    assert seen == [3]


@pytest.mark.parametrize(
    "target",
    [
        "repro.core.streaming:StreamingMonitor.no_such_method",
        "repro.core.streaming:NoSuchClass.push_packet",
        "repro.dsp.hampel:no_such_function",
        "repro.no_such_module:anything",
        "repro.dsp.hampel",
    ],
)
def test_missing_targets_fail_loudly_and_leave_nothing_patched(target):
    from repro.core.streaming import StreamingMonitor

    original = StreamingMonitor.__dict__["push_packet"]
    shims = Shims(SpanRecorder(["a"]))
    shims.add("repro.core.streaming:StreamingMonitor.push_packet", layer=0)
    shims.add(target, layer=0)
    with pytest.raises(ShimError):
        shims.install()
    assert StreamingMonitor.__dict__["push_packet"] is original


def test_inherited_or_non_function_attributes_are_refused():
    shims = Shims()
    # A property is not a plain method.
    shims.add("repro.dsp.streaming_kernels.calibrator:StreamingCalibrator.n_rows")
    with pytest.raises(ShimError):
        shims.install()


def test_spans_need_a_recorder():
    with pytest.raises(ShimError):
        Shims().add("repro.dsp.hampel:hampel_filter", layer=0)


def test_repro_only_counts_calls_the_program_makes_to_a_library():
    import numpy as np
    import scipy.ndimage

    import repro.dsp.hampel as hampel

    original = scipy.ndimage.median_filter
    shims = Shims()
    shims.add("scipy.ndimage:median_filter", repro_only=True)
    with shims:
        assert scipy.ndimage.median_filter is original
        assert hampel.median_filter is not original
        hampel.rolling_median(np.arange(10.0), 3)
        scipy.ndimage.median_filter(np.arange(10.0), size=3)
    assert hampel.median_filter is original
    assert shims.snapshot_calls()["scipy.ndimage:median_filter"] == 1
