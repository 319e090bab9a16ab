"""Self time and span recording."""

import pytest

import spans


def test_self_time_nested_and_siblings():
    # root [0, 10] has siblings a [1, 4] and b [5, 9]; a has child c [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # children [1, 5] and [3, 7] overlap; [8, 12] runs past the parent's end.
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(10.0 - 6.0 - 2.0)


def test_recorder_links_parents_and_round_trips(tmp_path):
    rec = spans.SpanRecorder()
    inner = rec.spanned("inner", lambda x: x + 1)
    outer = rec.spanned("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    names, name, start, end, parent, counts = (
        rec.names, rec.name, rec.start, rec.end, rec.parent, rec.counts)
    assert [names[i] for i in name] == ["outer", "inner", "inner"]
    assert list(parent) == [-1, 0, 0]
    assert all(s <= e for s, e in zip(start, end))
    rec.dump(tmp_path)
    loaded = spans.load_spans(tmp_path)
    assert loaded[0] == names and list(loaded[5]) == list(counts)
    assert list(loaded[4]) == [-1, 0, 0]


def test_patch_reaches_names_imported_elsewhere_and_restores():
    from flowstable import experiments, prober

    original = prober.classify
    rec = spans.SpanRecorder()
    rec.patch(prober, "classify", lambda fn: rec.counted("classify", fn))
    try:
        assert experiments.classify is prober.classify is not original
    finally:
        rec.unpatch()
    assert experiments.classify is prober.classify is original
