"""Equal-key runs of a sorted array and the rank of each row in its
run."""

import numpy as np

from ocr_pipeline_ray.functions.segments import key_segments, segment_ranks


def test_runs_and_ranks():
    start, length = key_segments(np.array([1, 1, 2, 5, 5, 5]))
    assert start.tolist() == [0, 2, 3]
    assert length.tolist() == [2, 1, 3]
    assert segment_ranks(start, length).tolist() == [0, 1, 0, 0, 1, 2]


def test_empty_input():
    start, length = key_segments(np.array([], dtype=np.int64))
    assert (start.dtype, length.dtype) == (np.int64, np.int64)
    assert len(start) == len(length) == 0
    assert segment_ranks(start, length).tolist() == []
