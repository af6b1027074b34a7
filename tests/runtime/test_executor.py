"""ParallelExecutor: ordering, chunking, fallback and error contracts."""

import pytest

from repro.runtime import ParallelExecutor, TaskError
from repro.runtime.executor import _run_chunk


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=2, chunk_size=0)


class TestSerialFallback:
    def test_maps_in_order(self):
        out = ParallelExecutor(workers=1).map(square, [3, 1, 2])
        assert out == [9, 1, 4]

    def test_empty_items(self):
        assert ParallelExecutor(workers=1).map(square, []) == []

    def test_closures_allowed_serially(self):
        out = ParallelExecutor(workers=1).map(lambda x: x + 1, [1, 2])
        assert out == [2, 3]

    def test_error_carries_item_and_index(self):
        with pytest.raises(TaskError) as exc_info:
            ParallelExecutor(workers=1).map(fail_on_three, [1, 3, 5])
        assert exc_info.value.index == 1
        assert exc_info.value.item == 3
        assert "boom at three" in str(exc_info.value.__cause__)


class TestParallel:
    def test_results_ordered_and_identical_to_serial(self):
        items = list(range(17))
        serial = ParallelExecutor(workers=1).map(square, items)
        parallel = ParallelExecutor(workers=4).map(square, items)
        assert parallel == serial

    def test_chunk_size_does_not_change_results(self):
        items = list(range(11))
        expected = [square(x) for x in items]
        for chunk in (1, 2, 5, 100):
            got = ParallelExecutor(workers=2, chunk_size=chunk).map(
                square, items
            )
            assert got == expected

    def test_error_carries_global_index(self):
        with pytest.raises(TaskError) as exc_info:
            ParallelExecutor(workers=2, chunk_size=1).map(
                fail_on_three, [0, 1, 2, 3, 4]
            )
        assert exc_info.value.index == 3
        assert exc_info.value.item == 3

    @pytest.mark.slow
    def test_spawn_context_is_safe(self):
        # 'spawn' workers import everything fresh: proves the task
        # closure-free/pickling contract end to end.
        out = ParallelExecutor(workers=2, mp_context="spawn").map(
            square, [2, 4, 6]
        )
        assert out == [4, 16, 36]


class TestChunkHelpers:
    def test_default_chunk_size_balances_load(self):
        pool = ParallelExecutor(workers=4)
        assert pool.backend.resolve_chunk_size(16) == 1
        assert pool.backend.resolve_chunk_size(160) == 10
        assert ParallelExecutor(workers=1).backend.resolve_chunk_size(0) == 1

    def test_run_chunk_offsets_index(self):
        with pytest.raises(TaskError) as exc_info:
            _run_chunk(fail_on_three, 10, [1, 3])
        assert exc_info.value.index == 11
