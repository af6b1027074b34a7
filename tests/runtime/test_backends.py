"""Backend seam contracts: bit-identity, chunking, error provenance.

Every :class:`~repro.runtime.backend.Backend` must be interchangeable:
same results in the same order as the serial reference, same
:class:`~repro.runtime.TaskError` provenance for a failing item —
whatever chunking was used and wherever the chunk ran.
"""

import math
import pickle

import pytest

from repro.runtime import (
    BACKEND_NAMES,
    ParallelExecutor,
    ProcessPoolBackend,
    SerialBackend,
    TaskError,
    make_backend,
)
from repro.runtime.backend import Backend


def square(x):
    return x * x


def fail_on_three(x):
    if x == 3:
        raise ValueError("boom at three")
    return x


class RecordingBackend(SerialBackend):
    """Serial backend that records the chunks it was handed."""

    def __init__(self):
        self.chunks = []

    def submit_chunks(self, fn, chunks):
        self.chunks.append([(start, list(items)) for start, items in chunks])
        return super().submit_chunks(fn, chunks)

    # Route map() through submit_chunks so the recording sees chunking.
    map = Backend.map


class TestSerialBackend:
    def test_map_matches_plain_loop(self):
        assert SerialBackend().map(square, [3, 1, 2]) == [9, 1, 4]

    def test_map_empty(self):
        assert SerialBackend().map(square, []) == []

    def test_closures_allowed(self):
        assert SerialBackend().map(lambda x: x + 1, [1, 2]) == [2, 3]

    def test_error_keeps_cause_and_index(self):
        with pytest.raises(TaskError) as exc_info:
            SerialBackend().map(fail_on_three, [1, 3, 5])
        assert exc_info.value.index == 1
        assert exc_info.value.item == 3
        assert "boom at three" in str(exc_info.value.__cause__)

    def test_submit_chunks_orders_and_offsets(self):
        chunks = [(0, [1, 2]), (2, [3, 4])]
        with pytest.raises(TaskError) as exc_info:
            SerialBackend().submit_chunks(fail_on_three, chunks)
        assert exc_info.value.index == 2  # global, not chunk-local
        out = SerialBackend().submit_chunks(square, chunks)
        assert out == [[1, 4], [9, 16]]

    def test_parallelism_is_one(self):
        assert SerialBackend().parallelism == 1


class TestProcessPoolBackend:
    def test_bit_identical_to_serial(self):
        items = list(range(17))
        assert ProcessPoolBackend(4).map(square, items) == SerialBackend().map(
            square, items
        )

    def test_chunk_size_never_changes_results(self):
        items = list(range(11))
        expected = [square(x) for x in items]
        for chunk in (1, 2, 5, 100):
            assert (
                ProcessPoolBackend(2).map(square, items, chunk_size=chunk)
                == expected
            )

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_mid_chunk_error_carries_global_index(self):
        # One chunk of five items: the failure happens mid-chunk inside
        # a worker process and must surface with the global index.
        with pytest.raises(TaskError) as exc_info:
            ProcessPoolBackend(2).map(
                fail_on_three, [0, 1, 2, 3, 4], chunk_size=5
            )
        assert exc_info.value.index == 3
        assert exc_info.value.item == 3
        assert "boom at three" in exc_info.value.message

    def test_parallelism_is_worker_count(self):
        assert ProcessPoolBackend(6).parallelism == 6


class TestChunkPolicy:
    def test_default_targets_four_chunks_per_slot(self):
        backend = ProcessPoolBackend(4)
        assert backend.resolve_chunk_size(160) == 10
        assert backend.resolve_chunk_size(16) == 1
        assert SerialBackend().resolve_chunk_size(0) == 1

    def test_explicit_chunk_size_wins(self):
        assert ProcessPoolBackend(4).resolve_chunk_size(160, 7) == 7

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            SerialBackend().resolve_chunk_size(10, 0)

    def test_matches_executor_resolution(self):
        for workers in (1, 2, 4):
            for n in (1, 7, 23, 160):
                assert ProcessPoolBackend(workers).resolve_chunk_size(
                    n
                ) == ParallelExecutor(workers=workers).backend.resolve_chunk_size(n)

    def test_map_chunks_cover_items_in_order(self):
        backend = RecordingBackend()
        out = backend.map(square, list(range(10)), chunk_size=3)
        assert out == [x * x for x in range(10)]
        [chunks] = backend.chunks
        assert [start for start, _ in chunks] == [0, 3, 6, 9]
        assert [item for _, items in chunks for item in items] == list(
            range(10)
        )


class TestExecutorResolveChunkSize:
    """The executor's chunk policy is its default backend's."""

    def test_explicit_chunk_size_wins(self):
        pool = ParallelExecutor(workers=4, chunk_size=3)
        assert pool.backend.resolve_chunk_size(100, pool.chunk_size) == 3

    def test_default_is_ceil_over_four_times_workers(self):
        for workers in (1, 2, 3, 8):
            pool = ParallelExecutor(workers=workers)
            for n_items in (1, 5, 23, 97, 160):
                assert pool.backend.resolve_chunk_size(n_items) == max(
                    1, math.ceil(n_items / (4 * workers))
                )

    def test_zero_items_still_positive(self):
        assert ParallelExecutor(workers=2).backend.resolve_chunk_size(0) == 1


class TestTaskErrorReduce:
    """TaskError must survive pickling across any process boundary."""

    def test_round_trip_preserves_fields(self):
        error = TaskError(7, {"threshold": 0.01}, "boom\ntraceback")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, TaskError)
        assert clone.index == 7
        assert clone.item == {"threshold": 0.01}
        assert clone.message == "boom\ntraceback"
        assert str(clone) == str(error)

    def test_reduce_rebuilds_from_real_fields(self):
        error = TaskError(3, (1, 2), "msg")
        cls, args = error.__reduce__()
        assert cls is TaskError
        assert args == (3, (1, 2), "msg")

    def test_worker_raised_error_survives_pool_round_trip(self):
        # The real path: raised in a worker process, pickled by the
        # pool machinery, re-raised in the parent with fields intact.
        with pytest.raises(TaskError) as exc_info:
            ProcessPoolBackend(2).map(
                fail_on_three, [3, 0, 1], chunk_size=1
            )
        assert exc_info.value.index == 0
        assert exc_info.value.item == 3


class TestExecutorBackendDelegation:
    def test_explicit_backend_is_used(self):
        backend = RecordingBackend()
        out = ParallelExecutor(backend=backend).map(square, range(9))
        assert out == [x * x for x in range(9)]
        assert backend.chunks  # the map went through the backend seam

    def test_explicit_backend_honours_executor_chunk_size(self):
        backend = RecordingBackend()
        ParallelExecutor(backend=backend, chunk_size=2).map(square, range(5))
        [chunks] = backend.chunks
        assert [start for start, _ in chunks] == [0, 2, 4]

    def test_all_backends_bit_identical(self):
        items = list(range(13))
        reference = SerialBackend().map(square, items)
        for backend in (ProcessPoolBackend(2), ProcessPoolBackend(3, None)):
            assert (
                ParallelExecutor(backend=backend).map(square, items)
                == reference
            )


class TestMakeBackend:
    def test_names_cover_specs(self):
        assert BACKEND_NAMES == ("local", "processes", "socket")

    def test_local(self):
        assert isinstance(make_backend("local"), SerialBackend)

    def test_processes_carries_workers(self):
        backend = make_backend("processes", workers=5)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.parallelism == 5

    def test_default_is_a_pool_only_for_several_workers(self):
        assert isinstance(make_backend(None), SerialBackend)
        backend = make_backend(None, workers=3)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.parallelism == 3

    def test_socket_requires_addresses(self):
        with pytest.raises(ValueError, match="worker address"):
            make_backend("socket")

    def test_socket_builds_dispatcher(self):
        from repro.runtime.remote import SocketBackend

        backend = make_backend("socket", addresses=["h1:9000", "h2:9001"])
        assert isinstance(backend, SocketBackend)
        assert backend.parallelism == 2

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            make_backend("carrier-pigeon")
