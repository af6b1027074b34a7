"""The result-store safety battery: hashing, integrity, memoization.

Three claims guard the cache against silently-wrong science:

1. **Key canonicalization is semantic.**  Representation details
   (dict insertion order, numpy vs Python scalars, tuple vs list,
   newly added defaulted dataclass fields) never change a key;
   semantic details (horizon, seed, parameter values, class identity,
   task function) always do.  Checked property-style with Hypothesis.
2. **Integrity failures degrade to recompute.**  Truncation, garbage,
   bit flips, version skew and unpicklable payloads each warn
   (:class:`StoreWarning`), delete the bad entry, and read as a miss —
   never a crash, never a wrong hit.
3. **The dispatch layers submit exactly the misses.**
   ``run_replications`` (both engines, fixed and adaptive) and the
   adaptive controller serve hits in the parent
   and recompute only what is missing, and a warm run is bit-identical
   to a cold one.
"""

import dataclasses
import json
import os
import pickle
import warnings
from dataclasses import dataclass, field, make_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.network as network_module
from repro.energy.battery import LinearBattery
from repro.models.network import (
    GridTopology,
    SensorNetworkModel,
    replication_key,
    simulate_node_segments_task,
)
from repro.models.wsn_node import NodeParameters, simulate_node_task
from repro.runtime.adaptive import LOCKSTEP_MIN_ROWS, run_replications
from repro.runtime.config import ResolvedExecution
from repro.runtime.store import (
    ENTRY_MAGIC,
    KEY_SCHEMA,
    STORE_SCHEMA,
    ResultStore,
    StoreWarning,
    canonical_json,
    canonicalize,
    request_key,
    task_key,
)
from repro.topology.dynamics import ChurnModel, NodeSegment
from repro.topology.generators import ClusterTreeTopology, RandomGeometricTopology
from repro.topology.traffic import MMPPTraffic

# ----------------------------------------------------------------------
# Module-level task functions (content-addressable: stable qualnames)
# ----------------------------------------------------------------------


def square(x):
    return x * x


def noisy(task):
    """threshold + seeded noise — a stand-in simulation replication."""
    threshold, seed = task
    return threshold + float(np.random.default_rng(seed).normal(0.0, 0.5))


def noisy_ensemble(tasks):
    """``noisy`` over a batch of tasks (the vectorized engine's form)."""
    return [noisy(task) for task in tasks]


def bad_ensemble(tasks):
    """A batch function that drops a value (contract violation)."""
    return noisy_ensemble(tasks)[:-1]


class CountingPool:
    """A serial backend that records every map call and item through it."""

    parallelism = 1

    def __init__(self):
        self.calls = []
        self.submitted = []

    def map(self, fn, items, chunk_size=None):
        items = list(items)
        self.calls.append(items)
        self.submitted.extend(items)
        return [fn(item) for item in items]


class TwoSlotPool(CountingPool):
    """A counting backend that advertises two execution slots."""

    parallelism = 2


POINTS = (0.1, 0.5)


def replicate(pool, store, seeds, engine="interpreted", **policy):
    """``run_replications`` over POINTS x ``seeds``; values per point.

    Replication ``r`` of point ``i`` is the task ``(POINTS[i],
    seeds[r])``, whichever the engine.
    """
    fields = {"replications": len(seeds), **policy}
    runs = run_replications(
        noisy,
        lambda i, r: (POINTS[i], seeds[r]),
        len(POINTS),
        ResolvedExecution(backend=pool, store=store, engine=engine, **fields),
        ensemble_fn=noisy_ensemble,
    )
    return [run.values for run in runs]


@dataclass(frozen=True)
class SpecA:
    horizon: float = 900.0
    seed: int = 2010


@dataclass(frozen=True)
class SpecB:  # same shape as SpecA on purpose: class identity must matter
    horizon: float = 900.0
    seed: int = 2010


@dataclass(frozen=True)
class SpecAChild(SpecA):  # inherits every field; its identity is its own
    pass


@dataclass(frozen=True)
class Tagged:
    horizon: float = 900.0
    tags: tuple = field(default_factory=tuple)
    notes: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Canonicalization properties
# ----------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False),
    st.text(max_size=12),
)


class TestCanonicalizationProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), json_scalars, max_size=6))
    def test_dict_insertion_order_never_matters(self, d):
        reversed_d = dict(reversed(list(d.items())))
        assert canonical_json(d) == canonical_json(reversed_d)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False, width=64))
    def test_numpy_float_equals_python_float(self, x):
        assert canonicalize(np.float64(x)) == canonicalize(x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-(2**40), 2**40))
    def test_numpy_int_equals_python_int(self, n):
        assert canonicalize(np.int64(n)) == canonicalize(n)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(json_scalars, max_size=6))
    def test_tuple_equals_list(self, xs):
        assert canonical_json(tuple(xs)) == canonical_json(xs)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_distinct_float_bits_give_distinct_keys(self, a, b):
        same_bits = a.hex() == b.hex()
        same_key = task_key(noisy, (a, 1)) == task_key(noisy, (b, 1))
        assert same_key == same_bits

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**31), st.integers(0, 2**31))
    def test_seed_is_semantic(self, s1, s2):
        k1 = task_key(noisy, (0.5, s1))
        k2 = task_key(noisy, (0.5, s2))
        assert (k1 == k2) == (s1 == s2)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_key_is_stable_across_calls(self, horizon):
        item = {"horizon": horizon, "seed": 7}
        assert task_key(noisy, item) == task_key(noisy, item)

    def test_task_function_is_semantic(self):
        item = (0.5, 7)
        assert task_key(noisy, item) != task_key(square, item)

    def test_nested_mapping_order(self):
        a = {"outer": {"x": 1, "y": 2}, "z": [1, 2]}
        b = {"z": (1, 2), "outer": {"y": 2, "x": 1}}
        assert canonical_json(a) == canonical_json(b)


class TestDataclassFieldRules:
    def test_newly_added_defaulted_field_keeps_the_key(self):
        # The schema-evolution scenario: a config dataclass grows a new
        # defaulted field between releases.  Old entries must stay valid.
        Old = make_dataclass(
            "Cfg", [("horizon", float), ("seed", int)], frozen=True
        )
        New = make_dataclass(
            "Cfg",
            [
                ("horizon", float),
                ("seed", int),
                ("engine_hint", str, dataclasses.field(default="auto")),
            ],
            frozen=True,
        )
        assert canonical_json(Old(900.0, 7)) == canonical_json(New(900.0, 7))
        # ... but setting the new field off its default is semantic.
        assert canonical_json(New(900.0, 7)) != canonical_json(
            New(900.0, 7, engine_hint="other")
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(allow_nan=False, min_value=1e-6, max_value=1e6),
        st.integers(0, 2**31),
    )
    def test_explicit_default_equals_omitted_default(self, horizon, seed):
        assert canonical_json(SpecA()) == canonical_json(
            SpecA(horizon=900.0, seed=2010)
        )
        changed = SpecA(horizon=horizon, seed=seed)
        base = SpecA()
        assert (canonical_json(changed) == canonical_json(base)) == (
            changed == base
        )

    def test_class_identity_is_semantic(self):
        assert canonical_json(SpecA()) != canonical_json(SpecB())

    def test_field_values_are_semantic(self):
        assert canonical_json(SpecA(horizon=901.0)) != canonical_json(SpecA())
        assert canonical_json(SpecA(seed=7)) != canonical_json(SpecA())

    def test_default_factory_field_at_its_default_is_dropped(self):
        assert canonicalize(Tagged()) == ["dc", f"{__name__}.Tagged", {}]
        assert canonical_json(Tagged(tags=(), notes={})) == canonical_json(
            Tagged()
        )
        assert canonicalize(Tagged(tags=(1,)))[2] == {"tags": ["l", [1]]}
        assert canonical_json(Tagged(notes={"a": 1})) != canonical_json(
            Tagged()
        )

    def test_subclass_hashes_under_its_own_class_id(self):
        # Canonicalize the parent first and the child after, and the
        # other way round: neither may borrow the other's class id.
        for order in ((SpecA, SpecAChild), (SpecAChild, SpecA)):
            forms = {cls: canonicalize(cls(horizon=1.0)) for cls in order}
            assert forms[SpecA] == [
                "dc", f"{__name__}.SpecA", {"horizon": ["f", (1.0).hex()]}
            ]
            assert forms[SpecAChild] == [
                "dc", f"{__name__}.SpecAChild", {"horizon": ["f", (1.0).hex()]}
            ]
        assert task_key(noisy, SpecAChild()) != task_key(noisy, SpecA())


class TestGoldenKeys:
    """Exact keys of real task shapes, as the store has always written them.

    A warm store is only as good as its keys: if the canonicalizer ever
    hashes one of these items differently, every entry written before
    becomes unreachable.  Such a change needs a ``KEY_SCHEMA`` bump and
    a new pin here, never a silent drift.
    """

    def test_static_network_node_task(self):
        task = (NodeParameters(arrival_rate=0.37), "open", 2.0, 2017)
        assert task_key(simulate_node_task, task) == (
            "d470fb427b15d7b4b8b820ac0a2bd73d8909397ea9551f11c18925a5d195de82"
        )

    def test_churn_segments_task(self):
        task = (
            NodeParameters(power_down_threshold=0.05),
            "open",
            MMPPTraffic(off_fraction=0.1),
            (NodeSegment(0.0, 1.5, 0.4, 11), NodeSegment(1.5, 0.5, 0.6, 12)),
        )
        assert task_key(simulate_node_segments_task, task) == (
            "8914efb7e9ec4b19df89233689ca6d60f9d408cf688dd37762652e50493a2ed7"
        )

    def test_fig14_sweep_point_task(self):
        # The last threshold point and second replication seed of
        # ``fig 14 --horizon 2 --seed 2010``.
        task = (
            NodeParameters(power_down_threshold=10.0),
            "closed",
            2.0,
            28168023395977068359358731476408410066,
        )
        assert task_key(simulate_node_task, task) == (
            "98b1529ecd2b542b22cb27d99900ac90c77c579fb12aa290e5b9c61e0ae148ff"
        )

    # A network replication's one store entry is its fold entry; these
    # pins guard every warm network entry.

    def test_static_network_fold_key(self):
        model = SensorNetworkModel(
            GridTopology(3, 3), NodeParameters(power_down_threshold=0.01)
        )
        assert replication_key(model, horizon=2.0, base_rate=0.5, seed=2017) == (
            "cefc0eeba320c10c5bda454c4fa903d05073cfb3f63d53416795563964a5c35f"
        )

    def test_churn_bursty_network_fold_key(self):
        model = SensorNetworkModel(
            ClusterTreeTopology(2, 2),
            NodeParameters(power_down_threshold=0.05),
            dynamics=ChurnModel(failure_rate=0.05, duty_spread=0.3),
            traffic=MMPPTraffic(2.0, 3.0, 0.2),
        )
        assert replication_key(model, horizon=2.0, base_rate=0.5, seed=2017) == (
            "6ac677824048924a4d58b7218ecf9567d52dc0d1685c29bdbfc17c5686adbd45"
        )


class TestCanonicalizationRejections:
    def test_lambda_is_rejected(self):
        with pytest.raises(TypeError, match="lambdas"):
            task_key(lambda x: x, 1)

    def test_closure_is_rejected(self):
        def make():
            y = 2

            def inner(x):
                return x + y

            return inner

        with pytest.raises(TypeError, match="content-addressable"):
            canonicalize(make())

    def test_opaque_object_is_rejected(self):
        with pytest.raises(TypeError, match="cannot canonicalize"):
            canonicalize(object())

    def test_module_level_callable_hashes_by_qualname(self):
        assert canonicalize(square) == ["fn", f"{__name__}:square"]


# ----------------------------------------------------------------------
# ResultStore basics
# ----------------------------------------------------------------------


class TestResultStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path)
        key = task_key(noisy, (0.5, 7))
        assert store.get(key) == (False, None)
        store.put(key, 42.0)
        assert store.get(key) == (True, 42.0)
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_persists_across_instances(self, tmp_path):
        key = task_key(noisy, (0.5, 7))
        ResultStore(tmp_path).put(key, {"energy": 1.25})
        assert ResultStore(tmp_path).get(key) == (True, {"energy": 1.25})

    def test_values_round_trip_bit_identically(self, tmp_path):
        store = ResultStore(tmp_path)
        value = (SpecA(horizon=3.0), np.float64(0.125), [1, 2, (3, "x")])
        key = task_key(noisy, (0.1, 1))
        store.put(key, value)
        _, loaded = store.get(key)
        assert pickle.dumps(loaded, 5) == pickle.dumps(value, 5)

    def test_stats_and_lines(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(task_key(noisy, (0.5, 1)), 1.0)
        store.put(task_key(noisy, (0.5, 2)), 2.0)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes > 0
        assert stats.puts == 2
        assert "entries : 2" in stats.lines()

    def test_flush_counters_survive_the_process(self, tmp_path):
        # What makes `repro.cli store stats` (a fresh process) useful.
        store = ResultStore(tmp_path)
        key = task_key(noisy, (0.5, 1))
        store.put(key, 1.0)
        store.get(key)
        store.get(task_key(noisy, (0.5, 99)))
        store.flush_counters()
        assert (store.hits, store.misses, store.puts) == (0, 0, 0)
        fresh = ResultStore(tmp_path).stats()
        assert (fresh.hits, fresh.misses, fresh.puts) == (1, 1, 1)

    def test_verify_and_gc_on_healthy_store(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(task_key(noisy, (0.5, 1)), 1.0)
        assert store.verify() == (1, [])
        assert store.gc() == (0, 0)

    def test_malformed_key_is_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        # garbage, uppercase (not canonical hex), short, a trailing
        # newline, path traversal
        for key in (
            "not-a-digest",
            "AB" * 32,
            "ab" * 31,
            "ab" * 32 + "\n",
            "../" + "ab" * 31,
        ):
            with pytest.raises(ValueError, match="64-char"):
                store.get(key)
            with pytest.raises(ValueError, match="64-char"):
                store.put(key, 1.0)
            with pytest.raises(ValueError, match="64-char"):
                store.contains(key)
        assert (store.hits, store.misses, store.puts) == (0, 0, 0)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        for seed in range(5):
            store.put(task_key(noisy, (0.5, seed)), float(seed))
        assert not list(store.objects_dir.glob("**/.*.tmp"))

    def test_contains_is_pure_introspection(self, tmp_path):
        # The serving layer's read-path probe: no counters, no payload
        # read, and a disabled store always answers False.
        store = ResultStore(tmp_path)
        key = task_key(noisy, (0.5, 7))
        assert not store.contains(key)
        store.put(key, 1.0)
        store.flush_counters()
        assert store.contains(key)
        assert (store.hits, store.misses) == (0, 0)

    def test_contains_answers_false_on_a_disabled_store(self, tmp_path):
        store, key, _path = _single_entry(tmp_path)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["store_schema"] = STORE_SCHEMA + 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(StoreWarning, match="store disabled"):
            skewed = ResultStore(tmp_path)
        assert not skewed.contains(key)  # entry exists, schema doesn't match


class TestRequestKey:
    def test_insertion_order_never_matters(self):
        a = request_key({"scenario": {"x": 1, "y": 2}, "smoke": False})
        b = request_key({"smoke": False, "scenario": {"y": 2, "x": 1}})
        assert a == b

    def test_semantic_changes_always_matter(self):
        base = request_key({"scenario": {"horizon": 2.0}})
        assert base != request_key({"scenario": {"horizon": 3.0}})
        assert base != request_key({"scenario": {"horizon": 2.0}, "s": 1})

    def test_distinct_from_task_key_namespace(self):
        # Same canonical payload, different key family: a request digest
        # can never collide into the task-entry address space.
        payload = {"threshold": 0.5, "seed": 7}
        assert request_key(payload) != task_key(noisy, payload)

    def test_shape_is_a_store_grade_digest(self):
        digest = request_key({"scenario": {}})
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


# ----------------------------------------------------------------------
# Network fold keys: every input of a replication is semantic
# ----------------------------------------------------------------------

FOLD_RUN = dict(horizon=2.0, base_rate=0.1, seed=2010)


def fold_model(**changes):
    """A small geometric network; ``changes`` replace its fields."""
    fields = dict(
        topology=RandomGeometricTopology(20, seed=3),
        params=NodeParameters(power_down_threshold=0.01),
    )
    return SensorNetworkModel(**{**fields, **changes})


FOLD_MODEL_CHANGES = {
    "battery": dict(battery=LinearBattery(900.0, 4.5, 0.85)),
    "topology_seed": dict(topology=RandomGeometricTopology(20, seed=4)),
    "traffic": dict(traffic=MMPPTraffic(2.0, 3.0)),
    "dynamics": dict(dynamics=ChurnModel(failure_rate=0.05)),
    "parameter": dict(params=NodeParameters(power_down_threshold=0.02)),
    "workload": dict(workload="closed"),
}


class TestNetworkFoldKeys:
    """A fold entry goes stale whenever a node entry it stands for would."""

    @staticmethod
    def base():
        return replication_key(fold_model(), **FOLD_RUN)

    @pytest.mark.parametrize("name", sorted(FOLD_MODEL_CHANGES))
    def test_each_model_field_is_semantic(self, name):
        changed = fold_model(**FOLD_MODEL_CHANGES[name])
        assert replication_key(changed, **FOLD_RUN) != self.base()

    @pytest.mark.parametrize(
        "name, value", [("horizon", 2.5), ("base_rate", 0.2), ("seed", 2011)]
    )
    def test_each_run_input_is_semantic(self, name, value):
        run = {**FOLD_RUN, name: value}
        assert replication_key(fold_model(), **run) != self.base()

    def test_fold_revision_is_semantic(self, monkeypatch):
        base = self.base()
        monkeypatch.setattr(
            network_module, "FOLD_REVISION", network_module.FOLD_REVISION + 1
        )
        assert self.base() != base

    def test_node_evaluator_is_semantic(self, monkeypatch):
        base = self.base()
        monkeypatch.setattr(network_module, "simulate_node_task", square)
        assert self.base() != base

    def test_an_equal_model_keys_alike(self):
        # A separately built equal model, and one whose layout has been
        # resolved by a run, share the key.
        used = fold_model()
        used.simulate(**FOLD_RUN)
        assert replication_key(used, **FOLD_RUN) == self.base()
        assert replication_key(fold_model(), **FOLD_RUN) == self.base()


# ----------------------------------------------------------------------
# Fault injection: every corruption degrades to a warned recompute
# ----------------------------------------------------------------------


def _single_entry(tmp_path, value=42.0):
    store = ResultStore(tmp_path)
    key = task_key(noisy, (0.5, 7))
    store.put(key, value)
    [path] = store._entry_files()
    return store, key, path


CORRUPTIONS = {
    "truncated_payload": lambda blob: blob[:-3],
    "truncated_below_header": lambda blob: blob[:10],
    "garbage_bytes": lambda blob: b"not a store entry at all",
    "checksum_bit_flip": lambda blob: (
        blob[:-1] + bytes([blob[-1] ^ 0x01])
    ),
    "future_entry_format": lambda blob: (
        b"RPRSTOR9" + blob[len(ENTRY_MAGIC) :]
    ),
    "empty_file": lambda blob: b"",
}


class TestFaultInjection:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corruption_degrades_to_warned_miss(self, tmp_path, name):
        store, key, path = _single_entry(tmp_path)
        path.write_bytes(CORRUPTIONS[name](path.read_bytes()))
        with pytest.warns(StoreWarning, match="recomputing"):
            assert store.get(key) == (False, None)
        assert store.corrupt == 1
        assert not path.exists(), "bad entry must be dropped so a put heals it"
        # The recomputed value heals the entry; reads verify again.
        store.put(key, 42.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.get(key) == (True, 42.0)

    def test_unpicklable_payload_with_valid_checksum(self, tmp_path):
        # Checksums pass but the payload is not a pickle: the unpickle
        # failure must still degrade to a warned miss, not an exception.
        import hashlib

        store, key, path = _single_entry(tmp_path)
        payload = b"this is not a pickle"
        path.write_bytes(
            ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload
        )
        with pytest.warns(StoreWarning, match="unpickle"):
            assert store.get(key) == (False, None)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_verify_flags_and_gc_reclaims(self, tmp_path, name):
        store, _key, path = _single_entry(tmp_path)
        store.put(task_key(noisy, (0.5, 8)), 43.0)
        path.write_bytes(CORRUPTIONS[name](path.read_bytes()))
        ok, bad = store.verify()
        assert ok == 1
        assert bad == [path]
        removed, _reclaimed = store.gc()
        assert removed == 1
        assert store.verify() == (1, [])

    def test_directory_at_the_entry_path_is_a_warned_miss(self, tmp_path):
        # os.open succeeds on a directory; only the read fails.  The
        # quarantine removes the directory, so the next read is a plain
        # miss.
        store = ResultStore(tmp_path)
        key = task_key(noisy, (0.5, 7))
        os.makedirs(store._entry_file(key))
        with pytest.warns(StoreWarning, match="unreadable"):
            assert store.get(key) == (False, None)
        assert not os.path.exists(store._entry_file(key))
        with warnings.catch_warnings():
            warnings.simplefilter("error", StoreWarning)
            assert store.get(key) == (False, None)
        assert (store.corrupt, store.misses, store.hits) == (1, 2, 0)

    def test_put_heals_a_directory_at_the_entry_path(self, tmp_path):
        store = ResultStore(tmp_path)
        key = task_key(noisy, (0.5, 7))
        os.makedirs(os.path.join(store._entry_file(key), "nested"))
        with pytest.warns(StoreWarning):
            assert store.get(key) == (False, None)
        store.put(key, 1.0)
        assert store.get(key) == (True, 1.0)

    def test_value_larger_than_one_read_chunk_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        value = np.random.default_rng(3).random(300_000 // 8)
        key = task_key(noisy, (0.5, 9))
        store.put(key, value)
        assert os.path.getsize(store._entry_file(key)) > 300_000
        hit, back = store.get(key)
        assert hit
        assert back.dtype == value.dtype
        assert np.array_equal(back, value)

    def test_manifest_schema_skew_disables_the_store(self, tmp_path):
        store, key, _path = _single_entry(tmp_path)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["store_schema"] = STORE_SCHEMA + 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(StoreWarning, match="store disabled"):
            skewed = ResultStore(tmp_path)
        assert not skewed.enabled
        assert skewed.get(key) == (False, None)  # reads miss
        skewed.put(key, 99.0)  # writes are skipped ...
        # ... so a same-schema instance still sees the original value.
        manifest["store_schema"] = STORE_SCHEMA
        store.manifest_path.write_text(json.dumps(manifest))
        assert ResultStore(tmp_path).get(key) == (True, 42.0)

    def test_key_schema_skew_also_disables(self, tmp_path):
        store = ResultStore(tmp_path)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["key_schema"] = KEY_SCHEMA + 1
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.warns(StoreWarning, match="store disabled"):
            assert not ResultStore(tmp_path).enabled

    def test_garbage_manifest_is_rewritten(self, tmp_path):
        store = ResultStore(tmp_path)
        store.manifest_path.write_text("{ not json")
        with pytest.warns(StoreWarning, match="unreadable"):
            reopened = ResultStore(tmp_path)
        assert reopened.enabled
        assert json.loads(reopened.manifest_path.read_text())[
            "store_schema"
        ] == STORE_SCHEMA

    def test_corrupt_entry_mid_run_recomputes_only_it(self, tmp_path):
        store = ResultStore(tmp_path)
        seeds = [0, 1, 2, 3]
        expected = replicate(CountingPool(), store, seeds)
        [victim] = [
            p
            for p in store._entry_files()
            if p.name == task_key(noisy, (POINTS[0], 2))
        ]
        blob = victim.read_bytes()
        victim.write_bytes(blob[:-2])
        pool = CountingPool()
        with pytest.warns(StoreWarning, match="recomputing"):
            warm = replicate(pool, store, seeds)
        assert warm == expected
        assert pool.submitted == [(POINTS[0], 2)]


# ----------------------------------------------------------------------
# run_replications submits exactly the misses, in either task shape
# ----------------------------------------------------------------------


class TestCachedMap:
    """The per-replication task shape (interpreted engine)."""

    def test_without_store_is_plain_map(self):
        pool = CountingPool()
        values = replicate(pool, None, [1, 2, 3])
        items = [(t, s) for t in POINTS for s in (1, 2, 3)]
        assert pool.calls == [items]
        assert [v for vs in values for v in vs] == [noisy(i) for i in items]

    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path)
        cold_pool = CountingPool()
        cold = replicate(cold_pool, store, [1, 2, 3])
        assert len(cold_pool.submitted) == 6
        warm_pool = CountingPool()
        warm = replicate(warm_pool, store, [1, 2, 3])
        assert warm_pool.calls == []
        assert warm == cold

    def test_partial_warm_submits_only_new_items(self, tmp_path):
        store = ResultStore(tmp_path)
        replicate(CountingPool(), store, [0, 1])
        pool = CountingPool()
        grown = [0, 2, 1, 3]
        result = replicate(pool, store, grown)
        assert pool.submitted == [
            (t, s) for t in POINTS for s in (2, 3)
        ]
        assert result == [[noisy((t, s)) for s in grown] for t in POINTS]


#: Four replications of both POINTS: one batch at the lockstep floor.
SEEDS4 = [1, 2, 3, 4]


class TestCachedEnsembleMap:
    """The batched form of the same tasks (vectorized engine)."""

    def test_cold_then_warm(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = replicate(CountingPool(), store, SEEDS4, "vectorized")
        warm_pool = CountingPool()
        warm = replicate(warm_pool, store, SEEDS4, "vectorized")
        assert warm_pool.submitted == []
        assert warm == cold

    def test_top_up_submits_only_the_tail(self, tmp_path):
        # The incremental re-run: raise the replication count and only
        # the new replications are computed, per point.
        store = ResultStore(tmp_path)
        replicate(CountingPool(), store, SEEDS4, "vectorized")
        pool = CountingPool()
        grown = replicate(pool, store, list(range(1, 9)), "vectorized")
        assert pool.submitted == [
            tuple((t, s) for t in POINTS for s in (5, 6, 7, 8))
        ]
        assert grown == [[noisy((t, s)) for s in range(1, 9)] for t in POINTS]

    def test_shared_keys_across_engines(self, tmp_path):
        # The engine-equivalence contract: per-replication keys written
        # by the interpreted shape serve the ensemble shape, and back.
        store = ResultStore(tmp_path)
        replicate(CountingPool(), store, SEEDS4)
        pool = CountingPool()
        replicate(pool, store, SEEDS4, "vectorized")
        assert pool.submitted == []
        replicate(CountingPool(), store, [5, 6, 7, 8], "vectorized")
        pool = CountingPool()
        replicate(pool, store, [5, 6, 7, 8])
        assert pool.submitted == []

    def test_short_ensemble_return_is_an_error(self):
        # The packed task holds both points' replications; one value
        # short is caught before any value is stored.
        with pytest.raises(ValueError, match="returned 7 values for 8 tasks"):
            run_replications(
                noisy,
                lambda i, r: (POINTS[i], r),
                len(POINTS),
                ResolvedExecution(replications=4, engine="vectorized"),
                ensemble_fn=bad_ensemble,
            )

    def test_vectorized_without_ensemble_fn_runs_per_task(self):
        # No batch form: the vectorized engine runs fn once per task,
        # with the values of the interpreted engine.
        pool = CountingPool()
        runs = run_replications(
            noisy,
            lambda i, r: (POINTS[i], r),
            len(POINTS),
            ResolvedExecution(backend=pool, replications=4, engine="vectorized"),
        )
        items = [(t, r) for t in POINTS for r in range(4)]
        assert pool.calls == [items]
        assert [v for run in runs for v in run.values] == [noisy(i) for i in items]


class TestEnsemblePacking:
    """At most one batch per executor slot, points packed strided."""

    GRID = (0.1, 0.2, 0.3, 0.4, 0.5)

    def _run(self, pool, store=None, n_points=len(GRID), **policy):
        fields = {"replications": 4, **policy}
        return run_replications(
            noisy,
            lambda i, r: (self.GRID[i], 10 + r),
            n_points,
            ResolvedExecution(
                backend=pool, store=store, engine="vectorized", **fields
            ),
            ensemble_fn=noisy_ensemble,
        )

    def test_serial_run_submits_one_task_for_every_point(self):
        pool = CountingPool()
        runs = replicate(pool, None, SEEDS4, "vectorized")
        assert pool.calls == [[tuple((t, s) for t in POINTS for s in SEEDS4)]]
        assert runs == [[noisy((t, s)) for s in SEEDS4] for t in POINTS]

    def test_two_slots_get_two_strided_tasks(self):
        pool = TwoSlotPool()
        runs = self._run(pool)
        reps = (10, 11, 12, 13)

        def batch(*points):
            return tuple((self.GRID[i], s) for i in points for s in reps)

        assert pool.calls == [[batch(0, 2, 4), batch(1, 3)]]
        assert [run.values for run in runs] == [
            [noisy((t, s)) for s in reps] for t in self.GRID
        ]

    def test_fewer_items_than_slots_gives_one_task_per_item(self):
        pool = TwoSlotPool()
        self._run(pool, n_points=1, replications=LOCKSTEP_MIN_ROWS)
        assert pool.calls == [
            [tuple((0.1, 10 + r) for r in range(LOCKSTEP_MIN_ROWS))]
        ]

    def test_cached_point_is_left_out_of_the_packed_task(self, tmp_path):
        store = ResultStore(tmp_path)
        seeds = list(range(1, 9))
        replicate(CountingPool(), store, seeds)
        # Point 1 is not cached at all.
        for s in seeds:
            os.unlink(store._entry_file(task_key(noisy, (POINTS[1], s))))
        store.puts = 0
        pool = CountingPool()
        warm = replicate(pool, store, seeds, "vectorized")
        assert pool.calls == [[tuple((POINTS[1], s) for s in seeds)]]
        assert store.puts == 8  # only point 1's misses; nothing for point 0
        assert warm == [[noisy((t, s)) for s in seeds] for t in POINTS]

    def test_a_store_hole_submits_only_the_missing_replication(self, tmp_path):
        # Every odd replication of both points is missing and the even
        # ones cached: the batch holds the odd ones alone, and only
        # they are stored.
        store = ResultStore(tmp_path)
        seeds = list(range(1, 9))
        replicate(CountingPool(), store, seeds)
        holes = [(t, s) for t in POINTS for s in seeds if s % 2]
        for task in holes:
            os.unlink(store._entry_file(task_key(noisy, task)))
        store.puts = 0
        pool = CountingPool()
        warm = replicate(pool, store, seeds, "vectorized")
        assert pool.calls == [[tuple(holes)]]
        assert store.puts == 8
        assert warm == [[noisy((t, s)) for s in seeds] for t in POINTS]

    def test_adaptive_rounds_pack_only_open_points(self):
        # Point 0 is noise-free and converges after the first round;
        # later rounds pack point 1 alone.
        def steady_or_noisy(tasks):
            return [t if t == 0.1 else noisy((t, s)) for t, s in tasks]

        pool = CountingPool()
        runs = run_replications(
            noisy,
            lambda i, r: (POINTS[i], r),
            len(POINTS),
            ResolvedExecution(
                backend=pool,
                engine="vectorized",
                ci_target=1e-9,
                replications=8,
                max_replications=16,
            ),
            ensemble_fn=steady_or_noisy,
        )
        assert pool.calls == [
            [tuple((t, r) for t in POINTS for r in range(8))],
            [tuple((0.5, r) for r in range(8, 16))],
        ]
        assert [run.converged for run in runs] == [True, False]
        assert [run.replications for run in runs] == [8, 16]


def refuse_ensemble(tasks):
    """A batch function that must not be reached."""
    raise AssertionError(f"ensemble_fn called with {len(tasks)} tasks")


class TestLockstepFloor:
    """Rounds below LOCKSTEP_MIN_ROWS tasks run fn once per task."""

    def _run(self, pool, n_points, replications, ensemble_fn=noisy_ensemble):
        return run_replications(
            noisy,
            lambda i, r: (0.1 * (i + 1), r),
            n_points,
            ResolvedExecution(
                backend=pool, replications=replications, engine="vectorized"
            ),
            ensemble_fn=ensemble_fn,
        )

    def test_seven_tasks_never_call_the_ensemble(self):
        pool = CountingPool()
        runs = self._run(pool, 1, 7, ensemble_fn=refuse_ensemble)
        assert pool.calls == [[(0.1, r) for r in range(7)]]
        assert runs[0].values == [noisy((0.1, r)) for r in range(7)]

    def test_eight_tasks_call_it_once(self):
        pool = CountingPool()
        runs = self._run(pool, 1, 8)
        assert pool.calls == [[tuple((0.1, r) for r in range(8))]]
        assert runs[0].values == [noisy((0.1, r)) for r in range(8)]

    @settings(max_examples=60, deadline=None)
    @given(
        n_points=st.integers(1, 6),
        replications=st.integers(1, 12),
        holes=st.sets(st.integers(0, 71), max_size=40),
    )
    def test_two_slots_never_get_an_ensemble_below_the_floor(
        self, tmp_path_factory, n_points, replications, holes
    ):
        # Store holes leave the points of a round uneven in size.
        store = ResultStore(tmp_path_factory.mktemp("store"))
        tasks = [
            (0.1 * (i + 1), r) for i in range(n_points) for r in range(replications)
        ]
        for j, task in enumerate(tasks):
            if j not in holes:
                store.put(task_key(noisy, task), noisy(task))
        pool = TwoSlotPool()
        runs = run_replications(
            noisy,
            lambda i, r: (0.1 * (i + 1), r),
            n_points,
            ResolvedExecution(
                backend=pool, store=store, replications=replications,
                engine="vectorized",
            ),
            ensemble_fn=noisy_ensemble,
        )
        misses = [t for j, t in enumerate(tasks) if j in holes]
        [call] = pool.calls or [[]]
        if len(misses) < LOCKSTEP_MIN_ROWS:
            assert call == misses
        else:
            assert 1 <= len(call) <= 2
            assert all(len(batch) >= LOCKSTEP_MIN_ROWS for batch in call)
            assert sorted(t for batch in call for t in batch) == sorted(misses)
        assert [v for run in runs for v in run.values] == [noisy(t) for t in tasks]


class TestReplicationPolicy:
    """Fixed and adaptive runs share one loop, one store and one plan."""

    ADAPTIVE = dict(ci_target=1e-9, replications=2)  # never converges

    @pytest.mark.parametrize("engine", ["interpreted", "vectorized"])
    def test_fixed_run_is_the_controllers_first_round(self, engine):
        # One map call over every replication, with exactly the items
        # the adaptive controller submits first from a floor of 3.
        seeds = [7, 8, 9, 10, 11]
        fixed_pool = CountingPool()
        fixed = replicate(fixed_pool, None, seeds[:3], engine)
        adaptive_pool = CountingPool()
        replicate(
            adaptive_pool,
            None,
            seeds,
            engine,
            replications=3,
            ci_target=1e-9,
            max_replications=5,
        )
        assert len(fixed_pool.calls) == 1
        assert fixed_pool.calls[0] == adaptive_pool.calls[0]
        assert len(adaptive_pool.calls) > 1  # the controller kept going
        assert [len(v) for v in fixed] == [3, 3]

    @pytest.mark.parametrize("engine", ["interpreted", "vectorized"])
    def test_adaptive_run_reads_a_fixed_runs_entries(self, tmp_path, engine):
        store = ResultStore(tmp_path)
        seeds = list(range(20, 26))
        fixed = replicate(CountingPool(), store, seeds[:4], engine)
        store.hits = store.puts = 0
        adaptive = replicate(
            CountingPool(),
            store,
            seeds,
            engine,
            max_replications=6,
            **self.ADAPTIVE,
        )
        for short, long in zip(fixed, adaptive):
            assert long[:4] == short
        assert store.hits == 2 * 4  # the fixed run's entries, both points
        assert store.puts == 2 * 2  # only the delta was computed
        assert adaptive == replicate(CountingPool(), None, seeds, engine)


# ----------------------------------------------------------------------
# The adaptive layer shares the same per-replication entries
# ----------------------------------------------------------------------


class TestAdaptiveStore:
    SETTINGS = dict(ci_target=1e-9, replications=2)  # never converges

    def _run(self, store, max_replications, **kwargs):
        return run_replications(
            noisy,
            lambda i, r: ((0.1, 0.5)[i], 100 + 17 * i + r),
            2,
            ResolvedExecution(
                store=store, max_replications=max_replications, **self.SETTINGS
            ),
            **kwargs,
        )

    def test_warm_adaptive_run_is_all_hits(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = self._run(store, 4)
        store.hits = store.misses = 0
        warm = self._run(store, 4)
        assert [r.values for r in warm] == [r.values for r in cold]
        assert store.misses == 0
        assert store.hits == sum(r.replications for r in cold)

    def test_raising_max_replications_reuses_the_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        short = self._run(store, 4)
        store.hits = store.misses = 0
        long = self._run(store, 8)
        for short_run, long_run in zip(short, long):
            assert long_run.values[:4] == short_run.values
        assert store.hits == 2 * 4  # the cached prefix, both points
        assert store.misses == 2 * 4  # only the delta was computed
        # ... and the topped-up run matches a cold uncached full run.
        uncached = self._run(None, 8)
        assert [r.values for r in long] == [r.values for r in uncached]

    def test_ensemble_path_reads_interpreted_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        interpreted = self._run(store, 4)
        store.hits = store.misses = 0
        vectorized = self._run(store, 4, ensemble_fn=noisy_ensemble)
        assert [r.values for r in vectorized] == [
            r.values for r in interpreted
        ]
        assert store.misses == 0

    def test_ensemble_path_tops_up_with_one_tail_per_round(self, tmp_path):
        store = ResultStore(tmp_path)
        self._run(store, 4, ensemble_fn=noisy_ensemble)
        store.hits = store.misses = store.puts = 0
        long = self._run(store, 8, ensemble_fn=noisy_ensemble)
        assert store.hits == 2 * 4
        assert store.puts == 2 * 4
        assert [r.values for r in long] == [
            r.values for r in self._run(None, 8)
        ]


def total(i, r, values):
    """Fold a grouped replication's task values into their sum."""
    return sum(values)


class TestGroupedReplications:
    """A grouped replication is one store entry; its tasks have none."""

    @staticmethod
    def tasks(i, r):
        return [(POINTS[i], 10 * r + k) for k in range(3)]

    @staticmethod
    def fold_key(i, r):
        return task_key(total, (POINTS[i], r))

    def _run(self, pool, store):
        return run_replications(
            noisy,
            self.tasks,
            len(POINTS),
            ResolvedExecution(backend=pool, store=store, replications=2),
            fold=total,
            fold_key=self.fold_key,
        )

    @pytest.mark.parametrize("only", ["fold", "fold_key"])
    def test_fold_and_fold_key_go_together(self, only):
        pair = {"fold": total, "fold_key": self.fold_key}
        with pytest.raises(TypeError, match="fold and fold_key"):
            run_replications(
                noisy, self.tasks, 1, ResolvedExecution(), **{only: pair[only]}
            )

    def test_a_replication_is_one_get_and_one_put(self, tmp_path):
        store = ResultStore(tmp_path)
        pool = CountingPool()
        cold = self._run(pool, store)
        assert (store.hits, store.misses, store.puts) == (0, 4, 4)
        assert len(pool.submitted) == 4 * 3
        assert {p.name for p in store._entry_files()} == {
            self.fold_key(i, r) for i in range(2) for r in range(2)
        }
        store.hits = store.misses = store.puts = 0
        warm = self._run(CountingPool(), store)
        assert (store.hits, store.misses, store.puts) == (4, 0, 0)
        assert [r.values for r in warm] == [r.values for r in cold]
        assert [r.values for r in self._run(CountingPool(), None)] == [
            r.values for r in cold
        ]
