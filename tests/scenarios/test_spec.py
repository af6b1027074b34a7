"""Tests for the declarative scenario schema (repro.scenarios.spec).

The two property classes mirror ``tests/integration/test_random_nets.py``:
Hypothesis generates valid specs and asserts the documented round-trip
law, then mutates/drops keys and asserts every rejection is a
``ScenarioError`` that *names the bad key* — the schema's contract.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.config import ExecutionConfig
from repro.scenarios import (
    SPEC_VERSION,
    SUPPORTED_VERSIONS,
    ScenarioError,
    ScenarioSpec,
    apply_overrides,
    load_scenario,
    parse_override,
    parse_value,
)
from repro.scenarios.spec import SCENARIO_MODELS, _params_schema

FUZZ_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def valid_spec_dict(draw):
    """A random valid raw spec mapping, params possibly partial."""
    model = draw(st.sampled_from(["fig", "table", "node-sweep", "validate", "network"]))
    params = {}
    if model == "fig":
        params["number"] = draw(st.sampled_from([4, 5, 6, 7, 8, 9, 14, 15]))
        if draw(st.booleans()):
            params["horizon"] = draw(st.floats(0.5, 100.0, allow_nan=False))
    elif model == "table":
        params["number"] = draw(st.sampled_from([4, 5, 6]))
    elif model == "node-sweep":
        if draw(st.booleans()):
            params["workload"] = draw(st.sampled_from(["closed", "open"]))
    elif model == "network":
        if draw(st.booleans()):
            params["topology"] = draw(st.sampled_from(["line", "star", "grid"]))
        if draw(st.booleans()):
            params["grid"] = [draw(st.integers(1, 8)), draw(st.integers(1, 8))]
        if draw(st.booleans()):
            params["sweep"] = draw(st.booleans())
    if draw(st.booleans()):
        params["seed"] = draw(st.integers(0, 10**6))
    execution = {}
    if draw(st.booleans()):
        execution["workers"] = draw(st.integers(1, 8))
    if draw(st.booleans()):
        execution["replications"] = draw(st.integers(1, 8))
    if draw(st.booleans()):
        execution["engine"] = draw(st.sampled_from(["interpreted", "vectorized"]))
    data = {
        "version": SPEC_VERSION,
        "name": draw(st.sampled_from(["a", "spec-b", "run_3"])),
        "model": model,
        "params": params,
    }
    if execution or draw(st.booleans()):
        data["execution"] = execution
    if draw(st.booleans()):
        data["outputs"] = {"format": "text"}
    return data


class TestRoundTrip:
    @FUZZ_SETTINGS
    @given(data=valid_spec_dict())
    def test_from_dict_to_dict_round_trips(self, data):
        spec = ScenarioSpec.from_dict(data)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.to_dict() == spec.to_dict()

    @FUZZ_SETTINGS
    @given(data=valid_spec_dict())
    def test_to_dict_is_json_serialisable(self, data):
        spec = ScenarioSpec.from_dict(data)
        json.dumps(spec.to_dict())

    @FUZZ_SETTINGS
    @given(data=valid_spec_dict())
    def test_canonical_dict_ignores_execution(self, data):
        spec = ScenarioSpec.from_dict(data)
        heavier = dict(data)
        heavier["execution"] = {"workers": 8, "engine": "vectorized"}
        heavier["name"] = "renamed"
        assert (
            ScenarioSpec.from_dict(heavier).canonical_dict()
            == spec.canonical_dict()
        )


#: (mutation, substring the error must contain) — every entry corrupts
#: one key of a valid spec; the diagnostic must name that key.
_MUTATIONS = [
    (lambda d: d.update(version=99), "version"),
    (lambda d: d.update(name=""), "name"),
    (lambda d: d.update(model="quantum"), "model"),
    (lambda d: d.update(bogus=1), "bogus"),
    (lambda d: d.pop("name"), "name"),
    (lambda d: d.pop("model"), "model"),
    (lambda d: d["params"].update(number=3), "params.number"),
    (lambda d: d["params"].update(horizon=-1.0), "params.horizon"),
    (lambda d: d["params"].update(seed="twenty"), "params.seed"),
    (lambda d: d["params"].update(mystery=1), "params.mystery"),
    (lambda d: d["params"].pop("number"), "params.number"),
    (lambda d: d.update(execution={"workers": 0}), "workers"),
    (lambda d: d.update(execution={"engine": "turbo"}), "engine"),
    (lambda d: d.update(execution={"warp": 9}), "warp"),
    (lambda d: d.update(outputs={"format": "xml"}), "outputs.format"),
    (lambda d: d.update(outputs={"sink": "s3"}), "outputs.sink"),
    (lambda d: d.update(smoke={"engine.workers": 1}), "smoke.engine.workers"),
]


class TestRejectionsNameTheKey:
    def base(self):
        return {
            "version": SPEC_VERSION,
            "name": "fig14",
            "model": "fig",
            "params": {"number": 14, "horizon": 2.0, "seed": 2010},
        }

    def test_base_is_valid(self):
        ScenarioSpec.from_dict(self.base())

    @pytest.mark.parametrize(
        ("mutate", "expected"),
        _MUTATIONS,
        ids=[expected for _, expected in _MUTATIONS],
    )
    def test_mutated_spec_rejected_with_key_named(self, mutate, expected):
        data = self.base()
        mutate(data)
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert expected in str(excinfo.value)

    @FUZZ_SETTINGS
    @given(data=valid_spec_dict(), bad_key=st.sampled_from(
        ["params", "execution", "outputs"]
    ), junk=st.sampled_from(["x", 3, [1]]))
    def test_fuzzed_junk_key_rejected_naming_it(self, data, bad_key, junk):
        data = dict(data)
        block = dict(data.get(bad_key) or {})
        block[f"zz_{junk!r}"[:6]] = junk
        data[bad_key] = block
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert bad_key in str(excinfo.value) or "zz" in str(excinfo.value)


def _float_params():
    """(model, key) of every float-valued parameter of the schema.

    A float parameter is one whose check accepts ``0.5``: integer,
    choice, grid and switch checks all refuse it.
    """
    out = []
    for model in SCENARIO_MODELS:
        for key, param in _params_schema(model, SPEC_VERSION).items():
            try:
                param.check(f"params.{key}", 0.5)
            except ScenarioError:
                continue
            out.append((model, key))
    return out


_REQUIRED_PARAMS = {"fig": {"number": 14}, "table": {"number": 4}}


class TestNonFiniteNumbers:
    def test_every_model_has_float_params_covered(self):
        models = {model for model, _ in _float_params()}
        assert models == {"fig", "table", "node-sweep", "network"}

    @FUZZ_SETTINGS
    @given(
        target=st.sampled_from(_float_params()),
        bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_float_params_reject_non_finite_naming_the_key(self, target, bad):
        # NaN and the infinities pass a bare ``value <= 0`` test and
        # would hang the run; the check must refuse them by name.
        model, key = target
        params = {**_REQUIRED_PARAMS.get(model, {}), key: bad}
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(
                {"name": "n", "model": model, "params": params}
            )
        assert f"params.{key}" in str(excinfo.value)
        assert "finite" in str(excinfo.value)


class TestDefaultsAndNormalisation:
    def test_params_defaults_filled(self):
        spec = ScenarioSpec.from_dict(
            {"version": 1, "name": "n", "model": "fig", "params": {"number": 14}}
        )
        assert spec.params["seed"] == 2010
        assert spec.params["horizon"] is None

    def test_network_grid_string_normalised(self):
        spec = ScenarioSpec.from_dict(
            {
                "version": 1,
                "name": "n",
                "model": "network",
                "params": {"grid": "4x3"},
            }
        )
        assert spec.params["grid"] == (4, 3)
        # and to_dict() re-emits plain JSON
        assert spec.to_dict()["params"]["grid"] == [4, 3]

    def test_execution_mapping_becomes_config(self):
        spec = ScenarioSpec.from_dict(
            {
                "version": 1,
                "name": "n",
                "model": "validate",
                "execution": {"workers": 2},
            }
        )
        assert spec.execution == ExecutionConfig(workers=2)


class TestOverrides:
    def test_parse_override_json_values(self):
        assert parse_override("params.horizon=2.5") == ("params.horizon", 2.5)
        assert parse_override("params.grid=[3,3]") == ("params.grid", [3, 3])
        assert parse_override("execution.backend=processes") == (
            "execution.backend",
            "processes",
        )

    def test_parse_value_reads_float_spellings_json_lacks(self):
        # A flag value and an override value of the same text must
        # reach the check as the same value: ``nan`` as JSON's ``NaN``.
        assert math.isnan(parse_value("nan"))
        assert math.isnan(parse_value("NaN"))
        assert parse_value("inf") == parse_value("Infinity") == math.inf
        assert parse_value("10x10") == "10x10"
        assert parse_value("5") == 5

    def test_parse_override_requires_equals(self):
        with pytest.raises(ScenarioError, match="KEY=VALUE"):
            parse_override("params.horizon")

    def test_apply_overrides_does_not_mutate(self):
        data = {"params": {"horizon": 900.0}}
        out = apply_overrides(data, ["params.horizon=2.0"])
        assert out["params"]["horizon"] == 2.0
        assert data["params"]["horizon"] == 900.0

    def test_override_through_scalar_named(self):
        with pytest.raises(ScenarioError, match="params.horizon"):
            apply_overrides(
                {"params": {"horizon": 900.0}}, ["params.horizon.x=1"]
            )

    def test_with_overrides_revalidates(self):
        spec = ScenarioSpec.from_dict(
            {"version": 1, "name": "n", "model": "fig", "params": {"number": 14}}
        )
        assert spec.with_overrides(["params.number=15"]).params["number"] == 15
        with pytest.raises(ScenarioError, match="params.number"):
            spec.with_overrides(["params.number=3"])


class TestLoadScenario:
    def test_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {"version": 1, "name": "n", "model": "validate", "params": {}}
            )
        )
        assert load_scenario(path).model == "validate"

    def test_missing_file_is_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text("x = 1")
        with pytest.raises(ScenarioError, match=".toml"):
            load_scenario(path)

    def test_smoke_block_applied_then_overrides_win(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "n",
                    "model": "fig",
                    "params": {"number": 14, "horizon": 900.0},
                    "smoke": {"params.horizon": 2.0},
                }
            )
        )
        assert load_scenario(path).params["horizon"] == 900.0
        assert load_scenario(path, smoke=True).params["horizon"] == 2.0
        spec = load_scenario(
            path, overrides=["params.horizon=5.0"], smoke=True
        )
        assert spec.params["horizon"] == 5.0

    def test_gallery_files_validate(self):
        # Every shipped scenario must parse, validate, and carry a
        # usable smoke shape (PyYAML is present in CI).
        pytest.importorskip("yaml")
        from pathlib import Path

        gallery = Path(__file__).resolve().parents[2] / "scenarios"
        files = sorted(gallery.glob("*.yaml"))
        assert len(files) >= 4
        for path in files:
            spec = load_scenario(path)
            smoked = load_scenario(path, smoke=True)
            assert smoked.model == spec.model


class TestSchemaVersions:
    """The v1/v2 compatibility contract of the versioned schema."""

    def _network(self, version, **params):
        return {
            "version": version,
            "name": "n",
            "model": "network",
            "params": params,
        }

    def test_current_version_and_support_window(self):
        assert SPEC_VERSION == 2
        assert SUPPORTED_VERSIONS == (1, 2)

    def test_v2_keys_accepted_with_defaults(self):
        spec = ScenarioSpec.from_dict(
            self._network(2, topology="geometric", nodes=50)
        )
        assert spec.params["failure_rate"] == 0.0
        assert spec.params["duty_spread"] == 0.0
        assert spec.params["traffic"] == "poisson"
        assert spec.params["radius"] is None

    def test_v1_spec_gets_no_v2_defaults(self):
        # A version-1 file must round-trip byte-identically, so the
        # v2-only keys may not silently appear in its params.
        spec = ScenarioSpec.from_dict(self._network(1, topology="line"))
        for key in ("failure_rate", "duty_spread", "traffic", "radius"):
            assert key not in spec.params
        assert spec.to_dict()["version"] == 1

    def test_v2_key_under_v1_names_key_and_version(self):
        with pytest.raises(ScenarioError) as excinfo:
            ScenarioSpec.from_dict(self._network(1, failure_rate=0.01))
        message = str(excinfo.value)
        assert "params.failure_rate" in message
        assert "version 2" in message
        assert "declares version 1" in message

    def test_v2_topologies_rejected_under_v1(self):
        with pytest.raises(ScenarioError, match="topology"):
            ScenarioSpec.from_dict(self._network(1, topology="geometric"))

    def test_future_version_rejected_naming_the_window(self):
        with pytest.raises(ScenarioError, match="not supported"):
            ScenarioSpec.from_dict(self._network(3, topology="line"))

    def test_v2_values_still_validated(self):
        with pytest.raises(ScenarioError, match="params.traffic"):
            ScenarioSpec.from_dict(self._network(2, traffic="lumpy"))
        with pytest.raises(ScenarioError, match="params.duty_spread"):
            ScenarioSpec.from_dict(self._network(2, duty_spread=2.0))
