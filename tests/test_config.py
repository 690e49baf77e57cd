import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tasr.config import PipelineConfig, load_config, validate_config
from tasr.errors import ConfigError, RangeViolation, WeightSumViolation

FIELDS = [field.name for field in dataclasses.fields(PipelineConfig)]


class TestValidateConfig:
    def test_defaults_are_valid(self):
        cfg = validate_config(PipelineConfig())
        assert cfg.k0 == 10
        assert cfg.theta == 0.3
        assert cfg.alpha == 0.5
        assert cfg.top_t == 3
        assert (cfg.w1, cfg.w2) == (0.5, 0.5)
        assert (cfg.wh, cfg.wt) == (0.5, 0.5)
        assert (cfg.lh, cfg.lr, cfg.lt) == (0.3, 0.3, 0.4)
        assert cfg.n_l1_candidates == 10
        assert cfg.l1_keep == 3
        assert cfg.m_l2_candidates == 20

    def test_symmetric_thirds_are_valid(self):
        cfg = PipelineConfig(lh=1 / 3, lr=1 / 3, lt=1 / 3)
        assert validate_config(cfg) is cfg

    def test_weight_sum_violation_names_group(self):
        with pytest.raises(WeightSumViolation) as exc:
            validate_config(PipelineConfig(w1=0.7, w2=0.7))
        assert exc.value.group == "w1+w2"

    def test_semantic_weight_sum_violation(self):
        with pytest.raises(WeightSumViolation) as exc:
            validate_config(PipelineConfig(lh=0.5, lr=0.5, lt=0.5))
        assert exc.value.group == "lh+lr+lt"

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"k0": 0}, "k0"),
            ({"top_t": -1}, "top_t"),
            ({"theta": 1.5}, "theta"),
            ({"alpha": -0.1}, "alpha"),
            ({"gamma": 2.0}, "gamma"),
            ({"l1_keep": 0}, "l1_keep"),
            ({"hop_scope": "both"}, "hop_scope"),
            ({"typing_mode": "hybrid"}, "typing_mode"),
            ({"top_t": 0}, "top_t"),
            ({"hop_scope": "chian"}, "hop_scope"),
            ({"typing_mode": "pur"}, "typing_mode"),
            ({"alpha": 2.0}, "alpha"),
        ],
    )
    def test_range_violations(self, kwargs, field):
        # raised when the config is built: an invalid one never exists
        with pytest.raises(RangeViolation) as exc:
            PipelineConfig(**kwargs)
        assert exc.value.field == field

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field", ["theta", "alpha", "gamma", "w1", "w2", "wh", "wt", "lh", "lr", "lt"]
    )
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(RangeViolation) as exc:
            validate_config(PipelineConfig(**{field: value}))
        assert exc.value.field == field

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["positive", "negative"])
    def test_int_too_large_for_a_float_rejected(self, value):
        # math.isfinite and float() would both raise OverflowError here
        with pytest.raises(RangeViolation) as exc:
            validate_config(PipelineConfig(alpha=value))
        assert exc.value.field == "alpha"
        assert len(str(exc.value)) < 300

    def test_negative_weight_rejected(self):
        with pytest.raises(RangeViolation):
            validate_config(PipelineConfig(w1=-0.5, w2=1.5))


class TestConfigIsCheckedWhenBuilt:
    def test_replace_checks_the_copy(self):
        with pytest.raises(RangeViolation) as exc:
            dataclasses.replace(PipelineConfig(), top_t=0)
        assert exc.value.field == "top_t"

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(FIELDS),
            st.one_of(
                st.integers(), st.floats(), st.booleans(), st.text(max_size=12),
                st.sampled_from(["current", "chain", "retrieval", "pure"]),
            ),
        )
    )
    def test_a_built_config_is_valid(self, kwargs):
        # floats() draws NaN and both infinities
        try:
            cfg = PipelineConfig(**kwargs)
        except ConfigError:
            return
        assert validate_config(cfg) is cfg


class TestLoadConfig:
    def test_json_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"k0": 5, "theta": 0.2, "hop_scope": "chain"}')
        cfg = load_config(path)
        assert (cfg.k0, cfg.theta, cfg.hop_scope) == (5, 0.2, "chain")
        assert cfg.alpha == 0.5  # untouched default

    def test_flat_key_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nk0 = 7\nalpha=0.25\ntyping_mode=pure\n")
        cfg = load_config(path)
        assert (cfg.k0, cfg.alpha, cfg.typing_mode) == (7, 0.25, "pure")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"kO": 5}')
        with pytest.raises(RangeViolation):
            load_config(path)

    def test_unknown_flat_key_rejected_whatever_its_value(self, tmp_path):
        # a value is parsed as its field's type; an unknown key has none and is named
        path = tmp_path / "cfg.txt"
        path.write_text("k0=7\nhop_scop=chain\n")
        with pytest.raises(RangeViolation, match="unknown keys: hop_scop"):
            load_config(path)

    def test_invalid_values_rejected_on_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"w1": 0.9, "w2": 0.9}')
        with pytest.raises(WeightSumViolation):
            load_config(path)

    @pytest.mark.parametrize(
        "name,text",
        [
            pytest.param("cfg.json", '{"w1": NaN, "w2": 0.5}', id="json"),
            pytest.param("cfg.txt", "w1=nan\n", id="key-value"),
        ],
    )
    def test_nan_weight_rejected_on_load(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(RangeViolation) as exc:
            load_config(path)
        assert exc.value.field == "w1"

    def test_int_too_large_for_a_float_rejected_on_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"alpha": 1' + "0" * 400 + "}")
        with pytest.raises(RangeViolation) as exc:
            load_config(path)
        assert exc.value.field == "alpha"

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(RangeViolation, match="must be an object"):
            load_config(path)

    def test_overrides_take_precedence_and_revalidate(self):
        cfg = validate_config(PipelineConfig()).with_overrides(theta=0.7, k0=None)
        assert cfg.theta == 0.7
        assert cfg.k0 == 10
        with pytest.raises(RangeViolation):
            cfg.with_overrides(theta=3.0)
