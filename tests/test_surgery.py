import numpy as np
import pytest

from chainkd import surgery as S
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.surgery import (
    SurgeryError,
    apply_transform,
    default_alpha,
    interpolate,
    invert_expand,
    plan_expand,
    plan_subset,
)
from chainkd.transformer import ModelConfig


def cfg(layers, heads, d_model, d_ff, head_dim=4, vocab=11, max_seq=10, tied=True):
    return ModelConfig(layers, heads, head_dim, d_model, d_ff, vocab, max_seq, tied)


def make(config, seed=0, name="m"):
    return Checkpoint(config, M.init_random(config, seed), Meta(name=name, seed=seed))


SMALL = cfg(2, 2, 8, 16)
BIG = cfg(4, 3, 12, 24)


class TestPlans:
    def test_expand_2_to_4(self):
        assert plan_expand(SMALL, cfg(4, 2, 8, 16)).layer_map == (0, 0, 1, 1)

    def test_expand_identity_map(self):
        assert plan_expand(SMALL, SMALL).layer_map == (0, 1)

    def test_expand_3_to_5(self):
        p = plan_expand(cfg(3, 2, 8, 16), cfg(5, 2, 8, 16))
        assert p.layer_map == (0, 0, 1, 1, 2)

    def test_expand_rejects_shrink(self):
        with pytest.raises(SurgeryError):
            plan_expand(BIG, SMALL)

    def test_expand_rejects_head_dim_change(self):
        with pytest.raises(SurgeryError):
            plan_expand(SMALL, cfg(2, 2, 8, 16, head_dim=8))

    def test_subset_5_to_3(self):
        assert plan_subset(cfg(5, 2, 8, 16), cfg(3, 2, 8, 16)).layer_map == (0, 2, 4)

    def test_subset_identity(self):
        assert plan_subset(BIG, BIG).layer_map == (0, 1, 2, 3)

    def test_subset_to_single_layer(self):
        assert plan_subset(cfg(4, 2, 8, 16), cfg(1, 2, 8, 16)).layer_map == (0,)

    def test_subset_endpoints_kept(self):
        p = plan_subset(cfg(7, 2, 8, 16), cfg(3, 2, 8, 16))
        assert p.layer_map[0] == 0 and p.layer_map[-1] == 6

    def test_invert_first_occurrence(self):
        p = plan_expand(SMALL, cfg(4, 2, 8, 16))
        assert invert_expand(p).layer_map == (0, 2)

    def test_invert_identity(self):
        p = plan_expand(SMALL, SMALL)
        assert invert_expand(p).layer_map == (0, 1)

    def test_invert_rejects_subset(self):
        with pytest.raises(SurgeryError):
            invert_expand(plan_subset(BIG, SMALL))


class TestApplyTransform:
    def logits(self, ckpt, tokens):
        return M.forward(ckpt.config, ckpt.params, tokens).data

    def rand_tokens(self, seed, n=3, s=6, vocab=11):
        return np.random.default_rng(seed).integers(0, vocab, size=(n, s))

    def test_config_mismatch_rejected(self):
        plan = plan_expand(SMALL, BIG)
        with pytest.raises(SurgeryError):
            apply_transform(make(BIG), plan)

    def test_grow_only_d_ff_preserves_function(self):
        src = make(SMALL, 1)
        dst = cfg(2, 2, 8, 48)
        out = apply_transform(src, plan_expand(SMALL, dst))
        toks = self.rand_tokens(0)
        assert np.allclose(self.logits(src, toks), self.logits(out, toks), atol=1e-5)

    def test_grow_only_heads_preserves_function(self):
        src = make(SMALL, 2)
        dst = cfg(2, 5, 8, 16)
        out = apply_transform(src, plan_expand(SMALL, dst))
        toks = self.rand_tokens(1)
        assert np.allclose(self.logits(src, toks), self.logits(out, toks), atol=1e-5)

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_identity_mode_depth_growth_preserves_function(self, tied):
        src_cfg = cfg(2, 2, 8, 16, tied=tied)
        src = make(src_cfg, 3)
        dst = cfg(4, 2, 8, 16, tied=tied)
        out = apply_transform(src, plan_expand(src_cfg, dst, mode="identity"))
        toks = self.rand_tokens(2)
        assert np.allclose(self.logits(src, toks), self.logits(out, toks), atol=1e-5)

    def test_copy_mode_depth_growth_changes_function(self):
        src = make(SMALL, 3)
        dst = cfg(4, 2, 8, 16)
        out = apply_transform(src, plan_expand(SMALL, dst, mode="copy"))
        toks = self.rand_tokens(2)
        assert not np.allclose(self.logits(src, toks), self.logits(out, toks), atol=1e-5)

    def test_lineage_appended(self):
        src = make(SMALL, 1, name="anchor-2")
        out = apply_transform(src, plan_expand(SMALL, BIG))
        assert len(out.meta.lineage) == len(src.meta.lineage) + 1
        assert "anchor-2" in out.meta.lineage[-1]

    def test_ln_padding_uses_zero_gamma(self):
        src = make(SMALL, 1)
        out = apply_transform(src, plan_expand(SMALL, cfg(2, 2, 12, 16)))
        assert np.all(out.params["L0.ln1.g"].data[8:] == 0.0)
        assert np.all(out.params["final.ln.g"].data[8:] == 0.0)

    @pytest.mark.parametrize("mode,tied", [("copy", True), ("identity", True), ("copy", False), ("identity", False)],
                             ids=["copy", "identity", "copy-untied", "identity-untied"])
    def test_inverse_roundtrip_bitwise(self, mode, tied):
        rng = np.random.default_rng(9)
        for trial in range(6):
            layers = int(rng.integers(1, 4))
            heads = int(rng.integers(1, 4))
            dm = int(rng.integers(2, 8))
            ff = int(rng.integers(2, 12))
            src_cfg = cfg(layers, heads, dm, ff, tied=tied)
            dst_cfg = cfg(
                layers + int(rng.integers(0, 4)),
                heads + int(rng.integers(0, 3)),
                dm + int(rng.integers(0, 6)),
                ff + int(rng.integers(0, 8)),
                tied=tied,
            )
            src = make(src_cfg, seed=trial)
            e = plan_expand(src_cfg, dst_cfg, mode=mode)
            back = apply_transform(apply_transform(src, e), invert_expand(e))
            assert back.config == src.config
            for k in src.params:
                assert back.params[k].data.tobytes() == src.params[k].data.tobytes()

    def test_parameter_count_monotonicity(self):
        mid = cfg(3, 2, 10, 20)
        assert M.count_params(SMALL) < M.count_params(mid) < M.count_params(BIG)


class TestDefaultAlpha:
    def test_linear_formula(self):
        a = default_alpha(117_000_000, 345_000_000, 138_000_000)
        assert abs(a - (345 - 138) / (345 - 117)) < 1e-12
        assert abs(a - 0.908) < 1e-3

    def test_boundaries(self):
        assert default_alpha(10, 20, 10) == 1.0
        assert default_alpha(10, 20, 20) == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(SurgeryError):
            default_alpha(10, 10, 10)


class TestInterpolate:
    def test_alpha_one_bitwise_expand(self):
        small, large = make(SMALL, 1, "s"), make(BIG, 2, "l")
        dst = cfg(3, 2, 10, 20)
        out = interpolate(small, large, dst, 1.0)
        ref = apply_transform(small, plan_expand(SMALL, dst))
        assert all(out.params[k].data.tobytes() == ref.params[k].data.tobytes() for k in ref.params)

    def test_alpha_zero_bitwise_subset(self):
        small, large = make(SMALL, 1, "s"), make(BIG, 2, "l")
        dst = cfg(3, 2, 10, 20)
        out = interpolate(small, large, dst, 0.0)
        ref = apply_transform(large, plan_subset(BIG, dst))
        assert all(out.params[k].data.tobytes() == ref.params[k].data.tobytes() for k in ref.params)

    def test_equal_parents_any_alpha(self):
        c = make(SMALL, 5)
        out = interpolate(c, c, SMALL, 0.37)
        for k in c.params:
            assert np.allclose(out.params[k].data, c.params[k].data, atol=1e-7)

    def test_linearity(self):
        small, large = make(SMALL, 1), make(BIG, 2)
        dst = cfg(3, 2, 10, 20)
        ta = apply_transform(small, plan_expand(SMALL, dst))
        tb = apply_transform(large, plan_subset(BIG, dst))
        x = interpolate(small, large, dst, 0.7)
        y = interpolate(small, large, dst, 0.2)
        for k in x.params:
            diff = x.params[k].data - y.params[k].data
            expect = 0.5 * (ta.params[k].data - tb.params[k].data)
            assert np.allclose(diff, expect, atol=1e-6)

    def test_alpha_out_of_range(self):
        small, large = make(SMALL, 1), make(BIG, 2)
        with pytest.raises(SurgeryError):
            interpolate(small, large, SMALL, 1.5)

    def test_non_nested_rejected(self):
        small, large = make(SMALL, 1), make(BIG, 2)
        with pytest.raises(SurgeryError):
            interpolate(small, large, cfg(6, 2, 8, 16), 0.5)

    def test_lineage_records_alpha_and_parents(self):
        small, large = make(SMALL, 1, "s"), make(BIG, 2, "l")
        out = interpolate(small, large, cfg(3, 2, 10, 20), 0.25)
        assert "alpha=0.25" in out.meta.lineage[-1]
        assert "s,l" in out.meta.lineage[-1]

