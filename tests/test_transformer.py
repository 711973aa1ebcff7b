import numpy as np
import pytest

from chainkd import tensor as T
from chainkd import transformer as M
from chainkd.tensor import F64, GradTape, Tensor, TensorError, grad_check, no_grad
from chainkd.transformer import ModelConfig


TINY = ModelConfig(n_layers=2, n_heads=2, head_dim=8, d_model=16, d_ff=32, vocab_size=13, max_seq_len=12)


def zero_params(config, dtype=np.float32):
    params = {}
    for name, shape in M.param_shapes(config).items():
        if name.endswith(".g"):
            params[name] = Tensor(np.ones(shape, dtype=dtype), dtype=dtype)
        else:
            params[name] = Tensor(np.zeros(shape, dtype=dtype), dtype=dtype)
    return params


class TestConfig:
    def test_inner_width_decoupled_from_d_model(self):
        cfg = ModelConfig(n_layers=1, n_heads=3, head_dim=8, d_model=16, d_ff=32, vocab_size=11, max_seq_len=8)
        assert cfg.inner == 24
        assert M.param_shapes(cfg)["L0.attn.wq"] == (16, 24)

    def test_field_bounds(self):
        fields = dict(n_layers=1, n_heads=1, head_dim=1, d_model=1, d_ff=1, vocab_size=2, max_seq_len=2)
        for field, value in [("n_layers", 0), ("n_layers", 1.5), ("vocab_size", 100.0), ("d_model", "8"),
                             ("n_layers", True), ("tied_lm_head", 1), ("tied_lm_head", "yes")]:
            with pytest.raises(ValueError, match=f"ModelConfig.{field} must be"):
                ModelConfig(**{**fields, field: value})

    def test_structurally_le(self):
        small = ModelConfig(2, 2, 8, 16, 32, 13, 12)
        big = ModelConfig(4, 3, 8, 24, 64, 13, 12)
        assert M.structurally_le(small, big)
        assert not M.structurally_le(big, small)
        other_vocab = ModelConfig(2, 2, 8, 16, 32, 14, 12)
        assert not M.structurally_le(small, other_vocab)


class TestParamSet:
    def test_names_and_shapes_pure_function_of_config(self):
        a = M.param_shapes(TINY)
        b = M.param_shapes(ModelConfig(**TINY.to_dict()))
        assert a == b
        assert "lm_head.w" not in a

    def test_untied_head_present(self):
        cfg = ModelConfig(**{**TINY.to_dict(), "tied_lm_head": False})
        assert M.param_shapes(cfg)["lm_head.w"] == (16, 13)

    def test_head_view_addressable(self):
        shapes = M.param_shapes(TINY)
        d, inner = TINY.d_model, TINY.inner
        assert shapes["L0.attn.wq"] == (d, inner)
        # the inner axis splits exactly into [n_heads, head_dim]
        assert inner == TINY.n_heads * TINY.head_dim


class TestCountParams:
    def test_gpt2_base_preset(self):
        cfg = ModelConfig(n_layers=14, n_heads=12, head_dim=64, d_model=768, d_ff=3072,
                          vocab_size=50257, max_seq_len=1024, tied_lm_head=True)
        n = M.count_params(cfg)
        assert abs(n - 138e6) / 138e6 < 0.02

    def test_hand_counted_minimal(self):
        cfg = ModelConfig(n_layers=1, n_heads=1, head_dim=1, d_model=1, d_ff=1,
                          vocab_size=2, max_seq_len=2, tied_lm_head=True)
        # embed.tok 2, embed.pos 2, ln1 2, wq/wk/wv/wo 4, bq/bk/bv/bo 4,
        # ln2 2, ffn w1/b1/w2/b2 4, final ln 2
        assert M.count_params(cfg) == 22

    def test_tied_vs_untied_differ_by_d_model_x_vocab(self):
        tied = M.count_params(TINY)
        untied = M.count_params(ModelConfig(**{**TINY.to_dict(), "tied_lm_head": False}))
        assert untied - tied == TINY.d_model * TINY.vocab_size

    def test_matches_init_random_sizes(self):
        for seed in (0, 7):
            params = M.init_random(TINY, seed)
            assert M.count_params(TINY) == sum(p.size for p in params.values())


class TestInitRandom:
    def test_same_seed_bitwise_identical(self):
        a = M.init_random(TINY, 42)
        b = M.init_random(TINY, 42)
        assert all(a[k].data.tobytes() == b[k].data.tobytes() for k in a)

    def test_different_seeds_differ(self):
        a = M.init_random(TINY, 1)
        b = M.init_random(TINY, 2)
        assert any(a[k].data.tobytes() != b[k].data.tobytes() for k in a)

    def test_weight_stddev_near_002(self):
        cfg = ModelConfig(1, 2, 16, 32, 64, 503, 16)
        params = M.init_random(cfg, 3)
        std = params["embed.tok"].data.std()
        assert abs(std - 0.02) / 0.02 < 0.05

    def test_biases_zero_gammas_one(self):
        params = M.init_random(TINY, 0)
        assert np.all(params["L0.attn.bq"].data == 0)
        assert np.all(params["L1.ln1.g"].data == 1)


class TestForward:
    def test_zero_weights_give_uniform_logits(self):
        params = zero_params(TINY)
        logits = M.forward(TINY, params, np.array([[1, 2, 3]]))
        # all-zero embeddings collapse every position to the same logit row
        assert np.allclose(logits.data, logits.data[0, 0, 0])

    def test_identical_rows_identical_logits(self):
        params = M.init_random(TINY, 5)
        toks = np.array([[1, 2, 3, 4], [1, 2, 3, 4]])
        logits = M.forward(TINY, params, toks).data
        assert np.array_equal(logits[0], logits[1])

    def test_causality_bitwise(self):
        params = M.init_random(TINY, 6)
        base = np.array([[1, 2, 3, 4, 5]])
        perturbed = base.copy()
        perturbed[0, 3] = 9
        a = M.forward(TINY, params, base).data
        b = M.forward(TINY, params, perturbed).data
        assert a[0, :3].tobytes() == b[0, :3].tobytes()

    def test_out_of_range_token(self):
        params = M.init_random(TINY, 0)
        with pytest.raises(TensorError):
            M.forward(TINY, params, np.array([[13]]))

    def test_sequence_too_long(self):
        params = M.init_random(TINY, 0)
        with pytest.raises(TensorError):
            M.forward(TINY, params, np.zeros((1, 13), dtype=int))


class TestLossCE:
    def test_uniform_logits_ln_vocab(self):
        logits = Tensor(np.zeros((1, 4, 13)))
        targets = np.array([[1, 2, 3, 4]])
        mask = np.ones((1, 4))
        loss = M.loss_ce(logits, targets, mask)
        assert abs(loss.item() - np.log(13)) < 1e-6

    def test_confident_correct_near_zero(self):
        logits = np.full((1, 3, 13), -50.0, dtype=np.float32)
        targets = np.array([[5, 6, 7]])
        for t in range(3):
            logits[0, t, targets[0, t]] = 50.0
        loss = M.loss_ce(Tensor(logits), targets, np.ones((1, 3)))
        assert loss.item() < 1e-6

    def test_by_hand_three_tokens(self):
        logits = np.array([[[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]]])
        targets = np.array([[0, 1, 0]])
        mask = np.ones((1, 3))
        p0 = np.exp(1.0) / (np.exp(1.0) + 1.0)
        p1 = 0.5
        p2 = 1.0 / (1.0 + np.exp(2.0))
        expected = -(np.log(p0) + np.log(p1) + np.log(p2)) / 3.0
        loss = M.loss_ce(Tensor(logits, dtype=F64), targets, mask)
        assert abs(loss.item() - expected) < 1e-12

    def test_empty_mask_rejected(self):
        with pytest.raises(TensorError):
            M.loss_ce(Tensor(np.zeros((1, 2, 13))), np.zeros((1, 2), dtype=int), np.zeros((1, 2)))


class TestSample:
    def test_greedy_equals_argmax(self):
        params = M.init_random(TINY, 8)
        a = M.sample(TINY, params, [[1, 2]], temperature=1.0, max_new=5, seeds=[0], greedy=True)
        b = M.sample(TINY, params, [[1, 2]], temperature=1.0, max_new=5, seeds=[99], greedy=True)
        assert a.tolist() == b.tolist()  # greedy ignores the rng
        with no_grad():
            logits = M.forward(TINY, params, a[:, :-1]).data
        assert a[0, 2:].tolist() == np.argmax(logits[0, 1:], axis=-1).tolist()

    def test_same_seed_same_output(self):
        params = M.init_random(TINY, 8)
        a = M.sample(TINY, params, [[1]], temperature=1.0, max_new=6, seeds=[3])
        b = M.sample(TINY, params, [[1]], temperature=1.0, max_new=6, seeds=[3])
        assert a.shape == (1, 7) and a.tolist() == b.tolist()

    def test_degenerate_model_constant_continuation(self):
        params = zero_params(TINY)
        # force one huge logit: final LN bias points along dim 0, and only
        # token 7's tied embedding has weight there
        emb = np.zeros((13, 16), dtype=np.float32)
        emb[7, 0] = 1.0
        beta = np.zeros(16, dtype=np.float32)
        beta[0] = 30.0
        params["embed.tok"] = Tensor(emb)
        params["final.ln.b"] = Tensor(beta)
        out = M.sample(TINY, params, [[1], [2]], temperature=1.0, max_new=4, seeds=[0, 1])
        assert out[:, 1:].tolist() == [[7, 7, 7, 7]] * 2

    def test_prompt_too_long(self):
        params = M.init_random(TINY, 0)
        with pytest.raises(TensorError):
            M.sample(TINY, params, [list(range(13))], 1.0, 1, [0])

    def test_prompt_plus_max_new_past_max_seq_len(self):
        params = M.init_random(TINY, 0)
        with pytest.raises(TensorError, match="exceeds max_seq_len"):
            M.sample(TINY, params, [list(range(10))], 1.0, 3, [0])
        assert M.sample(TINY, params, [list(range(10))], 1.0, 2, [0]).shape == (1, 12)

    def test_temperature_positive(self):
        params = M.init_random(TINY, 0)
        for temperature in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(TensorError):
                M.sample(TINY, params, [[1]], temperature, 1, [0])

    def test_malformed_prompts_and_seeds(self):
        params = M.init_random(TINY, 0)
        for prompts, seeds in (([[1, 2], [3]], [0, 1]), ([[]], [0]), ([[1]], [0, 1]), ([[1.0]], [0])):
            with pytest.raises(TensorError):
                M.sample(TINY, params, prompts, 1.0, 1, seeds)

    def test_cached_logits_match_forward(self):
        # the cache changes the float rounding, so compare within a tolerance
        params = M.init_random(TINY, 4)
        rows = np.random.default_rng(0).integers(0, 13, size=(3, TINY.max_seq_len))
        cache = M.KVCache(TINY, 3, TINY.max_seq_len)
        with no_grad():
            cached = M.forward(TINY, params, rows[:, :4], cache).data
            assert np.allclose(cached, M.forward(TINY, params, rows[:, :4]).data, rtol=0, atol=1e-5)
            for t in range(4, TINY.max_seq_len):
                last = M.forward(TINY, params, rows[:, t:t + 1], cache).data[:, -1]
                full = M.forward(TINY, params, rows[:, :t + 1]).data[:, -1]
                assert cache.pos == t + 1
                assert np.abs(last - full).max() <= 1e-5
            with pytest.raises(TensorError):
                M.forward(TINY, params, rows[:, :1], cache)  # the cache is full

    def test_cached_forward_refuses_a_tape(self):
        params = M.init_random(TINY, 4)
        cache = M.KVCache(TINY, 1, 4)
        with GradTape(), pytest.raises(TensorError, match="no_grad"):
            M.forward(TINY, params, [[1, 2]], cache)

    def test_one_forward_per_new_token(self, monkeypatch):
        params = M.init_random(TINY, 4)
        calls = []
        forward = M.forward
        monkeypatch.setattr(M, "forward", lambda *a: calls.append(np.shape(a[2])) or forward(*a))
        M.sample(TINY, params, [[1, 2, 3]] * 5, 1.0, 4, range(5))
        assert calls == [(5, 3), (5, 1), (5, 1), (5, 1)]


class TestGradients:
    def test_full_model_grad_check(self):
        params = {k: v.astype(F64) for k, v in M.init_random(TINY, 9).items()}
        names = sorted(params)
        tokens = np.array([[1, 2, 3, 4, 5, 6]])
        targets = np.array([[2, 3, 4, 5, 6, 7]])
        mask = np.ones((1, 6))

        def f(plist):
            ps = dict(zip(names, plist))
            return M.loss_ce(M.forward(TINY, ps, tokens), targets, mask)

        err = grad_check(f, [params[n] for n in names], samples_per_param=4, seed=0)
        assert err < 1e-4
