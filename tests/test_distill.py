import math
import os
from itertools import islice

import numpy as np
import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
from chainkd import procs as P
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.distill import (
    AdamState,
    BridgeSpec,
    DistillConfig,
    DistillError,
    DivergenceError,
    adam_step,
    check_chain,
    distill_edge,
    forward_kl_loss,
    reverse_kl_loss,
    run_bridge,
    run_direct_distill,
    run_stepwise_chain,
    seqkd_generate,
)
from chainkd.tensor import F64, Tensor
from chainkd.transformer import ModelConfig

CHAR = tok.char_vocab()
BYTE = tok.byte_vocab()


def cfg(layers, heads, d_model, d_ff, vocab=100, head_dim=4, max_seq=64):
    return ModelConfig(layers, heads, head_dim, d_model, d_ff, vocab, max_seq)


def ckpt(config, seed=0, name="m"):
    return Checkpoint(config, M.init_random(config, seed), Meta(name=name, seed=seed))


def corpus():
    return D.gen_markov(11, n_docs=60, doc_len=60, order=1, alphabet="abcdefgh")


def cpus(monkeypatch, n):
    # n allowed CPUs: the affinity set, and no cgroup quota to cap it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(P, "_CGROUP_ROOT", "/nonexistent")


# the 2-class pair behind the scalar oracles: S=(0.9,0.1), T=(0.5,0.5)
S_LOGITS = np.log(np.array([[[0.9, 0.1]]]))
T_LOGITS = np.zeros((1, 1, 2))
ONES = np.ones((1, 1))


class TestKLLosses:
    def test_reverse_kl_zero_at_equal_logits(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 7)), dtype=F64)
        assert abs(reverse_kl_loss(x, x, np.ones((2, 3))).item()) <= 1e-10

    def test_reverse_kl_two_class_oracle(self):
        # 0.9*ln(0.9/0.5) + 0.1*ln(0.1/0.5)
        expected = 0.9 * math.log(1.8) + 0.1 * math.log(0.2)
        got = reverse_kl_loss(Tensor(S_LOGITS, dtype=F64), Tensor(T_LOGITS, dtype=F64), ONES).item()
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.368064) < 1e-6

    def test_forward_kl_two_class_oracle(self):
        expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
        got = forward_kl_loss(Tensor(S_LOGITS, dtype=F64), Tensor(T_LOGITS, dtype=F64), ONES).item()
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.510826) < 1e-6

    def test_asymmetry(self):
        r = reverse_kl_loss(Tensor(S_LOGITS, dtype=F64), Tensor(T_LOGITS, dtype=F64), ONES).item()
        f = forward_kl_loss(Tensor(S_LOGITS, dtype=F64), Tensor(T_LOGITS, dtype=F64), ONES).item()
        assert abs(r - f) > 0.1

    def test_non_negative_over_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = Tensor(rng.normal(size=(1, 2, 9)), dtype=F64)
            t = Tensor(rng.normal(size=(1, 2, 9)), dtype=F64)
            assert reverse_kl_loss(s, t, np.ones((1, 2))).item() >= -1e-9
            assert forward_kl_loss(s, t, np.ones((1, 2))).item() >= -1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        s = Tensor(rng.normal(size=(2, 3, 8)), dtype=F64)
        t = Tensor(rng.normal(size=(2, 3, 8)), dtype=F64)
        mask = np.ones((2, 3))
        from chainkd.tensor import grad_check

        err = grad_check(lambda ps: reverse_kl_loss(ps[0], t, mask), [s], samples_per_param=24)
        assert err < 1e-4

    def test_gradient_does_not_reach_teacher(self):
        from chainkd.tensor import GradTape

        s = Tensor(np.random.default_rng(1).normal(size=(1, 2, 5)), dtype=F64, requires_grad=True)
        t = Tensor(np.random.default_rng(2).normal(size=(1, 2, 5)), dtype=F64, requires_grad=True)
        with GradTape() as tape:
            loss = reverse_kl_loss(s, t, np.ones((1, 2)))
        tape.backward(loss)
        assert s.grad is not None
        assert t.grad is None

    def test_shape_mismatch(self):
        with pytest.raises(DistillError):
            reverse_kl_loss(Tensor(np.zeros((1, 2, 3))), Tensor(np.zeros((1, 2, 4))), np.ones((1, 2)))


class TestAdam:
    def params(self):
        return {"w": Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32))}

    def test_zero_gradient_keeps_params(self):
        p = self.params()
        state = AdamState()
        out, state = adam_step(p, {"w": np.zeros(3, dtype=np.float32)}, state, lr=0.1)
        assert np.array_equal(out["w"].data, p["w"].data)
        assert state.t == 1

    def test_first_step_magnitude_near_lr(self):
        g = np.array([0.5, -2.0, 1e-3], dtype=np.float32)
        p = self.params()
        out, _ = adam_step(p, {"w": g}, AdamState(), lr=0.01, eps=1e-8)
        delta = p["w"].data - out["w"].data
        expected = 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(delta, expected, atol=1e-8)

    def test_two_runs_bitwise_identical(self):
        rng = np.random.default_rng(8)
        gs = [rng.normal(size=3).astype(np.float32) for _ in range(5)]

        def run():
            p = self.params()
            st = AdamState()
            for g in gs:
                p, st = adam_step(p, {"w": g}, st, lr=0.05)
            return p["w"].data.tobytes()

        assert run() == run()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DistillError):
            adam_step(self.params(), {"w": np.zeros(4, dtype=np.float32)}, AdamState(), lr=0.1)


SMALL_T = cfg(2, 2, 16, 32)
SMALL_S = cfg(1, 1, 8, 16)


class TestDistillEdge:
    def test_steps_zero_returns_initialized_student(self):
        teacher = ckpt(SMALL_T, 1, "t")
        c = corpus()
        out = distill_edge(teacher, SMALL_S, c, CHAR, DistillConfig(steps=0, sft_warm_epochs=0))
        from chainkd.surgery import apply_transform, plan_subset

        ref = apply_transform(teacher, plan_subset(SMALL_T, SMALL_S))
        assert all(out.params[k].data.tobytes() == ref.params[k].data.tobytes() for k in ref.params)

    def test_self_distillation_stays_near_fixed_point(self):
        c = corpus()
        teacher = K.train_lm(SMALL_T, c, CHAR, DistillConfig(steps=60, seed=3, sft_warm_epochs=0), name="t")
        out = distill_edge(
            teacher, SMALL_T, c, CHAR,
            DistillConfig(steps=30, lr=1e-4, seed=3, sft_warm_epochs=0), name="s",
        )
        curve = out.meta.loss_curves[-1]["losses"]
        assert curve[0] < 0.05  # subset of itself reproduces the teacher exactly
        assert curve[-1] <= curve[0] + 0.05

    def test_seeded_toy_run_improves_on_step_zero(self):
        c = corpus()
        teacher = K.train_lm(SMALL_T, c, CHAR, DistillConfig(steps=150, seed=5, sft_warm_epochs=0), name="t")
        student = distill_edge(
            teacher, SMALL_S, c, CHAR,
            DistillConfig(steps=200, seed=5, sft_warm_epochs=0), name="s",
        )
        curve = student.meta.loss_curves[-1]["losses"]
        assert curve[-1] < curve[0]

    def test_teacher_params_bitwise_unchanged(self):
        teacher = ckpt(SMALL_T, 2, "t")
        before = {k: v.data.tobytes() for k, v in teacher.params.items()}
        distill_edge(teacher, SMALL_S, corpus(), CHAR, DistillConfig(steps=5, sft_warm_epochs=0))
        assert {k: v.data.tobytes() for k, v in teacher.params.items()} == before

    @pytest.mark.parametrize("batch,seq_len", [(0, 8), (-1, 8), (4, 1), (4, 0)])
    def test_batch_and_seq_len_validated(self, batch, seq_len):
        # without the check, batch 0 divides by zero when sizing SFT epochs, batch -1
        # draws empty epochs forever, and seq_len 0 fails inside range()
        with pytest.raises(ValueError, match="batch must be >= 1 and seq_len >= 2"):
            DistillConfig(steps=1, batch=batch, seq_len=seq_len)

    @pytest.mark.parametrize("field,value", [
        ("grad_clip", -1.0),  # a negative scale: training runs uphill
        ("grad_clip", 0.0),  # zeroes every gradient
        ("beta1", 1.0),  # Adam's bias correction divides by zero
        ("beta2", 1.0),
        ("beta1", -0.1),
        ("beta2", 1.5),
        ("eps", 0.0),  # a zero second moment divides by zero at step 1
        ("eps", -1e-8),
        # field types, checked as ModelConfig checks its own: a float seed fails
        # only in training, a float step count in islice, "no" is truthy
        ("seed", 2.5),
        ("steps", 2.5),
        ("batch", True),
        ("seq_len", 24.0),
        ("sft_warm_epochs", 1.0),
        ("init_from_teacher", "no"),
        # a bool would act as 1.0, a string fails only in a comparison
        ("lr", True),
        ("lr", "0.1"),
        ("temperature", "2"),
        ("beta1", False),
        ("beta2", "0.9"),
        ("eps", True),
        ("grad_clip", True),
        ("grad_clip", "1"),
    ])
    def test_adam_and_clip_settings_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            DistillConfig(**{"steps": 1, field: value})

    def test_adam_and_clip_boundaries_accepted(self):
        DistillConfig(steps=1, beta1=0.0, beta2=0.0, eps=1e-30, grad_clip=None)
        DistillConfig(steps=1, grad_clip=1e-6)

    def test_vocab_mismatch_rejected(self):
        teacher = ckpt(cfg(2, 2, 16, 32, vocab=260), 0)
        with pytest.raises(DistillError):
            distill_edge(teacher, SMALL_S, corpus(), CHAR, DistillConfig(steps=1))

    def test_determinism_bitwise(self):
        c = corpus()
        teacher = ckpt(SMALL_T, 4, "t")
        cfg_run = DistillConfig(steps=12, seed=9, sft_warm_epochs=1)
        a = distill_edge(teacher, SMALL_S, c, CHAR, cfg_run)
        b = distill_edge(teacher, SMALL_S, c, CHAR, cfg_run)
        assert all(a.params[k].data.tobytes() == b.params[k].data.tobytes() for k in a.params)
        assert a.meta.loss_curves == b.meta.loss_curves


class TestChain:
    def test_single_anchor_equals_direct(self):
        c = corpus()
        teacher = ckpt(SMALL_T, 6, "source")
        e = DistillConfig(steps=8, seed=2, sft_warm_epochs=0)
        chain = list(run_stepwise_chain(teacher, [SMALL_S], [e], c, CHAR))
        direct = run_direct_distill(teacher, SMALL_S, c, CHAR, e, name="anchor-1")
        assert all(
            chain[0].params[k].data.tobytes() == direct.params[k].data.tobytes() for k in direct.params
        )

    def test_two_anchor_bookkeeping(self):
        c = corpus()
        teacher = ckpt(cfg(3, 2, 16, 32), 6, "source")
        mid = cfg(2, 2, 12, 24)
        edges = [DistillConfig(steps=6, sft_warm_epochs=0), DistillConfig(steps=6, sft_warm_epochs=0)]
        chain = list(run_stepwise_chain(teacher, [mid, SMALL_S], edges, c, CHAR))
        assert [a.meta.name for a in chain] == ["anchor-1", "anchor-2"]
        assert len(chain[0].meta.lineage) == 1
        assert len(chain[1].meta.lineage) == 2
        counts = [M.count_params(a.config) for a in chain]
        assert counts[0] > counts[1]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            check_chain(SMALL_T, [SMALL_S], [])
        with pytest.raises(ValueError):
            check_chain(SMALL_T, [SMALL_S, SMALL_T], [DistillConfig(steps=1), DistillConfig(steps=1)])  # increasing size

    def test_edge_failure_names_edge(self):
        c = corpus()
        teacher = ckpt(SMALL_T, 6, "source")
        bad = cfg(1, 1, 8, 16, vocab=260)  # vocab mismatch fails edge 1
        with pytest.raises(DistillError, match="edge 1"):
            next(run_stepwise_chain(teacher, [bad], [DistillConfig(steps=1)], c, CHAR))


class TestSeqKD:
    def test_deterministic_pairs(self):
        teacher = ckpt(SMALL_T, 1, "t")
        prompts = ["abcd", "efgh", "abab"]
        a = seqkd_generate(teacher, CHAR, prompts, 1.0, 8, seed=4)
        b = seqkd_generate(teacher, CHAR, prompts, 1.0, 8, seed=4)
        assert a == b

    def test_n_in_n_out(self):
        teacher = ckpt(SMALL_T, 1, "t")
        pairs = seqkd_generate(teacher, CHAR, ["ab"] * 5, 1.0, 4, seed=0)
        assert len(pairs) == 5

    def test_greedy_flag(self):
        teacher = ckpt(SMALL_T, 1, "t")
        a = seqkd_generate(teacher, CHAR, ["abcd"], 1.0, 6, seed=1, greedy=True)
        b = seqkd_generate(teacher, CHAR, ["abcd"], 1.0, 6, seed=2, greedy=True)
        assert a == b

    def test_empty_prompts_rejected(self):
        with pytest.raises(DistillError):
            seqkd_generate(ckpt(SMALL_T, 1), CHAR, [], 1.0, 4, 0)

    @staticmethod
    def _alone(teacher, prompts, max_len, seed):
        """Each prompt sampled by itself with the seed seqkd_generate gives it."""
        seeds = np.random.SeedSequence(seed).generate_state(len(prompts))
        pairs = []
        for prompt, s in zip(prompts, seeds):
            ids = [CHAR.bos] + tok.encode(CHAR, prompt)
            out = M.sample(teacher.config, teacher.params, [ids], 1.0, max_len, [s])[0, len(ids):].tolist()
            if CHAR.eos in out:
                out = out[: out.index(CHAR.eos)]
            pairs.append((tok.decode(CHAR, ids), tok.decode(CHAR, out)))
        return pairs

    def test_batch_matches_each_prompt_alone(self, monkeypatch):
        teacher = ckpt(SMALL_T, 1, "t")
        docs = corpus().train_docs
        prompts = [doc[:10] for doc in docs[:12]]
        batches = []
        sample = M.sample
        monkeypatch.setattr(M, "sample", lambda *a: batches.append(len(a[2])) or sample(*a))
        pairs = seqkd_generate(teacher, CHAR, prompts, 1.0, 16, seed=5)
        monkeypatch.undo()
        assert batches == [12]  # equal-length prompts are one batch
        assert pairs == self._alone(teacher, prompts, 16, 5)

    def test_mixed_lengths_keep_input_order(self):
        teacher = ckpt(SMALL_T, 2, "t")
        prompts = ["ab", "abcdef", "abc", "hgfedc", "b", "ab"]
        pairs = seqkd_generate(teacher, CHAR, prompts, 1.0, 8, seed=6)
        assert [p for p, _ in pairs] == prompts
        assert pairs == self._alone(teacher, prompts, 8, 6)


class TestBridge:
    def test_mismatched_tokenizers_enforced(self):
        with pytest.raises(ValueError):
            BridgeSpec("char", "char", SMALL_S, n_samples=4)

    @pytest.mark.parametrize("field,value", [("n_samples", 2.5), ("gen_max_len", 8.0), ("seed", True),
                                             ("gen_temperature", True), ("gen_temperature", "1")])
    def test_spec_field_types_validated(self, field, value):
        with pytest.raises(ValueError, match=f"BridgeSpec.{field}"):
            BridgeSpec("byte", "char", SMALL_S, **{"n_samples": 4, field: value})

    def test_toy_bridge_reduces_ce(self):
        src_cfg = cfg(2, 2, 16, 32, vocab=260)
        source = ckpt(src_cfg, 3, "source")
        spec = BridgeSpec("byte", "char", cfg(1, 2, 16, 32), n_samples=24, gen_max_len=12, seed=7)
        bridge = run_bridge(spec, source, corpus(), DistillConfig(steps=250, seq_len=24, seed=7, sft_warm_epochs=0))
        curve = bridge.meta.loss_curves[-1]
        assert curve["ce_final"] < curve["ce_step0"]
        assert bridge.meta.name == "anchor-0"

    def test_vocab_size_checked(self):
        source = ckpt(SMALL_T, 3, "source")  # char-sized vocab, byte tokenizer claimed
        spec = BridgeSpec("byte", "char", SMALL_S, n_samples=4)
        with pytest.raises(DistillError):
            run_bridge(spec, source, corpus(), DistillConfig(steps=1))


class TestDivergence:
    @pytest.mark.parametrize("loop", ["train_lm", "distill_edge", "run_bridge", "compare_init"])
    def test_blowup_names_step_two(self, loop):
        # lr=1e30 unclipped: step 1 pushes weights to ~1e30, step 2's forward overflows
        blowup = DistillConfig(steps=4, batch=2, seq_len=16, lr=1e30, grad_clip=None, seed=0, sft_warm_epochs=1)
        c = corpus()
        with pytest.raises(DivergenceError) as info:
            if loop == "train_lm":
                K.train_lm(SMALL_S, c, CHAR, blowup)
            elif loop == "distill_edge":
                distill_edge(ckpt(SMALL_T, 1, "t"), SMALL_S, c, CHAR, blowup)
            elif loop == "run_bridge":
                spec = BridgeSpec("byte", "char", SMALL_S, n_samples=4, gen_max_len=8, seed=1)
                run_bridge(spec, ckpt(cfg(1, 1, 8, 16, vocab=260), 2, "source"), c, blowup)
            else:
                E.compare_init(ckpt(SMALL_S, 3, "cbd"), ckpt(SMALL_S, 4, "rand"), c, CHAR, blowup)
        assert info.value.step == 2

    @pytest.mark.parametrize("grad_clip", [1.0, None])
    def test_nan_gradient_names_step_and_parameter(self, grad_clip):
        # w1 = 1e37: LN output rows sum to ~0, so the pre-activation stays finite
        # and so does the loss, but GELU's backward computes 0 * inf = NaN
        params = M.init_random(SMALL_S, 0)
        params["L0.ffn.w1"] = Tensor(np.full(params["L0.ffn.w1"].shape, 1e37, dtype=np.float32))
        nan_cfg = DistillConfig(steps=3, batch=2, seq_len=16, grad_clip=grad_clip, seed=0)
        batches = D.shuffled(D.token_windows(corpus().train_docs, CHAR, 16), 2, 0)
        with pytest.raises(DivergenceError) as info:
            K.fit(SMALL_S, params, islice(batches, 3), K.ce_loss, nan_cfg)
        assert info.value.step == 1
        op = "clip_global_norm" if grad_clip is not None else "adam_step"
        assert f"operation '{op}'" in str(info.value)
        assert "embed.tok" in str(info.value)  # the first parameter, in order, whose gradient is NaN


def _untouched(*ckpts):
    """A snapshot of each checkpoint's payloads, and a check that its tensors
    are still plain values: not trainable, no gradient, the same bytes."""
    before = [{k: p.data.tobytes() for k, p in c.params.items()} for c in ckpts]

    def check():
        for c, payloads in zip(ckpts, before):
            for k, p in c.params.items():
                assert not p.requires_grad and p.grad is None, k
                assert p.data.tobytes() == payloads[k], k

    return check


class TestOneFitPerStage:
    """Each training stage is one `fit` call, which owns its parameters."""

    @pytest.fixture
    def fit_calls(self, monkeypatch):
        calls = []
        fit = K.fit

        def counted(*args, **kwargs):
            calls.append(args[0])
            return fit(*args, **kwargs)

        monkeypatch.setattr(K, "fit", counted)
        monkeypatch.setattr(E, "fit", counted)
        return calls

    def test_train_lm(self, fit_calls):
        K.train_lm(SMALL_S, corpus(), CHAR, DistillConfig(steps=3, batch=4, seq_len=16))
        assert fit_calls == [SMALL_S]

    @pytest.mark.parametrize("loss_kind", ["reverse_kl", "ce"])
    def test_distill_edge_with_sft(self, fit_calls, loss_kind):
        run = DistillConfig(steps=3, batch=32, seq_len=16, sft_warm_epochs=1, loss_kind=loss_kind)
        out = distill_edge(ckpt(SMALL_T, 1, "t"), SMALL_S, corpus(), CHAR, run)
        assert fit_calls == [SMALL_S]
        sft, kd = out.meta.loss_curves
        assert (sft["kind"], kd["kind"]) == ("sft", loss_kind)
        assert len(sft["losses"]) > 0 and len(kd["losses"]) == 3
        assert out.meta.step_count == len(sft["losses"]) + 3

    def test_run_bridge(self, fit_calls):
        spec = BridgeSpec("byte", "char", SMALL_S, n_samples=4, gen_max_len=8, seed=1)
        run_bridge(spec, ckpt(cfg(1, 1, 8, 16, vocab=260), 2, "source"), corpus(),
                   DistillConfig(steps=3, batch=2, seq_len=16))
        assert fit_calls == [SMALL_S]

    @staticmethod
    def compare():
        run = DistillConfig(steps=5, batch=4, seq_len=16, sft_warm_epochs=0)
        return E.compare_init(ckpt(SMALL_S, 3, "cbd"), ckpt(SMALL_S, 4, "rand"), corpus(), CHAR, run,
                              eval_every=2)

    def test_compare_init_one_call_per_arm(self, fit_calls, monkeypatch):
        # one CPU: both arms train in this process, where the calls are counted
        cpus(monkeypatch, 1)
        cbd, rand = self.compare()
        assert fit_calls == [SMALL_S, SMALL_S]
        # the val NLL at step 0, every eval_every-th step and the last
        assert [step for step, _ in cbd.curves["cbd"]] == [0, 2, 4, 5]
        assert [step for step, _ in rand.curves["rand-train"]] == [1, 2, 3, 4, 5]

    def test_compare_init_parallel_arms(self, fit_calls, monkeypatch, blas_restored):
        # two CPUs: the rand arm's call runs in a pool worker, out of this
        # list's sight, unless no OpenBLAS thread setter sends both arms here
        cpus(monkeypatch, 1)
        serial = self.compare()
        fit_calls.clear()
        cpus(monkeypatch, 2)
        parallel = self.compare()
        assert fit_calls == [SMALL_S] * (1 if P._openblas_threads() is not None else 2)
        assert [(r.curves, r.metrics) for r in parallel] == [(r.curves, r.metrics) for r in serial]


class TestCallerTensorsUntouched:
    def test_compare_init(self):
        cbd, rand = ckpt(SMALL_S, 3, "cbd"), ckpt(SMALL_S, 4, "rand")
        check = _untouched(cbd, rand)
        E.compare_init(cbd, rand, corpus(), CHAR, DistillConfig(steps=3, batch=4, seq_len=16), eval_every=2)
        check()

    @pytest.mark.parametrize("init_from_teacher", [True, False])
    def test_distill_edge(self, init_from_teacher):
        teacher = ckpt(SMALL_T, 1, "t")
        check = _untouched(teacher)
        run = DistillConfig(steps=3, batch=32, seq_len=16, sft_warm_epochs=1, init_from_teacher=init_from_teacher)
        distill_edge(teacher, SMALL_S, corpus(), CHAR, run)
        check()

    def test_fit_trains_from_plain_tensors(self):
        # the caller passes plain values; fit's own trainable wrappers get
        # gradients from step 1
        start = ckpt(SMALL_S, 0)
        check = _untouched(start)
        batches = D.shuffled(D.token_windows(corpus().train_docs, CHAR, 16), 4, 0)
        trained, _ = K.fit(SMALL_S, start.params, islice(batches, 1), K.ce_loss, DistillConfig(steps=1))
        check()
        assert trained["L0.ffn.w1"].data.tobytes() != start.params["L0.ffn.w1"].data.tobytes()
