import math

import numpy as np
import pytest

from chainkd import data as D
from chainkd import evaluate as E
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.distill import DistillConfig, eval_ce, train_lm
from chainkd.evaluate import (
    EvalError,
    EvalReport,
    accuracy,
    alpha_sweep,
    compare_init,
    perplexity,
    read_report,
    rouge_l,
    speedup,
    steps_to_target,
)
from chainkd.tensor import Tensor
from chainkd.transformer import ModelConfig

CHAR = tok.char_vocab()


def cfg(layers, heads, d_model, d_ff, vocab=100, head_dim=4, max_seq=64):
    return ModelConfig(layers, heads, head_dim, d_model, d_ff, vocab, max_seq)


def ckpt(config, seed=0, name="m"):
    return Checkpoint(config, M.init_random(config, seed), Meta(name=name, seed=seed))


def corpus():
    return D.gen_markov(11, n_docs=60, doc_len=60, order=1, alphabet="abcdefgh")


def brute_force_lcs(a, b):
    """Exponential-free but independent reference: recursive with memo over
    suffixes, no shared code with the DP in evaluate."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        config = cfg(1, 1, 8, 16)
        params = {}
        for name, shape in M.param_shapes(config).items():
            if name.endswith(".g"):
                params[name] = Tensor(np.ones(shape, dtype=np.float32))
            else:
                params[name] = Tensor(np.zeros(shape, dtype=np.float32))
        c = Checkpoint(config, params, Meta())
        ppl = perplexity(c, corpus().val_docs, CHAR)
        assert abs(ppl - 100.0) < 1e-3

    def test_consistency_with_eval_ce(self):
        c = ckpt(cfg(1, 1, 8, 16), 3)
        docs = corpus().val_docs
        ppl = perplexity(c, docs, CHAR, batch=8, seq_len=32)
        ce = eval_ce(c.config, c.params, docs, CHAR, 8, 32)
        assert abs(ppl - math.exp(ce)) < 1e-9

    def test_trained_model_beats_uniform(self):
        c = corpus()
        trained = train_lm(cfg(2, 2, 16, 32), c, CHAR, DistillConfig(steps=250, seed=1, sft_warm_epochs=0))
        assert perplexity(trained, c.val_docs, CHAR) < 8.0  # alphabet size

    def test_vocab_mismatch(self):
        c = ckpt(cfg(1, 1, 8, 16, vocab=260), 0)
        with pytest.raises(EvalError):
            perplexity(c, ["ab"], CHAR)


class TestAccuracy:
    def test_identical(self):
        assert accuracy(["a", "b"], ["a", "b"]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 2], [3, 4]) == 0.0

    def test_three_of_four(self):
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 9]) == 0.75

    def test_errors(self):
        with pytest.raises(EvalError):
            accuracy([1], [1, 2])
        with pytest.raises(EvalError):
            accuracy([], [])


class TestRougeL:
    def test_identical(self):
        assert rouge_l(list("abcd"), list("abcd")) == 1.0

    def test_the_cat_sat(self):
        # LCS=2, P=2/3, R=1 -> F=0.8
        assert abs(rouge_l("the cat sat".split(), "the cat".split()) - 0.8) < 1e-12

    def test_disjoint(self):
        assert rouge_l(list("abc"), list("xyz")) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(EvalError):
            rouge_l(list("ab"), [])

    def test_empty_candidate_is_zero(self):
        assert rouge_l([], list("ab")) == 0.0

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = [int(x) for x in rng.integers(0, 5, size=rng.integers(1, 20))]
            b = [int(x) for x in rng.integers(0, 5, size=rng.integers(1, 20))]
            lcs = brute_force_lcs(tuple(a), tuple(b))
            if lcs == 0:
                assert rouge_l(a, b) == 0.0
                continue
            p, r = lcs / len(a), lcs / len(b)
            assert abs(rouge_l(a, b) - 2 * p * r / (p + r)) < 1e-12

    def test_precision_recall_swap_under_argument_swap(self):
        a, b = list("aabbcc"), list("abc")
        lcs = brute_force_lcs(tuple(a), tuple(b))
        pa, ra = lcs / len(a), lcs / len(b)
        f_beta2 = rouge_l(a, b, beta=2.0)
        expected = (1 + 4) * pa * ra / (ra + 4 * pa)
        assert abs(f_beta2 - expected) < 1e-12
        # with beta=1 and equal lengths, swapping is symmetric
        assert rouge_l(list("abcd"), list("abdc")) == rouge_l(list("abdc"), list("abcd"))
        # swapping the arguments swaps P and R on random pairs (DP oracle)
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = [int(v) for v in rng.integers(0, 4, size=rng.integers(1, 15))]
            y = [int(v) for v in rng.integers(0, 4, size=rng.integers(1, 15))]
            lcs = brute_force_lcs(tuple(x), tuple(y))
            if lcs == 0:
                continue
            p, r = lcs / len(x), lcs / len(y)
            beta = 2.0
            assert abs(rouge_l(x, y, beta) - (1 + 4) * p * r / (r + 4 * p)) < 1e-12
            assert abs(rouge_l(y, x, beta) - (1 + 4) * r * p / (p + 4 * r)) < 1e-12


class TestConvergence:
    def test_monotone_crossing(self):
        curve = [(0, 3.0), (1, 2.5), (2, 1.9), (3, 1.5)]
        assert steps_to_target(curve, 2.0) == 2

    def test_never_reached(self):
        assert steps_to_target([(0, 3.0), (1, 2.5)], 1.0) is None

    def test_first_crossing_wins(self):
        curve = [(0, 3.0), (1, 2.0), (2, 2.5), (3, 1.9)]
        assert steps_to_target(curve, 2.0) == 1

    def test_speedup_identical_curves(self):
        curve = [(0, 3.0), (10, 1.0)]
        assert speedup(curve, curve, 1.0) == 1.0

    def test_speedup_appendix_numbers(self):
        a = [(0, 5.0), (140, 2.0)]
        b = [(0, 5.0), (30500, 2.0)]
        assert abs(speedup(a, b, 2.0) - 30500 / 140) < 1e-9
        assert abs(speedup(a, b, 2.0) - 217.86) < 0.01

    def test_speedup_error_when_unreached(self):
        with pytest.raises(EvalError):
            speedup([(0, 3.0), (1, 1.0)], [(0, 3.0), (1, 2.5)], 2.0)


class TestReports:
    def test_roundtrip_csv_json(self, tmp_path):
        report = EvalReport(
            name="toy",
            curves={"a": [(0, 2.5), (10, 1.25)], "b": [(0, 3.0)]},
            metrics={"final_loss": 1.25, "step0_loss": 2.5},
            steps_to_target=10,
            speedup=3.5,
            provenance={"seed": 1},
        )
        report.write_csv(tmp_path / "r.csv")
        report.write_json(tmp_path / "r.json")
        back = read_report(tmp_path / "r.csv", tmp_path / "r.json")
        assert back.curves == report.curves
        assert back.metrics == report.metrics
        assert back.steps_to_target == 10 and back.speedup == 3.5

    def test_deterministic_bytes(self, tmp_path):
        report = EvalReport(name="toy", curves={"a": [(0, 1 / 3)]}, metrics={"x": 0.1})
        report.write_csv(tmp_path / "1.csv")
        report.write_csv(tmp_path / "2.csv")
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


class TestProtocols:
    def test_compare_init_identical_inputs_identical_curves(self):
        c = corpus()
        config = cfg(1, 1, 8, 16)
        a = ckpt(config, 3, "a")
        b = ckpt(config, 3, "b")
        ra, rb = compare_init(a, b, c, CHAR, DistillConfig(steps=20, seed=0, sft_warm_epochs=0), eval_every=10)
        assert ra.metrics["step_zero_gap"] == 0.0
        assert [x[1] for x in ra.curves["cbd"]] == [x[1] for x in rb.curves["rand"]]

    @pytest.mark.parametrize("eval_every", [0, -1])
    def test_compare_init_rejects_eval_every_below_one(self, eval_every):
        config = cfg(1, 1, 8, 16)
        with pytest.raises(ValueError, match="eval_every"):
            compare_init(ckpt(config, 1), ckpt(config, 2), corpus(), CHAR,
                         DistillConfig(steps=2, sft_warm_epochs=0), eval_every=eval_every)

    def test_compare_init_config_mismatch(self):
        with pytest.raises(EvalError):
            compare_init(ckpt(cfg(1, 1, 8, 16)), ckpt(cfg(2, 1, 8, 16)), corpus(), CHAR, DistillConfig(steps=1))

    def test_alpha_sweep_boundaries_match_pure_transforms(self):
        from chainkd.surgery import apply_transform, plan_expand, plan_subset

        c = corpus()
        small = ckpt(cfg(1, 1, 8, 16), 1, "s")
        large = ckpt(cfg(2, 2, 16, 32), 2, "l")
        dst = cfg(2, 1, 12, 24)
        report = alpha_sweep(small, large, dst, [0.0, 1.0], c, CHAR, batch=8, seq_len=32)
        expand_loss = eval_ce(dst, apply_transform(small, plan_expand(small.config, dst)).params,
                              c.val_docs, CHAR, 8, 32)
        subset_loss = eval_ce(dst, apply_transform(large, plan_subset(large.config, dst)).params,
                              c.val_docs, CHAR, 8, 32)
        assert abs(report.metrics["loss@alpha=1"] - expand_loss) < 1e-9
        assert abs(report.metrics["loss@alpha=0"] - subset_loss) < 1e-9

    def test_alpha_sweep_single_alpha(self):
        c = corpus()
        small = ckpt(cfg(1, 1, 8, 16), 1, "s")
        large = ckpt(cfg(2, 2, 16, 32), 2, "l")
        report = alpha_sweep(small, large, cfg(1, 1, 8, 16), [0.5], c, CHAR, batch=8, seq_len=32)
        assert list(report.curves) == ["alpha=0.5"]
        assert report.metrics["argmin_alpha"] == 0.5

    def test_training_curves_export(self):
        c = corpus()
        trained = train_lm(cfg(1, 1, 8, 16), c, CHAR, DistillConfig(steps=15, seq_len=32, seed=2, sft_warm_epochs=0))
        report = E.training_curves(trained)
        (label,) = report.curves
        assert label.endswith("-ce")
        assert len(report.curves[label]) == 15
        assert report.metrics[f"{label}_final"] == trained.meta.loss_curves[-1]["losses"][-1]
