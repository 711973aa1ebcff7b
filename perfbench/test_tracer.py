"""Tests for the benchmark's tracer: which bindings it patches, how it keys
backward time, and that it changes no result.

    python3 -m pytest perfbench/test_tracer.py
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer as TR  # noqa: E402
from chainkd import checkpoint, data, distill, evaluate, surgery, tensor, tokenizers  # noqa: E402
from chainkd import transformer as M  # noqa: E402
from chainkd.distill import DistillConfig  # noqa: E402

SHARED = [
    ("eval_ce", (distill, evaluate)),
    ("interpolate", (surgery, evaluate)),
    ("apply_transform", (surgery, distill)),
    ("encode", (tokenizers, data, distill)),
    ("decode", (tokenizers, distill)),
]


def _bindings():
    return {(name, id(mod)): getattr(mod, name) for name, mods in SHARED for mod in mods} | {
        ("load_checkpoint", id(distill)): distill.load_checkpoint,
        ("record", 0): tensor.GradTape.record,
        ("backward", 0): tensor.GradTape.backward,
    }


def test_install_patches_every_binding_and_uninstall_restores():
    before = _bindings()
    tr = TR.Tracer()
    with tr:
        for name, mods in SHARED:
            wrappers = {id(getattr(mod, name)) for mod in mods}
            assert len(wrappers) == 1, f"{name} is bound to different objects"
            assert getattr(mods[0], name) is not before[(name, id(mods[0]))]
        assert distill.load_checkpoint is checkpoint.load
        assert tensor.GradTape.record is not before[("record", 0)]
    assert _bindings() == before


def test_backward_time_is_keyed_by_tape_op():
    x = tensor.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    idx = np.array([0, 2])
    tr = TR.Tracer()
    with tr:
        tensor.value_and_grad(lambda p: tensor.reduce_mean(tensor.gather_last(p[0], idx)), [x])
    names = {name for _, _, name, _, _ in tr.spans}
    assert {"tensor.gather.fwd", "tensor.mean.fwd", "tensor.gather.bwd", "tensor.mean.bwd",
            "tensor.backward"} <= names
    metrics = TR.module_metrics(tr)
    assert metrics["tensor.gather.calls"] == 1 and metrics["tensor.tape_entries"] == 2
    bwd = [s for s in tr.spans if s[2] == "tensor.gather.bwd"][0]
    parent = [s for s in tr.spans if s[0] == bwd[1]][0]
    assert parent[2] == "tensor.backward"


def test_tracing_changes_no_result():
    corpus = data.gen_markov(5, n_docs=20, doc_len=40, order=2, alphabet="abcd")
    cfg = M.ModelConfig(1, 1, 8, 8, 16, 100, 16)
    train = DistillConfig(steps=3, batch=4, seq_len=12, seed=1, loss_kind="ce", sft_warm_epochs=0)
    vocab = tokenizers.char_vocab()
    plain = distill.train_lm(cfg, corpus, vocab, train)
    with TR.Tracer() as tr:
        traced = distill.train_lm(cfg, corpus, vocab, train)
    assert checkpoint.checkpoints_equal(plain, traced)
    total, calls, self_time = tr.totals()
    assert calls["distill.train_lm"] == 1 and calls["distill.adam_step"] == 3
    assert self_time["distill.train_lm"] < total["distill.train_lm"]


def test_timed_binding_times_calls_and_restores():
    import workloads as W

    original = tokenizers.encode
    seconds = []
    with W._timed_binding(tokenizers, "encode", seconds):
        assert tokenizers.encode is not original
        ids = tokenizers.encode(tokenizers.char_vocab(), "abc")
    assert tokenizers.encode is original and distill.encode is original
    assert len(seconds) == 1 and seconds[0] >= 0.0
    assert ids == original(tokenizers.char_vocab(), "abc")
