"""The teacher-logit cache gives the same bytes on any number of CPUs.

`_teacher_logit_cache` splits its eval_batch-aligned blocks into one share
per allowed CPU; through `_run_forked`, the caller scores the first share and
forked workers the rest.  These tests fake the affinity set to cover the
serial path, several workers, and more CPUs than there are blocks.
"""

import concurrent.futures
import os

import numpy as np
import pytest

from chainkd import distill as K
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.distill import DistillConfig
from chainkd.tensor import NonFiniteError, Tensor, no_grad

TEACHER = M.ModelConfig(2, 2, 4, 8, 32, 100, 32)
EVAL_BATCH = 8
N_WINDOWS = 45  # six blocks, the last one ragged (5 windows)
CFG = DistillConfig(steps=1, batch=4, seq_len=12, temperature=2.0)


def _tokens(seed=0, n=N_WINDOWS):
    # the tokens column of a window stack, a view as token_windows returns it
    return np.random.default_rng(seed).integers(1, 100, size=(n, CFG.seq_len + 1))[:, :-1]


def _teacher(seed=0):
    return Checkpoint(TEACHER, M.init_random(TEACHER, seed), Meta(name="teacher", seed=seed))


def _reference(teacher, tokens):
    # one forward per block, scaled and log-softmaxed afterwards: the cache's
    # original serial form
    out = np.empty((*tokens.shape, TEACHER.vocab_size), dtype=np.float32)
    with no_grad():
        for i in range(0, len(tokens), EVAL_BATCH):
            block = tokens[i : i + EVAL_BATCH]
            out[i : i + len(block)] = M.forward(TEACHER, teacher.params, block).data
    out *= np.float32(1.0 / CFG.temperature)
    shifted = out - out.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _cpus(monkeypatch, n):
    # n allowed CPUs: the affinity set, and no cgroup quota to cap it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(K, "_CGROUP_ROOT", "/nonexistent")


@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_cache_bytes_do_not_depend_on_cpu_count(monkeypatch, cpus):
    teacher, tokens = _teacher(), _tokens()
    expected = _reference(teacher, tokens).tobytes()
    before = tokens.tobytes()
    _cpus(monkeypatch, cpus)
    cache = K._teacher_logit_cache(teacher, tokens, CFG, eval_batch=EVAL_BATCH)
    assert cache.dtype == np.float32 and cache.shape == (N_WINDOWS, CFG.seq_len, TEACHER.vocab_size)
    assert cache.tobytes() == expected
    assert tokens.tobytes() == before


def test_fewer_windows_than_one_block(monkeypatch):
    teacher, tokens = _teacher(1), _tokens(1, n=3)
    _cpus(monkeypatch, 4)
    cache = K._teacher_logit_cache(teacher, tokens, CFG, eval_batch=EVAL_BATCH)
    assert cache.tobytes() == _reference(teacher, tokens).tobytes()


def test_no_affinity_call_scores_serially_without_a_pool(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created on the serial path")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    teacher, tokens = _teacher(2), _tokens(2)
    cache = K._teacher_logit_cache(teacher, tokens, CFG, eval_batch=EVAL_BATCH)
    assert cache.tobytes() == _reference(teacher, tokens).tobytes()


@pytest.mark.parametrize("cpus", [1, 3])
def test_overflowing_teacher_raises_the_same_error(monkeypatch, cpus):
    # token 7's embedding row sums past f32 max, so only windows holding it
    # fail; they sit in the third block, which a worker scores when there
    # are three CPUs (an untied head keeps the row out of every logit)
    config = M.ModelConfig(2, 2, 4, 8, 32, 100, 32, tied_lm_head=False)
    params = M.init_random(config, 3)
    table = params["embed.tok"].data.copy()
    table[7] = 3e38
    params["embed.tok"] = Tensor(table)
    tokens = _tokens(3)
    tokens[tokens == 7] = 8
    tokens[2 * EVAL_BATCH + 2, 4] = 7
    _cpus(monkeypatch, cpus)
    with pytest.raises(NonFiniteError) as info:
        K._teacher_logit_cache(Checkpoint(config, params, Meta(name="t", seed=3)), tokens, CFG,
                               eval_batch=EVAL_BATCH)
    assert info.value.op == "layer_norm"
    assert str(info.value) == "operation 'layer_norm' produced non-finite values"
    # a worker's error arrives with its remote traceback as the cause
    assert (info.value.__cause__ is not None) == (cpus > 1)


def test_every_process_scores_with_one_blas_thread(monkeypatch):
    # k processes of multi-threaded BLAS on k CPUs busy-wait on each other;
    # the pool holds OpenBLAS to one thread and gives the count back after
    blas = K._openblas_threads()
    teacher, tokens = _teacher(4), _tokens(4)
    _cpus(monkeypatch, 3)
    if blas is None:
        # no OpenBLAS whose thread count can be set: the caller scores alone
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created without a way to pin BLAS threads")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        K._teacher_logit_cache(teacher, tokens, CFG, eval_batch=EVAL_BATCH)
        return
    get_threads, set_threads = blas
    score = K._score_blocks

    def one_thread(*args):
        assert get_threads() == 1
        score(*args)

    monkeypatch.setattr(K, "_score_blocks", one_thread)
    before = get_threads()
    set_threads(2)
    try:
        cache = K._teacher_logit_cache(teacher, tokens, CFG, eval_batch=EVAL_BATCH)
        assert get_threads() == 2
    finally:
        set_threads(before)
    assert cache.tobytes() == _reference(teacher, tokens).tobytes()
