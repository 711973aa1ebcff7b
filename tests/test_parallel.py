"""`procs._run_forked`, the one fork helper, and the stages that split work with it:
compare-init's two arms, the evaluator's batches and the alpha sweep's alphas.

The helper cuts its tasks into balanced contiguous shares, one per spare
CPU plus the caller's, and runs the first share in the caller and the others
in forked workers.  These tests fake the allowed CPUs (the affinity set, and
the cgroup quota through `_CGROUP_ROOT`) to cover the serial path and
several workers, and check that results, errors and report bytes are those
of a serial pass, with no process left running.
"""

import multiprocessing
import os
import signal
import time
from contextlib import closing
from itertools import groupby, islice

import numpy as np
import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
from chainkd import procs as P
from chainkd import tokenizers as tok
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.distill import DistillConfig, DivergenceError
from chainkd.tensor import Tensor

CHAR = tok.char_vocab()
CONFIG = M.ModelConfig(1, 1, 4, 8, 16, 100, 64)
RUN = DistillConfig(steps=6, batch=4, seq_len=16, sft_warm_epochs=0)


def _cpus(monkeypatch, n, cgroup_root="/nonexistent"):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(P, "_CGROUP_ROOT", str(cgroup_root))


def _no_pool(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started on the serial path")

    monkeypatch.setattr(os, "fork", no_fork)


def _ckpt(seed, name, blowup=False):
    params = M.init_random(CONFIG, seed)
    if blowup:
        # LN rows sum to ~0, so the loss stays finite, but GELU's backward
        # computes 0 * inf: a NaN gradient at step 1
        params["L0.ffn.w1"] = Tensor(np.full(params["L0.ffn.w1"].shape, 1e37, dtype=np.float32))
    return Checkpoint(CONFIG, params, Meta(name=name, seed=seed))


def _corpus():
    return D.gen_markov(11, n_docs=60, doc_len=60, order=1, alphabet="abcdefgh")


def _report_bytes(reports, tmp_path):
    out = []
    for r in reports:
        r.write_csv(str(tmp_path / "r.csv"))
        r.write_json(str(tmp_path / "r.json"))
        out.append(((tmp_path / "r.csv").read_bytes(), (tmp_path / "r.json").read_bytes()))
    return out


def _compare(run=RUN, rand_blowup=False):
    return E.compare_init(_ckpt(3, "cbd"), _ckpt(4, "rand", rand_blowup), _corpus(), CHAR, run,
                          eval_every=2)


def _fail(message, delay=0.0):
    def task():
        time.sleep(delay)
        raise ValueError(message)

    return task


BLOWUP = DistillConfig(steps=4, batch=2, seq_len=16, lr=1e30, grad_clip=None, sft_warm_epochs=0)


def _divergence(monkeypatch, cpus, run, **blowups):
    _cpus(monkeypatch, cpus)
    with pytest.raises(DivergenceError) as info:
        _compare(run, **blowups)
    assert multiprocessing.active_children() == []
    return info.value


# -- the helper ------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_in_task_order(monkeypatch, cpus):
    # 5 tasks on k processes: k balanced contiguous shares, the larger first;
    # the caller runs the first and one worker runs each other share
    _cpus(monkeypatch, cpus)
    parent = os.getpid()
    results = P._run_forked([lambda i=i: (i, os.getpid()) for i in range(5)])
    assert [i for i, _ in results] == [0, 1, 2, 3, 4]
    runs = [(pid, len(list(share))) for pid, share in groupby(pid for _, pid in results)]
    processes = cpus if P._openblas_threads() is not None else 1
    assert [n for _, n in runs] == {1: [5], 2: [3, 2], 3: [2, 2, 1]}[processes]
    assert runs[0][0] == parent
    assert len({pid for pid, _ in runs}) == processes
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_serially_without_a_pool(monkeypatch):
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert P._run_forked([lambda: os.getpid()] * 3) == [os.getpid()] * 3


def test_no_blas_setter_runs_serially_without_a_pool(monkeypatch):
    _cpus(monkeypatch, 3)
    _no_pool(monkeypatch)
    monkeypatch.setattr(P, "_openblas_threads", lambda: None)
    assert P._run_forked([lambda: os.getpid()] * 3) == [os.getpid()] * 3


@pytest.mark.parametrize("cpus", [1, 3])
def test_raises_the_first_error_in_task_order(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    # task 2 fails first in time; a serial pass raises task 1's error
    with pytest.raises(ValueError, match="task 1"):
        P._run_forked([lambda: 0, _fail("task 1", delay=0.3), _fail("task 2")])
    assert multiprocessing.active_children() == []
    # the caller's own failure comes first of all
    with pytest.raises(ValueError, match="task 0"):
        P._run_forked([_fail("task 0", delay=0.3), _fail("task 1"), _fail("task 2")])
    assert multiprocessing.active_children() == []


def test_a_dead_worker_raises_and_the_rest_are_joined(monkeypatch):
    _cpus(monkeypatch, 3)
    if P._openblas_threads() is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    # task 1's worker dies; task 2's worker is still sleeping when it does
    with pytest.raises(K.DistillError, match="exit code 5"):
        P._run_forked([lambda: 0, lambda: os._exit(5), lambda: time.sleep(30)])
    assert multiprocessing.active_children() == []


def test_blas_held_to_one_thread_and_restored(monkeypatch):
    blas = P._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    get_threads, set_threads = blas
    _cpus(monkeypatch, 3)
    before = get_threads()
    set_threads(2)
    try:
        assert P._run_forked([get_threads] * 3) == [1, 1, 1]
        assert get_threads() == 2
        with pytest.raises(ValueError):
            P._run_forked([get_threads, _fail("task 1")])
        assert get_threads() == 2
    finally:
        set_threads(before)


# -- the cgroup CPU quota --------------------------------------------------------------


@pytest.mark.parametrize("files,expected", [
    ({"cpu.max": "200000 100000\n"}, 2),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "garbage\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "250000\n"}, None),
    # a cgroup v2 file is read before the v1 pair
    ({"cpu.max": "100000 100000\n", "cpu/cpu.cfs_quota_us": "400000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
    ({}, None),
])
def test_cgroup_quota(monkeypatch, tmp_path, files, expected):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    _cpus(monkeypatch, 4, tmp_path)
    assert P._cgroup_cpus() == expected
    assert P._allowed_cpus() == (4 if expected is None else min(4, expected))


def test_quota_of_one_cpu_runs_serially(monkeypatch, tmp_path):
    (tmp_path / "cpu.max").write_text("100000 100000\n")
    _cpus(monkeypatch, 2, tmp_path)
    _no_pool(monkeypatch)
    reports = _compare()
    _cpus(monkeypatch, 1)
    assert _report_bytes(reports, tmp_path) == _report_bytes(_compare(), tmp_path)


# -- compare-init's two arms -----------------------------------------------------------


def test_reports_do_not_depend_on_cpu_count(monkeypatch, tmp_path):
    expected = None
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        got = _report_bytes(_compare(), tmp_path)
        expected = expected or got
        assert got == expected, cpus
        assert multiprocessing.active_children() == []


def test_compare_init_one_cpu_creates_no_pool(monkeypatch):
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    _compare()


def test_rand_arm_divergence_raises_the_serial_error(monkeypatch):
    serial = _divergence(monkeypatch, 1, RUN, rand_blowup=True)
    parallel = _divergence(monkeypatch, 2, RUN, rand_blowup=True)
    assert serial.step == 1
    assert (parallel.step, str(parallel)) == (serial.step, str(serial))


def test_both_arms_diverging_raise_the_cbd_error(monkeypatch):
    # lr=1e30 unclipped overflows the cbd arm's forward at step 2; the rand
    # arm's NaN gradient fails in adam_step at step 1, earlier in time
    for cpus in (1, 2):
        error = _divergence(monkeypatch, cpus, BLOWUP, rand_blowup=True)
        assert error.step == 2 and "adam_step" not in str(error), cpus


def test_both_arms_train_with_one_blas_thread(monkeypatch):
    blas = P._openblas_threads()
    _cpus(monkeypatch, 2)
    if blas is None:
        _no_pool(monkeypatch)
        _compare()
        return
    get_threads, set_threads = blas
    train = E._train_with_val_curve

    def one_thread(*args):
        assert get_threads() == 1
        return train(*args)

    monkeypatch.setattr(E, "_train_with_val_curve", one_thread)
    before = get_threads()
    set_threads(2)
    try:
        _compare()
        assert get_threads() == 2
    finally:
        set_threads(before)


# -- the evaluator and the alpha sweep ---------------------------------------------------

SMALL, LARGE, TARGET = (M.ModelConfig(1, 1, 4, 8, 16, 100, 64), M.ModelConfig(2, 2, 4, 16, 32, 100, 64),
                        M.ModelConfig(2, 1, 4, 12, 24, 100, 64))
ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]


def _evaluations(tmp_path):
    """eval_ce (5 batches of at most 5 windows), perplexity and the alpha
    sweep's report bytes, on the val split of _corpus."""
    corpus = _corpus()
    target = _ckpt(5, "target")
    sweep = E.alpha_sweep(Checkpoint(SMALL, M.init_random(SMALL, 6), Meta(name="s", seed=6)),
                          Checkpoint(LARGE, M.init_random(LARGE, 7), Meta(name="l", seed=7)),
                          TARGET, ALPHAS, corpus, CHAR, batch=4, seq_len=16)
    return (K.eval_ce(CONFIG, target.params, corpus.val_docs, CHAR, batch=5, seq_len=16),
            E.perplexity(target, corpus.val_docs, CHAR, batch=5, seq_len=16),
            _report_bytes([sweep], tmp_path))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_evaluations_do_not_depend_on_cpu_count(monkeypatch, tmp_path, blas_restored, cpus):
    corpus = _corpus()
    windows = D.token_windows(corpus.val_docs, CHAR, 16)
    assert len(windows[0]) == 24  # so eval_ce splits 5 batches, the last one ragged
    with monkeypatch.context() as serial:
        _cpus(serial, 1)
        _no_pool(serial)
        expected = _evaluations(tmp_path)
    # the serial kernel, one batch after another in this process
    assert expected[0] == K.mean_nll(CONFIG, _ckpt(5, "target").params, D.in_order(windows, 5))
    _cpus(monkeypatch, cpus)
    assert _evaluations(tmp_path) == expected


def _eval():
    return K.eval_ce(CONFIG, _ckpt(5, "target").params, _corpus().val_docs, CHAR, batch=5, seq_len=16)


def test_eval_on_one_cpu_starts_no_process(monkeypatch, blas_restored):
    expected = _eval()
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert _eval() == expected


def _eval_without_fork():
    # os.fork is replaced in this process only: in a worker, or in the caller
    # until the task returns
    fork = os.fork

    def no_fork():
        raise AssertionError("an eval forked inside a forked task")

    os.fork = no_fork
    try:
        return _eval(), os.getpid()
    finally:
        os.fork = fork


@pytest.mark.parametrize("cpus", [2, 3])
def test_eval_inside_forked_tasks_starts_no_process(monkeypatch, blas_restored, cpus):
    # one task per allowed CPU: a worker never forks, and the caller's
    # workers hold every spare CPU
    expected = _eval()
    _cpus(monkeypatch, cpus)
    results = P._run_forked([_eval_without_fork] * cpus)
    assert [value for value, _ in results] == [expected] * cpus
    forked = P._openblas_threads() is not None
    assert len({pid for _, pid in results}) == (cpus if forked else 1)


def test_eval_beside_live_producers_starts_no_process(monkeypatch, blas_restored):
    expected = _eval()
    _cpus(monkeypatch, 2)
    corpus = _corpus()
    columns = D.token_windows(corpus.train_docs, CHAR, 16)
    draws = [rows for (rows,) in islice(D.shuffled((np.arange(len(columns[0])),), 4, 0), 6)]
    with closing(K._TeacherStream(_ckpt(3, "teacher"), columns, draws, 1.0)) as stream:
        batches = iter(stream)
        next(batches)
        assert len(multiprocessing.active_children()) == (P._openblas_threads() is not None)
        with monkeypatch.context() as serial:
            _no_pool(serial)
            assert _eval() == expected
        list(batches)


def test_a_worker_dying_mid_eval_raises(monkeypatch, blas_restored):
    if P._openblas_threads() is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    parent, score = os.getpid(), K._nll_sums

    def die(*args):
        if os.getpid() != parent:
            os._exit(9)
        return score(*args)

    def hung(signum, frame):
        raise AssertionError("the caller waited on a dead worker")

    monkeypatch.setattr(K, "_nll_sums", die)
    _cpus(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(K.DistillError, match="exit code 9"):
            _eval()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_an_empty_mask_split_raises(monkeypatch, blas_restored, cpus):
    token_windows = D.token_windows

    def unmasked(*args):
        tokens, targets, mask = token_windows(*args)
        return tokens, targets, np.zeros_like(mask)

    monkeypatch.setattr(D, "token_windows", unmasked)
    _cpus(monkeypatch, cpus)
    with pytest.raises(K.DistillError, match="evaluation split has no unmasked positions"):
        _eval()
