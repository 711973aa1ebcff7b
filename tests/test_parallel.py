"""`distill._run_forked`, the one fork helper, and compare-init's parallel arms.

The helper runs its first task in the caller and the others in forked
workers, one per further allowed CPU.  These tests fake the allowed CPUs
(the affinity set, and the cgroup quota through `_CGROUP_ROOT`) to cover the
serial path and several workers, and check that results, errors and report
bytes are those of a serial pass, with no process left running.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
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
    monkeypatch.setattr(K, "_CGROUP_ROOT", str(cgroup_root))


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
    _cpus(monkeypatch, cpus)
    parent = os.getpid()
    results = K._run_forked([lambda i=i: (i, os.getpid()) for i in range(4)])
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert results[0][1] == parent
    forked = cpus > 1 and K._openblas_threads() is not None
    assert all((pid != parent) == forked for _, pid in results[1:])
    assert multiprocessing.active_children() == []


def test_one_cpu_runs_serially_without_a_pool(monkeypatch):
    _cpus(monkeypatch, 1)
    _no_pool(monkeypatch)
    assert K._run_forked([lambda: os.getpid()] * 3) == [os.getpid()] * 3


def test_no_blas_setter_runs_serially_without_a_pool(monkeypatch):
    _cpus(monkeypatch, 3)
    _no_pool(monkeypatch)
    monkeypatch.setattr(K, "_openblas_threads", lambda: None)
    assert K._run_forked([lambda: os.getpid()] * 3) == [os.getpid()] * 3


@pytest.mark.parametrize("cpus", [1, 3])
def test_raises_the_first_error_in_task_order(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    # task 2 fails first in time; a serial pass raises task 1's error
    with pytest.raises(ValueError, match="task 1"):
        K._run_forked([lambda: 0, _fail("task 1", delay=0.3), _fail("task 2")])
    assert multiprocessing.active_children() == []
    # the caller's own failure comes first of all
    with pytest.raises(ValueError, match="task 0"):
        K._run_forked([_fail("task 0", delay=0.3), _fail("task 1"), _fail("task 2")])
    assert multiprocessing.active_children() == []


def test_a_dead_worker_raises_and_the_rest_are_joined(monkeypatch):
    _cpus(monkeypatch, 3)
    if K._openblas_threads() is None:
        pytest.skip("no OpenBLAS whose thread count can be set: nothing is forked")
    # task 1's worker dies; task 2's worker is still sleeping when it does
    with pytest.raises(K.DistillError, match="exit code 5"):
        K._run_forked([lambda: 0, lambda: os._exit(5), lambda: time.sleep(30)])
    assert multiprocessing.active_children() == []


def test_blas_held_to_one_thread_and_restored(monkeypatch):
    blas = K._openblas_threads()
    if blas is None:
        pytest.skip("no OpenBLAS whose thread count can be set")
    get_threads, set_threads = blas
    _cpus(monkeypatch, 3)
    before = get_threads()
    set_threads(2)
    try:
        assert K._run_forked([get_threads] * 3) == [1, 1, 1]
        assert get_threads() == 2
        with pytest.raises(ValueError):
            K._run_forked([get_threads, _fail("task 1")])
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
    assert K._cgroup_cpus() == expected
    assert K._allowed_cpus() == (4 if expected is None else min(4, expected))


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
    blas = K._openblas_threads()
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
