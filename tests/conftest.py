"""Fixtures shared by the tests of the stages that run work in the pool."""

import multiprocessing

import pytest

from chainkd import procs


@pytest.fixture
def blas_restored():
    """Yield the OpenBLAS (get, set), or None, and check after the test that
    the count is what it was, no worker is leased, and once the pool is shut
    down no process is left running.  The test starts with an empty pool, so
    every worker it leases is forked inside it."""
    procs.shutdown()
    blas = procs._openblas_threads()
    before = blas[0]() if blas else None
    yield blas
    assert procs._leased == 0
    procs.shutdown()
    assert multiprocessing.active_children() == []
    if blas:
        assert blas[0]() == before
