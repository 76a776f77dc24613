import concurrent.futures
import os

from cabdm.parallel import _pmap


def _square(x):
    return x * x


def test_pool_capped_at_jobs_and_cpus(monkeypatch):
    sizes = []

    class FakePool:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    # _pmap imports the pool only when it needs one, so patch it where it is defined.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    expected = [x * x for x in range(10)]
    assert list(_pmap(_square, range(10), 5000)) == expected
    assert list(_pmap(_square, range(3), 5000)) == expected[:3]
    assert list(_pmap(_square, range(10), 2)) == expected
    assert sizes == [4, 3, 2]
    # A cap of one maps in this process.
    assert list(_pmap(_square, range(1), 5000)) == [0]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert list(_pmap(_square, range(10), 5000)) == expected
    assert sizes == [4, 3, 2]
