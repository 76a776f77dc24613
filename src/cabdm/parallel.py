"""The one parallel map behind the perturbation sweep and table building."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def _pmap(fn, jobs, workers: int):
    """Yield ``fn(job)`` for every job, in job order.

    ``workers <= 1`` maps in this process; otherwise a process pool does,
    so ``fn`` and the jobs must pickle.  Results arrive in job order either
    way, which keeps merged outputs independent of the worker count.  The
    pool uses the platform's default start method: forcing spawn would make
    every calling script re-run in each worker unless it guards its entry
    point.
    """
    if workers <= 1:
        yield from map(fn, jobs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs)
