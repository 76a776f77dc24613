"""The one parallel map behind the perturbation sweep and table building."""

from __future__ import annotations

import os


def _pmap(fn, jobs, workers: int):
    """Yield ``fn(job)`` for every job, in job order.

    ``workers`` is capped at the job and CPU counts, since a pool starts all
    its processes at once.  A cap of 1 maps in this process; otherwise a
    process pool does, so ``fn`` and the jobs must pickle.  Results arrive
    in job order either way, which keeps merged outputs independent of the
    worker count.  The pool uses the platform's default start method:
    forcing spawn would make every calling script re-run in each worker
    unless it guards its entry point.
    """
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so a serial run never imports the pool
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, jobs)
