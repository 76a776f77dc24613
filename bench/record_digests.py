#!/usr/bin/env python3
"""Record reference digests of the workloads' outputs at the default seed.

    python3 bench/record_digests.py

For repetitions 0 .. digest_reps-1 of each workload at the default
workload seed, the digest is the sha256 of the outputs in the canonical
encoding of ``workloads.digest``; run.py compares every repetition it makes
at that seed against them.  Outputs that fail the oracle check are not
recorded.  Re-record only for an intended, explained change of outputs.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.use_source()
    import cabdm
    import workloads

    path = run.BENCH / "digests.json"
    data = json.loads(path.read_text()) if path.is_file() else {"seed": workloads.DEFAULT_SEED, "reps": {}}
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        w = workloads.make(name, run.OUT)
        table = cabdm.default_table() if w.reads_table else None
        digests = []
        for rep in range(w.digest_reps):
            inp = w.inputs(workloads.DEFAULT_SEED, rep)
            out = w.run(table, inp)
            if w.check(table, inp, out):
                print(f"{name}: repetition {rep} fails its oracle check; nothing recorded", file=sys.stderr)
                return 1
            digests.append(workloads.digest(w.view(out)))
        data["reps"][name] = digests
        print(f"{name}: {len(digests)} digests")
    path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
