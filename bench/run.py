#!/usr/bin/env python3
"""cabdm protocol benchmark.

    python3 bench/run.py --workload eca_sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seconds 15           # every workload, one fresh process each

One run is a single-caller closed loop: it calls the workload's public
protocol function (workers=1) on freshly generated inputs, the next call
starting when the previous one returns, until ``--seconds`` of protocol
time are spent.  Afterwards every output is checked against the oracles
and, at the default seed, against the recorded digests.  Times behind the
end-to-end metrics are stated at a reference host speed (calibrate.py);
the raw ones are in the ``detail`` line.  With ``--trace 1`` each
repetition's call is made a second time with the layer functions wrapped
in spans (workloads.traced_run); the run then reports raw per-layer
metrics instead of end-to-end ones.  The last line of standard output is the JSON result; the
run's manifest, details and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 7
SETUP_CODE = (
    "import time\nt0 = time.perf_counter()\nimport cabdm\n{load}t1 = time.perf_counter()\n"
    "import calibrate, statistics\nprint(t1 - t0, statistics.median(calibrate.measure() for _ in range(5)))\n"
)

END_TO_END = {"items_per_s": "items/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "ca.evolve_eca.s": "s",
    "ca.evolve_eca.calls": "count",
    "ca.evolve_eca.cell_updates_per_s": "cells/s",
    "ca.evolve_gol.s": "s",
    "ca.evolve_gol.calls": "count",
    "ca.evolve_gol.cell_updates_per_s": "cells/s",
    "ca.random_config.s": "s",
    "ca.flip_cell.s": "s",
    "bdm.flatten.s": "s",
    "bdm.bdm_1d.s": "s",
    "bdm.bdm_1d.calls": "count",
    "bdm.bdm_1d.symbols_per_s": "symbols/s",
    "bdm.bdm_2d.s": "s",
    "bdm.bdm_2d.calls": "count",
    "bdm.bdm_2d.cells_per_s": "cells/s",
    "bdm.unique_blocks": "count",
    "bdm.fallback_share": "ratio",
    "ctm.load_table.s": "s",
    "ctm.build_table.s": "s",
    "ctm.machines_per_s": "machines/s",
    "ctm.halting_ratio": "ratio",
    "ctm.outputs": "count",
    "ctm.self_s": "s",
    "baselines.compressed_size.s": "s",
    "baselines.compressed_size.calls": "count",
    "baselines.lzw.bytes_per_s": "bytes/s",
    "baselines.lzw.ratio": "ratio",
    "baselines.shannon_block_entropy.s": "s",
    "baselines.temporal_cell_entropy.s": "s",
    "perturbation.self_s": "s",
    "collision.self_s": "s",
    "collision.sample_interaction_rule.s": "s",
    "collision.evolve_interacting.s": "s",
    "collision.evolve_interacting.cell_updates_per_s": "cells/s",
    "trace.replay_s": "s",
    "trace.overhead": "ratio",
}


def use_source() -> None:
    """Import cabdm from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cabdm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no cabdm package under {SRC}; run from a source checkout")
    os.environ.pop("CABDM_TABLE_DIR", None)  # always score with the packaged table
    sys.path.insert(0, str(SRC))
    import cabdm

    if not Path(cabdm.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: imported cabdm from {cabdm.__file__}, not from {SRC}")


def measure_setup(reads_table: bool) -> list[tuple[float, float]]:
    """(seconds for ``import cabdm`` plus ``default_table()``, then the
    calibration kernel's seconds), each pair from a fresh process."""
    code = SETUP_CODE.format(load="cabdm.default_table()\n" if reads_table else "")
    path = [str(SRC), str(BENCH), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    samples = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        setup_s, kernel_s = map(float, done.stdout.split()[-2:])
        samples.append((setup_s, kernel_s))
    return samples


def attempt(fn, *args):
    """fn(*args), or None when it raises (the traceback goes to stderr)."""
    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        return None


def tail(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples above it."""
    if len(samples) < 20:
        return None
    pct = 100 * (len(samples) - 10) // len(samples)
    ordered = sorted(samples)
    return {"percentile": pct, "value": ordered[-(-pct * len(ordered) // 100) - 1]}


def layer_metrics(tr, reps: int, protocol_s: float, root: str) -> dict[str, float]:
    """Per-repetition layer self times and counts, plus rates over the whole run."""
    total, own, calls = tr.durations()
    c = tr.counts

    def per_rep(x):
        return x / reps

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "s":
            values[name] = per_rep(own[layer])
        elif stat == "calls":
            values[name] = per_rep(calls[layer])
    values.update(
        {
            "ca.evolve_eca.cell_updates_per_s": ratio(c["ca.evolve_eca.cells"], total["ca.evolve_eca"]),
            "ca.evolve_gol.cell_updates_per_s": ratio(c["ca.evolve_gol.cells"], total["ca.evolve_gol"]),
            "bdm.bdm_1d.symbols_per_s": ratio(c["bdm.bdm_1d.symbols"], total["bdm.bdm_1d"]),
            "bdm.bdm_2d.cells_per_s": ratio(c["bdm.bdm_2d.cells"], total["bdm.bdm_2d"]),
            "bdm.unique_blocks": per_rep(c["bdm.lookups"]),
            "bdm.fallback_share": ratio(c["bdm.fallback_blocks"], c["bdm.blocks"]),
            "ctm.machines_per_s": ratio(c["ctm.machines"], total["ctm.build_table"]),
            "ctm.halting_ratio": ratio(c["ctm.halting_machines"], c["ctm.machines"]),
            "ctm.outputs": per_rep(c["ctm.outputs"]),
            "ctm.self_s": per_rep(own["ctm"]),
            "baselines.lzw.bytes_per_s": ratio(c["baselines.lzw.in_bytes"], total["baselines.compressed_size"]),
            "baselines.lzw.ratio": ratio(c["baselines.lzw.out_bytes"], c["baselines.lzw.in_bytes"]),
            "perturbation.self_s": per_rep(own["perturbation"]),
            "collision.self_s": per_rep(own["collision"]),
            "collision.evolve_interacting.cell_updates_per_s": ratio(
                c["collision.evolve_interacting.cells"], total["collision.evolve_interacting"]
            ),
            "trace.replay_s": per_rep(total[root]),
            "trace.overhead": ratio(total[root], protocol_s) - 1.0,
        }
    )
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def table_identity(table, data: bytes) -> dict:
    return {"n": table.n, "k": table.k, "cutoff": table.cutoff, "sha256": hashlib.sha256(data).hexdigest()}


def recorded_digests(name: str) -> list[str]:
    path = BENCH / "digests.json"
    return json.loads(path.read_text())["reps"].get(name, []) if path.is_file() else []


def run_workload(args) -> int:
    import cabdm
    import numpy as np

    import calibrate
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = workloads.make(args.workload, scratch=OUT)
    setup = [] if args.trace else measure_setup(w.reads_table)
    table_path = Path(cabdm.__file__).parent / "data" / "ctm_3_2.txt"
    table = cabdm.default_table() if w.reads_table else None
    expected = recorded_digests(w.name) if args.seed == workloads.DEFAULT_SEED else []
    tr = Tracer() if args.trace else None
    gauge = None if tr else calibrate.Gauge()

    reps = []  # (inputs, outputs or None, call start, call end, replay agreed)

    def traced_replay(inp):
        tr.run = len(reps)
        if w.reads_table:
            tr.call("ctm.load_table", cabdm.load_table, table_path)
        start = perf_counter()
        replayed = attempt(workloads.traced_run, w, table, inp, tr)
        return replayed, perf_counter() - start

    measured = 0.0
    with gauge or contextlib.nullcontext():
        while measured < args.seconds:
            if gauge:
                gauge.sample()
            inp = w.inputs(args.seed, len(reps))
            # Alternate the order so that host drift does not bias trace.overhead.
            replay_first = tr is not None and len(reps) % 2 == 1
            if replay_first:
                replayed, replay_s = traced_replay(inp)
            start = perf_counter()
            out = attempt(w.run, table, inp)
            end = perf_counter()
            measured += end - start
            if tr and not replay_first:
                replayed, replay_s = traced_replay(inp)
            if tr:
                measured += replay_s
            agreed = tr is None or (out is not None and replayed is not None and w.same(out, replayed))
            reps.append((inp, out, start, end, agreed))
        if gauge:
            gauge.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    for i, (inp, out, _, _, agreed) in enumerate(reps):
        n = w.items(inp)
        attempted += n
        if out is not None and agreed:
            bad = attempt(w.check, table, inp, out)
            if bad is None or (i < len(expected) and workloads.digest(w.view(out)) != expected[i]):
                bad = n
        else:
            bad = n
        failed += bad
    audit_attempted, audit_failed = attempt(w.audit, args.seed) or (1, 1)
    attempted += audit_attempted
    failed += audit_failed

    done = [(inp, out, start, end) for inp, out, start, end, _ in reps if out is not None]
    if w.reads_table:
        identity = table_identity(table, table_path.read_bytes())
    else:
        identity = table_identity(done[0][1], w.save_and_reload(done[0][1])[0]) if done else None
    manifest = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, workers=1",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "table": identity,
    }
    items = w.items(reps[0][0])
    detail = {
        "reps": len(reps),
        "items_per_rep": items,
        "digests_checked": min(len(reps), len(expected)),
        "fail_ratio": failed / attempted,
    }
    if gauge:
        rep_s = [end - start for _, _, start, end in done]
        scaled = [gauge.scaled(start, end) for _, _, start, end in done]
        setup_scaled = [s * calibrate.REFERENCE_S / k for s, k in setup]
        detail.update(
            {
                "median_rep_s": statistics.median(rep_s) if done else None,
                "tail_rep_s": tail(rep_s),
                "median_scaled_rep_s": statistics.median(scaled) if done else None,
                "tail_scaled_rep_s": tail(scaled),
                "raw_items_per_s": items / statistics.median(rep_s) if done else 0.0,
                "gauge_samples": len(gauge.samples),
                "median_kernel_s": statistics.median(e - s for s, e in gauge.samples),
                "setup_samples": setup,
                "raw_setup_s": statistics.median(s for s, _ in setup),
            }
        )
        values = {
            "items_per_s": items / statistics.median(scaled) if done else 0.0,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        protocol_s = sum(end - start for _, _, start, end in done)
        values = layer_metrics(tr, len(reps), protocol_s, w.root)
        units = PER_LAYER
        tr.write(OUT / f"spans-{w.name}-seed{args.seed}.json", workload=w.name, seed=args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"manifest": manifest, "detail": detail, "result": result}, indent=1))
    print("manifest " + json.dumps(manifest))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one at a time; a table of the results."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        metrics["fail_ratio"] = result["failed"] / result["attempted"]
        shown = [f"{k}={v:.6g}" for k, v in metrics.items() if v or k == "fail_ratio"]
        print(f"{name}: " + "  ".join(shown))
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="workload seed; every input derives from it")
    parser.add_argument("--seconds", type=float, default=15.0, help="protocol time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced replay")
    args = parser.parse_args(argv)
    use_source()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
