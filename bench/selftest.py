#!/usr/bin/env python3
"""Self-test of the benchmark harness at small sizes (well under a minute).

    python3 bench/selftest.py

For every workload at a small input shape it checks that the oracles
accept the library's outputs and reject a corrupted copy, that the traced
run reproduces the protocol's outputs, and that the layer self times plus
the protocol's self time add up to the traced call's wall time.  It then checks
that BENCHMARK.json names the metrics run.py prints, runs run.py briefly in
both modes, and checks that run.py refuses to run without the cabdm
sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from time import perf_counter

import run


def small_workloads(workloads, scratch):
    return [
        workloads.EcaSweep(rules=(30, 54), width=12, steps=6),
        workloads.Rule54Trace(width=24, steps=12, flip=5),
        workloads.Gol(width=10, height=8, pre_steps=5, post_steps=4),
        workloads.Collide(gap=4, steps=6, n_rules=3),
        workloads.CtmSample(scratch, sample=512, audit_sample=64),
    ]


def corrupt(out):
    """A copy of a workload's outputs with one item changed."""
    from cabdm import CtmTable

    if isinstance(out, CtmTable):
        entries = dict(out.entries)
        s, (count, value) = next(iter(entries.items()))
        entries[s] = (count + 1, value)
        return CtmTable(out.n, out.k, out.cutoff, out.total, out.halting, entries, out.sampled)
    if isinstance(out, list):  # collision reports
        return [dataclasses.replace(out[0], lzw_collision=out[0].lzw_collision + 1)] + out[1:]
    if isinstance(out, tuple):  # perturbation_trace
        base, perturbed, trace = out
        return base, perturbed, trace[:2] + [(2, trace[2][1] + 0.5)] + trace[3:]
    if hasattr(out, "reports"):  # perturbation_sweep
        first = dataclasses.replace(out.reports[0], delta_compressed_bytes=out.reports[0].delta_compressed_bytes + 1)
        return dataclasses.replace(out, reports=(first,) + out.reports[1:])
    return dataclasses.replace(out, delta_bdm=out.delta_bdm + 1e-6)  # GolReport


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAIL: {what}")
    print(f"ok  {what}")


def check_workloads() -> None:
    import cabdm
    import workloads
    from spans import Tracer

    table = cabdm.default_table()
    originals = {attr: getattr(home, attr) for _, home, attr, _ in workloads.LAYERS}
    run.OUT.mkdir(exist_ok=True)
    expect(workloads.derive_seed("w", 1, 2) == workloads.derive_seed("w", 1, 2), "derived seeds repeat")
    for w in small_workloads(workloads, run.OUT):
        inp = w.inputs(workloads.DEFAULT_SEED, 0)
        expect(inp != w.inputs(workloads.DEFAULT_SEED, 1), f"{w.name}: repetitions get distinct inputs")
        t = table if w.reads_table else None
        start = perf_counter()
        out = w.run(t, inp)
        protocol_s = perf_counter() - start
        expect(w.check(t, inp, out) == 0, f"{w.name}: oracle accepts the library's outputs")
        expect(w.check(t, inp, corrupt(out)) > 0, f"{w.name}: oracle rejects a corrupted output")
        expect(workloads.digest(w.view(out)) == workloads.digest(w.view(w.run(t, inp))), f"{w.name}: digest repeats")
        expect(w.audit(1)[1] == 0, f"{w.name}: run-level audit passes")

        tr = Tracer()
        replayed = workloads.traced_run(w, t, inp, tr)
        expect(w.same(out, replayed), f"{w.name}: traced run reproduces the outputs")
        expect(
            all(getattr(home, attr) is originals[attr] for _, home, attr, _ in workloads.LAYERS),
            f"{w.name}: the traced run restores the layer functions",
        )
        metrics = run.layer_metrics(tr, 1, protocol_s, w.root)
        layers = sum(v for k, v in metrics.items() if k.endswith((".s", ".self_s")) and k != "ctm.load_table.s")
        expect(abs(layers - metrics["trace.replay_s"]) <= 1e-9, f"{w.name}: self times sum to the replay wall time")
        names = {s[0] for s in tr.spans}
        expect(w.root in names and len(names) > 1, f"{w.name}: the traced run records layer spans")
        expect(names <= {k.rpartition(".")[0] for k in run.PER_LAYER} | {w.root},
               f"{w.name}: every span is a reported layer")


def check_contract() -> None:
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists the workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end-to-end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per-layer metrics match run.py")
    expect(run.tail([float(x) for x in range(1, 21)]) == {"percentile": 50, "value": 10.0}, "tail leaves ten samples above")
    expect(run.tail([1.0] * 19) is None, "no tail percentile below twenty samples")


def check_command() -> None:
    script = str(run.BENCH / "run.py")
    for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        cmd = [sys.executable, script, "--workload", "collide", "--seed", "5", "--seconds", "0.2", "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=run.ROOT)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        expect(
            done.returncode == 0
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["correct"]
            and set(result["metrics"]) == set(names),
            f"run.py --trace {trace} prints a correct result with its metrics",
        )

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "bench/run.py", "--workload", "collide", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=bare)
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(), "run.py refuses to run without src/cabdm")


def main() -> int:
    run.use_source()
    check_workloads()
    check_contract()
    check_command()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
