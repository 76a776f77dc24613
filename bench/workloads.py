"""The benchmark's workloads: generated inputs, the protocol call, the
traced run and the oracle check.

Each workload is one of the paper's protocols at a fixed input shape.  A
repetition draws its seeds from the workload seed and the repetition
index, so the library only ever receives generated inputs.  ``run`` is the
public protocol call that the end-to-end metrics time.  ``traced_run``
makes the same call with the public functions of cabdm.ca, cabdm.bdm,
cabdm.ctm, cabdm.baselines and cabdm.collision wrapped in spans, and must
give the same outputs.  ``check`` recomputes the outputs with the oracles
and returns how many items disagree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from pathlib import Path

import numpy as np

import oracles
from cabdm import baselines, bdm, ca, collision, ctm, perturbation
from oracles import close

DEFAULT_SEED = 0


def derive_seed(*parts) -> int:
    """A 32-bit seed determined by the workload name, workload seed and position."""
    return int.from_bytes(hashlib.sha256(":".join(map(str, parts)).encode()).digest()[:4], "little")


def digest(obj) -> str:
    """sha256 of a canonical encoding: floats by their exact hex form,
    arrays by dtype, shape and bytes, dataclasses field by field."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"a{x.dtype.str}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (bool, np.bool_)):
            h.update(b"b1" if x else b"b0")
        elif isinstance(x, (int, np.integer)):
            h.update(f"i{int(x)};".encode())
        elif isinstance(x, (float, np.floating)):
            h.update(f"f{float(x).hex()};".encode())
        elif isinstance(x, str):
            h.update(f"s{len(x)}:{x}".encode())
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                h.update(f"d{f.name}".encode())
                feed(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            h.update(f"l{len(x)}".encode())
            for y in x:
                feed(y)
        else:
            raise TypeError(f"no canonical encoding for {type(x).__name__}")

    feed(obj)
    return h.hexdigest()


# The traced run: layer functions wrapped in spans where the protocols look them up.


def _evolved(key):
    def tally(tr, args, st):
        tr.counts[key] += st.cells[1:].size

    return tally


def _scored(key):
    def tally(tr, args, value):
        tr.kept.append((key, value))

    return tally


def _compressed(tr, args, size):
    tr.counts["baselines.lzw.in_bytes"] += np.size(getattr(args[0], "cells", args[0]))
    tr.counts["baselines.lzw.out_bytes"] += size


def _built(tr, args, built):
    tr.counts["ctm.machines"] += built.total
    tr.counts["ctm.halting_machines"] += built.halting // 2
    tr.counts["ctm.outputs"] += len(built.entries)


# (span name, defining module, attribute, tally of the call's work)
LAYERS = (
    ("ca.random_config", ca, "random_config", None),
    ("ca.random_config", ca, "random_grid", None),
    ("ca.flip_cell", ca, "flip_cell", None),
    ("ca.evolve_eca", ca, "evolve_eca", _evolved("ca.evolve_eca.cells")),
    ("ca.evolve_gol", ca, "evolve_gol", _evolved("ca.evolve_gol.cells")),
    ("bdm.flatten", bdm, "flatten_binary", None),
    ("bdm.flatten", bdm, "flatten_ternary", None),
    ("bdm.bdm_1d", bdm, "bdm_1d", _scored("bdm.bdm_1d.symbols")),
    ("bdm.bdm_2d", bdm, "bdm_2d", _scored("bdm.bdm_2d.cells")),
    ("baselines.compressed_size", baselines, "compressed_size", _compressed),
    ("baselines.shannon_block_entropy", baselines, "shannon_block_entropy", None),
    ("baselines.temporal_cell_entropy", baselines, "temporal_cell_entropy", None),
    ("collision.sample_interaction_rule", collision, "sample_interaction_rule", None),
    ("collision.evolve_interacting", collision, "evolve_interacting", _evolved("collision.evolve_interacting.cells")),
    ("ctm.build_table", ctm, "build_table", _built),
)
# Where the library's functions are looked up when a protocol runs.
MODULES = (ca, bdm, baselines, ctm, collision, perturbation)


def traced_run(w, table, inp, tr):
    """``w.run`` once more, inside a span named ``w.root``, with a span
    around every call of a layer function.  Work the protocol does outside
    those functions shows as the root's self time."""
    with tr.patched(LAYERS, MODULES), tr.span(w.root):
        out = w.run(table, inp)
    count_blocks(tr, table)
    return out


def count_blocks(tr, table) -> None:
    """Tally symbols, table lookups and fallback-scored blocks of the kept BDM values."""
    for key, value in tr.kept:
        for block, n in value.partition.blocks:
            tr.counts[key] += n * len(block)
            tr.counts["bdm.lookups"] += 1
            tr.counts["bdm.blocks"] += n
            if block not in table.entries:
                tr.counts["bdm.fallback_blocks"] += n
    tr.kept.clear()


def _oracle_measures(scorer, cells, b):
    return scorer.bdm_1d(cells, b), oracles.lzw_bytes(cells), oracles.block_entropy(cells, b)


class Workload:
    name = ""
    root = ""  # span around one traced protocol call; its self time is the protocol's own
    reads_table = True
    digest_reps = 0  # repetitions whose digests are recorded at DEFAULT_SEED

    def inputs(self, seed: int, rep: int) -> dict:
        raise NotImplementedError

    def items(self, inp) -> int:
        raise NotImplementedError

    def run(self, table, inp):
        raise NotImplementedError

    def check(self, table, inp, out) -> int:
        raise NotImplementedError

    def view(self, out):
        """The outputs as ``digest`` encodes them."""
        return out

    def same(self, out, replayed) -> bool:
        return digest(self.view(out)) == digest(self.view(replayed))

    def audit(self, seed: int) -> tuple[int, int]:
        """(attempted, failed) items of a run-level check beyond the repetitions."""
        return 0, 0


class EcaSweep(Workload):
    """The heatmap protocol: every single-cell flip of one seed's row, six rules."""

    name, root, digest_reps = "eca_sweep", "perturbation", 16

    def __init__(self, rules=(1, 2, 22, 30, 54, 100), width=100, steps=80, b=6, density=0.5):
        self.rules, self.width, self.steps, self.b, self.density = tuple(rules), width, steps, b, density

    def inputs(self, seed, rep):
        return {"seeds": (derive_seed(self.name, seed, rep),)}

    def items(self, inp):
        return len(self.rules) * len(inp["seeds"]) * self.width

    def run(self, table, inp):
        return perturbation.perturbation_sweep(
            self.rules, self.width, self.steps, inp["seeds"], table, b=self.b, density=self.density, workers=1
        )


    def check(self, table, inp, out):
        scorer = oracles.Scorer(table)
        seeds = inp["seeds"]
        expected = np.empty((len(self.rules), len(seeds), self.width, 3))
        for i, rule in enumerate(self.rules):
            for j, seed in enumerate(seeds):
                init = oracles.random_cells(perturbation.INIT_LABEL, seed, self.width, self.density)
                m0 = _oracle_measures(scorer, oracles.eca(rule, init, self.steps), self.b)
                for pos in range(self.width):
                    flipped = init.copy()
                    flipped[pos] ^= 1
                    m1 = _oracle_measures(scorer, oracles.eca(rule, flipped, self.steps), self.b)
                    expected[i, j, pos] = [m1[k] - m0[k] for k in range(3)]
        keys = [(rule, seed, pos) for rule in self.rules for seed in seeds for pos in range(self.width)]
        want_means = expected.mean(axis=1)
        means = np.stack([out.mean_delta_bdm, out.mean_delta_lzw, out.mean_delta_entropy], axis=-1)
        if (
            (out.rules, out.seeds, out.width, out.steps, out.block_len) != (self.rules, seeds, self.width, self.steps, self.b)
            or len(out.reports) != len(keys)
            or means.shape != want_means.shape
            or np.abs(means - want_means).max() > oracles.TOL
        ):
            return self.items(inp)
        failed = 0
        for report, key, want in zip(out.reports, keys, expected.reshape(-1, 3)):
            failed += not (
                (report.rule, report.seed, report.flip_pos, report.width, report.steps) == key + (self.width, self.steps)
                and close(report.delta_bdm, want[0])
                and report.delta_compressed_bytes == want[1]
                and close(report.delta_entropy, want[2])
            )
        return failed


class Rule54Trace(Workload):
    """The long-run trace: both prefixes rescored at every step."""

    name, root, digest_reps = "rule54_trace", "perturbation", 24

    def __init__(self, rule=54, width=200, steps=400, flip=100, b=6, density=0.5):
        self.rule, self.width, self.steps, self.flip, self.b, self.density = rule, width, steps, flip, b, density

    def inputs(self, seed, rep):
        return {"seed": derive_seed(self.name, seed, rep)}

    def items(self, inp):
        return self.steps + 1

    def run(self, table, inp):
        return perturbation.perturbation_trace(
            self.rule, self.width, self.steps, inp["seed"], self.flip, table, b=self.b, density=self.density
        )


    def view(self, out):
        base, perturbed, trace = out
        return base.cells, perturbed.cells, trace

    def check(self, table, inp, out):
        scorer = oracles.Scorer(table)
        init = oracles.random_cells(perturbation.INIT_LABEL, inp["seed"], self.width, self.density)
        flipped = init.copy()
        flipped[self.flip] ^= 1
        base, perturbed = oracles.eca(self.rule, init, self.steps), oracles.eca(self.rule, flipped, self.steps)
        got_base, got_perturbed, trace = out
        if not (
            np.array_equal(got_base.cells, base)
            and np.array_equal(got_perturbed.cells, perturbed)
            and len(trace) == self.steps + 1
        ):
            return self.items(inp)
        failed = 0
        for t, (step, delta) in enumerate(trace):
            want = scorer.bdm_1d(perturbed[: t + 1], self.b) - scorer.bdm_1d(base[: t + 1], self.b)
            failed += not (step == t and close(delta, want))
        return failed


class Gol(Workload):
    """The Game of Life protocol: a long run, a central flip, both branches scored."""

    name, root, digest_reps = "gol", "perturbation", 64

    def __init__(self, width=64, height=64, density=0.5, pre_steps=1000, post_steps=100, d=2):
        self.width, self.height, self.density = width, height, density
        self.pre_steps, self.post_steps, self.d = pre_steps, post_steps, d

    def inputs(self, seed, rep):
        return {"seed": derive_seed(self.name, seed, rep)}

    def items(self, inp):
        return 1

    def run(self, table, inp):
        return perturbation.gol_perturbation(
            self.width,
            self.height,
            self.density,
            pre_steps=self.pre_steps,
            post_steps=self.post_steps,
            seed=inp["seed"],
            table=table,
            d=self.d,
        )


    def check(self, table, inp, out):
        scorer = oracles.Scorer(table)
        cells = oracles.random_cells(perturbation.GOL_INIT_LABEL, inp["seed"], self.width * self.height, self.density)
        grid = cells.reshape(self.height, self.width)
        if self.pre_steps:
            grid = oracles.gol(grid, self.pre_steps)[-1]
        center = (self.height // 2, self.width // 2)
        flipped = grid.copy()
        flipped[center] ^= 1
        base, perturbed = oracles.gol(grid, self.post_steps), oracles.gol(flipped, self.post_steps)
        diff = oracles.cell_entropy(perturbed) - oracles.cell_entropy(base)

        def volume(stack):
            return scorer.bdm_2d(stack.reshape(-1, self.width), self.d)

        ok = (
            (out.seed, out.grid_width, out.grid_height, out.pre_steps, out.post_steps, tuple(out.flip_pos))
            == (inp["seed"], self.width, self.height, self.pre_steps, self.post_steps, center)
            and close(out.delta_bdm, volume(perturbed) - volume(base))
            and close(out.delta_bdm_final_grid, scorer.bdm_2d(perturbed[-1], self.d) - scorer.bdm_2d(base[-1], self.d))
            and out.delta_compressed_bytes == oracles.lzw_bytes(perturbed[-1]) - oracles.lzw_bytes(base[-1])
            and out.delta_compressed_bytes_volume == oracles.lzw_bytes(perturbed) - oracles.lzw_bytes(base)
            and out.entropy_diff_grid.shape == diff.shape
            and np.abs(out.entropy_diff_grid - diff).max() <= oracles.TOL
            and close(out.delta_entropy, math.fsum(diff.ravel()))
        )
        return 0 if ok else 1


class Collide(Workload):
    """Rule 30 meets rule 22 under sampled interaction rules; the ternary path."""

    name, root, digest_reps = "collide", "collision", 192

    def __init__(self, rule_a=30, rule_b=22, gap=40, steps=100, n_rules=20, b=6):
        self.rule_a, self.rule_b, self.gap, self.steps, self.n_rules, self.b = rule_a, rule_b, gap, steps, n_rules, b

    def inputs(self, seed, rep):
        return {"seeds": tuple(derive_seed(self.name, seed, rep, j) for j in range(self.n_rules))}

    def items(self, inp):
        return self.n_rules

    def run(self, table, inp):
        return collision.collision_experiment(
            self.rule_a, self.rule_b, self.gap, self.steps, self.n_rules, table, b=self.b, interaction_seeds=inp["seeds"]
        )


    def check(self, table, inp, out):
        scorer = oracles.Scorer(table)
        width = self.gap + 2 + 2 * self.steps
        pos_plus = (width - self.gap - 2) // 2
        pos_minus = pos_plus + self.gap + 1
        iso_a = np.zeros(width, dtype=np.int8)
        iso_a[pos_plus] = 1
        iso_b = np.zeros(width, dtype=np.int8)
        iso_b[pos_minus] = 1
        init = iso_a - iso_b
        st_a, st_b = oracles.eca(self.rule_a, iso_a, self.steps), oracles.eca(self.rule_b, iso_b, self.steps)
        bdm_a, bdm_b = scorer.bdm_1d(st_a, self.b), scorer.bdm_1d(st_b, self.b)
        lzw_a, lzw_b = oracles.lzw_bytes(st_a), oracles.lzw_bytes(st_b)
        if len(out) != self.n_rules:
            return self.items(inp)
        failed = 0
        for seed, r in zip(inp["seeds"], out):
            lut = oracles.interaction_outcomes(collision.INTERACTION_LABEL, self.rule_a, self.rule_b, seed)
            st = oracles.ternary(lut, init, self.steps)
            bdm_c, lzw_c = scorer.bdm_1d(st, self.b, ternary=True), oracles.lzw_bytes(st)
            failed += not (
                (r.rule_a, r.rule_b, r.interaction_seed, r.lzw_collision, r.lzw_a_iso, r.lzw_b_iso, r.delta_lzw_a, r.delta_lzw_b)
                == (self.rule_a, self.rule_b, seed, lzw_c, lzw_a, lzw_b, lzw_c - lzw_a, lzw_c - lzw_b)
                and close(r.bdm_collision, bdm_c)
                and close(r.bdm_a_iso, bdm_a)
                and close(r.bdm_b_iso, bdm_b)
                and close(r.delta_bdm_a, bdm_c - bdm_a)
                and close(r.delta_bdm_b, bdm_c - bdm_b)
            )
        return failed


class CtmSample(Workload):
    """A stratified sampled (4,2) table build: the write side of the ctm layer."""

    name, root, digest_reps = "ctm_sample", "ctm", 320
    reads_table = False

    def __init__(self, scratch: Path, sample=1 << 14, audit_sample=2048, n=4, cutoff=107):
        self.scratch, self.sample, self.audit_sample, self.n, self.cutoff = Path(scratch), sample, audit_sample, n, cutoff

    def inputs(self, seed, rep):
        return {"sample_seed": derive_seed(self.name, seed, rep)}

    def items(self, inp):
        return self.sample

    def _build(self, sample, sample_seed):
        return ctm.build_table(self.n, sample=sample, sample_seed=sample_seed, cutoff=self.cutoff, workers=1)

    def run(self, table, inp):
        return self._build(self.sample, inp["sample_seed"])

    def view(self, out):
        return out.n, out.k, out.cutoff, out.total, out.halting, out.sampled, sorted(out.entries.items())

    def save_and_reload(self, built):
        """(the bytes ``save_table`` writes, the table ``load_table`` reads back)."""
        path = self.scratch / f"table-{os.getpid()}.txt"
        try:
            ctm.save_table(built, path)
            return path.read_bytes(), ctm.load_table(path)
        finally:
            path.unlink(missing_ok=True)

    def check(self, table, inp, out):
        entries = out.entries
        ok = (
            (out.n, out.k, out.cutoff, out.total, out.sampled) == (self.n, 2, self.cutoff, self.sample, True)
            and out.halting == sum(c for c, _ in entries.values())
            and out.halting % 2 == 0
            and 0 < out.halting <= 2 * self.sample
            and all(close(v, -math.log2(c / out.halting)) for c, v in entries.values())
            and oracles.complement_symmetric(entries)
            and self.save_and_reload(out)[1] == out
        )
        return 0 if ok else self.items(inp)

    def audit(self, seed):
        """A small sampled build recomputed machine by machine with ``run_machine``."""
        sample_seed = derive_seed(self.name, seed, "audit")
        built = self._build(self.audit_sample, sample_seed)
        indices = oracles.stratified_indices((4 * self.n + 2) ** (2 * self.n), self.audit_sample, sample_seed)
        counts, halting = oracles.census(self.n, self.cutoff, indices)
        ok = (
            built.total == self.audit_sample
            and built.halting == 2 * halting
            and {s: c for s, (c, _) in built.entries.items()} == dict(counts)
        )
        return self.audit_sample, 0 if ok else self.audit_sample


WORKLOADS = {w.name: w for w in (EcaSweep, Rule54Trace, Gol, Collide, CtmSample)}


def make(name: str, scratch: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(scratch) if cls is CtmSample else cls()
