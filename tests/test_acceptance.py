"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  On a 2-vCPU VM the module took about 131 s: criterion 9 (the
per-spacetime oracle) 60 s, criterion 5 (three width-100 sweeps) 56 s,
criterion 2 (two (3,2) builds) 4 s and criterion 4 (LZW round-trips) 3 s.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np

import cabdm
from cabdm import (
    bdm_1d,
    bdm_2d,
    build_table,
    collision_experiment,
    collision_initial_state,
    collision_lattice,
    evolve_eca,
    evolve_gol,
    evolve_interacting,
    flatten_binary,
    flip_cell,
    gol_perturbation,
    lzw_compress,
    lzw_decompress,
    max_halting_steps,
    perturbation_sweep,
    random_config,
    sample_interaction_rule,
    save_table,
)
from cabdm.ca import random_grid
from cabdm.cli import read_pgm, run
from cabdm.perturbation import GOL_INIT_LABEL, INIT_LABEL
from cabdm.rng import Stream

COMPLEMENT = str.maketrans("01", "10")

# Reports emitted by criteria 5 and 8, revalidated exhaustively by 9.
EMITTED = {"sweep": None, "gol": None}


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\n[criterion {num}] FAIL: {description} -- {exc}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[criterion {num}] PASS: {description} ({elapsed:.1f}s)")

        return inner

    return wrap


def _assert_symmetries(table):
    for s, (count, _) in table.entries.items():
        assert table.entries[s.translate(COMPLEMENT)][0] == count, f"complement broken at {s}"
        assert table.entries[s[::-1]][0] == count, f"reversal broken at {s}"


@criterion(1, "(2,2) exact enumeration, symmetries, busy-beaver cross-check, < 1 s")
def test_criterion_1_ctm_2_2_exactness():
    started = time.perf_counter()
    table = build_table(2)
    assert table.total == 10_000 == cabdm.class_size(2)
    _assert_symmetries(table)
    assert max_halting_steps(2) == 6
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"(2,2) exactness took {elapsed:.2f}s"


@criterion(2, "(3,2) full table: counts, symmetries, top outputs, worker-identical, <= ~10 min")
def test_criterion_2_ctm_3_2_table(tmp_path):
    started = time.perf_counter()
    serial = build_table(3, workers=1)
    serial_elapsed = time.perf_counter() - started
    assert serial_elapsed <= 600.0, f"(3,2) build took {serial_elapsed:.0f}s"
    parallel = build_table(3, workers=8)

    a, b = tmp_path / "serial.txt", tmp_path / "parallel.txt"
    save_table(serial, a)
    save_table(parallel, b)
    assert a.read_bytes() == b.read_bytes(), "1 vs 8 workers differ"
    shipped = Path(cabdm.__file__).parent / "data" / "ctm_3_2.txt"
    assert a.read_bytes() == shipped.read_bytes(), "rebuild differs from shipped table"

    assert serial.total == 7_529_536
    _assert_symmetries(serial)
    top = max(count for count, _ in serial.entries.values())
    assert serial.entries["0"][0] == top and serial.entries["1"][0] == top


@criterion(3, "BDM repetition law within 1e-9 on 100 random length-6 strings; complement exact")
def test_criterion_3_bdm_algebra(table32):
    stream = Stream("acceptance-bdm", 0)
    for _ in range(100):
        s = "".join(str(stream.next_below(2)) for _ in range(6))
        k = 1 + stream.next_below(40)
        expected = table32.lookup(s) + math.log2(k)
        assert abs(bdm_1d(s * k, table32, 6).value - expected) < 1e-9
    for _ in range(50):
        length = 1 + stream.next_below(60)
        s = "".join(str(stream.next_below(2)) for _ in range(length))
        assert bdm_1d(s, table32, 6).value == bdm_1d(s.translate(COMPLEMENT), table32, 6).value


@criterion(4, "LZW hand-traced oracles and 1000 random round-trips up to 1e5 bytes")
def test_criterion_4_lzw_oracle():
    aaaa = lzw_compress(b"aaaa")
    assert aaaa.codes == (97, 256, 97) and aaaa.compressed_bits == 27
    ab = lzw_compress(b"ab")
    assert ab.codes == (97, 98) and ab.compressed_bits == 18

    stream = Stream("acceptance-lzw", 0)
    sizes = [100_000] * 5 + [stream.next_below(3000) for _ in range(995)]
    for i, size in enumerate(sizes):
        data = bytes(stream.next_below(256) for _ in range(size))
        result = lzw_compress(data)
        assert lzw_decompress(result.codes) == data, f"round-trip failed at input {i}"
        assert result.compressed_bytes == -(-result.compressed_bits // 8)


@criterion(5, "width-100 sweep over 6 rules x 50 seeds: shapes, sensitivity ratio, byte-identical reruns")
def test_criterion_5_fig4_sweep(table32, tmp_path):
    started = time.perf_counter()
    rules = [1, 2, 22, 30, 54, 100]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["perturb", "--rules", "1,2,22,30,54,100", "--width", "100", "--steps", "80", "--seeds", "50"]
    assert run(args + ["--workers", "2", "--out", str(out_a)]) == 0
    assert run(args + ["--workers", "1", "--out", str(out_b)]) == 0
    for name in ("perturb_seeds.csv", "perturb_mean.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), f"{name} differs across reruns"

    sweep = perturbation_sweep(rules, 100, 80, 50, table32, workers=2)
    EMITTED["sweep"] = sweep
    assert sweep.mean_delta_bdm.shape == (6, 100)
    assert sweep.mean_delta_lzw.shape == (6, 100)
    assert len(sweep.reports) == 6 * 50 * 100

    # The CLI emission and the direct call must agree line for line.
    csv_rows = [
        line.split(",")
        for line in (out_a / "perturb_seeds.csv").read_text().splitlines()
        if not line.startswith("#") and not line.startswith("rule,")
    ]
    assert len(csv_rows) == len(sweep.reports)
    for row, report in zip(csv_rows, sweep.reports):
        assert (int(row[0]), int(row[1]), int(row[2])) == (report.rule, report.seed, report.flip_pos)
        assert abs(float(row[3]) - report.delta_bdm) < 5e-7

    lzw_blind = sum(1 for r in sweep.reports if r.delta_compressed_bytes == 0 and r.delta_bdm != 0)
    bdm_blind = sum(1 for r in sweep.reports if r.delta_bdm == 0 and r.delta_compressed_bytes != 0)
    assert lzw_blind > bdm_blind, f"sensitivity ratio failed: {lzw_blind} vs {bdm_blind}"

    elapsed = time.perf_counter() - started
    assert elapsed <= 900.0, f"sweep criterion took {elapsed:.0f}s"


@criterion(6, "rule-54 long-run flip: PGM pair, nonzero BDM delta, deterministic pipeline")
def test_criterion_6_rule54_protocol(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["perturb", "--mode", "trace", "--rule", "54", "--width", "200",
            "--steps", "400", "--seed", "0", "--flip", "100"]
    assert run(args + ["--out", str(out_a)]) == 0
    assert run(args + ["--out", str(out_b)]) == 0
    for name in ("trace_unperturbed.pgm", "trace_perturbed.pgm", "trace_delta_bdm.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), f"{name} not deterministic"

    base = read_pgm(out_a / "trace_unperturbed.pgm")
    pert = read_pgm(out_a / "trace_perturbed.pgm")
    assert base.shape == pert.shape == (401, 200)
    final_line = (out_a / "trace_delta_bdm.csv").read_text().splitlines()[-1]
    assert float(final_line.split(",")[1]) != 0.0, "rule-54 flip left BDM unchanged"


@criterion(7, "(30 vs 22) collisions, 100 sampled rules: variance, reduction, non-interaction")
def test_criterion_7_collision_protocol(table32):
    reports = collision_experiment(30, 22, 40, 100, 100, table32)
    assert len(reports) == 100
    deltas = [r.delta_bdm_a for r in reports]
    assert np.var(deltas) > 0.0, "sampled interaction rules produced no spread"

    # Reduction: without the -1 seed the interaction is exactly rule 30.
    interaction = sample_interaction_rule(30, 22, seed=0)
    init = random_config(0, 60, 0.5, label="acceptance-reduction")
    assert np.array_equal(
        evolve_interacting(interaction, init, 40).cells, evolve_eca(30, init, 40).cells
    )

    # Non-interaction: short runs keep the light cones apart, so the
    # collision is the cellwise union of the isolated evolutions.
    gap, steps = 40, 15
    width, pos_plus, pos_minus = collision_lattice(gap, steps)
    joint = evolve_interacting(interaction, collision_initial_state(gap, steps), steps)
    iso_a = np.zeros(width, dtype=np.int8)
    iso_a[pos_plus] = 1
    iso_b = np.zeros(width, dtype=np.int8)
    iso_b[pos_minus] = 1
    union = evolve_eca(30, iso_a, steps).cells - evolve_eca(22, iso_b, steps).cells
    assert np.array_equal(joint.cells, union)


@criterion(8, "GoL 64x64 protocol, 20 seeds: a flip compression misses but BDM sees, <= ~5 min")
def test_criterion_8_gol_protocol(table32):
    started = time.perf_counter()
    reports = [
        gol_perturbation(64, 64, 0.5, 1000, 100, seed=seed, table=table32)
        for seed in range(20)
    ]
    EMITTED["gol"] = reports
    hits = [r for r in reports if r.delta_compressed_bytes == 0 and r.delta_bdm != 0]
    assert hits, "no seed had a zero-byte compression delta with a nonzero BDM delta"
    elapsed = time.perf_counter() - started
    assert elapsed <= 300.0, f"GoL criterion took {elapsed:.0f}s"


@criterion(9, "every emitted delta equals an independent BDM recomputation to 1e-9")
def test_criterion_9_delta_identity(table32):
    sweep = EMITTED["sweep"]
    if sweep is None:
        sweep = perturbation_sweep([30, 100], 40, 30, 3, table32)
    by_pair = {}
    for report in sweep.reports:
        by_pair.setdefault((report.rule, report.seed), []).append(report)
    for (rule, seed), reports in by_pair.items():
        init = random_config(seed, reports[0].width, 0.5, label=INIT_LABEL)
        v0 = bdm_1d(flatten_binary(evolve_eca(rule, init, reports[0].steps).cells), table32, 6).value
        for report in reports:
            perturbed = evolve_eca(rule, flip_cell(init, report.flip_pos), report.steps)
            v1 = bdm_1d(flatten_binary(perturbed.cells), table32, 6).value
            assert abs(report.delta_bdm - (v1 - v0)) < 1e-9, (
                f"sweep delta mismatch at rule={rule} seed={seed} flip={report.flip_pos}"
            )

    gol_reports = EMITTED["gol"]
    if gol_reports is None:
        gol_reports = [gol_perturbation(16, 16, 0.5, 20, 10, seed=s, table=table32) for s in range(3)]
    for report in gol_reports:
        grid = random_grid(report.seed, report.grid_width, report.grid_height, 0.5, label=GOL_INIT_LABEL)
        if report.pre_steps:
            grid = evolve_gol(grid, report.pre_steps).cells[-1]
        base = evolve_gol(grid, report.post_steps).cells
        pert = evolve_gol(flip_cell(grid, report.flip_pos), report.post_steps).cells
        v0 = bdm_2d(base.reshape(-1, report.grid_width), table32, 2).value
        v1 = bdm_2d(pert.reshape(-1, report.grid_width), table32, 2).value
        assert abs(report.delta_bdm - (v1 - v0)) < 1e-9, f"gol delta mismatch at seed={report.seed}"
