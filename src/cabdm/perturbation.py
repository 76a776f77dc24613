"""Single-cell perturbation experiments on ECA and Game of Life evolutions.

A perturbation flips one cell, both branches are evolved identically, and
the change is scored three ways on the full spacetimes (initial row
included): block-decomposition bits, LZW compressed bytes, and Shannon
block entropy.  Reported deltas are always measure(perturbed) minus
measure(unperturbed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bdm
from .baselines import compressed_size, shannon_block_entropy, temporal_cell_entropy
from .ca import evolve_eca, evolve_gol, flip_cell, random_config, random_grid
from .ctm import CtmTable
from .parallel import _pmap

INIT_LABEL = "perturb-init"
GOL_INIT_LABEL = "gol-init"


@dataclass(frozen=True)
class DeltaReport:
    delta_bdm: float
    delta_compressed_bytes: int
    delta_entropy: float
    rule: int
    seed: int | None
    flip_pos: int | None
    width: int
    steps: int


@dataclass(frozen=True)
class SweepResult:
    rules: tuple[int, ...]
    seeds: tuple[int, ...]
    width: int
    steps: int
    block_len: int
    reports: tuple[DeltaReport, ...]
    mean_delta_bdm: np.ndarray        # (len(rules), width)
    mean_delta_lzw: np.ndarray
    mean_delta_entropy: np.ndarray


def spacetime_measures(cells: np.ndarray, table: CtmTable, b: int) -> tuple[float, int, float]:
    """(BDM bits, LZW bytes, block entropy) of a binary spacetime array."""
    flat = bdm.flatten_binary(cells)
    return (
        bdm.bdm_1d(flat, table, b).value,
        compressed_size(cells),
        shannon_block_entropy(flat, b),
    )


def delta_measures(
    rule: int,
    init,
    flip: int | None,
    steps: int,
    table: CtmTable,
    b: int = bdm.DEFAULT_BLOCK_LEN_1D,
    seed: int | None = None,
) -> DeltaReport:
    """Score one flip of the initial state; ``flip=None`` is the null case."""
    return _flip_deltas(rule, init, (flip,), steps, table, b, seed)[0]


def _flip_deltas(rule, init, flips, steps, table, b, seed) -> list[DeltaReport]:
    """Score each flip position against one unperturbed run of ``init``."""
    init = np.asarray(init, dtype=np.int8)
    m0 = spacetime_measures(evolve_eca(rule, init, steps).cells, table, b)
    reports = []
    for flip in flips:
        m1 = m0 if flip is None else spacetime_measures(evolve_eca(rule, flip_cell(init, flip), steps).cells, table, b)
        reports.append(
            DeltaReport(
                delta_bdm=m1[0] - m0[0],
                delta_compressed_bytes=m1[1] - m0[1],
                delta_entropy=m1[2] - m0[2],
                rule=rule,
                seed=seed,
                flip_pos=flip,
                width=init.shape[0],
                steps=steps,
            )
        )
    return reports


def _sweep_cell(pair, width, steps, density, table, b) -> list[DeltaReport]:
    """All flip positions for one (rule, seed); one stream per pair."""
    rule, seed = pair
    init = random_config(seed, width, density, label=INIT_LABEL)
    return _flip_deltas(rule, init, range(width), steps, table, b, seed)


def perturbation_sweep(
    rules,
    width: int,
    steps: int,
    seeds,
    table: CtmTable,
    b: int = bdm.DEFAULT_BLOCK_LEN_1D,
    density: float = 0.5,
    workers: int = 1,
) -> SweepResult:
    """Flip every initial-state position for each rule and seed; average.

    ``seeds`` is a count or an explicit seed list.  Work is split over
    (rule, seed) pairs; aggregation happens in a fixed (rule, seed, flip)
    order, so the result is identical for any worker count.
    """
    rules = tuple(int(r) for r in rules)
    seed_list = tuple(range(seeds)) if isinstance(seeds, int) else tuple(int(s) for s in seeds)
    if not rules or not seed_list:
        raise ValueError("need at least one rule and one seed")
    pairs = [(rule, seed) for rule in rules for seed in seed_list]
    cell = partial(_sweep_cell, width=width, steps=steps, density=density, table=table, b=b)
    reports = tuple(report for cell_reports in _pmap(cell, pairs, workers) for report in cell_reports)
    deltas = np.array([(r.delta_bdm, r.delta_compressed_bytes, r.delta_entropy) for r in reports], dtype=float)
    # numpy sums a non-last axis in order, so each mean adds seeds left to right.
    means = deltas.reshape(len(rules), len(seed_list), width, 3).mean(axis=1)
    return SweepResult(
        rules=rules,
        seeds=seed_list,
        width=width,
        steps=steps,
        block_len=b,
        reports=reports,
        mean_delta_bdm=means[..., 0],
        mean_delta_lzw=means[..., 1],
        mean_delta_entropy=means[..., 2],
    )


def perturbation_trace(
    rule: int,
    width: int,
    steps: int,
    seed: int,
    flip: int,
    table: CtmTable,
    b: int = bdm.DEFAULT_BLOCK_LEN_1D,
    density: float = 0.5,
):
    """Long-run single flip: both spacetimes plus the per-step BDM delta.

    The trace entry at time t scores the evolutions truncated to rows
    0..t, showing how the perturbation's complexity footprint spreads.
    """
    init = random_config(seed, width, density, label=INIT_LABEL)
    base = evolve_eca(rule, init, steps)
    perturbed = evolve_eca(rule, flip_cell(init, flip), steps)
    flat0, flat1 = bdm.flatten_binary(base.cells), bdm.flatten_binary(perturbed.cells)
    trace = []
    for t in range(steps + 1):
        end = (t + 1) * width  # rows 0..t of the row-major string
        trace.append((t, bdm.bdm_1d(flat1[:end], table, b).value - bdm.bdm_1d(flat0[:end], table, b).value))
    return base, perturbed, trace


@dataclass(frozen=True)
class GolReport:
    """Game of Life central-flip outcome.

    Both candidate objects are scored with both measures: the stacked
    post-perturbation volume (slices stacked slice-major into one tall 2D
    array, where the flip's history always lives) and the final grid alone
    (the observable state, where a vanished perturbation converges back to
    zero).  ``delta_bdm`` is the volume value; ``delta_compressed_bytes``
    compresses the final grids, whose byte count stays exactly flat when
    the flip dies out, with the volume variant alongside.
    ``delta_entropy`` sums the per-cell temporal entropy differences, whose
    full grid is kept in ``entropy_diff_grid``.
    """

    delta_bdm: float
    delta_bdm_final_grid: float
    delta_compressed_bytes: int
    delta_compressed_bytes_volume: int
    delta_entropy: float
    entropy_diff_grid: np.ndarray
    seed: int
    grid_width: int
    grid_height: int
    pre_steps: int
    post_steps: int
    flip_pos: tuple[int, int]


def _volume_bdm(stack: np.ndarray, table: CtmTable, d: int) -> float:
    flat2d = stack.reshape(stack.shape[0] * stack.shape[1], stack.shape[2])
    return bdm.bdm_2d(flat2d, table, d).value


def gol_perturbation(
    grid_w: int = 64,
    grid_h: int = 64,
    density: float = 0.5,
    pre_steps: int = 1000,
    post_steps: int = 100,
    seed: int = 0,
    table: CtmTable | None = None,
    d: int = bdm.DEFAULT_BLOCK_SIDE_2D,
) -> GolReport:
    """Run a grid forward, flip its central cell, and score both branches."""
    if pre_steps < 0:
        raise ValueError("pre_steps must be >= 0")
    if post_steps < 1:
        raise ValueError("post_steps must be >= 1")
    if table is None:
        from .ctm import default_table

        table = default_table()
    grid = random_grid(seed, grid_w, grid_h, density, label=GOL_INIT_LABEL)
    if pre_steps:
        grid = evolve_gol(grid, pre_steps).cells[-1]
    center = (grid_h // 2, grid_w // 2)
    base_stack = evolve_gol(grid, post_steps).cells
    pert_stack = evolve_gol(flip_cell(grid, center), post_steps).cells

    ent0 = temporal_cell_entropy(base_stack)
    ent1 = temporal_cell_entropy(pert_stack)
    diff = ent1 - ent0
    return GolReport(
        delta_bdm=_volume_bdm(pert_stack, table, d) - _volume_bdm(base_stack, table, d),
        delta_bdm_final_grid=bdm.bdm_2d(pert_stack[-1], table, d).value
        - bdm.bdm_2d(base_stack[-1], table, d).value,
        delta_compressed_bytes=compressed_size(pert_stack[-1]) - compressed_size(base_stack[-1]),
        delta_compressed_bytes_volume=compressed_size(pert_stack) - compressed_size(base_stack),
        delta_entropy=float(diff.sum()),
        entropy_diff_grid=diff,
        seed=seed,
        grid_width=grid_w,
        grid_height=grid_h,
        pre_steps=pre_steps,
        post_steps=post_steps,
        flip_pos=center,
    )
