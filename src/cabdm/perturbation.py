"""Single-cell perturbation experiments on ECA and Game of Life evolutions.

A perturbation flips one cell, both branches are evolved identically (by
``_branches``, the one flip engine of the sweep, the trace and the Game of
Life protocol), and the change is scored three ways on the full spacetimes
(initial row included): block-decomposition bits, LZW compressed bytes, and
Shannon block entropy.  Reported deltas are always measure(perturbed) minus
measure(unperturbed).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bdm, ctm
from .baselines import compressed_size, partition_entropy, temporal_cell_entropy
from .ca import (
    GOL_RULE, Spacetime, _eca_rule, _evolve, _gol_grid, evolve_eca, evolve_gol, flip_cell, random_config, random_grid
)
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
    """(BDM bits, LZW bytes, block entropy) of a binary spacetime; the entropy counts the BDM blocks."""
    value = bdm.bdm_1d(bdm.flatten_binary(cells), table, b)
    return value.value, compressed_size(cells), partition_entropy(value.partition)


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


def _branches(rule, init, flips, steps):
    """Yield the spacetime of ``init`` under an ``EcaRule`` or ``GOL_RULE`` (from the public
    evolve, which checks ``init``), then one per flip of its first configuration: each copy
    made by ``flip_cell`` (None: no flip), all evolved together in ``ctm._budget_chunks`` runs."""
    base = (evolve_gol(init, steps) if rule is GOL_RULE else evolve_eca(rule, init, steps)).cells
    yield base
    for part in ctm._budget_chunks(flips, base.size):
        stack = np.stack([base[0] if flip is None else flip_cell(base[0], flip) for flip in part])
        yield from _evolve(rule, stack, steps).cells.swapaxes(0, 1)


def _flip_deltas(rule, init, flips, steps, table, b, seed) -> list[DeltaReport]:
    """Score each flip position against one unperturbed run of ``init``."""
    rule = _eca_rule(rule)
    flips = [None if flip is None else operator.index(flip) for flip in flips]
    m0, *flipped = (spacetime_measures(cells, table, b) for cells in _branches(rule, init, flips, steps))
    return [
        DeltaReport(
            delta_bdm=m1[0] - m0[0],
            delta_compressed_bytes=m1[1] - m0[1],
            delta_entropy=m1[2] - m0[2],
            rule=rule.number,
            seed=seed,
            flip_pos=flip,
            width=len(init),
            steps=steps,
        )
        for flip, m1 in zip(flips, flipped)
    ]


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
    rules = tuple(operator.index(r) for r in rules)
    try:
        seed_list = tuple(range(operator.index(seeds)))
    except TypeError:
        seed_list = tuple(operator.index(s) for s in seeds)
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
    base, perturbed = _branches(_eca_rule(rule), init, (operator.index(flip),), steps)
    # Each branch's BDM of rows 0..t of its row-major string, for every t.
    v0, v1 = (
        [bdm.bdm_1d(flat[: (t + 1) * width], table, b).value for t in range(steps + 1)]
        for flat in map(bdm.flatten_binary, (base, perturbed))
    )
    trace = list(enumerate(x1 - x0 for x1, x0 in zip(v1, v0)))
    return Spacetime(base), Spacetime(perturbed), trace


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


def _gol_measures(stack: np.ndarray, table: CtmTable, d: int) -> tuple:
    """(volume BDM, final-grid BDM, final-grid LZW, volume LZW, temporal-entropy grid) of a branch."""
    return (
        bdm.bdm_2d(stack.reshape(-1, stack.shape[-1]), table, d).value,
        bdm.bdm_2d(stack[-1], table, d).value,
        compressed_size(stack[-1]),
        compressed_size(stack),
        temporal_cell_entropy(stack),
    )


def gol_perturbation(
    grid_w: int = 64,
    grid_h: int = 64,
    density: float = 0.5,
    pre_steps: int = 1000,
    post_steps: int = 100,
    seed: int = 0,
    *,
    table: CtmTable,
    d: int = bdm.DEFAULT_BLOCK_SIDE_2D,
) -> GolReport:
    """Run a grid forward, flip its central cell, and score both branches."""
    if pre_steps < 0:
        raise ValueError("pre_steps must be >= 0")
    if post_steps < 1:
        raise ValueError("post_steps must be >= 1")
    grid = _gol_grid(random_grid(seed, grid_w, grid_h, density, label=GOL_INIT_LABEL))
    for _ in range(pre_steps):  # keeps the last grid, not the pre-run's history
        grid = GOL_RULE.step(grid)
    center = (grid_h // 2, grid_w // 2)
    m0, m1 = (_gol_measures(stack, table, d) for stack in _branches(GOL_RULE, grid, (center,), post_steps))
    volume, final, lzw_final, lzw_volume, diff = (x1 - x0 for x1, x0 in zip(m1, m0))
    return GolReport(
        delta_bdm=volume,
        delta_bdm_final_grid=final,
        delta_compressed_bytes=lzw_final,
        delta_compressed_bytes_volume=lzw_volume,
        delta_entropy=float(diff.sum()),
        entropy_diff_grid=diff,
        seed=seed,
        grid_width=grid_w,
        grid_height=grid_h,
        pre_steps=pre_steps,
        post_steps=post_steps,
        flip_pos=center,
    )
