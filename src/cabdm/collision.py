"""Two elementary automata colliding on a shared ternary lattice.

One rule acts on {0, 1} cells, the other on {0, -1} cells (its ordinary
binary behavior relabeled 1 -> -1).  Neighborhoods where both nonzero cell
types meet have no defined outcome, so the 12 mixed cases get uniformly
sampled outcomes in {-1, 0, 1}; pure neighborhoods keep each automaton's
own behavior.  The all-zero neighborhood belongs to both pure sets: when
the two rules disagree there (anything other than a shared 0), the outcome
is sampled as well and flagged on the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import bdm
from .baselines import compressed_size
from .ca import EcaRule, Spacetime, _cells, _eca_rule, _evolve, _TableRule, evolve_eca
from .ctm import CtmTable
from .rng import Stream

INTERACTION_LABEL = "collision-interaction"

#: The ternary neighborhoods containing at least one 1 and one -1, in
#: ascending order; exactly 27 - 8 - 8 + 1 = 12 of them.
MIXED_NEIGHBORHOODS: tuple[tuple[int, int, int], ...] = tuple(
    nbhd
    for nbhd in product((-1, 0, 1), repeat=3)
    if 1 in nbhd and -1 in nbhd
)


@dataclass(frozen=True, eq=False)
class InteractionRule(_TableRule):
    rule_a: EcaRule
    rule_b: EcaRule
    mixed_outcomes: dict[tuple[int, int, int], int]
    seed: int
    zero_conflict: bool
    _lut: np.ndarray  # (3,3,3) outcome table indexed by cell value


def sample_interaction_rule(rule_a: EcaRule | int, rule_b: EcaRule | int, seed: int) -> InteractionRule:
    """Draw the mixed-neighborhood outcomes for a rule pair from a stream."""
    rule_a, rule_b = _eca_rule(rule_a), _eca_rule(rule_b)
    stream = Stream(INTERACTION_LABEL, seed)
    mixed = {nbhd: stream.next_below(3) - 1 for nbhd in MIXED_NEIGHBORHOODS}

    zero_a = rule_a.table[(0, 0, 0)]
    zero_b = -rule_b.table[(0, 0, 0)]
    zero_conflict = zero_a != zero_b

    lut = np.zeros((3, 3, 3), dtype=np.int8)
    lut[:2, :2, :2] = rule_a._lut
    lut[np.ix_((0, 2), (0, 2), (0, 2))] = -rule_b._lut  # slot 2 holds -1 cells
    for nbhd, outcome in mixed.items():
        lut[nbhd] = outcome
    lut[0, 0, 0] = stream.next_below(3) - 1 if zero_conflict else zero_a
    return InteractionRule(
        rule_a=rule_a,
        rule_b=rule_b,
        mixed_outcomes=mixed,
        seed=seed,
        zero_conflict=zero_conflict,
        _lut=lut,
    )


def evolve_interacting(rule: InteractionRule, init, steps: int) -> Spacetime:
    """Evolve a cyclic ternary row under an interaction rule."""
    return _evolve(rule, _cells(init, (-1, 0, 1), 1), steps)


@dataclass(frozen=True)
class CollisionReport:
    rule_a: int
    rule_b: int
    interaction_seed: int
    bdm_collision: float
    bdm_a_iso: float
    bdm_b_iso: float
    delta_bdm_a: float
    delta_bdm_b: float
    lzw_collision: int
    lzw_a_iso: int
    lzw_b_iso: int
    delta_lzw_a: int
    delta_lzw_b: int


def collision_lattice(gap: int, steps: int) -> tuple[int, int, int]:
    """(width, +1 seed position, -1 seed position) for a gap/steps pair.

    The width gap + 2 + 2*steps leaves a steps-wide margin on each side, so
    wrap-around influence cannot reach either seed's light cone in time.
    """
    if gap < 0:
        raise ValueError("gap must be >= 0")
    width = gap + 2 + 2 * steps
    left = (width - gap - 2) // 2
    return width, left, left + gap + 1


def collision_initial_state(gap: int, steps: int) -> np.ndarray:
    width, pos_plus, pos_minus = collision_lattice(gap, steps)
    row = np.zeros(width, dtype=np.int8)
    row[pos_plus] = 1
    row[pos_minus] = -1
    return row


def collision_experiment(
    rule_a: int,
    rule_b: int,
    gap: int,
    steps: int,
    n_rules: int,
    table: CtmTable,
    b: int = bdm.DEFAULT_BLOCK_LEN_1D,
    interaction_seeds=None,
) -> list[CollisionReport]:
    """Sample interaction rules and score each collision against isolation.

    The isolated runs evolve each rule alone (in its binary form) from its
    own single seed on the same lattice; they do not depend on the sampled
    interaction, so they are computed once.
    """
    if n_rules < 1:
        raise ValueError("n_rules must be >= 1")
    if interaction_seeds is None:
        interaction_seeds = range(n_rules)
    seeds = [int(s) for s in interaction_seeds]
    if len(seeds) != n_rules:
        raise ValueError("interaction_seeds length must equal n_rules")

    init = collision_initial_state(gap, steps)
    st_a = evolve_eca(rule_a, (init == 1).astype(np.int8), steps)
    st_b = evolve_eca(rule_b, (init == -1).astype(np.int8), steps)
    bdm_a = bdm.bdm_1d(bdm.flatten_binary(st_a.cells), table, b).value
    bdm_b = bdm.bdm_1d(bdm.flatten_binary(st_b.cells), table, b).value
    lzw_a = compressed_size(st_a.cells)
    lzw_b = compressed_size(st_b.cells)

    reports = []
    for seed in seeds:
        interaction = sample_interaction_rule(rule_a, rule_b, seed)
        st = evolve_interacting(interaction, init, steps)
        bdm_c = bdm.bdm_1d(bdm.flatten_ternary(st.cells), table, b).value
        lzw_c = compressed_size(st.cells)
        reports.append(
            CollisionReport(
                rule_a=int(rule_a),
                rule_b=int(rule_b),
                interaction_seed=seed,
                bdm_collision=bdm_c,
                bdm_a_iso=bdm_a,
                bdm_b_iso=bdm_b,
                delta_bdm_a=bdm_c - bdm_a,
                delta_bdm_b=bdm_c - bdm_b,
                lzw_collision=lzw_c,
                lzw_a_iso=lzw_a,
                lzw_b_iso=lzw_b,
                delta_lzw_a=lzw_c - lzw_a,
                delta_lzw_b=lzw_c - lzw_b,
            )
        )
    return reports
