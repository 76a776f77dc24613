from itertools import product

import numpy as np
import pytest

from cabdm import (
    MIXED_NEIGHBORHOODS,
    EcaRule,
    collision_experiment,
    collision_initial_state,
    collision_lattice,
    evolve_eca,
    evolve_interacting,
    random_config,
    sample_interaction_rule,
)
from cabdm import ctm
from cabdm.ca import _evolve
from cabdm.collision import INTERACTION_LABEL, _InteractionStack
from cabdm.rng import Stream


class TestInteractionRule:
    def test_mixed_neighborhood_count_by_enumeration(self):
        mixed = [n for n in product((-1, 0, 1), repeat=3) if 1 in n and -1 in n]
        assert len(mixed) == 12
        assert set(MIXED_NEIGHBORHOODS) == set(mixed)

    def test_pure_positive_delegates_to_rule_a(self):
        interaction = sample_interaction_rule(30, 22, seed=0)
        rule = EcaRule(30)
        for nbhd in product((0, 1), repeat=3):
            if nbhd == (0, 0, 0):
                continue
            row = np.array(nbhd, dtype=np.int8)
            stepped = interaction.step(row)
            assert stepped[1] == rule.table[nbhd]

    def test_pure_negative_delegates_to_relabeled_rule_b(self):
        interaction = sample_interaction_rule(30, 22, seed=0)
        rule = EcaRule(22)
        for nbhd in product((0, -1), repeat=3):
            if nbhd == (0, 0, 0):
                continue
            row = np.array(nbhd, dtype=np.int8)
            stepped = interaction.step(row)
            assert stepped[1] == -rule.table[tuple(-v for v in nbhd)]

    def test_mixed_outcomes_cover_exactly_the_12(self):
        interaction = sample_interaction_rule(30, 22, seed=5)
        assert set(interaction.mixed_outcomes) == set(MIXED_NEIGHBORHOODS)
        assert all(v in (-1, 0, 1) for v in interaction.mixed_outcomes.values())

    def test_same_seed_same_rule(self):
        a = sample_interaction_rule(30, 22, seed=9)
        b = sample_interaction_rule(30, 22, seed=9)
        assert a.mixed_outcomes == b.mixed_outcomes

    def test_seeds_vary_outcomes(self):
        outcomes = {tuple(sorted(sample_interaction_rule(30, 22, seed=s).mixed_outcomes.items())) for s in range(8)}
        assert len(outcomes) > 1

    def test_zero_neighborhood_agreement(self):
        # Rules 30 and 22 both map 000 -> 0: no conflict, outcome 0.
        interaction = sample_interaction_rule(30, 22, seed=0)
        assert not interaction.zero_conflict
        assert interaction.step(np.zeros(3, dtype=np.int8))[1] == 0

    def test_zero_neighborhood_conflict_flagged(self):
        # Rule 1 maps 000 -> 1 while relabeled rule 1 maps it to -1.
        conflicted = [sample_interaction_rule(1, 1, seed=s) for s in range(30)]
        assert all(ir.zero_conflict for ir in conflicted)
        outcomes = {int(ir.step(np.zeros(3, dtype=np.int8))[1]) for ir in conflicted}
        assert len(outcomes) > 1  # sampled, not delegated


def reference_outcomes(rule_a: int, rule_b: int, seed: int) -> dict:
    """Outcome per ternary neighbourhood, decided one neighbourhood at a time:
    12 mixed draws in ascending order, then a zero draw on a conflict."""
    stream = Stream(INTERACTION_LABEL, seed)
    hoods = list(product((-1, 0, 1), repeat=3))
    mixed = {h: stream.next_below(3) - 1 for h in hoods if 1 in h and -1 in h}
    zero_a, zero_b = rule_a & 1, -(rule_b & 1)
    out = {(0, 0, 0): stream.next_below(3) - 1 if zero_a != zero_b else zero_a}
    for l, c, r in hoods:
        if (l, c, r) in mixed:
            out[(l, c, r)] = mixed[(l, c, r)]
        elif (l, c, r) == (0, 0, 0):
            continue
        elif -1 not in (l, c, r):
            out[(l, c, r)] = rule_a >> (4 * l + 2 * c + r) & 1
        else:
            out[(l, c, r)] = -(rule_b >> (-4 * l - 2 * c - r) & 1)
    return out


class TestInteractionTable:
    @pytest.mark.parametrize("rule_b", [0, 1, 22, 30, 54, 110, 128, 255])
    def test_matches_per_neighbourhood_reference(self, rule_b):
        hoods = list(product((-1, 0, 1), repeat=3))
        rows = [np.array(h, dtype=np.int8) for h in hoods]
        for rule_a in range(256):
            for seed in (0, rule_a * 31 + rule_b):
                interaction = sample_interaction_rule(rule_a, rule_b, seed)
                expected = reference_outcomes(rule_a, rule_b, seed)
                got = {h: int(interaction.step(row)[1]) for h, row in zip(hoods, rows)}
                assert got == expected, (rule_a, rule_b, seed)

    @pytest.mark.parametrize("rule_b", [0, 1, 22, 30, 54, 110, 128, 255])
    def test_stacked_step_matches_rule_by_rule(self, rule_b):
        interactions = [
            sample_interaction_rule(rule_a, rule_b, seed)
            for rule_a in range(256)
            for seed in (0, rule_a * 31 + rule_b)
        ]
        stream = Stream("stacked-step", rule_b)
        rows = np.array([[stream.next_below(3) - 1 for _ in range(11)] for _ in interactions], dtype=np.int8)
        stacked = _evolve(_InteractionStack(np.stack([r._lut for r in interactions])), rows, 6).cells
        for i, (interaction, row) in enumerate(zip(interactions, rows)):
            alone = evolve_interacting(interaction, row, 6).cells
            assert np.array_equal(stacked[:, i], alone), (interaction.rule_a.number, rule_b, interaction.seed)


def reference_interacting(interaction, init, steps):
    """Cell by cell from the rule's parts: a mixed neighbourhood takes its
    sampled outcome, a {0, 1} one bit 4l+2c+r of rule_a's Wolfram number, a
    {0, -1} one the negated bit -(4l+2c+r) of rule_b's.  The all-zero
    neighbourhood is rule_a's bit 0, which both rules share when there is no
    zero conflict."""
    assert not interaction.zero_conflict
    a, b = interaction.rule_a.number, interaction.rule_b.number
    rows = [[int(v) for v in init]]
    for _ in range(steps):
        row, out = rows[-1], []
        for i in range(len(row)):
            hood = (row[i - 1], row[i], row[(i + 1) % len(row)])
            if hood in interaction.mixed_outcomes:
                out.append(interaction.mixed_outcomes[hood])
            elif -1 not in hood:
                out.append(a >> (4 * hood[0] + 2 * hood[1] + hood[2]) & 1)
            else:
                out.append(-(b >> (-4 * hood[0] - 2 * hood[1] - hood[2]) & 1))
        rows.append(out)
    return np.array(rows, dtype=np.int8)


class TestEvolveInteracting:
    def test_binary_init_reduces_to_rule_a(self):
        interaction = sample_interaction_rule(30, 22, seed=4)
        init = random_config(2, 40, 0.5)
        mixed = evolve_interacting(interaction, init, 25)
        pure = evolve_eca(30, init, 25)
        assert np.array_equal(mixed.cells, pure.cells)

    def test_negative_init_reduces_to_relabeled_rule_b(self):
        interaction = sample_interaction_rule(30, 22, seed=4)
        init = random_config(2, 40, 0.5)
        mixed = evolve_interacting(interaction, -init, 25)
        pure = evolve_eca(22, init, 25)
        assert np.array_equal(mixed.cells, -pure.cells)

    def test_shape(self):
        interaction = sample_interaction_rule(30, 22, seed=0)
        st = evolve_interacting(interaction, collision_initial_state(10, 20), 20)
        assert st.cells.shape == (21, collision_lattice(10, 20)[0])

    def test_alphabet_violation(self):
        interaction = sample_interaction_rule(30, 22, seed=0)
        with pytest.raises(ValueError):
            evolve_interacting(interaction, np.array([0, 2, 0]), 3)

    def test_matches_reference_stepper(self):
        interaction = sample_interaction_rule(110, 30, seed=1)
        init = collision_initial_state(6, 12)
        st = evolve_interacting(interaction, init, 12)
        assert np.array_equal(st.cells, reference_interacting(interaction, init, 12))

    def test_collision_run_matches_reference_stepper(self):
        # The paper's lattice: rule 30 meets rule 22 across a 40-cell gap.
        interaction = sample_interaction_rule(30, 22, seed=7)
        init = collision_initial_state(40, 100)
        st = evolve_interacting(interaction, init, 100)
        assert np.array_equal(st.cells, reference_interacting(interaction, init, 100))
        assert (st.cells == 1).any() and (st.cells == -1).any()


class TestLightCones:
    def test_lattice_sizing(self):
        width, pos_plus, pos_minus = collision_lattice(40, 100)
        assert width == 40 + 2 + 2 * 100
        assert pos_minus - pos_plus == 41
        init = collision_initial_state(40, 100)
        assert init[pos_plus] == 1 and init[pos_minus] == -1 and init.sum() == 0

    def test_non_interaction_union(self):
        # Light cones spread one cell per step; with steps < gap/2 the two
        # automata cannot meet, so the collision is the cellwise union.
        gap, steps = 40, 15
        interaction = sample_interaction_rule(30, 22, seed=3)
        init = collision_initial_state(gap, steps)
        width, pos_plus, pos_minus = collision_lattice(gap, steps)
        joint = evolve_interacting(interaction, init, steps)

        iso_a = np.zeros(width, dtype=np.int8)
        iso_a[pos_plus] = 1
        iso_b = np.zeros(width, dtype=np.int8)
        iso_b[pos_minus] = 1
        union = evolve_eca(30, iso_a, steps).cells - evolve_eca(22, iso_b, steps).cells
        assert np.array_equal(joint.cells, union)


class TestCollisionExperiment:
    def test_report_count_and_determinism(self, table32):
        a = collision_experiment(30, 22, 12, 20, 5, table32)
        b = collision_experiment(30, 22, 12, 20, 5, table32)
        assert len(a) == 5
        assert a == b

    def test_deltas_recomputable_from_absolutes(self, table32):
        for report in collision_experiment(30, 22, 10, 18, 4, table32):
            assert report.delta_bdm_a == report.bdm_collision - report.bdm_a_iso
            assert report.delta_bdm_b == report.bdm_collision - report.bdm_b_iso
            assert report.delta_lzw_a == report.lzw_collision - report.lzw_a_iso
            assert report.delta_lzw_b == report.lzw_collision - report.lzw_b_iso

    def test_isolated_values_constant_across_seeds(self, table32):
        reports = collision_experiment(30, 22, 10, 18, 6, table32)
        assert len({r.bdm_a_iso for r in reports}) == 1
        assert len({r.lzw_b_iso for r in reports}) == 1

    def test_sampled_rules_spread_bdm(self, table32):
        reports = collision_experiment(30, 22, 14, 30, 12, table32)
        assert len({r.bdm_collision for r in reports}) > 1

    def test_float_seeds_rejected_numpy_ints_accepted(self, table32):
        with pytest.raises(TypeError):
            collision_experiment(30, 22, 10, 18, 1, table32, interaction_seeds=[0.9])
        reports = collision_experiment(np.int64(30), 22, 10, 18, 2, table32, interaction_seeds=np.arange(2))
        assert [type(v) for v in (reports[0].rule_a, reports[1].interaction_seed)] == [int, int]
        assert reports == collision_experiment(30, 22, 10, 18, 2, table32)

    def test_chunked_stacks_match_one_stack(self, table32, monkeypatch):
        whole = collision_experiment(30, 22, 10, 18, 7, table32)
        width = collision_lattice(10, 18)[0]
        for rows in (3, 1):  # 7 rules as stacks of 3, 3, 1, then as seven stacks of 1
            monkeypatch.setattr(ctm, "_TAPE_BYTES", rows * 19 * width)
            assert collision_experiment(30, 22, 10, 18, 7, table32) == whole

    def test_bad_parameters(self, table32):
        with pytest.raises(ValueError):
            collision_experiment(30, 22, -1, 10, 2, table32)
        with pytest.raises(ValueError):
            collision_experiment(30, 22, 10, 10, 0, table32)
