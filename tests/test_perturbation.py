import numpy as np
import pytest

from cabdm import (
    EcaRule,
    bdm_1d,
    bdm_2d,
    compressed_size,
    delta_measures,
    evolve_eca,
    evolve_gol,
    flatten_binary,
    flip_cell,
    gol_perturbation,
    perturbation_sweep,
    perturbation_trace,
    random_config,
    random_grid,
    shannon_block_entropy,
    spacetime_measures,
    temporal_cell_entropy,
)
from cabdm import ca, ctm, perturbation
from cabdm.perturbation import GOL_INIT_LABEL, INIT_LABEL


class TestDeltaMeasures:
    def test_null_perturbation_is_zero(self, table32):
        report = delta_measures(30, random_config(1, 30, 0.5), None, 12, table32)
        assert report.delta_bdm == 0.0
        assert report.delta_compressed_bytes == 0
        assert report.delta_entropy == 0.0

    def test_rule0_single_cell_difference(self, table32):
        # Under rule 0 both spacetimes are all-zero after row 0, so the
        # deltas reduce to the one flipped cell in the initial row.
        init = np.zeros(24, dtype=np.int8)
        report = delta_measures(0, init, 5, 10, table32, seed=None)
        base = evolve_eca(0, init, 10)
        pert = evolve_eca(0, flip_cell(init, 5), 10)
        m0 = spacetime_measures(base.cells, table32, 6)
        m1 = spacetime_measures(pert.cells, table32, 6)
        assert report.delta_bdm == m1[0] - m0[0] != 0.0
        assert report.delta_compressed_bytes == m1[1] - m0[1]
        assert report.delta_entropy == pytest.approx(m1[2] - m0[2])
        assert (pert.cells != base.cells).sum() == 1

    def test_rule204_column_difference_and_recomputation(self, table32):
        init = random_config(9, 30, 0.5)
        flip = 11
        report = delta_measures(204, init, flip, 8, table32)
        base = evolve_eca(204, init, 8)
        pert = evolve_eca(204, flip_cell(init, flip), 8)
        diff = base.cells != pert.cells
        assert diff[:, flip].all() and diff.sum() == 9
        expected = (
            bdm_1d(flatten_binary(pert.cells), table32, 6).value
            - bdm_1d(flatten_binary(base.cells), table32, 6).value
        )
        assert report.delta_bdm == pytest.approx(expected, abs=1e-12)

    def test_flip_involution_negates_deltas(self, table32):
        init = random_config(4, 40, 0.5)
        forward = delta_measures(30, init, 7, 15, table32)
        backward = delta_measures(30, flip_cell(init, 7), 7, 15, table32)
        assert forward.delta_bdm == pytest.approx(-backward.delta_bdm, abs=1e-9)
        assert forward.delta_compressed_bytes == -backward.delta_compressed_bytes
        assert forward.delta_entropy == pytest.approx(-backward.delta_entropy, abs=1e-9)

    def test_rule_recorded_as_plain_int(self, table32):
        init = random_config(3, 20, 0.5)
        for rule in (30, EcaRule(30), np.uint8(30), np.int64(30)):
            report = delta_measures(rule, init, 4, 6, table32)
            assert type(report.rule) is int and report.rule == 30
            assert report == delta_measures(30, init, 4, 6, table32)

    def test_flip_out_of_bounds(self, table32):
        init = random_config(3, 20, 0.5)
        for flip in (-1, 20):
            with pytest.raises(IndexError, match="out of bounds for shape"):
                delta_measures(30, init, flip, 6, table32)


class TestSpacetimeMeasures:
    def test_entropy_equals_block_entropy_of_flattened_string(self, table32):
        for width, steps, b in ((7, 4, 6), (11, 5, 4), (13, 3, 7), (101, 80, 6), (9, 2, 5)):
            cells = evolve_eca(30, random_config(width, width, 0.5), steps).cells
            flat = flatten_binary(cells)
            assert len(flat) % b != 0
            assert spacetime_measures(cells, table32, b)[2] == shannon_block_entropy(flat, b)


class TestSweep:
    def test_matrix_shape(self, table32):
        sweep = perturbation_sweep([30, 54], 20, 10, 2, table32)
        assert sweep.mean_delta_bdm.shape == (2, 20)
        assert sweep.mean_delta_lzw.shape == (2, 20)
        assert len(sweep.reports) == 2 * 2 * 20

    def test_single_seed_mean_equals_reports(self, table32):
        sweep = perturbation_sweep([30], 16, 8, 1, table32)
        for report in sweep.reports:
            assert sweep.mean_delta_bdm[0, report.flip_pos] == report.delta_bdm

    def test_deterministic_and_worker_independent(self, table32):
        a = perturbation_sweep([30, 2], 14, 8, 2, table32)
        b = perturbation_sweep([30, 2], 14, 8, 2, table32, workers=2)
        assert a.reports == b.reports
        assert np.array_equal(a.mean_delta_bdm, b.mean_delta_bdm)

    def test_explicit_seed_list(self, table32):
        a = perturbation_sweep([30], 12, 6, [5, 9], table32)
        b = perturbation_sweep([30], 12, 6, [5, 9], table32)
        assert a.reports == b.reports
        assert a.seeds == (5, 9)

    def test_float_rules_and_seeds_rejected_numpy_ints_accepted(self, table32):
        with pytest.raises(TypeError):
            perturbation_sweep([30.7], 12, 6, [5], table32)
        with pytest.raises(TypeError):
            perturbation_sweep([30], 12, 6, [1.9], table32)
        numpy_ints = perturbation_sweep([np.uint8(30)], 12, 6, [np.int64(5)], table32)
        assert (numpy_ints.rules, numpy_ints.seeds) == ((30,), (5,))
        assert numpy_ints.reports == perturbation_sweep([30], 12, 6, [5], table32).reports
        counted = perturbation_sweep([30], 12, 6, 2, table32)
        for count in (np.int64(2), np.uint8(2), np.array(2)):
            sweep = perturbation_sweep([30], 12, 6, count, table32)
            assert sweep.seeds == (0, 1) and sweep.reports == counted.reports
        with pytest.raises(TypeError):
            perturbation_sweep([30], 12, 6, 2.0, table32)

    def test_batched_sweep_matches_chunks_workers_and_per_flip_reference(self, table32, monkeypatch):
        rules, width, steps, seeds, b = (30, 54), 10, 7, 2, 6
        whole = perturbation_sweep(rules, width, steps, seeds, table32)
        runs = [perturbation_sweep(rules, width, steps, seeds, table32, workers=2)]
        batches = []
        evolve = perturbation._evolve

        def recording_evolve(rule, init, n):
            batches.append(init.shape)
            return evolve(rule, init, n)

        monkeypatch.setattr(perturbation, "_evolve", recording_evolve)
        for rows in (3, 1):  # 10 flips as chunks of 3, 3, 3, 1, then as ten chunks of 1
            monkeypatch.setattr(ctm, "_TAPE_BYTES", rows * (steps + 1) * width)
            batches.clear()
            runs.append(perturbation_sweep(rules, width, steps, seeds, table32))
            assert max(shape[0] for shape in batches) == rows
            assert [shape[0] for shape in batches[:4]] == ([3, 3, 3, 1] if rows == 3 else [1] * 4)
        for run in runs:
            assert run.reports == whole.reports
            for name in ("mean_delta_bdm", "mean_delta_lzw", "mean_delta_entropy"):
                assert np.array_equal(getattr(run, name), getattr(whole, name))

        def measures(cells):
            flat = flatten_binary(cells)
            return bdm_1d(flat, table32, b).value, compressed_size(cells), shannon_block_entropy(flat, b)

        reports = iter(whole.reports)
        for rule in rules:
            for seed in range(seeds):
                init = random_config(seed, width, 0.5, label=INIT_LABEL)
                m0 = measures(evolve_eca(rule, init, steps).cells)
                for flip in range(width):
                    m1 = measures(evolve_eca(rule, flip_cell(init, flip), steps).cells)
                    deltas = tuple(x1 - x0 for x1, x0 in zip(m1, m0))
                    report = next(reports)
                    assert (report.rule, report.seed, report.flip_pos) == (rule, seed, flip)
                    assert (report.delta_bdm, report.delta_compressed_bytes, report.delta_entropy) == deltas

    def test_mean_recomputable_from_reports(self, table32):
        """Bit for bit a running sum over seeds in seed order, then one division."""
        sweep = perturbation_sweep([22, 54], 10, 6, 3, table32)
        means = (sweep.mean_delta_bdm, sweep.mean_delta_lzw, sweep.mean_delta_entropy)
        for i, rule in enumerate(sweep.rules):
            for pos in range(10):
                total = [0.0, 0.0, 0.0]
                for r in sweep.reports:
                    if r.rule == rule and r.flip_pos == pos:
                        for k, delta in enumerate((r.delta_bdm, r.delta_compressed_bytes, r.delta_entropy)):
                            total[k] += delta
                assert [mean[i, pos] for mean in means] == [t / len(sweep.seeds) for t in total]


class TestTrace:
    def test_trace_shape_and_consistency(self, table32):
        base, perturbed, trace = perturbation_trace(54, 40, 20, 0, 20, table32)
        assert len(trace) == 21
        assert base.cells.shape == perturbed.cells.shape == (21, 40)
        # Last entry scores the full spacetimes.
        full = (
            bdm_1d(flatten_binary(perturbed.cells), table32, 6).value
            - bdm_1d(flatten_binary(base.cells), table32, 6).value
        )
        assert trace[-1][1] == pytest.approx(full, abs=1e-12)

    def test_matches_two_separate_evolutions(self, table32):
        rule, width, steps, seed, flip, b = 54, 30, 12, 4, 7, 6
        base, perturbed, trace = perturbation_trace(rule, width, steps, seed, flip, table32, b)
        init = random_config(seed, width, 0.5, label=INIT_LABEL)
        want_base = evolve_eca(rule, init, steps).cells
        want_perturbed = evolve_eca(rule, flip_cell(init, flip), steps).cells
        assert np.array_equal(base.cells, want_base)
        assert np.array_equal(perturbed.cells, want_perturbed)
        flat0, flat1 = flatten_binary(want_base), flatten_binary(want_perturbed)
        want = []
        for t in range(steps + 1):
            end = (t + 1) * width
            want.append((t, bdm_1d(flat1[:end], table32, b).value - bdm_1d(flat0[:end], table32, b).value))
        assert trace == want
        assert any(delta != 0.0 for _, delta in trace)

    def test_flip_out_of_bounds(self, table32):
        for flip in (-1, 30):
            with pytest.raises(IndexError, match="out of bounds for shape"):
                perturbation_trace(54, 30, 4, 0, flip, table32)


class TestGolPerturbation:
    def test_dead_grid_lone_cell_dies(self, table32):
        # Flipping the center of an empty grid births a cell with no
        # neighbors; it dies in one step and the branches re-converge.
        report = gol_perturbation(
            grid_w=8, grid_h=8, density=0.0, pre_steps=0, post_steps=5, seed=0, table=table32
        )
        assert report.delta_bdm_final_grid == 0.0
        assert report.delta_compressed_bytes == 0  # final grids identical
        assert report.delta_bdm != 0.0  # slice 0 still differs in the volume
        diff = report.entropy_diff_grid
        assert diff[4, 4] != 0.0
        assert (np.abs(diff) > 0).sum() == 1  # only the flipped cell's history moved

    def test_volume_delta_matches_recomputation(self, table32):
        report = gol_perturbation(
            grid_w=12, grid_h=12, density=0.5, pre_steps=8, post_steps=6, seed=3, table=table32
        )
        from cabdm.ca import random_grid

        grid = random_grid(3, 12, 12, 0.5, label="gol-init")
        grid = evolve_gol(grid, 8).cells[-1]
        base = evolve_gol(grid, 6).cells
        pert = evolve_gol(flip_cell(grid, (6, 6)), 6).cells
        expected = (
            bdm_2d(pert.reshape(-1, 12), table32, 2).value
            - bdm_2d(base.reshape(-1, 12), table32, 2).value
        )
        assert report.delta_bdm == pytest.approx(expected, abs=1e-9)

    def test_matches_two_separate_evolutions(self, table32):
        w, h, pre, post, seed, d = 10, 7, 6, 5, 2, 2  # not square, so the grid axes cannot be swapped
        report = gol_perturbation(w, h, 0.5, pre, post, seed=seed, table=table32, d=d)
        grid = evolve_gol(random_grid(seed, w, h, 0.5, label=GOL_INIT_LABEL), pre).cells[-1]
        center = (h // 2, w // 2)
        base = evolve_gol(grid, post).cells
        pert = evolve_gol(flip_cell(grid, center), post).cells
        entropy = temporal_cell_entropy(pert) - temporal_cell_entropy(base)

        def volume_bdm(stack):  # the slices stacked into one tall grid
            return bdm_2d(stack.reshape(-1, w), table32, d).value

        assert report.flip_pos == center
        assert report.delta_bdm == volume_bdm(pert) - volume_bdm(base)
        assert report.delta_bdm_final_grid == bdm_2d(pert[-1], table32, d).value - bdm_2d(base[-1], table32, d).value
        assert report.delta_compressed_bytes == compressed_size(pert[-1]) - compressed_size(base[-1])
        assert report.delta_compressed_bytes_volume == compressed_size(pert) - compressed_size(base)
        assert np.array_equal(report.entropy_diff_grid, entropy)
        assert report.delta_entropy == float(entropy.sum())
        assert report.delta_bdm != 0.0 and (entropy != 0).any()

    def test_deterministic(self, table32):
        a = gol_perturbation(10, 10, 0.4, 5, 4, seed=7, table=table32)
        b = gol_perturbation(10, 10, 0.4, 5, 4, seed=7, table=table32)
        assert a.delta_bdm == b.delta_bdm
        assert a.delta_compressed_bytes == b.delta_compressed_bytes
        assert np.array_equal(a.entropy_diff_grid, b.entropy_diff_grid)

    def test_parameter_validation(self, table32):
        with pytest.raises(ValueError):
            gol_perturbation(8, 8, 0.5, -1, 5, table=table32)
        with pytest.raises(ValueError):
            gol_perturbation(8, 8, 0.5, 5, 0, table=table32)

    @pytest.mark.parametrize("pre_steps", [0, 3])
    def test_grid_under_3x3_rejected(self, table32, pre_steps):
        with pytest.raises(ValueError, match="at least 3x3"):
            gol_perturbation(2, 8, 0.5, pre_steps, 1, table=table32)

    def test_pre_run_keeps_no_history(self, table32, monkeypatch):
        # Only the two post-flip branches are evolved as stacks: the pre-run steps one grid.
        evolved, evolve = [], ca._evolve

        def recording(rule, init, steps):
            evolved.append((init.shape, steps))
            return evolve(rule, init, steps)

        monkeypatch.setattr(perturbation, "_evolve", recording)
        monkeypatch.setattr(ca, "_evolve", recording)
        gol_perturbation(9, 7, 0.5, 50, 4, table=table32)
        assert evolved == [((7, 9), 4), ((1, 7, 9), 4)]

    def test_table_is_a_required_keyword(self, table32):
        with pytest.raises(TypeError):
            gol_perturbation(8, 8, 0.5, 5, 1)
        with pytest.raises(TypeError):
            gol_perturbation(8, 8, 0.5, 5, 1, 0, table32)
