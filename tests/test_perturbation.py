import numpy as np
import pytest

from cabdm import (
    bdm_1d,
    bdm_2d,
    delta_measures,
    evolve_eca,
    evolve_gol,
    flatten_binary,
    flip_cell,
    gol_perturbation,
    perturbation_sweep,
    perturbation_trace,
    random_config,
    spacetime_measures,
)


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
