import numpy as np
import pytest

from cabdm import load_table
from cabdm.cli import emit_csv, emit_pgm, read_pgm, run, ternary_to_pgm


class TestEmitPgm:
    def test_exact_bytes_for_all_zero(self, tmp_path):
        path = tmp_path / "z.pgm"
        emit_pgm(np.zeros((2, 3), dtype=int), path)
        assert path.read_bytes() == b"P2\n3 2\n2\n0 0 0\n0 0 0\n"

    def test_round_trip(self, tmp_path):
        cells = np.array([[0, 1, 2], [2, 0, 1]])
        path = tmp_path / "t.pgm"
        emit_pgm(cells, path, comments=["who=test"])
        assert np.array_equal(read_pgm(path), cells)

    def test_ternary_mapping(self):
        assert ternary_to_pgm(np.array([-1, 0, 1])).tolist() == [2, 0, 1]

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_pgm(np.array([[3]]), tmp_path / "bad.pgm")
        with pytest.raises(ValueError):
            emit_pgm(np.array([[-1]]), tmp_path / "bad.pgm")


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        emit_csv([], ("a", "b"), path, config=[("x", 1), ("y", "z")])
        assert path.read_text() == "#x=1\n#y=z\na,b\n"

    def test_float_formatting(self, tmp_path):
        path = tmp_path / "f.csv"
        emit_csv([(1, 0.5)], ("n", "v"), path)
        assert path.read_text() == "n,v\n1,0.500000\n"

    def test_schema_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([(1, 2, 3)], ("a", "b"), tmp_path / "x.csv")

    def test_byte_identical_reruns(self, tmp_path):
        rows = [(1, 2.25), (3, -0.125)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, ("n", "v"), a, config=[("k", "v")])
        emit_csv(rows, ("n", "v"), b, config=[("k", "v")])
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_no_arguments_usage_error(self, capsys):
        assert run([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_eca_single_seed_matches_hand_eval(self, tmp_path, capsys):
        dump = tmp_path / "r30.pgm"
        assert run(["eca", "--rule", "30", "--width", "7", "--steps", "1",
                    "--init", "single", "--dump", str(dump)]) == 0
        cells = read_pgm(dump)
        assert cells[1].tolist() == [0, 0, 1, 1, 1, 0, 0]

    def test_eca_prints_rows(self, capsys):
        assert run(["eca", "--rule", "30", "--width", "7", "--steps", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0001000", "0011100"]

    def test_ctm_build_2_2_header(self, tmp_path):
        out = tmp_path / "t22.txt"
        assert run(["ctm-build", "--n", "2", "--out", str(out)]) == 0
        text = out.read_text()
        assert "#total=10000" in text
        table = load_table(out)
        assert table.total == 10_000

    def test_runtime_error_exit_1(self, tmp_path, capsys):
        assert run(["bdm", "--input", str(tmp_path / "missing.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_bdm_scores_file(self, tmp_path, capsys):
        data = tmp_path / "s.txt"
        data.write_text("010110010101\n")
        assert run(["bdm", "--input", str(data)]) == 0
        float(capsys.readouterr().out.strip())  # parses as a number

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0101\n0131\n", "in.txt:2: bad cell '3', expected one of 0, 1, 2"),
            ("01a10\n", "in.txt:1: bad cell 'a', expected one of 0, 1"),
            ("# grid\n0101\n011\n", "in.txt:3: row has 3 cells, line 2 has 4"),
        ],
    )
    def test_bdm_input_errors_name_the_line(self, tmp_path, capsys, text, message):
        data = tmp_path / "in.txt"
        data.write_text(text)
        assert run(["bdm", "--input", str(data)]) == 1
        assert message in capsys.readouterr().err

    def test_bdm_ternary_coverage_error_hints(self, tmp_path, capsys):
        data = tmp_path / "in.txt"
        data.write_text("0120\n0101\n")
        assert run(["bdm", "--input", str(data)]) == 1
        err = capsys.readouterr().err
        assert "has no outputs of length 8" in err
        assert "a grid with 2 cells makes 8-bit tiles at --d 2; try --d 1" in err

    def test_perturb_sweep_outputs_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["perturb", "--rules", "30", "--width", "10", "--steps", "6", "--seeds", "2"]
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        for name in ("perturb_seeds.csv", "perturb_mean.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        header = (out_a / "perturb_seeds.csv").read_text().splitlines()
        assert "rule,seed,flip_pos,delta_bdm,delta_lzw_bytes,delta_entropy" in header

    def test_collide_outputs(self, tmp_path):
        out = tmp_path / "c"
        assert run(["collide", "--rule-a", "30", "--rule-b", "22", "--gap", "8",
                    "--steps", "12", "--n-rules", "3", "--dump", "1", "--out", str(out)]) == 0
        lines = (out / "collision.csv").read_text().splitlines()
        data_lines = [l for l in lines if not l.startswith("#")]
        assert len(data_lines) == 1 + 3  # header + reports
        assert (out / "collision_seed0.pgm").exists()

    def test_gol_outputs(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gol", "--width", "8", "--height", "8", "--pre-steps", "3",
                    "--post-steps", "3", "--seeds", "2", "--out", str(out)]) == 0
        lines = (out / "gol_reports.csv").read_text().splitlines()
        assert sum(1 for l in lines if not l.startswith("#")) == 3
        assert (out / "gol_entropy_diff_seed1.txt").exists()

    def test_trace_mode_outputs(self, tmp_path):
        out = tmp_path / "t"
        assert run(["perturb", "--mode", "trace", "--rule", "54", "--width", "24",
                    "--steps", "10", "--seed", "1", "--out", str(out)]) == 0
        assert (out / "trace_unperturbed.pgm").exists()
        assert (out / "trace_perturbed.pgm").exists()
        assert (out / "trace_delta_bdm.csv").exists()


EXPERIMENTS = [["perturb"], ["perturb", "--mode", "trace"], ["collide"], ["gol"]]


class TestRunnerErrors:
    @pytest.mark.parametrize("command", EXPERIMENTS, ids=" ".join)
    def test_corrupt_table_leaves_no_out_dir(self, tmp_path, capsys, command):
        table, out = tmp_path / "bad.txt", tmp_path / "out"
        table.write_text("not a table\n")
        assert run(command + ["--table", str(table), "--out", str(out)]) == 1
        assert str(table) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", EXPERIMENTS, ids=" ".join)
    def test_out_naming_a_file_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("")
        assert run(command + ["--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == ""
