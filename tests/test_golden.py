"""Golden CLI outputs: every subcommand at a small config, byte for byte.

Each case runs ``cabdm.cli.run`` in an empty working directory with
relative output paths, so stdout and every written file are stable.  The
expected bytes live in ``tests/golden/<name>/`` (stdout as ``stdout.txt``).
Cases that share a name must produce identical bytes, which is how worker
counts are checked against each other.

Regenerate only for an intended, explained change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from cabdm.cli import run

GOLDEN = Path(__file__).parent / "golden"

SWEEP = ["perturb", "--rules", "30,54", "--width", "12", "--steps", "8", "--seeds", "2", "--out", "out"]
SAMPLED = ["ctm-build", "--n", "3", "--sample", "2000", "--out", "s32.txt"]

# (golden directory, argv, input files written before the run)
CASES = [
    ("perturb_sweep", SWEEP + ["--workers", "1"], {}),
    ("perturb_sweep", SWEEP + ["--workers", "2"], {}),
    ("perturb_trace", ["perturb", "--mode", "trace", "--rule", "54", "--width", "24", "--steps", "10",
                       "--seed", "1", "--out", "out"], {}),
    ("collide", ["collide", "--rule-a", "30", "--rule-b", "22", "--gap", "8", "--steps", "12",
                 "--n-rules", "3", "--dump", "1", "--out", "out"], {}),
    ("gol", ["gol", "--width", "8", "--height", "8", "--pre-steps", "3", "--post-steps", "3",
             "--seeds", "2", "--out", "out"], {}),
    ("eca", ["eca", "--rule", "30", "--width", "16", "--steps", "8", "--init", "random", "--seed", "3",
             "--dump", "st.pgm"], {}),
    ("bdm_1d", ["bdm", "--input", "in.txt"], {"in.txt": "0101100101011110000101\n"}),
    ("bdm_2d", ["bdm", "--input", "in.txt"], {"in.txt": "01011\n11100\n00010\n10110\n01101\n"}),
    ("bdm_2d_ternary", ["bdm", "--input", "in.txt", "--d", "1"],
     {"in.txt": "# 2 stands for -1\n0102\n1120\n0001\n2210\n0110\n"}),
    ("ctm_build_2", ["ctm-build", "--n", "2", "--out", "t22.txt"], {}),
    ("ctm_build_3_sampled", SAMPLED + ["--workers", "1"], {}),
    ("ctm_build_3_sampled", SAMPLED + ["--workers", "2"], {}),
]


def outputs(argv, inputs, workdir: Path) -> dict[str, bytes]:
    """Run one CLI invocation in ``workdir``; map relative path -> bytes."""
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = run(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{argv} exited {code}"
    files = {"stdout.txt": stdout.getvalue().encode()}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel not in inputs:
            files[rel] = path.read_bytes()
    return files


@pytest.mark.parametrize("name,argv,inputs", CASES, ids=[" ".join(c[1]) for c in CASES])
def test_cli_output_matches_golden(name, argv, inputs, tmp_path):
    expected_dir = GOLDEN / name
    expected = {
        p.relative_to(expected_dir).as_posix(): p.read_bytes() for p in expected_dir.rglob("*") if p.is_file()
    }
    got = outputs(argv, inputs, tmp_path)
    assert sorted(got) == sorted(expected)
    for rel, data in expected.items():
        assert got[rel] == data, f"{name}/{rel} differs from the golden file"


def regenerate() -> None:
    """Rewrite tests/golden from the first case of each name."""
    done = set()
    for name, argv, inputs in CASES:
        if name in done:
            continue
        done.add(name)
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        with tempfile.TemporaryDirectory() as tmp:
            for rel, data in outputs(argv, inputs, Path(tmp)).items():
                (target / rel).parent.mkdir(parents=True, exist_ok=True)
                (target / rel).write_bytes(data)
        print(f"wrote {target}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
