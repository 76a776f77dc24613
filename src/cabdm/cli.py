"""Command-line front end: table building, experiments, CSV/PGM emission.

Every CSV starts with ``#key=value`` lines, and every PGM carries them as
``# key=value`` comments, echoing the configuration that produced it, which
is enough to re-run the exact experiment; the ``gol_entropy_diff_seed*.txt``
grids carry none.  Runs are pure functions of their arguments: repeating an
invocation reproduces all output files byte for byte, regardless of worker
count.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bdm
from .ca import evolve_eca, flip_cell, random_config, rule_table
from .collision import (
    CollisionReport, collision_experiment, evolve_interacting, sample_interaction_rule, collision_initial_state
)
from .ctm import DEFAULT_CUTOFF, CoverageError, build_table, default_table, load_table, save_table
from .perturbation import gol_perturbation, perturbation_sweep, perturbation_trace


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(rows, schema, path, config=None) -> None:
    """Write rows under a header, with ``#``-comment config echo lines."""
    lines = [f"#{key}={value}" for key, value in (config or [])]
    lines.append(",".join(schema))
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(f"row {row!r} does not match schema {schema}")
        lines.append(",".join(_format_value(v) for v in row))
    _write_lines(path, lines)


def emit_pgm(spacetime, path, comments=None) -> None:
    """Plain (P2) PGM with maxval 2, one image row per spacetime row."""
    cells = np.asarray(getattr(spacetime, "cells", spacetime))
    if cells.ndim != 2:
        raise ValueError(f"can only render 2D arrays, got shape {cells.shape}")
    if cells.size and (cells.min() < 0 or cells.max() > 2):
        raise ValueError("PGM cells must be in {0, 1, 2}; map -1 to 2 first")
    height, width = cells.shape
    lines = ["P2"]
    for comment in comments or []:
        lines.append(f"# {comment}")
    lines.append(f"{width} {height}")
    lines.append("2")
    for row in cells:
        lines.append(" ".join(str(int(v)) for v in row))
    _write_lines(path, lines)


def read_pgm(path) -> np.ndarray:
    """Parse a plain PGM back into an array (round-trip of emit_pgm)."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain PGM file")
    width, height, _maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    values = np.array([int(t) for t in tokens[4 : 4 + width * height]], dtype=np.int8)
    if values.size != width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return values.reshape(height, width)


def ternary_to_pgm(cells) -> np.ndarray:
    """Map {-1,0,1} cells onto PGM values {2,0,1}."""
    arr = np.asarray(cells, dtype=np.int8)
    return np.where(arr == -1, np.int8(2), arr)


def _resolve_table(args):
    return load_table(args.table) if args.table else default_table()


def _parse_rules(text):
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad rule list {text!r}")


def _cmd_ctm_build(args) -> int:
    table = build_table(
        n=args.n,
        cutoff=args.cutoff,
        workers=args.workers,
        sample=args.sample,
        sample_seed=args.sample_seed,
        allow_long_run=args.allow_long_run,
    )
    out = args.out or f"ctm_{args.n}_2.txt"
    save_table(table, out)
    print(f"wrote {out}: {len(table.entries)} outputs, halting={table.halting}, total={table.total}")
    return 0


def _read_cells(path) -> list[str]:
    """Data lines of a ``bdm`` input: one 0/1 line, or equal-length rows
    over 0/1/2 (2 stands for a -1 cell)."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [(i, line.strip()) for i, line in enumerate(fh, 1) if line.strip() and not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no data lines")
    alphabet = "01" if len(rows) == 1 else "012"
    first, width = rows[0][0], len(rows[0][1])
    for lineno, row in rows:
        bad = next((c for c in row if c not in alphabet), None)
        if bad is not None:
            raise ValueError(f"{path}:{lineno}: bad cell {bad!r}, expected one of {', '.join(alphabet)}")
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: row has {len(row)} cells, line {first} has {width}")
    return [row for _, row in rows]


def _cmd_bdm(args) -> int:
    table = _resolve_table(args)
    rows = _read_cells(args.input)
    if len(rows) == 1:
        value = bdm.bdm_1d(rows[0], table, args.b).value
    else:
        digits = np.array([[int(c) for c in row] for row in rows], dtype=np.int8)
        try:
            value = bdm.bdm_2d(np.where(digits == 2, np.int8(-1), digits), table, args.d).value
        except CoverageError as exc:
            if not (digits == 2).any():
                raise
            raise CoverageError(
                f"{exc}: a grid with 2 cells makes {2 * args.d * args.d}-bit tiles at --d {args.d}; "
                "try --d 1 or a table with longer outputs"
            ) from exc
    print(f"{value:.6f}")
    return 0


def _cmd_eca(args) -> int:
    if args.init == "single":
        init = flip_cell(np.zeros(args.width, dtype=np.int8), args.width // 2)
    else:
        init = random_config(args.seed, args.width, args.density)
    spacetime = evolve_eca(rule_table(args.rule), init, args.steps)
    if args.dump:
        _Outputs(args, args.echo).pgm(args.dump, spacetime)
        print(f"wrote {args.dump}")
    else:
        for row in spacetime.cells:
            print("".join(str(int(v)) for v in row))
    return 0


class _Outputs:
    """A run's files, named inside ``directory``; each CSV and PGM echoes the
    run's config, the values of ``keys`` in ``args`` (a list comma-separated,
    as it is typed)."""

    def __init__(self, args, keys, directory=""):
        config = [(key, getattr(args, key)) for key in keys]
        self.config = [(k, ",".join(map(str, v)) if isinstance(v, list) else v) for k, v in config]
        self.directory = directory

    def path(self, name) -> str:
        return os.path.join(self.directory, name)

    def csv(self, name, schema, rows) -> None:
        emit_csv(rows, schema, self.path(name), self.config)

    def pgm(self, name, cells, *extra) -> None:
        emit_pgm(cells, self.path(name), [f"{key}={value}" for key, value in self.config + list(extra)])


def _run_experiment(args) -> int:
    """Run an experiment mode.  The table is resolved first, so a bad ``--table``
    leaves no ``--out`` behind; the handler returns the summary line."""
    handler, keys = args.modes[getattr(args, "mode", None)]
    table = _resolve_table(args)
    if "flip" in keys and args.flip is None:  # trace's default, the center cell, is echoed as a number
        args.flip = args.width // 2
    os.makedirs(args.out, exist_ok=True)
    print(handler(args, table, _Outputs(args, keys, args.out)))
    return 0


def _perturb_sweep(args, table, out) -> str:
    sweep = perturbation_sweep(
        args.rules, args.width, args.steps, args.seeds, table, args.b, args.density, args.workers
    )
    out.csv(
        "perturb_seeds.csv",
        ("rule", "seed", "flip_pos", "delta_bdm", "delta_lzw_bytes", "delta_entropy"),
        ((r.rule, r.seed, r.flip_pos, r.delta_bdm, r.delta_compressed_bytes, r.delta_entropy) for r in sweep.reports),
    )
    means = np.stack([sweep.mean_delta_bdm, sweep.mean_delta_lzw, sweep.mean_delta_entropy], axis=-1)
    out.csv(
        "perturb_mean.csv",
        ("rule", "flip_pos", "mean_delta_bdm", "mean_delta_lzw_bytes", "mean_delta_entropy"),
        ((rule, pos, *map(float, means[i, pos])) for i, rule in enumerate(sweep.rules) for pos in range(sweep.width)),
    )
    return f"wrote sweep CSVs to {args.out} ({len(sweep.reports)} reports)"


def _perturb_trace(args, table, out) -> str:
    base, perturbed, trace = perturbation_trace(
        args.rule, args.width, args.steps, args.seed, args.flip, table, args.b, args.density
    )
    out.pgm("trace_unperturbed.pgm", base)
    out.pgm("trace_perturbed.pgm", perturbed)
    out.csv("trace_delta_bdm.csv", ("t", "delta_bdm"), trace)
    return f"wrote trace outputs to {args.out} (final delta_bdm={trace[-1][1]:.6f})"


def _collide(args, table, out) -> str:
    reports = collision_experiment(args.rule_a, args.rule_b, args.gap, args.steps, args.n_rules, table, args.b)
    out.csv("collision.csv", [f.name for f in dataclasses.fields(CollisionReport)], map(dataclasses.astuple, reports))
    init = collision_initial_state(args.gap, args.steps)
    for seed in range(min(args.dump, args.n_rules)):
        interaction = sample_interaction_rule(args.rule_a, args.rule_b, seed)
        st = evolve_interacting(interaction, init, args.steps)
        out.pgm(f"collision_seed{seed}.pgm", ternary_to_pgm(st.cells), ("interaction_seed", seed))
    return f"wrote collision CSV ({len(reports)} reports) to {args.out}"


def _gol(args, table, out) -> str:
    rows = []
    for seed in range(args.seeds):
        report = gol_perturbation(
            grid_w=args.width,
            grid_h=args.height,
            density=args.density,
            pre_steps=args.pre_steps,
            post_steps=args.post_steps,
            seed=seed,
            table=table,
            d=args.d,
        )
        rows.append(
            (
                seed, report.flip_pos[0], report.flip_pos[1],
                report.delta_bdm, report.delta_bdm_final_grid,
                report.delta_compressed_bytes, report.delta_compressed_bytes_volume,
                report.delta_entropy,
            )
        )
        _write_lines(
            out.path(f"gol_entropy_diff_seed{seed}.txt"),
            (" ".join(f"{v:.6f}" for v in grid_row) for grid_row in report.entropy_diff_grid),
        )
    out.csv(
        "gol_reports.csv",
        (
            "seed", "flip_row", "flip_col", "delta_bdm", "delta_bdm_final_grid",
            "delta_lzw_bytes", "delta_lzw_bytes_volume", "delta_entropy",
        ),
        rows,
    )
    return f"wrote GoL reports for {args.seeds} seeds to {args.out}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabdm",
        description="Complexity estimation experiments for cellular automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ctm-build", help="enumerate a machine class and write its output table")
    p.add_argument("--n", type=int, required=True, help="number of machine states")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF, help="halting cutoff in steps")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="table path (default ctm_<n>_2.txt)")
    p.add_argument("--sample", type=int, default=None, help="index-stratified sample size")
    p.add_argument("--sample-seed", type=int, default=0)
    p.add_argument("--allow-long-run", action="store_true", help="permit full (4,2) enumeration")
    p.set_defaults(func=_cmd_ctm_build)

    p = sub.add_parser("bdm", help="score a 0/1 text file (one line: 1D; many lines: 2D)")
    p.add_argument("--input", required=True)
    p.add_argument("--table", default=None, help="CTM table path (default: packaged table)")
    p.add_argument("--b", type=int, default=bdm.DEFAULT_BLOCK_LEN_1D, help="1D block length")
    p.add_argument("--d", type=int, default=bdm.DEFAULT_BLOCK_SIDE_2D, help="2D block side")
    p.set_defaults(func=_cmd_bdm)

    p = sub.add_parser("eca", help="evolve one elementary rule; print or dump a PGM")
    p.add_argument("--rule", type=int, required=True)
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--init", choices=("single", "random"), default="single")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--dump", default=None, help="write a PGM here instead of printing")
    p.set_defaults(func=_cmd_eca, echo=("rule", "width", "steps", "init", "seed", "density"))

    p = sub.add_parser("perturb", help="single-cell perturbation sweep or long-run trace")
    p.add_argument("--mode", choices=("sweep", "trace"), default="sweep")
    p.add_argument("--rules", type=_parse_rules, default=[1, 2, 22, 30, 54, 100])
    p.add_argument("--rule", type=int, default=54, help="trace mode rule")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("--steps", type=int, default=80)
    p.add_argument("--seeds", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="trace mode seed")
    p.add_argument("--flip", type=int, default=None, help="trace mode flip position (default: center)")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--table", default=None)
    p.add_argument("--b", type=int, default=bdm.DEFAULT_BLOCK_LEN_1D)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    # Each mode's handler and echoed keys.  --table, --workers and --out are never echoed: they
    # choose how and where a run executes, and outputs stay byte-identical across them.
    p.set_defaults(func=_run_experiment, modes={
        "sweep": (_perturb_sweep, ("mode", "width", "steps", "seeds", "density", "b", "rules")),
        "trace": (_perturb_trace, ("mode", "rule", "width", "steps", "seed", "flip", "density", "b")),
    })

    p = sub.add_parser("collide", help="sampled-interaction collision experiment")
    p.add_argument("--rule-a", type=int, default=30)
    p.add_argument("--rule-b", type=int, default=22)
    p.add_argument("--gap", type=int, default=40)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--n-rules", type=int, default=100)
    p.add_argument("--table", default=None)
    p.add_argument("--b", type=int, default=bdm.DEFAULT_BLOCK_LEN_1D)
    p.add_argument("--dump", type=int, default=0, help="also dump this many collision PGMs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_experiment, modes={
        None: (_collide, ("rule_a", "rule_b", "gap", "steps", "n_rules", "b")),
    })

    p = sub.add_parser("gol", help="Game of Life central-cell perturbation")
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--pre-steps", type=int, default=1000)
    p.add_argument("--post-steps", type=int, default=100)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--table", default=None)
    p.add_argument("--d", type=int, default=bdm.DEFAULT_BLOCK_SIDE_2D)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_run_experiment, modes={
        None: (_gol, ("width", "height", "density", "pre_steps", "post_steps", "seeds", "d")),
    })

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, LookupError) as exc:
        print(f"cabdm: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
