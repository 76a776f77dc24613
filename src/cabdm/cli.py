"""Command-line front end: table building, experiments, CSV/PGM emission.

Every output file starts with ``#key=value`` lines echoing the parsed
configuration, which is enough to re-run the exact experiment.  Runs are
pure functions of their arguments: repeating an invocation reproduces all
output files byte for byte, regardless of worker count.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bdm
from .ca import evolve_eca, evolve_gol, random_config, rule_table
from .collision import (
    CollisionReport, collision_experiment, evolve_interacting, sample_interaction_rule, collision_initial_state
)
from .ctm import DEFAULT_CUTOFF, CoverageError, build_table, default_table, load_table, save_table
from .perturbation import gol_perturbation, perturbation_sweep, perturbation_trace


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def emit_csv(rows, schema, path, config=None) -> None:
    """Write rows under a header, with ``#``-comment config echo lines."""
    lines = [f"#{key}={value}" for key, value in (config or [])]
    lines.append(",".join(schema))
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(f"row {row!r} does not match schema {schema}")
        lines.append(",".join(_format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _config_echo(args, keys):
    return [(key, getattr(args, key.replace("-", "_"))) for key in keys]


def _resolve_table(args):
    if getattr(args, "table", None):
        return load_table(args.table)
    return default_table()


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


def _single_seed_init(width):
    init = np.zeros(width, dtype=np.int8)
    init[width // 2] = 1
    return init


def _cmd_eca(args) -> int:
    if args.init == "single":
        init = _single_seed_init(args.width)
    else:
        init = random_config(args.seed, args.width, args.density)
    spacetime = evolve_eca(rule_table(args.rule), init, args.steps)
    if args.dump:
        emit_pgm(
            spacetime,
            args.dump,
            comments=[f"{k}={v}" for k, v in _config_echo(args, ("rule", "width", "steps", "init", "seed", "density"))],
        )
        print(f"wrote {args.dump}")
    else:
        for row in spacetime.cells:
            print("".join(str(int(v)) for v in row))
    return 0


def _cmd_perturb(args) -> int:
    table = _resolve_table(args)
    os.makedirs(args.out, exist_ok=True)
    if args.mode == "trace":
        echo = _config_echo(
            args, ("mode", "rule", "width", "steps", "seed", "flip", "density", "b")
        )
        base, perturbed, trace = perturbation_trace(
            args.rule, args.width, args.steps, args.seed, args.flip, table, args.b, args.density
        )
        comments = [f"{k}={v}" for k, v in echo]
        emit_pgm(base, os.path.join(args.out, "trace_unperturbed.pgm"), comments)
        emit_pgm(perturbed, os.path.join(args.out, "trace_perturbed.pgm"), comments)
        emit_csv(trace, ("t", "delta_bdm"), os.path.join(args.out, "trace_delta_bdm.csv"), echo)
        print(f"wrote trace outputs to {args.out} (final delta_bdm={trace[-1][1]:.6f})")
        return 0

    rules = args.rules
    # Worker count is execution machinery, not experiment configuration:
    # echoing it would break byte-stability across worker counts.
    echo = _config_echo(args, ("mode", "width", "steps", "seeds", "density", "b")) + [
        ("rules", ",".join(str(r) for r in rules))
    ]
    sweep = perturbation_sweep(
        rules, args.width, args.steps, args.seeds, table, args.b, args.density, args.workers
    )
    emit_csv(
        (
            (r.rule, r.seed, r.flip_pos, r.delta_bdm, r.delta_compressed_bytes, r.delta_entropy)
            for r in sweep.reports
        ),
        ("rule", "seed", "flip_pos", "delta_bdm", "delta_lzw_bytes", "delta_entropy"),
        os.path.join(args.out, "perturb_seeds.csv"),
        echo,
    )
    mean_rows = []
    for i, rule in enumerate(sweep.rules):
        for pos in range(sweep.width):
            mean_rows.append(
                (
                    rule,
                    pos,
                    float(sweep.mean_delta_bdm[i, pos]),
                    float(sweep.mean_delta_lzw[i, pos]),
                    float(sweep.mean_delta_entropy[i, pos]),
                )
            )
    emit_csv(
        mean_rows,
        ("rule", "flip_pos", "mean_delta_bdm", "mean_delta_lzw_bytes", "mean_delta_entropy"),
        os.path.join(args.out, "perturb_mean.csv"),
        echo,
    )
    print(f"wrote sweep CSVs to {args.out} ({len(sweep.reports)} reports)")
    return 0


def _cmd_collide(args) -> int:
    table = _resolve_table(args)
    os.makedirs(args.out, exist_ok=True)
    echo = _config_echo(args, ("rule_a", "rule_b", "gap", "steps", "n_rules", "b"))
    reports = collision_experiment(
        args.rule_a, args.rule_b, args.gap, args.steps, args.n_rules, table, args.b
    )
    emit_csv(
        (dataclasses.astuple(r) for r in reports),
        [field.name for field in dataclasses.fields(CollisionReport)],
        os.path.join(args.out, "collision.csv"),
        echo,
    )
    init = collision_initial_state(args.gap, args.steps)
    for seed in range(min(args.dump, args.n_rules)):
        interaction = sample_interaction_rule(args.rule_a, args.rule_b, seed)
        st = evolve_interacting(interaction, init, args.steps)
        emit_pgm(
            ternary_to_pgm(st.cells),
            os.path.join(args.out, f"collision_seed{seed}.pgm"),
            [f"{k}={v}" for k, v in echo] + [f"interaction_seed={seed}"],
        )
    print(f"wrote collision CSV ({len(reports)} reports) to {args.out}")
    return 0


def _cmd_gol(args) -> int:
    table = _resolve_table(args)
    os.makedirs(args.out, exist_ok=True)
    echo = _config_echo(args, ("width", "height", "density", "pre_steps", "post_steps", "seeds", "d"))
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
        grid_path = os.path.join(args.out, f"gol_entropy_diff_seed{seed}.txt")
        with open(grid_path, "w", encoding="utf-8", newline="\n") as fh:
            for grid_row in report.entropy_diff_grid:
                fh.write(" ".join(f"{v:.6f}" for v in grid_row) + "\n")
    emit_csv(
        rows,
        (
            "seed", "flip_row", "flip_col", "delta_bdm", "delta_bdm_final_grid",
            "delta_lzw_bytes", "delta_lzw_bytes_volume", "delta_entropy",
        ),
        os.path.join(args.out, "gol_reports.csv"),
        echo,
    )
    print(f"wrote GoL reports for {args.seeds} seeds to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cabdm",
        description="Complexity estimation experiments for cellular automata.",
    )
    sub = parser.add_subparsers(dest="command")

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
    p.set_defaults(func=_cmd_eca)

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
    p.set_defaults(func=_cmd_perturb)

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
    p.set_defaults(func=_cmd_collide)

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
    p.set_defaults(func=_cmd_gol)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "perturb" and args.mode == "trace" and args.flip is None:
        args.flip = args.width // 2
    try:
        return args.func(args)
    except (ValueError, OSError, LookupError) as exc:
        print(f"cabdm: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
