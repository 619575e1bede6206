"""Where a bench round goes: one workload's round split by stage, in-process.

    python tools/split.py --workload verify --seed 1 --rounds 20

Builds the workload's operations with the set-up functions of bench/run.py
(read-only: nothing there is changed or patched), writes their input files
into a temporary directory, and then runs the round's work stage by stage,
summed over the round's operations:

    argv     the command line, parsed by `cli.build_parser()`
    spec     the spec file read and parsed (`cli._load_spec`)
    read     the CSA files read (verify, simulate)
    import   `csa.import_json` on each CSA file's text, which also puts each
             CSA's transitions in their one order (a file already in it is
             kept as it is)
    compile  `semantics._Compiled` of the loaded CSAs
    explore  `explore_sync` per sequence (verify)
    walk     `run_monte_carlo` per sequence (simulate)
    solve    `synthesize_all`, the transition sort of each CSA included
             (synth), or `feasibility_sweep` (feasible)
    export   `export_json` and `export_dot` of each CSA and the text of
             bounds.json (synth), or `sweep_csv` of the rows (feasible)
    output   the output directory made and every file written (`cli._write_text`)

Each round starts with cold memo tables, as a bench round does. The report
gives each stage's best and median over the rounds, in ms, and the sum of
the best times. For each `feasible` operation it also gives the number of
`_solve` calls against the number of distinct drop bounds of its grid,
counted in one more, untimed round. A traced bench round (`bench/run.py
--trace 1`) times one round with span wrappers in the way; the best of many
plain rounds is the figure to compare two trees by. Run it from the root of
a checkout.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run as bench  # noqa: E402


def _round(pf, ops) -> dict:
    """Seconds per stage for one round of ops."""
    from protoforge import cli, semantics

    times: dict = defaultdict(float)
    clock = time.perf_counter

    def timed(stage, fn, *args):
        t0 = clock()
        value = fn(*args)
        times[stage] += clock() - t0
        return value

    bench.clear_memo_tables()
    for op in ops:
        args = timed("argv", cli.build_parser().parse_args, op.argv)
        full = timed("spec", cli._load_spec, args.spec, getattr(args, "delta", None))
        command = op.argv[0]
        if command in ("verify", "simulate"):
            texts = timed("read", lambda: [Path(p).read_text() for p in args.csas])
            csas = timed("import", lambda: [pf.import_json(t) for t in texts])
            compiled = timed("compile", semantics._Compiled, csas)
            sequences = pf.enumerate_sequences(full.protocol)
            if command == "verify":
                timed("explore", lambda: [pf.explore_sync(compiled, full.delta, s.events)
                                          for s in sequences])
            else:
                timed("walk", lambda: [pf.run_monte_carlo(compiled, full.delta, s.events,
                                                          runs=args.runs, seed=args.seed)
                                       for s in sequences])
        elif command == "synth":
            result = timed("solve", pf.synthesize_all, full, args.cap)
            files = timed("export", _synth_files, pf, full, result)
            timed("output", _write, Path(args.out), files)
        elif command == "feasible":
            grids = _grids(args)
            rows = timed("solve", lambda: pf.feasibility_sweep(full.protocol, *grids,
                                                               cap=args.cap))
            csv = timed("export", pf.sweep_csv, rows)
            timed("output", _write, Path(args.out), {"feasibility.csv": csv})
        else:
            raise SystemExit(f"split: no stages for command {command!r}")
    return times


def _grids(args) -> list:
    from protoforge import cli

    return [[*cli._parse_grid(text, integer)[1]] for text, integer in
            ((args.grid_n, True), (args.grid_dmax, False), (args.grid_tau, False))]


def _synth_files(pf, full, result) -> dict:
    # The files `synth` writes without --format, by name.
    files = {}
    for car in full.cars:
        files[f"{car}.json"] = pf.export_json(result.csas[car])
        files[f"{car}.dot"] = pf.export_dot(result.csas[car])
    named = pf.bounds_by_name(full.protocol, result.bounds)
    files["bounds.json"] = pf.csa.json_text(named) + "\n"
    return files


def _write(out: Path, files: dict) -> None:
    from protoforge import cli

    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        cli._write_text(out / name, text)


def _solve_counts(pf, ops) -> list:
    """(operation, `_solve` calls, distinct drop bounds) of each feasible
    operation, in one more round with cold memo tables."""
    from protoforge import cli, medium

    deltas, solve = [], medium._solve

    def counted(events, constraints, delta, cap):
        deltas.append(delta)
        return solve(events, constraints, delta, cap)

    counts = []
    bench.clear_memo_tables()
    medium._solve = counted
    try:
        for op in ops:
            if op.argv[0] == "feasible":
                args = cli.build_parser().parse_args(op.argv)
                full = cli._load_spec(args.spec, None)
                deltas.clear()
                rows = pf.feasibility_sweep(full.protocol, *_grids(args), cap=args.cap)
                counts.append((op.name, len(deltas), len({row.delta for row in rows})))
    finally:
        medium._solve = solve
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=20, help="rounds to run (default 20)")
    args = ap.parse_args(argv)

    pf = bench.import_program()
    with tempfile.TemporaryDirectory(prefix="split-") as tmp:
        built = bench.Setup(pf, Path(tmp))
        ops = bench.WORKLOADS[args.workload](built, args.seed)
        built.write()
        rounds = [_round(pf, ops) for _ in range(args.rounds)]
        solves = _solve_counts(pf, ops)
    stages = list(rounds[0])
    print(f"{args.workload}, seed {args.seed}: {len(ops)} operations, best and median of "
          f"{len(rounds)} rounds, ms")
    for stage in stages:
        values = [r[stage] * 1e3 for r in rounds]
        print(f"  {stage:8} {min(values):8.2f} {statistics.median(values):8.2f}")
    best = sum(min(r[stage] for r in rounds) for stage in stages) * 1e3
    print(f"  {'sum':8} {best:8.2f}")
    for name, calls, distinct in solves:
        print(f"  {name}: {calls} solves for {distinct} distinct drop bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
