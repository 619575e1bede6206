"""Command-line front end.

    protoforge check    --spec FILE [--delta D] [--cap N]
    protoforge synth    --spec FILE --out DIR [--delta D] [--cap N] [--format F]
    protoforge verify   CSA.json ... --spec FILE [--delta D]
    protoforge simulate CSA.json ... --spec FILE [--delta D] [--runs N] [--seed K]
                        [--traces --out DIR]
    protoforge feasible --spec FILE [--grid-n A:B:S] [--grid-dmax A:B:S]
                        [--grid-tau A:B:S] [--cap N] [--out DIR]

--cap takes a nonnegative integer, --runs a positive one.  synth --format F
writes each car's CSA in format F only and removes the car's file of the
other format from DIR, if an earlier run left one.

Exit codes: 0 success, 1 requirement not met (unrealizable or verification
failure, or a specification `feasible` finds not well-posed), 2 malformed
input or I/O error (including a grid with a non-finite or, for --grid-n,
non-integer value, a grid of more than MAX_GRID_POINTS points, and medium
parameters out of their domain), 3 exploration budget exhausted or a cycle
in the deductions of hand-written CSAs.
Only PROTOFORGE_BUDGET sets the budget of distinct configurations (default 10^7).

`main` may be called any number of times in one process; the argument parser
is built on first use and shared by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import locale
import math
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from . import bounds as bounds_mod
from . import medium as medium_mod
from .csa import export_dot, export_json, import_json, json_text
from .errors import (
    DivergenceDetected,
    InvalidParams,
    NotWellPosed,
    ProbabilityOutOfRange,
    ProtoforgeError,
    SpecSyntaxError,
    Unrealizable,
)
from .semantics import check_correctness, run_monte_carlo
from .speclang import FullSpec, enumerate_sequences, parse_spec, well_posed
from .synthesis import bounds_by_name, synthesize_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

MAX_GRID_POINTS = 10**6  # largest N x d_max x tau_min grid that `feasible` sweeps


def _load_spec(path: str, delta_override) -> FullSpec:
    text = Path(path).read_text()
    full = parse_spec(text)
    if delta_override is not None:
        full = FullSpec(full.protocol, delta_override, full.cars)
    return full


def _write_text(path: Path, text: str) -> None:
    """Write `text` to `path` with the bytes `Path.write_text` writes, in place.

    The file is opened without O_TRUNC, written whole, then cut to its new
    length: a rerun of the same length reuses the file's blocks instead of
    freeing and allocating them again.  The rewrite is not atomic.
    """
    data = text.encode(locale.getpreferredencoding(False))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):  # os.write may write fewer bytes than it is given
            done += os.write(fd, data[done:])
        os.ftruncate(fd, done)
    finally:
        os.close(fd)


def _print_wellposed(report):
    if report.ok:
        print("well-posed: yes")
    else:
        print("well-posed: no")
        for v in report.violations:
            print(f"  violation: {v.message}")


def cmd_check(args) -> int:
    full = _load_spec(args.spec, args.delta)
    report = well_posed(full.protocol)
    _print_wellposed(report)
    if not report.ok:
        print("realizable: no")
        return EXIT_FAIL
    print(f"delta: {full.delta!r}")
    solved = bounds_mod.solve_opt(full.protocol, full.delta, cap=args.cap)
    if isinstance(solved, bounds_mod.Infeasible):
        print(f"realizable: no ({solved})")
        return EXIT_FAIL
    print("realizable: yes")
    for name, n in bounds_by_name(full.protocol, solved).items():
        print(f"  bound {name}: {n}")
    print(f"  total: {sum(solved.values())}")
    return EXIT_OK


def cmd_synth(args) -> int:
    full = _load_spec(args.spec, args.delta)
    try:
        result = synthesize_all(full, cap=args.cap)
    except (NotWellPosed, Unrealizable) as exc:
        print(f"unrealizable: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats = {"json", "dot"} if args.format is None else {args.format}
    for car in full.cars:
        csa = result.csas[car]
        for fmt, export in (("json", export_json), ("dot", export_dot)):
            path = out / f"{car}.{fmt}"
            if fmt in formats:
                _write_text(path, export(csa))
            else:  # an earlier run's file would disagree with bounds.json
                path.unlink(missing_ok=True)
    named = bounds_by_name(full.protocol, result.bounds)
    _write_text(out / "bounds.json", json_text(named) + "\n")
    print(f"synthesized {len(full.cars)} automata into {out}")
    for name, n in named.items():
        print(f"  bound {name}: {n}")
    return EXIT_OK


def cmd_verify(args) -> int:
    full = _load_spec(args.spec, args.delta)
    csas = [import_json(Path(p).read_text()) for p in args.csas]
    report = check_correctness(csas, full.delta, full.protocol)
    print(f"delta: {full.delta!r}")
    for chk in report.checks:
        names = ".".join(e.name for e in chk.events)
        verdict = "ok" if chk.satisfied else "VIOLATED"
        print(f"  {names}: required {chk.required!r}, achieved {float(chk.achieved)!r}, "
              f"margin {float(chk.margin)!r} [{verdict}]")
    print(f"verdict: {'pass' if report.ok else 'fail'}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _wilson95(successes: int, runs: int) -> tuple[float, float]:
    """The 95% Wilson score interval (z = 1.96) of a success rate.

    Each end is computed from its own side's count, so 0 and `runs`
    successes give the ends 0.0 and 1.0 exactly.
    """
    z = 1.96
    half = z * math.sqrt(successes * (runs - successes) / runs + (z / 2) ** 2)

    def below(k):
        return (k + z * z / 2 - half) / (runs + z * z)

    return below(successes), 1.0 - below(runs - successes)


def cmd_simulate(args) -> int:
    out_dir = Path(args.out) if args.out else None
    if args.traces and out_dir is None:
        print("--traces requires --out", file=sys.stderr)
        return EXIT_INPUT
    if out_dir is not None and not args.traces:
        print("--out requires --traces", file=sys.stderr)
        return EXIT_INPUT
    full = _load_spec(args.spec, args.delta)
    csas = [import_json(Path(p).read_text()) for p in args.csas]
    # Every sequence runs before anything is printed or written, so an input
    # that fails in any of them leaves no partial output.
    results = [
        (pseq, run_monte_carlo(csas, full.delta, pseq.events, runs=args.runs, seed=args.seed,
                               collect_traces=args.traces))
        for pseq in enumerate_sequences(full.protocol)
    ]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"delta: {full.delta!r}")
    print(f"seed: {args.seed}")
    print(f"runs: {args.runs}")
    for i, (pseq, result) in enumerate(results):
        lo, hi = _wilson95(result.successes, result.runs)
        names = ".".join(e.name for e in pseq.events)
        print(f"  {names}: {result.successes}/{result.runs} rate {result.empirical_rate!r} "
              f"ci95 [{lo!r}, {hi!r}]")
        if args.traces:
            lines = [json.dumps(t, sort_keys=True) for t in result.traces]
            _write_text(out_dir / f"traces_{i}_{names}.jsonl", "\n".join(lines) + "\n")
    return EXIT_OK


def _parse_grid(text: str, integer: bool) -> tuple[int, Iterator]:
    """The number of points of a START:STOP:STEP grid and a lazy iterator over
    them: START + k*STEP for k = 0, 1, ... up to STOP, computed exactly from
    the decimal text and rounded once (to int when `integer`, else to float).
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} is not of the form START:STOP:STEP")
    floats = [float(p) for p in parts]
    if not all(math.isfinite(x) for x in floats):
        raise ValueError(f"grid {text!r} must have finite START, STOP and STEP")
    # A value whose float is 0 is taken as 0, so that no exact value needs a
    # power of ten beyond what the length of its text allows ('0e-999999999').
    start, stop, step = (Fraction(p) if x else Fraction(0) for p, x in zip(parts, floats))
    if integer and not all(x.denominator == 1 for x in (start, stop, step)):
        raise ValueError(f"grid {text!r} must have integer START, STOP and STEP")
    if step <= 0 or stop < start:
        raise ValueError(f"grid {text!r} must have positive step and stop >= start")
    count = (stop - start) // step + 1
    to = int if integer else float
    return count, (to(start + k * step) for k in range(count))


def cmd_feasible(args) -> int:
    full = _load_spec(args.spec, None)
    grids = [
        _parse_grid(args.grid_n, integer=True),
        _parse_grid(args.grid_dmax, integer=False),
        _parse_grid(args.grid_tau, integer=False),
    ]
    counts = [count for count, _ in grids]
    if math.prod(counts) > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {' x '.join(map(str, counts))} points is larger than {MAX_GRID_POINTS}"
        )
    grid_n, grid_dmax, grid_tau = (list(points) for _, points in grids)
    rows = medium_mod.feasibility_sweep(
        full.protocol, grid_n, grid_dmax, grid_tau, cap=args.cap
    )
    csv = medium_mod.sweep_csv(rows)
    if args.out:  # written before printing, so a DIR that fails prints nothing
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_text(out / "feasibility.csv", csv)
    sys.stdout.write(csv)
    return EXIT_OK


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


# Built once per process: `parse_args` returns a fresh Namespace on every
# call and never mutates the parser, the subcommand defaults are constant,
# `prog` is fixed, and help and usage text are formatted when printed (at the
# terminal width of that moment), so every call sees what a new parser would.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="protoforge", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options):
        # --spec, then those of --delta, --cap and the CSA files named in options.
        p.add_argument("--spec", required=True, help="protocol specification (.psl)")
        if "delta" in options:
            p.add_argument("--delta", type=float, default=None,
                           help="override the drop-probability bound")
        if "cap" in options:
            p.add_argument("--cap", type=_int_at_least(0), default=bounds_mod.DEFAULT_CAP,
                           help="largest retransmission bound searched")
        if "csas" in options:
            p.add_argument("csas", nargs="+", metavar="CSA.json")

    p = sub.add_parser("check", help="well-posedness and realizability")
    common(p, "delta", "cap")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synth", help="synthesize one CSA per car")
    common(p, "delta", "cap")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--format", choices=["dot", "json"], default=None,
                   help="restrict CSA output to one format")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="exact correctness check of CSA files")
    common(p, "delta", "csas")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo simulation of CSA files")
    common(p, "delta", "csas")
    p.add_argument("--runs", type=_int_at_least(1), default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--traces", action="store_true",
                   help="write trace JSONL files (requires --out)")
    p.add_argument("--out", default=None, help="output directory for traces (requires --traces)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("feasible", help="realizability sweep over medium parameters")
    common(p, "cap")
    p.add_argument("--grid-n", default="2:11:1", help="car-count grid START:STOP:STEP")
    p.add_argument("--grid-dmax", default="100:1000:100", help="data-length grid")
    p.add_argument("--grid-tau", default="1:10:1", help="minimum-delay grid")
    p.add_argument("--out", default=None, help="also write feasibility.csv here")
    p.set_defaults(func=cmd_feasible)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecSyntaxError, ProbabilityOutOfRange, InvalidParams, OSError, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ProtoforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
