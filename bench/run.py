"""protoforge benchmark: one workload, one process, one thread, every output checked.

    python3 bench/run.py --workload {design,verify,simulate,sweep} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from `src/`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics (from spans recorded around protoforge's public
functions) with --trace 1. Failures are listed on standard error. See
README.md in this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from pace import Pace  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# A set-up is repeated until this much time is spent on it (at least
# SETUP_MIN_REPS times), and setup_s is the median repetition at the reference
# pace. The input files are written once, after the timed set-up: writing
# small files here costs about 0.3 ms each with run-to-run spreads near 40%,
# which would swamp the program's own set-up work.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 20_000  # `sweep` sets up in about 0.3 ms
MC_RUNS = 25_000        # Monte Carlo runs per sequence in `simulate`
MIXED_GRID = ("2:11:3", "100:1000:900", "1:10:9")  # 16 points for the mixed-depth tree
SWEEP_SAMPLES = 3       # realizable rows per sweep given the exact witness check
VERIFY_TOL = 1e-9


def import_program():
    """Import protoforge from this checkout's src/, or exit 2."""
    if not (SRC / "protoforge" / "__init__.py").is_file():
        print(f"bench: no protoforge sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import protoforge
    import protoforge.cli

    if Path(protoforge.__file__).resolve().parent != (SRC / "protoforge").resolve():
        print(f"bench: imported protoforge from {protoforge.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return protoforge


# ---------------------------------------------------------------------------
# Operations


@dataclass
class Op:
    """One call of `protoforge.cli.main` and the check of what it produced."""

    name: str
    argv: list
    check: object  # (rc, stdout) -> list of (item, problem or None, known fault?)
    out: object = None  # directory of the files the check reads, if any

    def output(self) -> tuple:
        """What the check reads besides rc and stdout: every file under `out`."""
        if self.out is None or not self.out.is_dir():
            return ()
        return tuple((str(f), f.read_bytes()) for f in sorted(self.out.rglob("*")) if f.is_file())


@dataclass
class Outcome:
    rc: object
    stdout: str
    wall: float
    cpu: float


def run_op(pf, op: Op) -> Outcome:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = pf.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a wrong output, checked below
            rc = f"{type(exc).__name__}: {exc}"
        t1, c1 = time.perf_counter(), time.process_time()
    return Outcome(rc, buf.getvalue(), t1 - t0, c1 - c0)


def clear_memo_tables():
    """Empty every functools cache in protoforge, so a round starts cold."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "protoforge" or name.startswith("protoforge.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Setup:
    """What a workload's set-up builds: the operations and the input files.

    Files are kept in memory and written by `write()` after the timed set-up;
    `pf` is the package under test and `work` the run's scratch directory.
    """

    def __init__(self, pf, work: Path):
        self.pf, self.work, self.files = pf, work, {}

    def spec(self, spec) -> str:
        """Parse the spec's .psl text: the program must see the paths the
        benchmark generated. Returns the path the file will have."""
        full = self.pf.parse_spec(spec.text)
        seen = [(tuple(e.name for e in s.events), s.p) for s in self.pf.enumerate_sequences(full.protocol)]
        if seen != [(names, float(p)) for names, p in spec.paths]:
            raise RuntimeError(f"set-up: {spec.name} parses to other paths than generated")
        path = self.work / "specs" / f"{spec.name}.psl"
        self.files[path] = spec.text
        return str(path)

    def csas(self, spec) -> list:
        """Synthesize each car's CSA from the spec's fixed bounds, export it as
        JSON and import it back; returns the paths the JSON files will have."""
        pf = self.pf
        full = pf.parse_spec(spec.text)
        bounds = dict(zip(pf.events_of(full.protocol), spec.bounds))
        paths = []
        for car in full.cars:
            text = pf.export_json(pf.synthesize_for_car(full.protocol, car, bounds))
            if not pf.validate(pf.import_json(text)).ok:
                raise RuntimeError(f"set-up built an invalid CSA for {spec.name}/{car}")
            path = self.work / "csas" / spec.name / f"{car}.json"
            self.files[path] = text
            paths.append(str(path))
        return paths

    def write(self):
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def _path_value(spec, names, vec):
    index = {e: i for i, e in enumerate(spec.events)}
    return oracle.sync_prob([vec[index[e]] for e in names], Fraction(spec.delta))


def _is_boundary(spec) -> bool:
    return spec.name.startswith("boundary-")


# ---------------------------------------------------------------------------
# design: one `synth` per spec; the bound solver does nearly all the work.


def design_specs(seed):
    specs = []
    for delta in ("0.5", "0.6"):
        for k in range(3, 5):
            specs.append(inputs.Spec(f"chain{k}-d{delta}", delta, inputs.chain(k, inputs.CHAIN_P[delta])))
    specs += inputs.dialogues(seed, "design")
    specs.append(inputs.EXAMPLE)
    specs += inputs.boundary_specs()
    return specs


def setup_design(s: Setup, seed):
    ops = []
    for spec in design_specs(seed):
        out = s.work / "synth" / spec.name
        ops.append(Op(spec.name, ["synth", "--spec", s.spec(spec), "--out", str(out)],
                      _design_check(s.pf, spec, out), out))
    return ops


def _design_check(pf, spec, out: Path):
    def check(rc, stdout):
        if rc != 0:
            return [(spec.name, f"synth exited {rc!r}", False)]
        named = json.loads((out / "bounds.json").read_text())
        vec = [named[e] for e in spec.events]
        for car in ("A", "B"):
            report = pf.validate(pf.import_json((out / f"{car}.json").read_text()))
            if not report.ok:
                return [(spec.name, f"CSA {car} fails validate: {report}", False)]
        d, cons = Fraction(spec.delta), spec.constraints()
        if not oracle.meets(vec, d, cons):
            return [(spec.name, f"bounds {vec} miss a requirement", False)]
        if not oracle.single_decrement_minimal(vec, d, cons):
            return [(spec.name, f"bounds {vec} stay feasible with one bound lowered",
                     _is_boundary(spec))]
        if len(vec) <= 3 and sum(vec) <= 20:
            best = oracle.brute_force_opt(len(vec), d, cons, sum(vec))
            if best != vec:
                return [(spec.name, f"bounds {vec} are not the exact optimum {best}",
                         _is_boundary(spec))]
        return [(spec.name, None, False)]

    return check


# ---------------------------------------------------------------------------
# verify: one exact `verify` per CSA set built in set-up; no solver runs.

# Minimal bounds for the chains at CHAIN_P (0.51 at delta 0.5, 0.49 at 0.6).
VERIFY_CHAINS = {
    "0.5": ((3, 3, 2), (4, 4, 3, 2), (4, 4, 5, 4, 2), (5, 4, 5, 5, 4, 2),
            (5, 5, 5, 5, 5, 4, 3)),
    "0.6": ((8, 6, 3), (9, 8, 8, 3), (10, 10, 9, 7, 3)),
}


def verify_specs(seed):
    specs = []
    for delta, vectors in VERIFY_CHAINS.items():
        for vec in vectors:
            k = len(vec)
            specs.append(inputs.Spec(f"chain{k}-d{delta}", delta,
                                     inputs.chain(k, inputs.CHAIN_P[delta]), vec))
    specs += inputs.dialogues(seed, "verify")
    specs += inputs.boundary_specs()
    return specs


def setup_verify(s: Setup, seed):
    ops = []
    for spec in verify_specs(seed):
        path = s.spec(spec)
        ops.append(Op(spec.name, ["verify", *s.csas(spec), "--spec", path], _verify_check(spec)))
    return ops


def _verify_check(spec):
    def check(rc, stdout):
        lines = {}
        for line in stdout.splitlines():
            head, sep, rest = line.strip().partition(": required ")
            if sep:
                achieved = rest.split("achieved ")[1].split(",")[0]
                lines[head] = (float(achieved), rest.endswith("[ok]"))
        all_ok = True
        for names, p in spec.paths:
            exact = _path_value(spec, names, spec.bounds)
            key = ".".join(names)
            if key not in lines:
                return [(spec.name, f"no line for sequence {key}; exit {rc!r}", False)]
            achieved, ok = lines[key]
            want = exact >= Fraction(p)
            all_ok &= want
            if abs(achieved - float(exact)) > VERIFY_TOL:
                return [(spec.name, f"{key}: achieved {achieved!r}, exact {float(exact)!r}", False)]
            if ok != want:
                return [(spec.name, f"{key}: verdict {'ok' if ok else 'VIOLATED'} but exact "
                         f"{exact} {'>=' if want else '<'} {p}",
                         _is_boundary(spec) and exact == Fraction(p))]
        if rc != (0 if all_ok else 1):
            return [(spec.name, f"exit {rc!r} with exact verdict {'pass' if all_ok else 'fail'}", False)]
        return [(spec.name, None, False)]

    return check


# ---------------------------------------------------------------------------
# simulate: `simulate` with a fixed number of runs per sequence.


SIMULATE_SPECS = (
    inputs.EXAMPLE,
    inputs.Spec("mixed-d0.4", "0.4", inputs.MIXED_TREE, (2, 1, 1, 1)),
    inputs.Spec("chain5-d0.5", "0.5", inputs.chain(5, inputs.CHAIN_P["0.5"]), (4, 4, 5, 4, 2)),
)


def setup_simulate(s: Setup, seed):
    ops = []
    for spec in SIMULATE_SPECS:
        path = s.spec(spec)
        argv = ["simulate", *s.csas(spec), "--spec", path, "--runs", str(MC_RUNS), "--seed", str(seed)]
        ops.append(Op(spec.name, argv, _simulate_check(spec)))
    return ops


def _simulate_check(spec):
    def check(rc, stdout):
        counts = {}
        for line in stdout.splitlines():
            head, sep, rest = line.strip().partition(": ")
            if sep and "/" in rest and " rate " in rest:
                s, r = rest.split(" ")[0].split("/")
                counts[head] = (int(s), int(r))
        results = []
        for names, _ in spec.paths:
            key = f"{spec.name}:{'.'.join(names)}"
            got = counts.get(".".join(names))
            if rc != 0 or got is None or got[1] != MC_RUNS:
                results.append((key, f"exit {rc!r}, counts {got}", False))
                continue
            exact = _path_value(spec, names, spec.bounds)
            if not oracle.wilson_accepts(got[0], got[1], exact):
                results.append((key, f"{got[0]}/{got[1]} outside the z=5 Wilson interval of "
                                f"{float(exact)!r}", False))
            else:
                results.append((key, None, False))
        return results

    return check


# ---------------------------------------------------------------------------
# sweep: `feasible` over the default grid for the example and a smaller one
# for the mixed-depth tree; one solve per grid point.


def setup_sweep(s: Setup, seed):
    rng = random.Random(f"sweep:{seed}")
    ops = []
    mixed = inputs.Spec("mixed", "0.2", inputs.MIXED_TREE)
    for spec, grid in ((inputs.EXAMPLE, ()), (mixed, MIXED_GRID)):
        out = s.work / "feasible" / spec.name
        argv = ["feasible", "--spec", s.spec(spec), "--out", str(out)]
        for flag, value in zip(("--grid-n", "--grid-dmax", "--grid-tau"), grid):
            argv += [flag, value]
        ops.append(Op(spec.name, argv, _sweep_check(s.pf, spec, out, rng.getrandbits(32)), out))
    return ops


def _sweep_check(pf, spec, out: Path, sample_seed):
    def check(rc, stdout):
        if rc != 0:
            return [(spec.name, f"feasible exited {rc!r}", False)]
        rows = [line.split(",") for line in (out / "feasibility.csv").read_text().splitlines()[1:]]
        cons = spec.constraints()
        problems = {}
        realizable_at = []
        for i, (n, dmax, tau, r, delta, ok, total) in enumerate(rows):
            rate = (int(n) - 2) * float(dmax) / float(tau)
            want_delta = oracle.logistic_delta(rate)
            if abs(float(r) - rate) > 1e-9 * max(1.0, rate) or abs(float(delta) - want_delta) > 1e-12:
                problems[i] = f"delta {delta} at r={r}, expected {want_delta!r}"
                continue
            if (ok == "true") != (total != ""):
                problems[i] = f"realizable={ok} with sum_bounds {total!r}"
                continue
            d = Fraction(float(delta))
            sup = (1 - d) / (1 - d * (1 - d))
            attainable = all(p < sup for _, p in cons)
            if attainable != (ok == "true"):
                problems[i] = f"realizable={ok} at delta {delta}, exact supremum {float(sup)!r}"
                continue
            realizable_at.append((float(delta), i, int(total) if total else None))
        # Realizability never turns back on, and the optimum never falls, as delta rises.
        realizable_at.sort()
        seen_off, last = False, None
        for delta, i, total in realizable_at:
            if total is None:
                seen_off = True
            elif seen_off:
                problems[i] = f"realizable again at delta {delta!r}"
            elif last is not None and total < last:
                problems[i] = f"sum_bounds {total} falls below {last} as delta rises to {delta!r}"
            else:
                last = total if last is None else max(last, total)
        # Exact witness checks on a seeded sample of realizable rows.
        live = [i for _, i, total in realizable_at if total is not None and i not in problems]
        for i in random.Random(sample_seed).sample(live, min(SWEEP_SAMPLES, len(live))):
            delta = float(rows[i][4])
            solved = pf.solve_opt(pf.parse_spec(spec.text).protocol, delta)
            by_name = {e.name: n for e, n in solved.items()}
            vec = [by_name[e] for e in spec.events]
            d = Fraction(delta)
            if sum(vec) != int(rows[i][6]):
                problems[i] = f"witness total {sum(vec)} differs from sum_bounds {rows[i][6]}"
            elif not oracle.meets(vec, d, cons) or not oracle.single_decrement_minimal(vec, d, cons):
                problems[i] = f"witness {vec} at delta {delta!r} fails the exact checks"
        return [(f"{spec.name}:row{i}", problems.get(i), False) for i in range(len(rows))]

    return check


WORKLOADS = {
    "design": setup_design,
    "verify": setup_verify,
    "simulate": setup_simulate,
    "sweep": setup_sweep,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the trace


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    own = tracer.self_times()
    names = {s[0]: s[1] for s in tracer.spans}
    m = {}
    t = tracer.total

    def selfsum(prefix):
        return sum(v for i, v in own.items() if names[i].startswith(prefix))

    for cmd in ("synth", "verify", "simulate", "feasible"):
        m[f"cli.{cmd}_s"] = t(f"cli.cmd_{cmd}")
        m[f"cli.{cmd}.self_s"] = selfsum(f"cli.cmd_{cmd}")
    m["speclang.parse_s"] = t("speclang.parse_spec")
    m["speclang.well_posed_s"] = t("speclang.well_posed")
    m["speclang.enumerate_sequences_s"] = t("speclang.enumerate_sequences")
    m["speclang.calls"] = sum(tracer.calls.get(f"speclang.{f}", 0) for f in LAYERS["speclang"])
    m["bounds.solve_opt_s"] = t("bounds.solve_opt")
    m["bounds.solve_opt_calls"] = tracer.calls.get("bounds.solve_opt", 0)
    m["bounds.sum_bounds"] = tracer.counts["bounds.sum_bounds"]
    m["synthesis.synthesize_s"] = t("synthesis.synthesize_all", "synthesis.synthesize_for_car")
    m["synthesis.states"] = tracer.counts["synthesis.states"]
    m["synthesis.transitions"] = tracer.counts["synthesis.transitions"]
    m["csa.export_json_s"] = t("csa.export_json")
    m["csa.import_json_s"] = t("csa.import_json")
    m["csa.validate_s"] = t("csa.validate")
    m["csa.json_bytes"] = tracer.counts["csa.json_bytes"]
    m["semantics.check_correctness_s"] = t("semantics.check_correctness")
    m["semantics.explore_sync_s"] = t("semantics.explore_sync")
    m["semantics.configs_processed"] = tracer.counts["semantics.configs_processed"]
    m["semantics.configs_per_s"] = _rate(m["semantics.configs_processed"], m["semantics.explore_sync_s"])
    m["semantics.sequences_checked"] = tracer.counts["semantics.sequences_checked"]
    m["semantics.run_monte_carlo_s"] = t("semantics.run_monte_carlo")
    m["semantics.mc_runs"] = tracer.counts["semantics.mc_runs"]
    m["semantics.mc_runs_per_s"] = _rate(m["semantics.mc_runs"], m["semantics.run_monte_carlo_s"])
    m["medium.feasibility_sweep_s"] = t("medium.feasibility_sweep")
    m["medium.feasibility_sweep.self_s"] = selfsum("medium.feasibility_sweep")
    m["medium.grid_points"] = tracer.counts["medium.grid_points"]
    m["medium.points_per_s"] = _rate(m["medium.grid_points"], m["medium.feasibility_sweep_s"])
    m["medium.realizable_points"] = tracer.counts["medium.realizable_points"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = selfsum(f"{layer}.")
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(tracer.spans)
    return m


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="repeat whole rounds until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pf = import_program()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        return _run(pf, args, work, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _run(pf, args, work: Path, tracer) -> int:
    setup = WORKLOADS[args.workload]
    pace = Pace()
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPS or sum(setup_times) < SETUP_MIN_SECONDS) \
            and len(setup_times) < SETUP_MAX_REPS:
        last = tracer is not None and len(setup_times) + 1 >= SETUP_MIN_REPS
        if last:
            tracer.install()
            tracer.op = "setup"
        t0 = time.perf_counter()
        built = Setup(pf, work)
        ops = setup(built, args.seed)
        setup_times.append(time.perf_counter() - t0)
        pace.mark(setup_times[-1])
        if last:
            break
    pace.close()
    setup_s = statistics.median(setup_times) * pace.factors(0)[0]
    built.write()

    attempted = failed = 0
    correct = True
    walls, cpus = [], []  # per round, at the reference pace
    raw_walls = []  # per round, as measured
    verdicts = {}  # (op index, rc, stdout, output files) -> what the check said
    peak_rss = None
    start = time.perf_counter()
    while True:
        clear_memo_tables()
        outcomes, first = [], len(pace.samples) - 1
        for op in ops:
            if tracer is not None:
                tracer.op = op.name
            outcomes.append(run_op(pf, op))
            pace.mark(outcomes[-1].wall)
        pace.close()
        fw, fc = pace.factors(first)
        raw_walls.append(sum(o.wall for o in outcomes))
        walls.append(raw_walls[-1] * fw)
        cpus.append(sum(o.cpu for o in outcomes) * fc)
        if peak_rss is None:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        for i, (op, outcome) in enumerate(zip(ops, outcomes)):
            # The program is deterministic, so a round repeats the outputs of
            # the first; an output already checked keeps its verdict.
            key = (i, outcome.rc, outcome.stdout, op.output())
            fresh = key not in verdicts
            if fresh:
                verdicts[key] = op.check(outcome.rc, outcome.stdout)
            for item, problem, known in verdicts[key]:
                attempted += 1
                if problem is not None:
                    failed += 1
                    correct &= known
                    if fresh:
                        print(f"failed {args.workload} {item}: {problem}"
                              f"{'' if known else ' (unexpected)'}", file=sys.stderr)
        if tracer is not None or time.perf_counter() - start >= args.seconds:
            break

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        values = layer_metrics(tracer, raw_walls[0])
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "metrics": values})
    print(f"rounds {len(walls)}, setups {len(setup_times)}, reference samples {len(pace.samples)}, "
          f"median round {statistics.median(raw_walls):.4f} s as measured", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
