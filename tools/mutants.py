"""Mutation testing of src/protoforge, with the standard library only.

A mutant changes one site of the package: a comparison operator turned into
its neighbour (< and <=, > and >=, == and !=), + and - swapped, `and` and
`or` swapped, or an int constant plus 1.  The sites are found with `ast` and
the change is spliced into the source text, so every other line stays as it
is.  A sample of the sites, drawn with a fixed seed, runs one mutant at a
time: each on a fresh temporary copy of src/, tests/, bench/ and
pyproject.toml, with the Tier-1 suite under -x and a timeout, since a mutant
can loop.  A mutant is killed when the suite fails or times out.  The report
lists every surviving mutant with file, line and operator, and gives the
score per module.

Run it from the root of a checkout, now and then, not as part of the suite:

    python tools/mutants.py --sample 40 --seed 7 --timeout 300

--only PATH[:FIRST-LAST] keeps the sites of one module, or of lines FIRST to
LAST of it; repeat it to keep several.  --sample 0 runs every site kept:

    python tools/mutants.py --only src/protoforge/csa.py:360-420 --sample 0
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "protoforge"
COPIED = ("src", "tests", "bench", "pyproject.toml")
SUITE = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")

SWAPS = {
    ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
    ast.Add: "-", ast.Sub: "+", ast.And: "or", ast.Or: "and",
}
TOKENS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
          ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or"}


def _offset(starts, line, col):
    # ast columns count UTF-8 bytes.
    return starts[line - 1] + col


def sites(path: Path) -> list:
    """(line, description, [(start, end, new bytes)]) for every mutable site
    of one module, in source order.  Sites inside f-strings are left out,
    where ast positions are not reliable."""
    source = path.read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def between(a, b, op):
        # The splice that swaps op, the only token between nodes a and b.
        lo = _offset(starts, a.end_lineno, a.end_col_offset)
        hi = _offset(starts, b.lineno, b.col_offset)
        old, new = TOKENS[type(op)].encode(), SWAPS[type(op)].encode()
        segment = source[lo:hi]
        if segment.count(old) != 1:
            return None
        at = lo + segment.index(old)
        return (at, at + len(old), new)

    def visit(node):
        if isinstance(node, ast.JoinedStr):
            return
        splices, what = [], None
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in SWAPS:
                    splice = between(left, right, op)
                    if splice:
                        found.append((node.lineno, f"{TOKENS[type(op)]} -> {SWAPS[type(op)]}",
                                      [splice]))
                left = right
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            splices = [between(node.left, node.right, node.op)]
            what = f"{TOKENS[type(node.op)]} -> {SWAPS[type(node.op)]}"
        elif isinstance(node, ast.BoolOp):
            splices = [between(a, b, node.op) for a, b in zip(node.values, node.values[1:])]
            what = f"{TOKENS[type(node.op)]} -> {SWAPS[type(node.op)]}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo = _offset(starts, node.lineno, node.col_offset)
            hi = _offset(starts, node.end_lineno, node.end_col_offset)
            splices = [(lo, hi, str(node.value + 1).encode())]
            what = f"{node.value} -> {node.value + 1}"
        if splices and all(splices):
            found.append((node.lineno, what, splices))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def mutate(source: bytes, splices) -> bytes:
    for lo, hi, new in sorted(splices, reverse=True):
        source = source[:lo] + new + source[hi:]
    return source


def run_suite(path: Path, text: bytes, timeout: float) -> str:
    """'killed', 'timeout' or 'survived' for one mutant of the module at path."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(src, copy / name)
        (copy / path.relative_to(ROOT)).write_bytes(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen([sys.executable, *SUITE], cwd=copy, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"
    return "survived" if code == 0 else "killed"


def only(text: str):
    """(module path, first line, last line) of a --only PATH[:FIRST-LAST]."""
    name, _, lines = text.partition(":")
    path = (ROOT / name).resolve()
    if path.parent != PACKAGE or path.suffix != ".py" or not path.is_file():
        raise argparse.ArgumentTypeError(f"not a module of {PACKAGE.relative_to(ROOT)}: {name}")
    first, _, last = lines.partition("-")
    try:
        return path, int(first) if first else 1, int(last) if last else sys.maxsize
    except ValueError:
        raise argparse.ArgumentTypeError(f"lines must be FIRST-LAST, got {lines!r}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sample", type=int, default=40,
                    help="mutants to run, 0 for every site (default 40)")
    ap.add_argument("--only", type=only, action="append", metavar="PATH[:FIRST-LAST]",
                    help="keep only the sites of this module or line range; may be repeated")
    ap.add_argument("--seed", type=int, default=7, help="seed of the sample (default 7)")
    ap.add_argument("--timeout", type=float, default=300.0,
                    help="seconds per mutant before it counts as killed (default 300)")
    args = ap.parse_args(argv)

    every = [(path, *site) for path in sorted(PACKAGE.glob("*.py")) for site in sites(path)
             if not args.only or any(path == p and a <= site[0] <= b for p, a, b in args.only)]
    count = len(every) if args.sample == 0 else min(args.sample, len(every))
    chosen = random.Random(args.seed).sample(every, count)
    print(f"{len(every)} sites in {PACKAGE.relative_to(ROOT)}"
          f"{' kept by --only' if args.only else ''}; running {len(chosen)} "
          f"(seed {args.seed})", flush=True)
    # Unmutated, the copy must pass, or every mutant would count as killed.
    init = PACKAGE / "__init__.py"
    if run_suite(init, init.read_bytes(), args.timeout) != "survived":
        print("the suite fails on an unmutated copy; no mutant run", file=sys.stderr)
        return 1
    tally, survivors = {}, []
    for k, (path, line, what, splices) in enumerate(chosen, 1):
        name = path.relative_to(ROOT)
        t0 = time.perf_counter()
        verdict = run_suite(path, mutate(path.read_bytes(), splices), args.timeout)
        print(f"[{k}/{len(chosen)}] {name}:{line} {what}: {verdict} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
        tally.setdefault(path.stem, Counter())[verdict != "survived"] += 1
        if verdict == "survived":
            survivors.append(f"{name}:{line} {what}")
    print("\nsurviving mutants:" if survivors else "\nno surviving mutants")
    for s in survivors:
        print(f"  {s}")
    print("score per module (killed/run):")
    for module, counts in sorted(tally.items()):
        print(f"  {module}: {counts[True]}/{counts[True] + counts[False]}")
    killed = sum(c[True] for c in tally.values())
    print(f"  all: {killed}/{len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
