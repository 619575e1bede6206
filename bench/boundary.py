"""Regenerate boundary.json, the 53 exactly attainable two-event requirements.

For every drop bound delta in {0.1, ..., 0.9} and every bound vector (n1, n2)
with n1, n2 <= 2, the exact value P(n1, n2) is a requirement that some vector
meets with equality; 53 (delta, p) pairs are distinct. Each row records the
exact brute-force optimum and the vector `protoforge synth` returns, which
the verify workload uses as its fixed CSA bounds.

    PYTHONPATH=src python3 bench/boundary.py > bench/boundary.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402


def main() -> int:
    from protoforge import parse_spec, solve_opt

    rows = []
    for d, p in oracle.boundary_set():
        delta, req = oracle.decimal_text(d), oracle.decimal_text(p)
        full = parse_spec(f"delta {delta}; cars A B; e0 A->B . e1 B->A : {req}")
        synth = list(solve_opt(full.protocol, full.delta).values())
        exact = oracle.brute_force_opt(2, d, [((0, 1), p)], sum(synth))
        rows.append({"delta": delta, "p": req, "synth_bounds": synth, "exact_opt": exact})
    print("[\n" + ",\n".join("  " + json.dumps(r) for r in rows) + "\n]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
