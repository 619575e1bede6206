"""Spans and counts at protoforge's module boundaries, recorded from outside.

`Tracer.install()` replaces each public function listed in LAYERS with a
wrapper in every protoforge module namespace that holds it, so calls made
through `from .x import f` are traced too; `uninstall()` puts the originals
back. A span is (id, name, start, end, parent, op): `op` is the operation the
benchmark was running, shared by every span it caused. Spans stay in memory
until `write()`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> public functions wrapped at that layer's boundary.
LAYERS = {
    "cli": ("cmd_synth", "cmd_verify", "cmd_simulate", "cmd_feasible"),
    "speclang": ("parse_spec", "well_posed", "enumerate_sequences"),
    "bounds": ("solve_opt",),
    "synthesis": ("synthesize_all", "synthesize_for_car"),
    "csa": ("export_json", "import_json", "validate"),
    "semantics": ("check_correctness", "explore_sync", "run_monte_carlo"),
    "medium": ("feasibility_sweep",),
}


def _count_result(name, result, counts):
    # Work counters read from what each layer returns.
    if name == "bounds.solve_opt" and isinstance(result, dict):
        counts["bounds.sum_bounds"] += sum(result.values())
    elif name == "synthesis.synthesize_for_car":
        counts["synthesis.states"] += len(result.states)
        counts["synthesis.transitions"] += len(result.transitions)
    elif name == "csa.export_json":
        counts["csa.json_bytes"] += len(result.encode())
    elif name == "semantics.explore_sync":
        counts["semantics.configs_processed"] += result.configs_processed
    elif name == "semantics.check_correctness":
        counts["semantics.sequences_checked"] += len(result.checks)
    elif name == "semantics.run_monte_carlo":
        counts["semantics.mc_runs"] += result.runs
    elif name == "medium.feasibility_sweep":
        counts["medium.grid_points"] += len(result)
        counts["medium.realizable_points"] += sum(row.realizable for row in result)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op]
        self.calls = {}
        self.op = None
        self._stack = []
        self._patched = []
        self.counts = dict.fromkeys((
            "bounds.sum_bounds", "synthesis.states", "synthesis.transitions", "csa.json_bytes",
            "semantics.configs_processed", "semantics.sequences_checked", "semantics.mc_runs",
            "medium.grid_points", "medium.realizable_points"), 0)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(tracer.spans), name, 0.0, 0.0,
                    tracer._stack[-1][0] if tracer._stack else None, tracer.op]
            tracer.spans.append(span)
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            tracer._stack.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            _count_result(name, result, tracer.counts)
            return result

        return wrapper

    def install(self):
        import protoforge

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "protoforge" or n.startswith("protoforge."))]
        for layer, names in LAYERS.items():
            home = getattr(protoforge, layer)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- summaries ------------------------------------------------------------

    def self_times(self):
        """Per span id, its duration minus the time its direct children cover."""
        own = {s[0]: s[3] - s[2] for s in self.spans}
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def total(self, *names):
        """Time inside any of `names`, counting calls nested in one another once."""
        by_id = {s[0]: s for s in self.spans}

        def nested(s):
            p = s[4]
            while p is not None:
                if by_id[p][1] in names:
                    return True
                p = by_id[p][4]
            return False

        return sum(s[3] - s[2] for s in self.spans if s[1] in names and not nested(s))

    def write(self, path, extra):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts, "calls": self.calls, **extra},
                      fh)
