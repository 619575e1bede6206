"""The benchmark's own checks must reject wrong outputs.

    python3 -m pytest -q bench/test_checks.py

Each test runs a real protoforge command through the same path the benchmark
uses, confirms the check accepts its output, then corrupts the output the way
a fault would and confirms the check rejects it.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

import inputs
import oracle
import pace
import run

pf = run.import_program()


def problems(results):
    return [(item, problem, known) for item, problem, known in results if problem is not None]


def test_recursion_reproduces_closed_form():
    for d in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 20)):
        rho = 1 - d
        for n1 in range(5):
            for n2 in range(5):
                rec = sum(rho * d ** i * oracle._phase(n1 - i, (n2,), d) for i in range(n1 + 1))
                assert rec == oracle.closed_form_two(n1, n2, d)


def test_oracle_agrees_with_float_formula():
    rng = random.Random(7)
    for _ in range(40):
        vec = [rng.randint(0, 6) for _ in range(rng.randint(2, 5))]
        d = rng.choice([0.2, 0.35, 0.5, 0.6])
        assert abs(float(oracle.sync_prob(vec, Fraction(str(d)))) - pf.sync_prob(vec, d)) < 1e-12


def test_boundary_set_is_the_recorded_one():
    rows = json.loads((run.HERE / "boundary.json").read_text())
    assert [(Fraction(r["delta"]), Fraction(r["p"])) for r in rows] == oracle.boundary_set()
    assert len(rows) == 53
    assert sum(r["synth_bounds"] != r["exact_opt"] for r in rows) == 14


def test_dialogues_are_seeded_and_well_posed():
    a, b = inputs.dialogues(3, "design"), inputs.dialogues(3, "design")
    assert [s.text for s in a] == [s.text for s in b]
    assert [s.text for s in a] != [s.text for s in inputs.dialogues(4, "design")]
    for spec in a:
        full = pf.parse_spec(spec.text)
        assert pf.well_posed(full.protocol).ok
        assert sorted(len(names) for names, _ in spec.paths) == [2, 2, 3]
        assert len(spec.events) == 5
        assert oracle.meets(spec.bounds, Fraction(spec.delta), spec.constraints())


def _only(setup, tmp_path, name):
    built = run.Setup(pf, tmp_path)
    (op,) = [op for op in setup(built, 0) if op.name == name]
    built.write()
    return op


def test_design_check_rejects_a_lowered_bound(tmp_path):
    op = _only(run.setup_design, tmp_path, "example")
    out = run.run_op(pf, op)
    assert problems(op.check(out.rc, out.stdout)) == []
    bounds_file = tmp_path / "synth" / "example" / "bounds.json"
    named = json.loads(bounds_file.read_text())
    named["snd"] -= 1
    bounds_file.write_text(json.dumps(named))
    [(_, problem, known)] = problems(op.check(out.rc, out.stdout))
    assert "miss a requirement" in problem and not known


def test_design_check_names_the_known_boundary_fault(tmp_path):
    op = _only(run.setup_design, tmp_path, "boundary-d0.3-p0.49")
    out = run.run_op(pf, op)
    [(_, problem, known)] = problems(op.check(out.rc, out.stdout))
    assert "[1, 0]" in problem and known


def test_verify_check_rejects_a_probability_off_by_1e6(tmp_path):
    op = _only(run.setup_verify, tmp_path, "chain4-d0.5")
    out = run.run_op(pf, op)
    assert problems(op.check(out.rc, out.stdout)) == []
    head, achieved = out.stdout.split("achieved ")
    value = achieved.split(",")[0]
    wrong = head + "achieved " + repr(float(value) + 1e-6) + achieved[len(value):]
    [(_, problem, known)] = problems(op.check(out.rc, wrong))
    assert "exact" in problem and not known


def test_verify_check_rejects_a_flipped_verdict(tmp_path):
    op = _only(run.setup_verify, tmp_path, "chain3-d0.6")
    out = run.run_op(pf, op)
    wrong = out.stdout.replace("[ok]", "[VIOLATED]")
    assert problems(op.check(out.rc, wrong))


def test_simulate_check_rejects_a_count_off_by_6_sigma():
    spec = inputs.EXAMPLE
    check = run._simulate_check(spec)
    n = run.MC_RUNS
    lines = []
    for names, _ in spec.paths:
        p = float(run._path_value(spec, names, spec.bounds))
        lines.append((names, p))

    def stdout(shift_sigma):
        text = ""
        for i, (names, p) in enumerate(lines):
            k = round(n * p + (shift_sigma * math.sqrt(n * p * (1 - p)) if i == 0 else 0))
            text += f"  {'.'.join(names)}: {k}/{n} rate {k / n!r} stderr 0.0\n"
        return text

    assert problems(check(0, stdout(0))) == []
    assert len(problems(check(0, stdout(6)))) == 1
    assert len(problems(check(0, stdout(-6)))) == 1


def test_sweep_check_rejects_a_flipped_row(tmp_path):
    op = _only(run.setup_sweep, tmp_path, "mixed")
    out = run.run_op(pf, op)
    assert problems(op.check(out.rc, out.stdout)) == []
    csv = tmp_path / "feasible" / "mixed" / "feasibility.csv"
    lines = csv.read_text().splitlines()
    # Flip the first realizable row to unrealizable.
    i = next(i for i, line in enumerate(lines) if ",true," in line)
    cols = lines[i].split(",")
    cols[5], cols[6] = "false", ""
    lines[i] = ",".join(cols)
    csv.write_text("\n".join(lines) + "\n")
    assert problems(op.check(out.rc, out.stdout))


def test_sweep_check_rejects_a_wrong_delta(tmp_path):
    op = _only(run.setup_sweep, tmp_path, "mixed")
    out = run.run_op(pf, op)
    csv = tmp_path / "feasible" / "mixed" / "feasibility.csv"
    lines = csv.read_text().splitlines()
    cols = lines[3].split(",")
    cols[4] = repr(float(cols[4]) + 1e-9)
    lines[3] = ",".join(cols)
    csv.write_text("\n".join(lines) + "\n")
    assert problems(op.check(out.rc, out.stdout))


def test_a_changed_output_file_is_checked_again(tmp_path):
    op = run.Op("x", [], None, tmp_path)
    (tmp_path / "bounds.json").write_text("[1]")
    before = op.output()
    (tmp_path / "bounds.json").write_text("[0]")
    assert op.output() != before


def test_pace_scales_by_the_median_sample_since_a_mark(monkeypatch):
    samples = iter([(0.03, 0.03), (0.06, 0.09), (0.3, 0.3), (0.015, 0.01)])
    monkeypatch.setattr(pace, "sample", lambda: next(samples))
    p = pace.Pace()
    p.mark(pace.EVERY_S)       # a sample follows at once
    p.mark(pace.EVERY_S / 2)   # pending until the next mark or close()
    p.mark(pace.EVERY_S / 2)
    p.close()                  # nothing pending: no sample
    assert len(p.samples) == 3
    n = pace.NOMINAL_S
    assert p.factors(0) == pytest.approx((n / 0.06, n / 0.09))
    assert p.factors(1) == pytest.approx((n / 0.18, n / 0.195))


def test_wilson_is_exact_at_the_ends():
    assert oracle.wilson_accepts(0, 100, 0) and not oracle.wilson_accepts(1, 100, 0)
    assert oracle.wilson_accepts(100, 100, 1) and not oracle.wilson_accepts(99, 100, 1)


@pytest.mark.parametrize("x", ["0.49", "0.0001", "1", "0.836479"])
def test_decimal_text_round_trips(x):
    assert oracle.decimal_text(Fraction(x)) == x
