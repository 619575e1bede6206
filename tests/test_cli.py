import argparse
import gc
import hashlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import protoforge
from protoforge import (
    Csa, EnvEvent, LocalEvent, TimeoutUpd, bounds_by_name, events_of, export_dot, export_json,
    parse_spec, synthesize_all, synthesize_for_car,
)
from protoforge.cli import build_parser, main
from protoforge.speclang import MAX_NESTING
from conftest import (EXAMPLE_TEXT, no_exit_loop_csas, timeout_loop_csas, trap_loop_csas,
                      two_choice_csas)

HARD_TEXT = "delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.9 | nack B->A : 0.9)"
EXAMPLE_A_JSON = export_json(synthesize_all(parse_spec(EXAMPLE_TEXT)).csas["A"])


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "example.psl"
    path.write_text(EXAMPLE_TEXT + "\n")
    return path


@pytest.fixture()
def synth_dir(tmp_path, spec_file):
    out = tmp_path / "synth"
    code = main(["synth", "--spec", str(spec_file), "--out", str(out)])
    assert code == 0
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_realizable(spec_file, capsys):
    code, out, _ = run(capsys, ["check", "--spec", str(spec_file)])
    assert code == 0
    assert "well-posed: yes" in out
    assert "realizable: yes" in out
    assert "bound snd: 3" in out and "bound ack: 1" in out and "bound nack: 2" in out
    assert "total: 6" in out


@pytest.mark.parametrize("command", [
    ["check"], ["synth", "--out", "{out}"], ["verify", "{A}", "{B}"],
    ["simulate", "{A}", "{B}", "--runs", "100"], ["feasible"],
], ids=["check", "synth", "verify", "simulate", "feasible"])
def test_commands_leave_no_reference_cycles(tmp_path, spec_file, synth_dir, capsys, command):
    # What sits in a reference cycle is freed only when the cyclic collector
    # next runs, which depends on how much else the process allocates: the
    # peak memory of a long-lived caller would then move with unrelated code.
    argv = [arg.format(out=tmp_path / "out", A=synth_dir / "A.json", B=synth_dir / "B.json")
            for arg in command] + ["--spec", str(spec_file)]
    assert run(capsys, argv)[0] == 0  # builds the parser, which lives on
    gc.collect()
    gc.disable()
    try:
        run(capsys, argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_ill_posed(tmp_path, capsys):
    path = tmp_path / "bad.psl"
    path.write_text("delta 0.1; cars A B; e A->B : 0.5\n")
    code, out, _ = run(capsys, ["check", "--spec", str(path)])
    assert code == 1
    assert "well-posed: no" in out
    assert "at least two events" in out


def test_check_infeasible(tmp_path, capsys):
    path = tmp_path / "hard.psl"
    path.write_text(HARD_TEXT + "\n")
    code, out, _ = run(capsys, ["check", "--spec", str(path)])
    assert code == 1
    assert "realizable: no" in out


def test_check_meets_certainty_without_loss_with_zero_bounds(tmp_path, capsys):
    # At drop probability 0 the supremum 1 is attained, by every bound.
    path = tmp_path / "lossless.psl"
    path.write_text("delta 0; cars A B; e0 A->B . e1 B->A : 1\n")
    code, out, _ = run(capsys, ["check", "--spec", str(path)])
    assert code == 0
    assert out.endswith("realizable: yes\n  bound e0: 0\n  bound e1: 0\n  total: 0\n")


def test_check_malformed(tmp_path, capsys):
    path = tmp_path / "broken.psl"
    path.write_text("delta 0.1; cars A B; snd A->B(\n")
    code, _, err = run(capsys, ["check", "--spec", str(path)])
    assert code == 2
    assert "error" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, ["check", "--spec", "/no/such/file.psl"])
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("cars A B; e0 A->B . e1 B->A : 0.5", "1:1: expected 'delta', found 'cars'"),
    ("delta 0.3; e0 A->B . e1 B->A : 0.5", "1:12: expected 'cars', found 'e0'"),
    ("delta 0.3; cars ; e0 A->B . e1 B->A : 0.5",
     "1:17: expected at least one car name, found ';'"),
    ("delta 0.3; cars A B; e0 A->B . e1 B->A : 0.5 x",
     "1:46: trailing input after specification, found 'x'"),
    ("delta 0.3; cars A B; e0 A->B e1 B->A : 0.5",
     "1:30: expected '.' or ':' after event, found 'e1'"),
    ("delta 1.2.3; cars A B; e0 A->B . e1 B->A : 0.5", "1:7: bad number '1.2.3'"),
], ids=["no-delta", "no-cars", "no-car-names", "trailing-input", "no-dot-or-colon",
        "bad-number"])
def test_check_reports_each_parse_error_at_its_position(tmp_path, capsys, text, message):
    path = tmp_path / "broken.psl"
    path.write_text(text + "\n")
    assert run(capsys, ["check", "--spec", str(path)]) == (2, "", f"error: {message}\n")


def test_synth_outputs(synth_dir):
    files = sorted(p.name for p in synth_dir.iterdir())
    assert files == ["A.dot", "A.json", "B.dot", "B.json", "bounds.json"]
    bounds = json.loads((synth_dir / "bounds.json").read_text())
    assert bounds == {"snd": 3, "ack": 1, "nack": 2}
    a = json.loads((synth_dir / "A.json").read_text())
    b = json.loads((synth_dir / "B.json").read_text())
    assert len(a["states"]) == 6
    assert len(b["states"]) == 10


def test_synth_golden_files(synth_dir):
    # Pinned bytes of every file `synth` writes for the example.
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in synth_dir.iterdir()}
    assert digests == {
        "A.json": "c8b1df9a90900f9d58afa6c1c0300dcc910c94a02a9558f34af457f40eafdd60",
        "B.json": "1ddc11df9114cb3e4eb0045638df19f39bfc4f2b53feb87a515df3744641d2ed",
        "A.dot": "c3434ec5f3ad70efac5cb7df250b8fccaf125a2876d29fa45b965f176e28a493",
        "B.dot": "7957de5b17f5ce4a07a15b816201350705bcc60dc016e650767291dbac596bf0",
        "bounds.json": "c1b66825b98259817b97e606e8c6a3b66ade3030a23ff4b56e8d5928ec757198",
    }


def test_synth_unrealizable(tmp_path, capsys):
    path = tmp_path / "hard.psl"
    path.write_text(HARD_TEXT + "\n")
    code, _, err = run(capsys, ["synth", "--spec", str(path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_synth_format_filter(tmp_path, spec_file):
    out = tmp_path / "dotonly"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out), "--format", "dot"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["A.dot", "B.dot", "bounds.json"]


@pytest.mark.parametrize("fmt, other", [("json", "dot"), ("dot", "json")])
def test_synth_format_removes_the_other_formats_stale_files(tmp_path, spec_file, fmt, other):
    # A rerun restricted to one format at another delta: the files of the
    # other format from the first run would hold the old bounds.
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == 0
    (out / "C.dot").write_text("not the spec's\n")
    (out / "A.txt").write_text("not a CSA format\n")
    argv = ["synth", "--spec", str(spec_file), "--out", str(out), "--format", fmt, "--delta", "0"]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["A.txt", "C.dot", f"A.{fmt}", f"B.{fmt}", "bounds.json"])
    assert json.loads((out / "bounds.json").read_text()) == {"snd": 0, "ack": 0, "nack": 0}
    fresh = tmp_path / "fresh"
    assert main(argv[:4] + [str(fresh)] + argv[5:]) == 0
    for name in (f"A.{fmt}", f"B.{fmt}", "bounds.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()
    assert not (out / f"A.{other}").exists()


def test_synth_lossless_override(tmp_path, spec_file):
    out = tmp_path / "lossless"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out), "--delta", "0"]) == 0
    assert json.loads((out / "bounds.json").read_text()) == {"snd": 0, "ack": 0, "nack": 0}


def test_synth_deterministic(tmp_path, spec_file):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out1)]) == 0
    assert main(["synth", "--spec", str(spec_file), "--out", str(out2)]) == 0
    for name in ("A.json", "B.json", "A.dot", "B.dot", "bounds.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def files_in(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_synth_rewrites_longer_files_to_the_fresh_bytes(tmp_path, spec_file):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert main(["synth", "--spec", str(spec_file), "--out", str(fresh)]) == 0
    reused.mkdir()
    for name in files_in(fresh):
        (reused / name).write_bytes(b"junk\n" * 20_000)  # 100 KB
    assert main(["synth", "--spec", str(spec_file), "--out", str(reused)]) == 0
    assert files_in(reused) == files_in(fresh)


def test_feasible_rewrites_a_longer_csv_to_the_fresh_bytes(tmp_path, spec_file, capsys):
    small = ["--grid-n", "2:5:1", "--grid-dmax", "100:200:100", "--grid-tau", "1:4:3"]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert run(capsys, ["feasible", "--spec", str(spec_file), "--out", str(fresh)] + small)[0] == 0
    assert run(capsys, ["feasible", "--spec", str(spec_file), "--out", str(reused)])[0] == 0
    assert (reused / "feasibility.csv").stat().st_size > (fresh / "feasibility.csv").stat().st_size
    assert run(capsys, ["feasible", "--spec", str(spec_file), "--out", str(reused)] + small)[0] == 0
    assert files_in(reused) == files_in(fresh)
    assert (fresh / "feasibility.csv").read_text().count("\n") == 1 + 16


def test_short_writes_still_write_every_byte(tmp_path, spec_file, capsys, monkeypatch):
    # os.write may write fewer bytes than it is given; the rest is written next.
    commands = [["synth", "--spec", str(spec_file)], ["feasible", "--spec", str(spec_file)]]
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for argv in commands:
        assert run(capsys, argv + ["--out", str(fresh)])[0] == 0
    reused.mkdir()
    for name in files_in(fresh):
        (reused / name).write_bytes(b"junk\n" * 20_000)
    real_write, calls = os.write, []

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(protoforge.cli.os, "write", short_write)
    for argv in commands:
        assert run(capsys, argv + ["--out", str(reused)])[0] == 0
    monkeypatch.undo()
    assert files_in(reused) == files_in(fresh)
    assert len(calls) == sum(-(-len(data) // 7) for data in files_in(fresh).values())


def test_simulate_rewrites_longer_traces_to_the_fresh_bytes(tmp_path, spec_file, synth_dir,
                                                             capsys):
    def simulate(out_dir, runs):
        return run(capsys, [
            "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
            "--spec", str(spec_file), "--runs", runs, "--seed", "3",
            "--traces", "--out", str(out_dir),
        ])[0]

    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert simulate(fresh, "5") == simulate(reused, "50") == 0
    assert simulate(reused, "5") == 0
    assert files_in(reused) == files_in(fresh)


def test_output_files_are_encoded_as_path_write_text_encodes(tmp_path):
    # A non-ASCII car name reaches the DOT files unescaped.
    text = "delta 0.2; cars A Bé; snd A->Bé . ack Bé->A : 0.5"
    spec = tmp_path / "accent.psl"
    spec.write_text(text)
    out, expected = tmp_path / "out", tmp_path / "expected"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    result = synthesize_all(parse_spec(text))
    expected.mkdir()
    for car, csa in result.csas.items():
        (expected / f"{car}.json").write_text(export_json(csa))
        (expected / f"{car}.dot").write_text(export_dot(csa))
    (expected / "bounds.json").write_text(json.dumps(bounds_by_name(parse_spec(text).protocol,
                                                                    result.bounds), indent=2) + "\n")
    assert files_in(out) == files_in(expected)
    assert "é".encode() in files_in(out)["Bé.dot"]


def test_synth_onto_a_directory_exits_2(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    (out / "bounds.json").mkdir(parents=True)
    code, _, err = run(capsys, ["synth", "--spec", str(spec_file), "--out", str(out)])
    assert code == 2
    assert err.startswith("error: ")


def test_verify_pass(spec_file, synth_dir, capsys):
    code, out, _ = run(capsys, [
        "verify", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file),
    ])
    assert code == 0
    assert "verdict: pass" in out
    assert out.count("[ok]") == 2


def test_verify_fails_beyond_design_point(spec_file, synth_dir, capsys):
    code, out, _ = run(capsys, [
        "verify", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--delta", "0.6",
    ])
    assert code == 1
    assert "VIOLATED" in out
    assert "verdict: fail" in out


def test_verify_budget_exhaustion(spec_file, synth_dir, capsys, monkeypatch):
    monkeypatch.setenv("PROTOFORGE_BUDGET", "2")
    code, _, err = run(capsys, [
        "verify", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file),
    ])
    assert code == 3


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "0"])
def test_a_bad_budget_is_malformed_input(spec_file, synth_dir, capsys, monkeypatch,
                                         command, value):
    monkeypatch.setenv("PROTOFORGE_BUDGET", value)
    code, out, err = run(capsys, [
        command, str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file),
    ])
    assert (code, out) == (2, "")
    assert f"PROTOFORGE_BUDGET must be a positive integer, got {value!r}" in err


def write_csas(directory, csas):
    paths = []
    for csa in csas:
        path = directory / f"{csa.owner}.json"
        path.write_text(export_json(csa))
        paths.append(str(path))
    return paths


def test_verify_passes_synth_bounds_on_the_eight_event_chain(tmp_path, capsys):
    # The bounds `synth` finds for this spec (its solver takes about half a
    # minute, so they are given here).  Exact exploration used to run out of
    # its 10^7-configuration budget on them.
    names = [f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(8)]
    text = "delta 0.6; cars A B; " + " . ".join(names) + " : 0.5"
    spec = tmp_path / "chain8.psl"
    spec.write_text(text + "\n")
    full = parse_spec(text)
    bounds = dict(zip(events_of(full.protocol), (11, 11, 12, 12, 12, 12, 9, 4)))
    csas = [synthesize_for_car(full.protocol, car, bounds) for car in full.cars]
    code, out, _ = run(capsys, ["verify", *write_csas(tmp_path, csas), "--spec", str(spec)])
    assert code == 0
    assert "achieved 0.500006446077940" in out
    assert out.endswith("verdict: pass\n")


def test_verify_passes_a_requirement_met_exactly(tmp_path, capsys):
    # synth's bounds (1, 0) reach exactly 0.637 at delta 0.3; the float sum
    # of the deductions is 0.6369999999999999.
    spec = tmp_path / "exact.psl"
    spec.write_text("delta 0.3; cars A B; e0 A->B . e1 B->A : 0.637\n")
    out_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(out_dir)]) == 0
    code, out, _ = run(capsys, [
        "verify", str(out_dir / "A.json"), str(out_dir / "B.json"), "--spec", str(spec)])
    assert code == 0
    assert "e0.e1: required 0.637, achieved 0.637, margin 0.0 [ok]" in out


def test_verify_checks_each_sequence_against_its_own_requirement(tmp_path, capsys):
    # Both leaves have the sequence e0.e1; the CSAs built for 0.5 reach
    # 0.53125, so the 0.9 leaf is violated, whatever the 0.5 leaf says.
    half = tmp_path / "half.psl"
    half.write_text("delta 0.5; cars A B; e0 A->B . e1 B->A : 0.5\n")
    out_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(half), "--out", str(out_dir)]) == 0
    spec = tmp_path / "two.psl"
    spec.write_text("delta 0.5; cars A B; (e0 A->B . e1 B->A : 0.9) | e0 A->B . e1 B->A : 0.5\n")
    code, out, _ = run(capsys, [
        "verify", str(out_dir / "A.json"), str(out_dir / "B.json"), "--spec", str(spec)])
    assert code == 1
    (line,) = [line for line in out.splitlines() if "required 0.9," in line]
    assert line.endswith("[VIOLATED]")
    assert out.endswith("verdict: fail\n")


@pytest.mark.parametrize("body, message", [
    ("(a A->B . b B->A : 0.5) | a A->B . c B->A : 0.6",
     "alternatives at the root both begin with event 'a A->B'; write it once, before the '|'"),
    ("a A->B . ((b B->A . c A->B : 0.4) | b B->A . d A->B : 0.4)",
     "alternatives after path 'a' both begin with event 'b B->A'; write it once, before the '|'"),
], ids=["at-the-root", "after-a"])
def test_alternatives_that_begin_alike_are_rejected(tmp_path, capsys, body, message):
    # Synthesized, one alternative's transition would replace the other's, and
    # verify would find its sequence achieved 0.0.
    spec = tmp_path / "alike.psl"
    spec.write_text(f"delta 0.3; cars A B; {body}\n")
    code, out, _ = run(capsys, ["check", "--spec", str(spec)])
    assert code == 1
    assert out == f"well-posed: no\n  violation: {message}\nrealizable: no\n"
    out_dir = tmp_path / "synth"
    code, out, err = run(capsys, ["synth", "--spec", str(spec), "--out", str(out_dir)])
    assert code == 1
    assert (out, err) == ("", f"unrealizable: {message}\n")
    assert not out_dir.exists()


def test_alternatives_factored_after_their_shared_event_verify(tmp_path, capsys):
    spec = tmp_path / "factored.psl"
    spec.write_text("delta 0.3; cars A B; a A->B . (b B->A : 0.5 | c B->A : 0.6)\n")
    out_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec), "--out", str(out_dir)]) == 0
    code, out, _ = run(capsys, [
        "verify", str(out_dir / "A.json"), str(out_dir / "B.json"), "--spec", str(spec)])
    assert code == 0
    assert "a.b: required 0.5, achieved 0.637, margin 0.137 [ok]" in out
    assert "a.c: required 0.6, achieved 0.637, margin 0.037 [ok]" in out


def test_verify_resolves_a_choice_as_simulate_does(tmp_path, capsys):
    # B has two system events that complete e0.  Both checks follow the
    # first; adding up both would give a "probability" of 2.0.
    spec = tmp_path / "choice.psl"
    spec.write_text("delta 0.3; cars A B; e0 A->B : 0.5\n")
    paths = write_csas(tmp_path, two_choice_csas())
    code, out, _ = run(capsys, ["verify", *paths, "--spec", str(spec)])
    assert code == 0
    assert "e0: required 0.5, achieved 1.0, margin 0.5 [ok]" in out
    code, out, _ = run(capsys, ["simulate", *paths, "--spec", str(spec),
                                "--runs", "1000", "--seed", "1"])
    assert code == 0
    assert "e0: 1000/1000 rate 1.0 " in out


def test_verify_reports_a_cycle(tmp_path, capsys):
    spec = tmp_path / "loop.psl"
    spec.write_text("delta 0.35; cars A B; e0 A->B . e1 B->A : 0.5\n")
    paths = write_csas(tmp_path, timeout_loop_csas())
    code, out, err = run(capsys, ["verify", *paths, "--spec", str(spec)])
    assert code == 3
    assert out == ""
    assert err == ("error: deduction cycle: a configuration repeats with no medium "
                   "decision in between\n")


def test_simulate_reports_a_loop_without_exit(tmp_path):
    # In a subprocess with a timeout, so that a regression fails instead of
    # hanging the suite.
    spec = tmp_path / "loop.psl"
    spec.write_text("delta 0.5; cars A B; e0 A->B . e1 B->A : 0.5\n")
    paths = write_csas(tmp_path, no_exit_loop_csas())
    src_root = os.path.dirname(os.path.dirname(protoforge.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "protoforge", "simulate", *paths, "--spec", str(spec),
         "--runs", "1"],
        capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: deduction cycle: ")
    assert "cycle" in proc.stderr


def test_simulate_reports_a_loop_behind_a_drop_for_few_runs(tmp_path, capsys):
    # Ten runs at drop probability 0.01 rarely lose the copy that leads into
    # the loop; the loop is reported all the same.
    spec = tmp_path / "trap.psl"
    spec.write_text("delta 0.01; cars A B; e0 A->B : 0.5\n")
    paths = write_csas(tmp_path, trap_loop_csas())
    code, _, err = run(capsys, ["simulate", *paths, "--spec", str(spec), "--runs", "10"])
    assert code == 3
    assert err == ("error: deduction cycle: a configuration repeats, and no random medium "
                   "outcome leaves its loop\n")


@pytest.mark.parametrize("body, column", [
    ("(" * 5000 + "e A->B . f B->A : 0.5" + ")" * 5000, 22 + MAX_NESTING),
    (" . ".join(f"e{i} {'A->B' if i % 2 == 0 else 'B->A'}" for i in range(3000)) + " : 0.5",
     22 + sum(len(f"e{i} A->B . ") for i in range(MAX_NESTING))),
], ids=["5000-nested-parentheses", "3000-event-chain"])
def test_check_rejects_too_deep_nesting(tmp_path, capsys, body, column):
    path = tmp_path / "deep.psl"
    path.write_text("delta 0.3; cars A B; " + body + "\n")
    code, out, err = run(capsys, ["check", "--spec", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: 1:{column}: specification nests deeper than "
                          f"{MAX_NESTING} levels, found ")


def test_simulate_lossless(spec_file, synth_dir, capsys):
    code, out, _ = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--delta", "0", "--runs", "50", "--seed", "1",
    ])
    assert code == 0
    assert "seed: 1" in out
    assert out.count("rate 1.0") == 2


def test_simulate_interval_at_rate_one(spec_file, synth_dir, capsys):
    # Where a Wald interval collapses to a point, the Wilson interval keeps
    # its width: 50 successes of 50 still leave a lower end below 1.
    code, out, _ = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--delta", "0", "--runs", "50", "--seed", "1",
    ])
    assert code == 0
    rows = [line for line in out.splitlines() if " ci95 " in line]
    assert len(rows) == 2
    for line in rows:
        assert line.split(": ", 1)[1].startswith("50/50 rate 1.0 ci95 [")
        lo, hi = (float(x) for x in line.split(" ci95 [")[1].rstrip("]").split(", "))
        assert hi == 1.0
        assert 0.9 < lo < 1.0


def test_simulate_deterministic_with_traces(tmp_path, spec_file, synth_dir, capsys):
    argv_for = lambda out_dir: [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--runs", "40", "--seed", "7",
        "--traces", "--out", str(out_dir),
    ]
    code1, out1, _ = run(capsys, argv_for(tmp_path / "t1"))
    code2, out2, _ = run(capsys, argv_for(tmp_path / "t2"))
    assert code1 == code2 == 0
    assert out1.replace("t1", "") == out2.replace("t2", "")
    t1 = sorted((tmp_path / "t1").iterdir())
    t2 = sorted((tmp_path / "t2").iterdir())
    assert [p.name for p in t1] == [p.name for p in t2]
    for p1, p2 in zip(t1, t2):
        assert p1.read_bytes() == p2.read_bytes()
    first = json.loads(t1[0].read_text().splitlines()[0])
    assert set(first) == {"run", "outcome", "rho", "final_states"}


def test_simulate_golden_counts(spec_file, synth_dir, capsys):
    # Pinned outputs, not a comparison of the program with itself: any change
    # to the order or number of draws moves these counts.
    code, out, _ = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--runs", "25000", "--seed", "1",
    ])
    assert code == 0
    assert out == (
        "delta: 0.35\nseed: 1\nruns: 25000\n"
        "  snd.ack: 19648/25000 rate 0.78592 ci95 [0.7807915959773009, 0.790960546301508]\n"
        "  snd.nack: 20350/25000 rate 0.814 ci95 [0.8091284699514261, 0.8187750438830241]\n"
    )


def test_simulate_golden_traces(tmp_path, spec_file, synth_dir, capsys):
    out_dir = tmp_path / "traces"
    code, _, _ = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--runs", "300", "--seed", "5",
        "--traces", "--out", str(out_dir),
    ])
    assert code == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out_dir.iterdir()}
    assert digests == {
        "traces_0_snd.ack.jsonl":
            "757327ea640dcbd0a75d0eeded0ba53b129b8cfe629d104dd9ac8823e7d58806",
        "traces_1_snd.nack.jsonl":
            "0aa50893da445b1652c9bf4e0101196b528c9d2ab2605a8b538fdae179ccbebe",
    }


def test_simulate_traces_require_out(spec_file, synth_dir, capsys):
    code, out, err = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--runs", "5", "--seed", "0", "--traces",
    ])
    assert code == 2
    assert out == ""
    assert err == "--traces requires --out\n"


def test_simulate_out_requires_traces(tmp_path, spec_file, synth_dir, capsys):
    out_dir = tmp_path / "traces"
    code, out, err = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--runs", "5", "--seed", "0", "--out", str(out_dir),
    ])
    assert code == 2
    assert out == ""
    assert err == "--out requires --traces\n"
    assert not out_dir.exists()


def test_simulate_out_on_a_file_prints_nothing(tmp_path, spec_file, synth_dir, capsys):
    # The directory is made before any output, so a clash leaves stdout empty.
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code, out, err = run(capsys, [
        "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
        "--spec", str(spec_file), "--runs", "5", "--seed", "0",
        "--traces", "--out", str(taken),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["synth", "feasible"])
def test_out_on_a_file_prints_nothing(tmp_path, spec_file, capsys, command):
    # DIR is made before any output, as for simulate above.
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    code, out, err = run(capsys, [command, "--spec", str(spec_file), "--out", str(taken)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert taken.read_text() == "not a directory\n"


def test_feasible_csv_that_cannot_be_written_prints_nothing(tmp_path, spec_file, capsys):
    # The CSV file is written before the CSV is printed.
    out_dir = tmp_path / "out"
    (out_dir / "feasibility.csv").mkdir(parents=True)
    code, out, err = run(capsys, ["feasible", "--spec", str(spec_file), "--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_feasible_csv(tmp_path, capsys):
    path = tmp_path / "hard.psl"
    path.write_text(HARD_TEXT + "\n")
    code, out, _ = run(capsys, [
        "feasible", "--spec", str(path),
        "--grid-n", "2:4:1", "--grid-dmax", "100:200:100", "--grid-tau", "1:2:1",
    ])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,d_max,tau_min,r,delta,realizable,sum_bounds"
    assert len(lines) == 1 + 3 * 2 * 2


def test_feasible_bad_grid(spec_file, capsys):
    code, _, err = run(capsys, [
        "feasible", "--spec", str(spec_file), "--grid-n", "5:1:1",
    ])
    assert code == 2


def _grid_must_have(grid, what):
    return f"grid {grid!r} must have {what} START, STOP and STEP"


@pytest.mark.parametrize("flag, grid, message", [
    ("--grid-n", "1:2", "grid '1:2' is not of the form START:STOP:STEP"),
    ("--grid-n", "2:4:nan", _grid_must_have("2:4:nan", "finite")),
    ("--grid-n", "nan:4:1", _grid_must_have("nan:4:1", "finite")),
    # Rejected before the grid is filled, which would otherwise never end.
    ("--grid-n", "2:inf:1", _grid_must_have("2:inf:1", "finite")),
    ("--grid-n", "2.5:3:1", _grid_must_have("2.5:3:1", "integer")),
    ("--grid-n", "2:4:0.5", _grid_must_have("2:4:0.5", "integer")),
    ("--grid-dmax", "100:inf:100", _grid_must_have("100:inf:100", "finite")),
    ("--grid-tau", "1:nan:1", _grid_must_have("1:nan:1", "finite")),
    # Grid points outside the medium's domain are malformed input too.
    ("--grid-n", "1:3:1", "need at least two cars, got 1"),
    ("--grid-tau", "0:0:1", "minimum delay must be positive, got 0.0"),
    # An invalid first value before valid ones: checked before any solve.
    ("--grid-n", "1:5:1", "need at least two cars, got 1"),
    ("--grid-tau", "0:5:1", "minimum delay must be positive, got 0.0"),
])
def test_feasible_rejects_malformed_grids(spec_file, capsys, flag, grid, message):
    code, out, err = run(capsys, ["feasible", "--spec", str(spec_file), flag, grid])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_feasible_rejects_an_ill_posed_spec(tmp_path, capsys):
    path = tmp_path / "short.psl"
    path.write_text("delta 0.3; cars A B; e0 A->B : 0.5\n")
    assert run(capsys, ["feasible", "--spec", str(path)]) == (
        1, "", "error: path 'e0' has 1 event(s); a dialogue needs at least two events\n")


def test_feasible_grid_points_are_exact(spec_file, capsys):
    code, out, _ = run(capsys, [
        "feasible", "--spec", str(spec_file),
        "--grid-n", "2:2:1", "--grid-dmax", "100:100:1", "--grid-tau", "0.1:0.7:0.1",
    ])
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "2,100.0,0.3,0.0,0.2,true,2"
    # STOP is reached exactly and included.
    assert [line.split(",")[2] for line in lines[1:]] == [f"0.{k}" for k in range(1, 8)]


@pytest.mark.parametrize("flag, grid, sizes", [
    ("--grid-n", "2:1e12:1", "999999999999 x 10 x 10"),
    ("--grid-tau", "1:10:1e-12", "10 x 10 x 9000000000001"),
])
def test_feasible_rejects_oversized_grids(spec_file, capsys, flag, grid, sizes):
    # Both are rejected from their point counts, before any point is built.
    code, out, err = run(capsys, ["feasible", "--spec", str(spec_file), flag, grid])
    assert code == 2
    assert out == ""
    assert err == f"error: grid of {sizes} points is larger than 1000000\n"


def test_feasible_deterministic(tmp_path, spec_file, capsys):
    argv = ["feasible", "--spec", str(spec_file),
            "--grid-n", "2:6:2", "--grid-dmax", "100:100:1", "--grid-tau", "1:1:1"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def rejected(capsys, argv):
    # Argument errors stop in argparse: exit 2, usage on stderr only.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def test_check_negative_cap_rejected_before_any_report(spec_file, capsys):
    code, out, err = rejected(capsys, ["check", "--spec", str(spec_file), "--cap", "-1"])
    assert code == 2
    assert out == ""
    assert "--cap" in err


def test_simulate_negative_runs_rejected(spec_file, synth_dir, capsys):
    for runs in ("-5", "0"):
        code, out, err = rejected(capsys, [
            "simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
            "--spec", str(spec_file), "--runs", runs,
        ])
        assert code == 2
        assert out == ""
        assert "--runs" in err


@pytest.mark.parametrize("argv, usage", [
    (["check", "--spec", "s.psl", "--cap", "x"],
     "usage: protoforge check [-h] --spec SPEC [--delta DELTA] [--cap CAP]\n"
     "protoforge check: error: argument --cap: invalid int value: 'x'\n"),
    (["simulate", "A.json", "--spec", "s.psl", "--runs", "x"],
     "usage: protoforge simulate [-h] --spec SPEC [--delta DELTA] [--runs RUNS] [--seed SEED] "
     "[--traces] [--out OUT] CSA.json [CSA.json ...]\n"
     "protoforge simulate: error: argument --runs: invalid int value: 'x'\n"),
], ids=["cap", "runs"])
def test_non_integer_counts_rejected(capsys, monkeypatch, argv, usage):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line
    assert rejected(capsys, argv) == (2, "", usage)


def test_every_cap_default_is_the_one_in_bounds():
    # Each library function with a cap parameter and each --cap option takes
    # its default from bounds.DEFAULT_CAP.
    defaults = {
        f"{mod.__name__}.{name}": param.default
        for mod in (protoforge.bounds, protoforge.medium, protoforge.synthesis)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        for param in [inspect.signature(fn).parameters.get("cap")]
        if param is not None and param.default is not param.empty
    }
    assert sorted(defaults) == [
        "protoforge.bounds.realizable", "protoforge.bounds.solve_opt",
        "protoforge.medium.feasibility_sweep", "protoforge.synthesis.synthesize_all",
    ]
    options = [build_parser().parse_args(argv + ["--spec", "s.psl"]).cap
               for argv in (["check"], ["synth", "--out", "o"], ["feasible"])]
    assert {*defaults.values(), *options} == {protoforge.bounds.DEFAULT_CAP}


def test_cap_zero_is_accepted(spec_file, capsys):
    code, out, _ = run(capsys, ["check", "--spec", str(spec_file), "--cap", "0"])
    assert code == 1
    assert "realizable: no (no feasible bounds with every bound <= 0)" in out


@pytest.mark.parametrize("argv", [
    ["verify", "A.json", "--cap", "3"],
    ["simulate", "A.json", "--cap", "3"],
    ["feasible", "--format", "csv"],
    ["feasible", "--delta", "0.9"],
])
def test_dead_flags_are_gone(spec_file, capsys, argv):
    code, out, _ = rejected(capsys, argv + ["--spec", str(spec_file)])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("text, message", [
    (json.dumps({"owner": "A", "states": 5}), "'states' must be of type list, got 5"),
    (json.dumps({"owner": "A", "states": [{"id": "s0", "final": True}], "init": "zz",
                 "vars": [], "transitions": []}),
     "invalid CSA for 'A': initial state 'zz' is not declared"),
    ("[" * 100_000 + "]" * 100_000, "CSA file nests too deeply"),
    (EXAMPLE_A_JSON.replace('  "init": "s0",\n', '  "init": "s0",\n  "init": "s3",\n'),
     "key 'init' is repeated in one object"),
    (EXAMPLE_A_JSON.replace('"bound": 3', '"bound": true', 1),
     "transition 1: 'bound' must be of type int, got true"),
    (EXAMPLE_A_JSON.replace('"final": false', '"final": 1', 1),
     "'final' must be of type bool, got 1"),
    (EXAMPLE_A_JSON.replace('"owner": "A"', '"owner": null'),
     "'owner' must be of type str, got null"),
    (json.dumps(dict(json.loads(EXAMPLE_A_JSON), transitions=[["s0", "s1"]])),
     "transition 0: expected an object holding 'from', got list"),
], ids=["states-not-a-list", "undeclared-init", "deep-nesting", "repeated-key", "bool-as-int",
        "int-as-bool", "null-owner", "transition-not-an-object"])
def test_verify_rejects_malformed_csa_file(tmp_path, spec_file, synth_dir, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, [
        "verify", str(bad), str(synth_dir / "B.json"), "--spec", str(spec_file),
    ])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_accepts_null_optional_keys(tmp_path, spec_file, synth_dir, capsys):
    # A null optional key reads as an absent one: the same automaton.
    def with_nulls(obj):
        # obj with null for each optional key its events and messages omit.
        if isinstance(obj, list):
            return [with_nulls(value) for value in obj]
        if not isinstance(obj, dict):
            return obj
        out = {key: with_nulls(value) for key, value in obj.items()}
        if "peer" in out:
            return {"data": None, "special": None, **out}
        if "src" in out:
            return {"data": None, **out}
        return out

    doc = with_nulls(json.loads(EXAMPLE_A_JSON))
    assert '"data": null' in json.dumps(doc) and '"special": null' in json.dumps(doc)
    nulls = tmp_path / "nulls.json"
    nulls.write_text(json.dumps(doc))
    rest = [str(synth_dir / "B.json"), "--spec", str(spec_file)]
    expected = run(capsys, ["verify", str(synth_dir / "A.json"), *rest])
    assert expected[0] == 0
    assert run(capsys, ["verify", str(nulls), *rest]) == expected


@pytest.mark.parametrize("command", [["verify"], ["simulate", "--runs", "10"]],
                         ids=["verify", "simulate"])
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["transitions"].append(dict(doc["transitions"][0], to="s2")),
     "transitions 0 and 6 both leave 's0' on 'env snd->B(d)'"),
    (lambda doc: doc["states"].append({"id": "s0", "final": True}),
     "invalid CSA for 'A': state 's0' is declared more than once"),
    (lambda doc: doc["vars"].append(doc["vars"][0]),
     "invalid CSA for 'A': counter 'nu_snd' is declared more than once"),
], ids=["transition", "state", "counter"])
def test_csa_file_with_a_repeated_entry_is_rejected(tmp_path, spec_file, synth_dir, capsys,
                                                    command, edit, message):
    # Loaded into a dict or a set, a repeated entry would silently replace or
    # merge with the first, and the command would judge another automaton.
    doc = json.loads((synth_dir / "A.json").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, [
        *command, str(bad), str(synth_dir / "B.json"), "--spec", str(spec_file),
    ])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


CSA_COMMANDS = [["verify"], ["simulate", "--runs", "10"],
                ["simulate", "--runs", "10", "--traces", "--out", "{out}"]]
CSA_COMMAND_IDS = ["verify", "simulate", "simulate-traces"]


@pytest.mark.parametrize("command", CSA_COMMANDS, ids=CSA_COMMAND_IDS)
@pytest.mark.parametrize("cars, message", [
    ("AA", "two CSAs share the owner A"),
    ("A", "event snd A->B(d) references a car with no CSA"),
], ids=["one-owner-twice", "a-car-without-csa"])
def test_csa_files_must_give_each_car_one_csa(tmp_path, spec_file, synth_dir, capsys, command,
                                              cars, message):
    out_dir = tmp_path / "traces"
    argv = [arg.format(out=out_dir) for arg in command]
    argv += [str(synth_dir / f"{car}.json") for car in cars] + ["--spec", str(spec_file)]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert not out_dir.exists()


def later_loop_csas() -> list:
    """Hand-written CSAs whose second sequence loops: after the e0 call A
    stops, after the e1 call it times out for ever."""
    looper = Csa(
        owner="A",
        states=("s0", "s1", "s2"),
        vars=("nu",),
        init="s0",
        finals=frozenset({"s1", "s2"}),
        transitions={
            ("s0", EnvEvent(LocalEvent("e0", "B", None, "env"))): "s1",
            ("s0", EnvEvent(LocalEvent("e1", "B", None, "env"))): "s2",
            ("s2", TimeoutUpd("nu")): "s2",
        },
    )
    return [looper, Csa("B", ("r0",), (), "r0", frozenset({"r0"}), {})]


@pytest.mark.parametrize("command", CSA_COMMANDS, ids=CSA_COMMAND_IDS)
def test_a_cycle_in_a_later_sequence_leaves_no_output(tmp_path, capsys, command):
    # Every sequence is explored before the first line is printed.
    spec = tmp_path / "later.psl"
    spec.write_text("delta 0.35; cars A B; (e0 A->B . f B->A : 0.5) | e1 A->B . g B->A : 0.5\n")
    out_dir = tmp_path / "traces"
    argv = [arg.format(out=out_dir) for arg in command]
    argv += write_csas(tmp_path, later_loop_csas()) + ["--spec", str(spec)]
    assert run(capsys, argv) == (3, "", "error: deduction cycle: a configuration repeats with "
                                        "no medium decision in between\n")
    assert not out_dir.exists()


def test_main_builds_the_parser_once_per_process(spec_file, synth_dir, capsys, monkeypatch):
    csas = [str(synth_dir / "A.json"), str(synth_dir / "B.json")]
    argvs = [
        ["check", "--spec", str(spec_file)],
        ["verify", *csas, "--spec", str(spec_file)],
        ["feasible", "--spec", str(spec_file), "--grid-n", "2:3:1",
         "--grid-dmax", "100:100:1", "--grid-tau", "1:1:1"],
    ]
    main(argvs[0])  # builds the parser, unless an earlier test already has
    built = []

    class Counting(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "ArgumentParser", Counting)
    for _ in range(10):
        for argv in argvs:
            assert main(argv) == 0
        assert rejected(capsys, ["check", "--cap", "-1"])[0] == 2
    capsys.readouterr()
    assert built == []


def test_calls_share_no_state(tmp_path, spec_file, synth_dir, capsys):
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "d"),
                 "--format", "dot"]) == 0
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "both")]) == 0
    names = sorted(p.name for p in (tmp_path / "both").iterdir())
    assert names == ["A.dot", "A.json", "B.dot", "B.json", "bounds.json"]
    capsys.readouterr()

    simulate = ["simulate", str(synth_dir / "A.json"), str(synth_dir / "B.json"),
                "--spec", str(spec_file), "--runs", "200"]
    default = run(capsys, simulate)
    seeded = run(capsys, simulate + ["--seed", "7"])
    assert seeded[0] == 0 and "seed: 7\n" in seeded[1]
    assert run(capsys, simulate) == default
    assert "seed: 0\n" in default[1]


@pytest.mark.parametrize("argv", [["--help"], ["feasible", "--help"], ["verify", "--spec"], []],
                         ids=["help", "feasible-help", "missing-value", "no-command"])
def test_help_and_usage_errors_repeat_byte_for_byte(capsys, monkeypatch, argv):
    # The shared parser formats help and usage text when it prints them, so
    # every call follows the terminal width of its own moment.
    def at(columns, fresh):
        monkeypatch.setenv("COLUMNS", columns)
        if fresh:
            build_parser.cache_clear()
        return rejected(capsys, argv)

    wide, narrow = at("200", fresh=True), at("50", fresh=True)
    assert wide != narrow
    assert at("200", fresh=False) == wide
    assert at("50", fresh=False) == narrow


def test_help_describes_the_program_by_its_docstring(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "\n\nCommand-line front end.\n\n" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli(spec_file, capsys):
    src_root = os.path.dirname(os.path.dirname(protoforge.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "protoforge", "check", "--spec", str(spec_file)],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (0, proc.stdout, "") == run(capsys, ["check", "--spec", str(spec_file)])
