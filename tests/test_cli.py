import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import protoforge
from protoforge import events_of, export_json, parse_spec, synthesize_for_car
from protoforge.cli import build_parser, main
from protoforge.speclang import MAX_NESTING
from conftest import EXAMPLE_TEXT, no_exit_loop_csas, timeout_loop_csas, trap_loop_csas

HARD_TEXT = "delta 0.35; cars A B; snd A->B(d) . (ack B->A : 0.9 | nack B->A : 0.9)"


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


def test_check_malformed(tmp_path, capsys):
    path = tmp_path / "broken.psl"
    path.write_text("delta 0.1; cars A B; snd A->B(\n")
    code, _, err = run(capsys, ["check", "--spec", str(path)])
    assert code == 2
    assert "error" in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, ["check", "--spec", "/no/such/file.psl"])
    assert code == 2


def test_synth_outputs(synth_dir):
    files = sorted(p.name for p in synth_dir.iterdir())
    assert files == ["A.dot", "A.json", "B.dot", "B.json", "bounds.json"]
    bounds = json.loads((synth_dir / "bounds.json").read_text())
    assert bounds == {"snd": 3, "ack": 1, "nack": 2}
    a = json.loads((synth_dir / "A.json").read_text())
    b = json.loads((synth_dir / "B.json").read_text())
    assert len(a["states"]) == 6
    assert len(b["states"]) == 10


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
])
def test_feasible_rejects_malformed_grids(spec_file, capsys, flag, grid, message):
    code, out, err = run(capsys, ["feasible", "--spec", str(spec_file), flag, grid])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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
], ids=["states-not-a-list", "undeclared-init", "deep-nesting"])
def test_verify_rejects_malformed_csa_file(tmp_path, spec_file, synth_dir, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, [
        "verify", str(bad), str(synth_dir / "B.json"), "--spec", str(spec_file),
    ])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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
