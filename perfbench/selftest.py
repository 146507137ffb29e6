"""The benchmark's own tests:  python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the repository's test suite does not collect it:
the traced Ising replays take about half a minute.
"""

from __future__ import annotations

import json

import pytest

import checks
import replay
import run
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path)


def _replay(runner, commands, trace):
    spec, result = runner.workdir / "spec.json", runner.workdir / "result.json"
    spec.write_text(json.dumps({"argv": [list(c.argv) for c in commands], "trace": trace}))
    child = runner.run([str(run.BENCH / "replay.py"), str(spec), str(result)])
    assert child.rc == 0, child.stderr
    return json.loads(result.read_text())


def test_benchmark_json_names_the_metrics_the_runs_print():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    per_layer = {**replay.metric_units(), **run.STARTUP_UNITS, "trace.overhead_s": "s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7, tmp_path) == workloads.build(name, 7, tmp_path)
    assert workloads.build("oneshot", 7, tmp_path) != workloads.build("oneshot", 8, tmp_path)
    assert workloads.ising_fields(7) != workloads.ising_fields(8)
    hx, hz = workloads.ising_fields(7)
    assert 0.5 <= hx <= 2.0 and 0.0 <= hz <= 0.5


def _corrupt_csv_level(csv):
    lines = csv.splitlines(keepends=True)
    p, e = lines[5].strip().split(",")
    lines[5] = f"{p},{float(e) + 1e-6:.12g}\n"
    return "".join(lines)


def _corrupt_csv_momentum(csv):
    lines = csv.splitlines(keepends=True)
    assert lines[5].startswith("0,")  # levels come sorted by momentum
    lines[5] = "3.14159265359," + lines[5].split(",")[1]
    return "".join(lines)


CORRUPTIONS = {
    "verify-all": [
        lambda s: s.replace('"pass"', '"fail"', 1),
        lambda s: s.replace('"deviation": 0.0', '"deviation": NaN', 1),
        lambda s: s.replace('"steinberg"', '"steinberg2"'),
        lambda s: s[: len(s) // 2],
    ],
    "verify": [lambda s: s.replace('"pass"', '"fail"'), lambda s: s.replace("0.0", "Infinity", 1)],
    "eigen": [lambda s: s.replace('"lambda": 0.', '"lambda": 0.1', 1)],
    "eigen-q": [lambda s: s.replace('"eigenvalues": [\n    ', '"eigenvalues": [\n    1e-3 + ', 1),
                lambda s: s.replace('"eigenvalues": [\n    ', '"eigenvalues": [\n    0.5, ', 1)],
    "catalog": [lambda s: s.replace('"h": ', '"h": 1', 1), lambda s: s.replace('"white"', '"black"', 1)],
}


def test_corrupted_outputs_count_as_failures(runner, tmp_path):
    hx, hz = workloads.ising_fields(run.DEFAULT_SEED)
    commands = workloads.build("verify-all", 1, tmp_path) + [
        workloads.Command(("verify", "steinberg", "--json"), "verify", target="steinberg"),
        workloads.Command(("eigen", "D4"), "eigen", target="D4"),
        workloads.Command(("eigen", "E6", "--q", "2.0"), "eigen-q", target="E6"),
        workloads.Command(("catalog", "E7", "--json"), "catalog", target="E7"),
        workloads._ising(8, hx, hz, tmp_path),
    ]
    result = _replay(runner, commands, trace=False)
    tally = run.Tally(checks.References(commands))
    outputs = [(c, r["rc"], r["stdout"]) for c, r in zip(commands, result["commands"])]
    for cmd, rc, stdout in outputs:
        tally.record(cmd, rc, stdout)
    assert (tally.attempted, tally.failed) == (len(commands), 0), tally.failures

    expected = 0
    for cmd, rc, stdout in outputs:
        for corrupt in CORRUPTIONS.get(cmd.kind, []):
            bad = corrupt(stdout)
            assert bad != stdout
            tally.record(cmd, rc, bad)
            expected += 1
        tally.record(cmd, 1, stdout)  # non-zero exit
        expected += 1
        assert tally.failed == expected, (cmd.argv, tally.failures[-3:])

    ising_cmd, _, ising_stdout = outputs[-1]
    csv = open(ising_cmd.out).read()
    refs = tally.refs
    assert checks.verdict(ising_cmd, 0, ising_stdout, csv, refs) is None
    for bad in (_corrupt_csv_level(csv), _corrupt_csv_momentum(csv),
                csv.rsplit("\n", 2)[0] + "\n", csv.replace("p,epsilon", "p,e")):
        assert checks.verdict(ising_cmd, 0, ising_stdout, bad, refs) is not None
    assert checks.verdict(ising_cmd, 0, ising_stdout, None, refs) is not None


def test_failures_reach_fail_ratio_through_the_closed_loop(runner):
    good = workloads.Command(("verify", "steinberg", "--json"), "verify", target="steinberg")
    # the right output of the wrong request: the check sees a corrupted answer
    wrong = workloads.Command(("verify", "gamma-alpha", "--json"), "verify", target="steinberg")
    tally = run.Tally(checks.References([]))
    samples = run.run_untraced(runner, [good, wrong], 0.0, tally)
    assert len(samples["cmd_wall_s"]) == tally.attempted == 2
    assert tally.failed == 1 and "gamma-alpha" in tally.failures[0]


@pytest.mark.parametrize(
    "workload, expected",
    [
        ("verify-all", {"gabrielov.e8_factorization.calls": 2, "qdeform.q_spectrum.calls": 52,
                        "intmat.det_exact.calls": 84, "cli.main.calls": 1}),
        ("ising-sweep", {"ising.momentum_spectrum.calls": 6, "ising.states_computed": 8960,
                         "gabrielov.e8_factorization.calls": 0}),
    ],
)
def test_traced_counts_at_the_default_seed_repeat_exactly(runner, tmp_path, workload, expected):
    commands = workloads.build(workload, run.DEFAULT_SEED, tmp_path)
    tally = run.Tally(checks.References(commands))
    metrics = []
    for _ in range(2):
        result = _replay(runner, commands, trace=True)
        for cmd, res in zip(commands, result["commands"]):
            tally.record(cmd, res["rc"], res["stdout"])
        metrics.append(replay.layer_metrics(result["spans"]))
    assert tally.failed == 0, tally.failures
    units = replay.metric_units()
    counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in metrics]
    assert counts[0] == counts[1]
    assert {k: counts[0][k] for k in expected} == expected


def test_importtime_parsing():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 |   numpy.core\n"
        "import time:       500 |      90000 | numpy\n"
        "import time:       700 |      91000 |   coxlat.intmat\n"
        "import time:       300 |      92000 | coxlat\n"
    )
    assert run._importtime(stderr) == {"import.numpy_s": 0.09, "import.coxlat_s": 0.001}


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "verify-all", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
