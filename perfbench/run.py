"""coxlat benchmark: whole CLI runs end to end, and a traced in-process replay.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table each

Run from a checkout: the program is ``src/coxlat`` next to this directory,
put on ``PYTHONPATH`` (it is not installed).  ``--trace 0`` drives the CLI as
a closed loop with one client, one fresh ``python -m coxlat.cli`` process at a
time, repeating the workload's command list until ``--seconds`` have passed,
and reports the end-to-end metrics.  ``--trace 1`` instead replays the same
argv lists through ``coxlat.cli.main`` in fresh processes, alternating
untraced and traced replays, and reports per-layer metrics.  Every output is
checked against references the benchmark computes itself (checks.py).  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads, metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
import replay
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
SETUP_PROBES_PER_PASS = 5  # fresh `import coxlat.cli` processes, spread over each pass
STARTUP_REPEATS = 5
DEFAULT_SEED = 1
RUN_BUDGET_S = 170.0  # a run must end within 180 s; no child may outlive this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
STARTUP_UNITS = {"proc.interpreter_s": "s", "import.numpy_s": "s", "import.coxlat_s": "s"}


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing, set-up failed)."""


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts one child at a time and reaps it with its own rusage."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def run(self, argv: List[str]) -> Child:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        out_path, err_path = self.workdir / "child.stdout", self.workdir / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                cwd=ROOT, env=self.env,
            )
            pidfd = os.pidfd_open(proc.pid)
            try:
                # os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would
                # be a running maximum over every child reaped so far.
                if not select.select([pidfd], [], [], remaining)[0]:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            rc=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )


class Tally:
    """Counts attempted and failed commands; same argv must give same stdout
    for every ``verify`` request (the CLI promises deterministic output)."""

    def __init__(self, refs: checks.References):
        self.refs = refs
        self.attempted = 0
        self.failures: List[str] = []
        self._first_stdout: Dict[tuple, str] = {}

    def record(self, cmd: workloads.Command, rc: int, stdout: str) -> None:
        self.attempted += 1
        csv = None
        if cmd.out is not None and os.path.exists(cmd.out):
            with open(cmd.out) as fh:
                csv = fh.read()
        reason = checks.verdict(cmd, rc, stdout, csv, self.refs)
        if reason is None and cmd.kind.startswith("verify"):
            first = self._first_stdout.setdefault(cmd.argv, stdout)
            if stdout != first:
                reason = "stdout differs from an earlier identical request"
        if reason is not None:
            self.failures.append(f"{' '.join(cmd.argv)}: {reason}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _clear_outputs(commands: List[workloads.Command]) -> None:
    for cmd in commands:
        if cmd.out is not None and os.path.exists(cmd.out):
            os.remove(cmd.out)


def probe_setup(runner: Runner) -> float:
    child = runner.run(["-c", "import coxlat.cli"])
    if child.rc != 0:
        raise BenchError(f"`import coxlat.cli` failed:\n{child.stderr}")
    return child.wall_s


def run_untraced(runner: Runner, commands, seconds: float, tally: Tally) -> dict:
    """Closed loop, one client: whole passes over the command list until
    ``seconds`` of measuring have passed (at least one pass).  Set-up probes
    sit between commands, spread over the whole run, so that setup_s sees the
    same host as the commands do."""
    pass_wall, pass_cpu, cmd_wall, setup, peak_rss = [], [], [], [], 0.0
    stride = -(-len(commands) // SETUP_PROBES_PER_PASS)
    start = time.perf_counter()
    while not pass_wall or time.perf_counter() - start < seconds:
        wall = cpu = 0.0
        for i, cmd in enumerate(commands):
            if i % stride == 0:
                setup.append(probe_setup(runner))
            _clear_outputs([cmd])
            child = runner.run(["-m", "coxlat.cli", *cmd.argv])
            tally.record(cmd, child.rc, child.stdout)
            wall += child.wall_s
            cpu += child.cpu_s
            cmd_wall.append(child.wall_s)
            peak_rss = max(peak_rss, child.maxrss_mb)
        pass_wall.append(wall)
        pass_cpu.append(cpu)
    return {"setup_s": setup, "pass_wall_s": pass_wall, "pass_cpu_s": pass_cpu,
            "cmd_wall_s": cmd_wall, "peak_rss_mb": peak_rss}


def _importtime(stderr: str) -> Dict[str, float]:
    """numpy's cumulative and coxlat's own (self) import time from -X importtime."""
    numpy_us = coxlat_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "numpy":
            numpy_us = int(cumulative_us)
        elif name == "coxlat" or name.startswith("coxlat."):
            coxlat_us += int(self_us)
    return {"import.numpy_s": numpy_us / 1e6, "import.coxlat_s": coxlat_us / 1e6}


def measure_startup(runner: Runner) -> Dict[str, List[float]]:
    samples: Dict[str, List[float]] = {name: [] for name in STARTUP_UNITS}
    for _ in range(STARTUP_REPEATS):
        samples["proc.interpreter_s"].append(runner.run(["-c", "pass"]).wall_s)
        child = runner.run(["-X", "importtime", "-c", "import coxlat.cli"])
        if child.rc != 0:
            raise BenchError(f"`import coxlat.cli` failed:\n{child.stderr}")
        for name, value in _importtime(child.stderr).items():
            samples[name].append(value)
    return samples


def run_replays(runner: Runner, commands, seconds: float, tally: Tally, trace_path: Path) -> dict:
    """Alternate untraced and traced in-process replays of one pass until
    ``seconds`` have passed, with at least two traced replays.  The spans of
    the last traced replay are kept at trace_path."""
    spec_path, result_path = runner.workdir / "replay-spec.json", runner.workdir / "replay.json"
    walls: Dict[bool, List[float]] = {False: [], True: []}
    traced: List[dict] = []
    bindings = 0
    start = time.perf_counter()
    while len(walls[True]) < 2 or time.perf_counter() - start < seconds:
        for trace in (False, True):
            spec_path.write_text(json.dumps({"argv": [list(c.argv) for c in commands], "trace": trace}))
            _clear_outputs(commands)
            child = runner.run([str(BENCH / "replay.py"), str(spec_path), str(result_path)])
            if child.rc != 0:
                raise BenchError(f"replay failed:\n{child.stderr}")
            result = json.loads(result_path.read_text())
            for cmd, res in zip(commands, result["commands"]):
                tally.record(cmd, res["rc"], res["stdout"])
            walls[trace].append(result["wall_s"])
            if trace:
                traced.append(replay.layer_metrics(result["spans"]))
                bindings = result["bindings_patched"]
                shutil.copy(result_path, trace_path)
    return {"untraced_wall_s": walls[False], "traced_wall_s": walls[True], "traced": traced,
            "bindings_patched": bindings}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def end_to_end(runner: Runner, commands, seconds: float, tally: Tally):
    """The end-to-end rows (value, unit, note) of an untraced run, and its samples."""
    s = run_untraced(runner, commands, seconds, tally)
    rows = {
        "setup_s": (statistics.median(s["setup_s"]), f"median of {len(s['setup_s'])} fresh imports"),
        "wall_s": (statistics.median(s["pass_wall_s"]), f"median of {len(s['pass_wall_s'])} passes"),
        "cmd_p50_s": (statistics.median(s["cmd_wall_s"]), f"median of {len(s['cmd_wall_s'])} commands"),
        "cpu_s": (statistics.median(s["pass_cpu_s"]),
                  f"median of {len(s['pass_cpu_s'])} passes, children's user+sys"),
        "peak_rss_mb": (s["peak_rss_mb"], f"max over {len(s['cmd_wall_s'])} children"),
    }
    return {m: (v, E2E_UNITS[m], note) for m, (v, note) in rows.items()}, s


def per_layer(runner: Runner, commands, seconds: float, tally: Tally, trace_path: Path):
    """The per-layer rows (value, unit, note) of a traced run, and its samples.
    Counts come per pass and must repeat exactly in every traced replay."""
    startup = measure_startup(runner)
    r = run_replays(runner, commands, seconds, tally, trace_path)
    traced = r["traced"]
    units = {**replay.metric_units(), **STARTUP_UNITS, "trace.overhead_s": "s"}
    counts = {k: v for k, v in traced[0].items() if units[k] != "s"}
    if any({k: t[k] for k in counts} != counts for t in traced[1:]):
        tally.failures.append("traced counts differ between replays")
    rows = {}
    for k, unit in units.items():
        if k in counts:
            rows[k] = (counts[k], unit, f"per pass, same in {len(traced)} traced replays")
        elif k in startup:
            rows[k] = (statistics.median(startup[k]), unit, f"median of {len(startup[k])} processes")
        elif k != "trace.overhead_s":
            rows[k] = (statistics.median(t[k] for t in traced), unit,
                       f"median of {len(traced)} traced replays")
    overhead = statistics.median(r["traced_wall_s"]) - statistics.median(r["untraced_wall_s"])
    rows["trace.overhead_s"] = (
        overhead, "s", f"median traced - median untraced replay, {len(r['untraced_wall_s'])} "
        f"untraced; {r['bindings_patched']} bindings patched"
    )
    return rows, {k: r[k] for k in ("untraced_wall_s", "traced_wall_s")}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = workloads.build(name, seed, workdir)
        tally = Tally(checks.References(commands))
        runner = Runner(workdir)
        if trace:
            rows, samples = per_layer(runner, commands, seconds, tally, OUT / f"trace-{name}-seed{seed}.json")
        else:
            rows, samples = end_to_end(runner, commands, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  commands/pass {len(commands)}"]
    lines += [f"  {m:<40} {v:>12.6g} {u:<5} {note}" for m, (v, u, note) in rows.items()]
    lines.append(f"  {'fail_ratio':<40} {tally.failed / tally.attempted:>12.6g} {'-':<5} "
                 f"{tally.failed}/{tally.attempted} commands")
    lines += [f"  FAILED {f}" for f in tally.failures[:20]]
    print("\n".join(lines), flush=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in rows.items()},
    }
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "env": env, "samples": samples, "failures": tally.failures}, indent=1)
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxlat" / "cli.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'coxlat'}; run from a coxlat checkout",
              file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env), flush=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), env) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
