"""The CLI in fresh processes: what each command loads, its BLAS pool, its stderr.

Every test starts a new interpreter with no thread-count variable in its
environment, since what a command loads and how many OpenBLAS threads it
starts are fixed before numpy is imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# run in the child: main(argv), then one JSON line describing the process
_PROBE = """
import json, os, sys
import coxlat.cli
argv = json.loads(sys.argv[1])
code = coxlat.cli.main(argv) if argv else None
task_dir = "/proc/self/task"
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "modules": sorted(m for m in sys.modules if m.startswith("coxlat.")),
    "env": {var: os.environ.get(var) for var in %r},
    "tasks": len(os.listdir(task_dir)) if os.path.isdir(task_dir) else None,
}))
""" % (BLAS_THREAD_VARS,)


def _env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return {**env, **preset}


def _probe(argv, **preset) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=_env(**preset), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_numpy():
    state = _probe([])
    assert not state["numpy"]
    assert state["modules"] == ["coxlat.cli"]


@pytest.mark.parametrize(
    "preset, expected",
    [
        ({}, "1"),
        ({"OMP_NUM_THREADS": "2"}, None),
        ({"GOTO_NUM_THREADS": "2"}, None),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ],
    ids=["default", "omp-preset", "goto-preset", "openblas-preset"],
)
def test_catalog_runs_on_one_blas_thread_unless_told(preset, expected):
    state = _probe(["catalog", "A2", "--json"], **preset)
    assert state["code"] == 0
    assert state["numpy"]
    assert state["modules"] == ["coxlat.cli", "coxlat.rootsys"]
    assert state["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), **preset,
                            "OPENBLAS_NUM_THREADS": expected}
    if expected == "1" and state["tasks"] is not None:
        assert state["tasks"] == 1  # no OpenBLAS worker was started


def test_ising_keeps_the_default_pool(tmp_path):
    out = tmp_path / "levels.csv"
    state = _probe(["ising", "--n", "8", "--hx", "1.2", "--hz", "0.2", "--out", str(out)])
    assert state["code"] == 0
    assert state["env"] == dict.fromkeys(BLAS_THREAD_VARS)
    assert state["modules"] == ["coxlat.cli", "coxlat.ising"]
    assert len(out.read_text().splitlines()) == 1 + 2**8


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "E8", "--q", "1e200"],
        ["ising", "--n", "2", "--J", "1e300", "--bands", "1", "--out", "{out}"],
    ],
    ids=["eigen-q", "ising-bands"],
)
def test_overflow_prints_one_error_line(tmp_path, argv):
    out = tmp_path / "levels.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "coxlat.cli", *(a.format(out=out) for a in argv)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "not finite" in line
    assert not out.exists()
