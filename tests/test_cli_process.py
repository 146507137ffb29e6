"""The CLI in fresh processes: what each command loads, its environment, its stderr.

Every test starts a new interpreter with no thread-count variable in its
environment unless it presets one, so a thread count that a command sets
shows up in the probe, along with the threads the process runs.
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
# the records are named tuples: no request but ising (numpy imports inspect)
# loads these, counted only when absent before `import coxlat.cli`
INTROSPECTION = ("dataclasses", "inspect")

# run in the child: main(argv), then one JSON line describing the process
_PROBE = """
import json, os, sys
preloaded = set(sys.modules)
import coxlat.cli
argv = json.loads(sys.argv[1])
code = coxlat.cli.main(argv) if argv else None
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "fractions": "fractions" in sys.modules,
    "introspection": [m for m in %r if m in sys.modules and m not in preloaded],
    "modules": sorted(m for m in sys.modules if m.startswith("coxlat.")),
    "env": {var: os.environ.get(var) for var in %r},
    "tasks": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
}))
""" % (INTROSPECTION, BLAS_THREAD_VARS)


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


SYSTEMS = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
           "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8")
# the exact layer runs on Python ints: these requests never import numpy
EXACT_MODULES = ["coxlat.cli", "coxlat.intmat", "coxlat.lattice", "coxlat.rootsys"]
GABRIELOV_MODULES = ["coxlat.cli", "coxlat.gabrielov", "coxlat.intmat", "coxlat.lattice",
                     "coxlat.rootsys"]


@pytest.mark.parametrize(
    "argv, modules",
    [pytest.param(argv, modules, id=" ".join(argv)) for argv, modules in
     [(["catalog", s, "--json"], ["coxlat.cli", "coxlat.rootsys"]) for s in SYSTEMS]
     + [(["catalog", "E8"], ["coxlat.cli", "coxlat.rootsys"]),
        (["verify", "steinberg", "--json"], EXACT_MODULES)]
     + [(["verify", name, "--json"], GABRIELOV_MODULES)
        for name in ("e8-factorization", "e6-factorization", "gamma-alpha", "root-image")]],
)
def test_exact_requests_load_no_numpy(argv, modules):
    state = _probe(argv)
    assert state["code"] == 0
    assert not state["numpy"]
    assert not state["fractions"]
    assert state["introspection"] == []
    assert state["modules"] == modules


# the rank-8 float layer runs on Python floats: neither do these.  spectral
# loads the move engine only for the factorized E8 eigenvector, which none builds
SPECTRAL_MODULES = ["coxlat.cli", "coxlat.intmat", "coxlat.lattice", "coxlat.rootsys",
                    "coxlat.spectral"]
QDEFORM_MODULES = ["coxlat.cli", "coxlat.intmat", "coxlat.lattice", "coxlat.qdeform",
                   "coxlat.rootsys", "coxlat.spectral"]


@pytest.mark.parametrize(
    "argv, modules",
    [pytest.param(argv, modules, id=" ".join(argv)) for argv, modules in
     [(["eigen", s, *fmt], SPECTRAL_MODULES)
      for s in SYSTEMS for fmt in ([], ["--format", "csv"])]
     + [(["eigen", s, "--q", "2.0"], QDEFORM_MODULES) for s in SYSTEMS]
     + [(["verify", name, "--json"], SPECTRAL_MODULES)
        for name in ("e8-eigvecs", "e6-eigvecs", "pf-zamolodchikov")]
     + [(["verify", name, "--json"], QDEFORM_MODULES)
        for name in ("q-spectrum", "q-certificate")]],
)
def test_float_requests_load_no_numpy(argv, modules):
    state = _probe(argv)
    assert state["code"] == 0
    assert not state["numpy"]
    assert not state["fractions"]
    assert state["introspection"] == []
    assert state["modules"] == modules


# ising-symmetry reads the Hamiltonian's entries as a dict: no verify check
# loads numpy, and none sets a thread count for a library it never loads
ALL_MODULES = ["coxlat.cli", "coxlat.gabrielov", "coxlat.intmat", "coxlat.ising",
               "coxlat.lattice", "coxlat.qdeform", "coxlat.rootsys", "coxlat.spectral"]


@pytest.mark.parametrize(
    "argv, modules",
    [pytest.param(["verify", "ising-symmetry", "--json"], ["coxlat.cli", "coxlat.ising"],
                  id="ising-symmetry"),
     pytest.param(["verify", "all", "--json"], ALL_MODULES, id="all")],
)
def test_verify_loads_no_numpy_and_sets_no_thread_count(argv, modules):
    state = _probe(argv)
    assert state["code"] == 0
    assert not state["numpy"]
    assert not state["fractions"]
    assert state["introspection"] == []
    assert state["modules"] == modules
    assert state["env"] == dict.fromkeys(BLAS_THREAD_VARS)


def _ising(tmp_path, n, **preset):
    out = tmp_path / "levels.csv"
    state = _probe(["ising", "--n", str(n), "--hx", "1.2", "--hz", "0.2", "--out", str(out)],
                   **preset)
    assert state["code"] == 0
    assert state["modules"] == ["coxlat.cli", "coxlat.ising"]
    assert len(out.read_text().splitlines()) == 1 + 2**n
    return state, out.read_bytes()


def test_ising_below_the_crossover_runs_one_blas_thread(tmp_path):
    state, _ = _ising(tmp_path, 8)
    assert state["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "1"}
    if state["tasks"] is not None:  # no /proc: the thread count is not visible
        assert state["tasks"] == 1


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_ising_keeps_a_preset_thread_count(tmp_path, var):
    state, _ = _ising(tmp_path, 8, **{var: "2"})
    assert state["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), var: "2"}


def test_ising_at_the_crossover_keeps_the_default_pool(tmp_path):
    state, _ = _ising(tmp_path, 14)
    assert state["env"] == dict.fromkeys(BLAS_THREAD_VARS)


def test_ising_csv_is_the_same_under_a_preset_single_thread(tmp_path):
    _, csv = _ising(tmp_path, 11)
    _, preset_csv = _ising(tmp_path, 11, OPENBLAS_NUM_THREADS="1")
    assert csv == preset_csv


def test_ising_without_numpy_names_the_extra(tmp_path):
    out = tmp_path / "levels.csv"
    code = ("import sys; sys.modules['numpy'] = None; import coxlat.cli; "
            "sys.exit(coxlat.cli.main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, "ising", "--n", "8", "--hx", "1.2", "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "coxlat[ising]" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eigen", "E8", "--q", "1e200"],
        ["ising", "--n", "2", "--J", "1e300", "--bands", "1", "--out", "{out}"],
        # couplings whose Hamiltonian overflows are refused before it is built
        ["ising", "--n", "8", "--J", "1e308"],
        ["ising", "--n", "8", "--hx", "1e308"],
        ["ising", "--n", "8", "--hz", "1e308"],
        ["ising", "--n", "8", "--J", "5e307", "--hz", "5e307"],
        ["ising", "--n", "8", "--J", "1e308", "--hx", "1e308"],
    ],
    ids=["eigen-q", "ising-bands", "ising-J", "ising-hx", "ising-hz", "ising-J-hz", "ising-J-hx"],
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
