"""The CLI in fresh processes: what each command loads, its environment, its stderr.

Every test starts a new interpreter with no thread-count variable in its
environment unless it presets one, so a thread count that a command sets
shows up in the probe, along with the threads the process runs.  Nor does
it inherit PYTHONUNBUFFERED: stdout is block-buffered, as users run it,
unless a test presets the variable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxlat.cli import main

ROOT = Path(__file__).resolve().parent.parent
# the variables OpenBLAS reads for its thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the child's environment holds none of these unless a test presets one
UNSET_VARS = (*BLAS_THREAD_VARS, "PYTHONUNBUFFERED")
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
    env = {k: v for k, v in os.environ.items() if k not in UNSET_VARS}
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
# loads lattice only to phase-dress a Cartan eigenvector, and the move engine
# only for the factorized E8 eigenvector; none of these requests does either
SPECTRAL_MODULES = ["coxlat.cli", "coxlat.rootsys", "coxlat.spectral"]
QDEFORM_MODULES = ["coxlat.cli", "coxlat.intmat", "coxlat.qdeform", "coxlat.rootsys",
                   "coxlat.spectral"]
# the two q records are integer proofs: they load no float layer at all
Q_PROOF_MODULES = ["coxlat.cli", "coxlat.intmat", "coxlat.qdeform", "coxlat.rootsys"]


@pytest.mark.parametrize(
    "argv, modules",
    [pytest.param(argv, modules, id=" ".join(argv)) for argv, modules in
     [(["eigen", s, *fmt], SPECTRAL_MODULES)
      for s in SYSTEMS for fmt in ([], ["--format", "csv"])]
     + [(["eigen", s, "--q", "2.0"], QDEFORM_MODULES) for s in SYSTEMS]
     + [(["verify", name, "--json"], SPECTRAL_MODULES)
        for name in ("e8-eigvecs", "e6-eigvecs", "pf-zamolodchikov")]
     + [(["verify", name, "--json"], Q_PROOF_MODULES)
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


def _ising(tmp_path, n, fields=("--hx", "1.2", "--hz", "0.2"), **preset):
    out = tmp_path / "levels.csv"
    state = _probe(["ising", "--n", str(n), *fields, "--out", str(out)], **preset)
    assert state["code"] == 0
    assert state["modules"] == ["coxlat.cli", "coxlat.ising"]
    assert len(out.read_text().splitlines()) == 1 + 2**n
    return state, out.read_bytes()


def test_ising_below_the_crossover_runs_one_blas_thread(tmp_path):
    state, _ = _ising(tmp_path, 8)
    assert state["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "1"}
    if state["tasks"] is not None:  # no /proc: the thread count is not visible
        assert state["tasks"] == 1


# fields at which OpenBLAS's two-thread pool prints N = 12 bytes that differ
# from one thread's: 2 of the 4097 lines, in the last digit
POOL_SENSITIVE_FIELDS = ("--hx", "0.7", "--hz", "0.4")


@pytest.fixture(scope="module")
def unset_csv_n12(tmp_path_factory):
    return _ising(tmp_path_factory.mktemp("unset"), 12, POOL_SENSITIVE_FIELDS)[1]


@pytest.mark.parametrize("preset", [{}, *({var: "2"} for var in BLAS_THREAD_VARS)],
                         ids=["unset", *BLAS_THREAD_VARS])
def test_ising_overrides_a_preset_thread_count(tmp_path, unset_csv_n12, preset):
    state, csv = _ising(tmp_path, 12, POOL_SENSITIVE_FIELDS, **preset)
    assert state["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), **preset,
                            "OPENBLAS_NUM_THREADS": "1"}
    if state["tasks"] is not None:
        assert state["tasks"] == 1
    assert csv == unset_csv_n12


def test_ising_at_n_14_runs_one_blas_thread(tmp_path):
    state, _ = _ising(tmp_path, 14)
    assert state["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), "OPENBLAS_NUM_THREADS": "1"}
    if state["tasks"] is not None:
        assert state["tasks"] == 1


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
        # couplings whose Hamiltonian overflows are refused before it is built
        ["ising", "--n", "8", "--J", "1e308"],
        ["ising", "--n", "8", "--hx", "1e308"],
        ["ising", "--n", "8", "--hz", "1e308"],
        ["ising", "--n", "8", "--J", "5e307", "--hz", "5e307"],
        ["ising", "--n", "8", "--J", "1e308", "--hx", "1e308"],
    ],
    ids=["ising-J", "ising-hx", "ising-hz", "ising-J-hz", "ising-J-hx"],
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


def test_too_few_zero_momentum_levels_print_one_error_line(tmp_path):
    # N = 2 has three k = 0 levels, so a third gap is refused and no CSV is left
    out = tmp_path / "levels.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "coxlat.cli", "ising", "--n", "2", "--bands", "3",
         "--out", str(out)],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "zero-momentum levels" in line
    assert not out.exists()


def _write_error_line(proc_code: int, stderr: str) -> None:
    # a failed write to stdout is an input/output error: one line, no traceback
    assert proc_code == 2
    [line] = stderr.splitlines()
    assert line.startswith("error: cannot write to stdout:")


# a failed write must exit 2 whether stdout is written through at each print
# or held in a buffer until main flushes it
UNBUFFERED = {"PYTHONUNBUFFERED": "1"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize(
    "argv, preset",
    [(["eigen", "E8"], UNBUFFERED), (["--help"], UNBUFFERED),
     (["eigen", "E8"], {}), (["--help"], {})],
    ids=["eigen", "help", "eigen-buffered", "help-buffered"],
)
def test_full_stdout_exits_2(argv, preset):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "coxlat.cli", *argv],
            env=_env(**preset), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    _write_error_line(proc.returncode, proc.stderr)


@pytest.mark.parametrize("preset", [UNBUFFERED, {}], ids=["unbuffered", "buffered"])
def test_stdout_whose_reader_has_gone_exits_2(preset):
    # as in `coxlat ising --n 12 | head -c 5` once head has read its bytes and
    # exited; the reader closes first, so the CSV write fails whatever its size
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "wb") as pipe:
        proc = subprocess.run(
            [sys.executable, "-m", "coxlat.cli", "ising", "--n", "12", "--hx", "1"],
            env=_env(**preset), stdout=pipe, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    _write_error_line(proc.returncode, proc.stderr)


# an atexit hook registered before main runs; it writes to fd 2, which stays
# writable when stdout is /dev/full
_TEARDOWN = """
import atexit, os, runpy, sys
atexit.register(os.write, 2, b"teardown\\n")
if sys.argv[1] == "argv":
    import coxlat.cli
    code = coxlat.cli.main(["catalog", "A1"])
    on_full = os.path.samestat(os.fstat(1), os.stat("/dev/full"))
    os.write(2, f"main returned {code}; fd 1 on /dev/full: {on_full}\\n".encode())
else:  # as the console script and `python -m coxlat.cli` run it
    sys.argv = ["coxlat", "catalog", "A1"]
    runpy.run_module("coxlat.cli", run_name="__main__")
"""


def test_the_process_command_line_ends_without_teardown(capsys):
    proc = subprocess.run(
        [sys.executable, "-c", _TEARDOWN, "command-line"],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert main(["catalog", "A1"]) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out
    assert proc.stderr == ""  # the hook never ran


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_main_with_argv_returns_to_its_caller():
    # the caller's stdout stays its own: main neither exits nor rewires fd 1
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", _TEARDOWN, "argv"],
            env=_env(), stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    lines = proc.stderr.splitlines()
    assert lines[0].startswith("error: cannot write to stdout:")
    assert "main returned 2; fd 1 on /dev/full: True" in lines
    assert "teardown" in lines


# main(argv) in a fresh process of its own: in the test process numpy may
# already run OpenBLAS's default pool, and at N = 12 two CSV lines then
# differ in the last digit from a one-thread solve
_MAIN_WITH_ARGV = "import sys, coxlat.cli; sys.exit(coxlat.cli.main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "argv, code",
    [pytest.param(argv, code, id=" ".join(argv)) for argv, code in [
        (["verify", "all", "--json"], 0),
        (["catalog", "E8", "--json"], 0),
        (["eigen", "E8", "--q", "2.0"], 0),
        # 4097 lines through a pipe
        (["ising", "--n", "12", "--hx", "0.7", "--hz", "0.4"], 0),
        (["ising", "--n", "10", "--hx", "0.7", "--hz", "0.4", "--bands", "1", "--out", "{out}"],
         0),
        (["eigen", "E8", "--q", "0"], 2),
    ]],
)
def test_the_process_command_line_prints_what_main_with_argv_prints(tmp_path, argv, code):
    # the process ends with os._exit: no output may wait for the interpreter's teardown
    runs = []
    for name, launch in [("command-line", ["-m", "coxlat.cli"]),
                         ("argv", ["-c", _MAIN_WITH_ARGV])]:
        out = tmp_path / f"{name}.csv"
        proc = subprocess.run(
            [sys.executable, *launch, *(a.format(out=out) for a in argv)],
            env=_env(), capture_output=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        runs.append((proc.stdout, proc.stderr, out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
    assert (runs[0][2] is not None) == ("{out}" in argv)
