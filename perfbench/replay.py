"""In-process replay of CLI argv lists through ``coxlat.cli.main``, optionally traced.

Run as a fresh child process so that start-up costs, including the first
LAPACK call's OpenBLAS start-up, land where a user would pay them:

    PYTHONPATH=src python3 perfbench/replay.py SPEC.json RESULT.json

SPEC holds ``{"argv": [[...], ...], "trace": bool}``.  RESULT receives each
command's exit code, captured stdout and wall time, the replay's total wall
time, and (when tracing) every span.

Tracing wraps each public function of each coxlat module and times calls
into it from outside.  A span is ``[name, start, end, parent, command, N]``:
``parent`` indexes the enclosing span (-1 at top level), ``command`` is the
replayed command's position and ``N`` the chain length of an Ising argument
(else null).  Spans stay in memory until the replay ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import traceback
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

LAYERS = ("intmat", "rootsys", "lattice", "gabrielov", "spectral", "qdeform", "ising", "cli")

# Per-function detail: (function, metrics) with metrics from {"calls", "self_s"}.
FUNCTION_METRICS = (
    ("intmat.det_exact", ("calls", "self_s")),
    ("intmat.frac_inverse", ("calls", "self_s")),
    ("intmat.as_imatrix", ("calls",)),
    ("rootsys.cartan_matrix", ("calls",)),
    ("lattice.steinberg_decomposition", ("self_s",)),
    ("gabrielov.e8_factorization", ("calls", "self_s")),
    ("gabrielov.e6_factorization", ("self_s",)),
    ("gabrielov.root_image_count", ("self_s",)),
    ("gabrielov.apply_word", ("self_s",)),
    ("gabrielov.find_conjugator", ("self_s",)),
    ("gabrielov.weyl_apply", ("calls",)),
    ("spectral.jacobi_eigh", ("calls", "self_s")),
    ("spectral.perron_frobenius", ("self_s",)),
    ("spectral.cartan_spectrum", ("self_s",)),
    ("qdeform.q_spectrum", ("calls", "self_s")),
    ("ising.momentum_spectrum", ("calls", "self_s")),
    ("ising.build_hamiltonian", ("self_s",)),
    ("ising.dispersion_probe", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
    ("cli.run_verification", ("self_s",)),
)
MOVES = ("gabrielov.alpha", "gabrielov.beta", "gabrielov.gamma")
SPECTRUM = "ising.momentum_spectrum"


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the spans yield, with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for fn, kinds in FUNCTION_METRICS:
        units.update({f"{fn}.{k}": "count" if k == "calls" else "s" for k in kinds})
    units["gabrielov.moves.calls"] = "count"
    units["ising.states_computed"] = "count"
    units["ising.dense_h_bytes_computed"] = "B"
    return units


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one replay.  A span's self time is its duration
    minus the durations of its child spans (calls are sequential, so
    children never overlap)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[i]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.split(".")[0] == layer)
    for fn, kinds in FUNCTION_METRICS:
        for k in kinds:
            out[f"{fn}.{k}"] = calls[fn] if k == "calls" else self_s[fn]
    out["gabrielov.moves.calls"] = sum(calls[m] for m in MOVES)
    sizes = [s[5] for s in spans if s[0] == SPECTRUM and s[5] is not None]
    out["ising.states_computed"] = sum(2**n for n in sizes)
    out["ising.dense_h_bytes_computed"] = sum(8 * 4**n for n in sizes)
    return out


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self):
        self.spans: List[list] = []
        self.command = -1
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = getattr(args[0], "N", None) if args else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, n]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> int:
        """Wrap the public functions of every layer and rebind every coxlat
        namespace that holds one: module globals (``from .x import f``
        copies included) and module-level dicts such as dispatch tables.
        Returns the number of bindings replaced."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"coxlat.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        replaced = 0
        for modname, mod in list(sys.modules.items()):
            if modname != "coxlat" and not modname.startswith("coxlat."):
                continue
            namespaces = [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        ns[key] = wrappers[value]
                        replaced += 1
        return replaced


def replay(argv_list: List[List[str]], trace: bool) -> dict:
    import coxlat.cli

    tracer = Tracer() if trace else None
    bindings = tracer.install() if tracer else 0
    results = []
    t0 = perf_counter()
    for i, argv in enumerate(argv_list):
        if tracer:
            tracer.command = i
        out, err = io.StringIO(), io.StringIO()
        c0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = coxlat.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is one failed command; keep replaying
                traceback.print_exc()
                rc = -1
        results.append(
            {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": perf_counter() - c0}
        )
    wall = perf_counter() - t0
    return {
        "wall_s": wall,
        "commands": results,
        "bindings_patched": bindings,
        "spans": tracer.spans if tracer else [],
    }


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = replay(spec["argv"], spec["trace"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
