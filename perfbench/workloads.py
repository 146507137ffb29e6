"""The three workloads: the argv lists each one sends to the ``coxlat`` CLI.

The seed picks the Ising fields (h_x in [0.5, 2], h_z in [0, 0.5]) and the
order of the ``oneshot`` requests; nothing else in the inputs varies.  The
program receives only the argv lists built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

WORKLOADS = ("verify-all", "oneshot", "ising-sweep")

VERIFY_NAMES = (
    "steinberg",
    "e8-factorization",
    "e6-factorization",
    "gamma-alpha",
    "root-image",
    "e8-eigvecs",
    "e6-eigvecs",
    "pf-zamolodchikov",
    "q-spectrum",
    "q-certificate",
    "ising-symmetry",
)
SYSTEMS = tuple(f"A{n}" for n in range(1, 9)) + ("D4", "D5", "E6", "E7", "E8")
Q = 2.0
ISING_SIZES = (8, 9, 10, 11, 12)
BANDS_N = 10  # this size also fits one band, so its spectrum is computed twice


@dataclass(frozen=True)
class Command:
    """One CLI request and what the benchmark needs to check its output.

    ``kind`` names the check: ``verify-all``, ``verify``, ``eigen``,
    ``eigen-q``, ``catalog`` or ``ising``.  ``target`` is the verification
    or root-system name; the Ising fields describe an ``ising`` request,
    whose CSV goes to ``out``.
    """

    argv: Tuple[str, ...]
    kind: str
    target: str = ""
    n: int = 0
    hx: float = 0.0
    hz: float = 0.0
    bands: int = 0
    out: Optional[str] = None


def ising_fields(seed: int) -> Tuple[float, float]:
    """(h_x, h_z) for a seed, rounded so the argv text is the exact value."""
    rng = random.Random(seed)
    return round(rng.uniform(0.5, 2.0), 6), round(rng.uniform(0.0, 0.5), 6)


def _ising(n: int, hx: float, hz: float, out_dir: Path, bands: int = 0) -> Command:
    out = str(out_dir / f"ising-n{n}.csv")
    argv = ["ising", "--n", str(n), "--hx", repr(hx), "--hz", repr(hz)]
    if bands:
        argv += ["--bands", str(bands)]
    argv += ["--out", out]
    return Command(tuple(argv), "ising", n=n, hx=hx, hz=hz, bands=bands, out=out)


def build(workload: str, seed: int, out_dir: Path) -> List[Command]:
    """The command list of one pass of ``workload``; CSV outputs go to out_dir."""
    if workload == "verify-all":
        return [Command(("verify", "all", "--json"), "verify-all")]
    if workload == "oneshot":
        cmds = [Command(("verify", v, "--json"), "verify", target=v) for v in VERIFY_NAMES]
        cmds += [Command(("eigen", s), "eigen", target=s) for s in SYSTEMS]
        cmds += [Command(("eigen", s, "--q", repr(Q)), "eigen-q", target=s) for s in SYSTEMS]
        cmds += [Command(("catalog", s, "--json"), "catalog", target=s) for s in SYSTEMS]
        random.Random(seed).shuffle(cmds)
        return cmds
    if workload == "ising-sweep":
        hx, hz = ising_fields(seed)
        return [_ising(n, hx, hz, out_dir, bands=int(n == BANDS_N)) for n in ISING_SIZES]
    raise ValueError(f"unknown workload {workload!r}")
