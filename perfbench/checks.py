"""Output checks against references the benchmark computes itself.

Nothing here imports coxlat: the catalog tables, the Ising Hamiltonian and
the orbit counts are rebuilt from their definitions, so a defect in the
program cannot hide in its own reference.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from workloads import VERIFY_NAMES, Command

# Bourbaki numbering: A_n chain, D_n chain with n-2 forked, E_n with 2 on 4.
_H_EXPONENTS = {
    **{f"A{n}": (n + 1, list(range(1, n + 1))) for n in range(1, 9)},
    "D4": (6, [1, 3, 3, 5]),
    "D5": (8, [1, 3, 4, 5, 7]),
    "E6": (12, [1, 4, 5, 7, 8, 11]),
    "E7": (18, [1, 5, 7, 9, 11, 13, 17]),
    "E8": (30, [1, 7, 11, 13, 17, 19, 23, 29]),
}

RESIDUAL_TOL = 1e-9  # the program's documented float residual contract
Q_LAW_TOL = 1e-8
CERTIFICATE_TOL = 1e-10
LEVEL_TOL = 1e-9  # relative to the largest |E|; CSV rounding is ~1e-11
TRACE_TOL = 1e-9
EXACT_LEVELS_MAX_N = 10  # dense eigvalsh reference up to here, traces above


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise CheckFailed(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# ---------------------------------------------------------------- catalog


def dynkin_edges(system: str) -> List[Tuple[int, int]]:
    family, n = system[0], int(system[1:])
    if family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    return [(1, 3)] + [(i, i + 1) for i in range(3, n)] + [(2, 4)]


def cartan(system: str) -> np.ndarray:
    n = int(system[1:])
    A = 2 * np.eye(n)
    for i, j in dynkin_edges(system):
        A[i - 1, j - 1] = A[j - 1, i - 1] = -1
    return A


def cartan_eigenvalues(system: str) -> List[float]:
    """4 sin^2(k pi / 2h) over the exponents k, ascending."""
    h, exps = _H_EXPONENTS[system]
    return [4 * math.sin(k * math.pi / (2 * h)) ** 2 for k in exps]


def _check_verify_record(rec, name: str) -> None:
    _require(isinstance(rec, dict), f"{name}: record is not an object")
    _require(rec.get("name") == name, f"expected record {name}, got {rec.get('name')!r}")
    _require(rec.get("status") == "pass", f"{name}: status {rec.get('status')!r}")
    dev, tol = rec.get("deviation"), rec.get("tolerance")
    _require(_finite(dev) and _finite(tol) and dev <= tol, f"{name}: deviation {dev} > {tol}")


def _check_verify_all(stdout: str) -> None:
    payload = strict_json(stdout)
    reports = payload.get("reports") if isinstance(payload, dict) else None
    _require(isinstance(reports, list) and len(reports) == len(VERIFY_NAMES),
             f"expected {len(VERIFY_NAMES)} reports")
    for rec, name in zip(reports, VERIFY_NAMES):
        _check_verify_record(rec, name)


def _check_eigen(system: str, stdout: str) -> None:
    pairs = strict_json(stdout)
    h, exps = _H_EXPONENTS[system]
    A = cartan(system)
    _require(isinstance(pairs, list) and len(pairs) == len(exps), "wrong number of eigenpairs")
    for pair, k, lam in zip(pairs, exps, cartan_eigenvalues(system)):
        _require(pair.get("k") == k and pair.get("h") == h, f"label (k,h) != ({k},{h})")
        _require(_finite(pair.get("lambda")) and abs(pair["lambda"] - lam) <= RESIDUAL_TOL,
                 f"lambda_{k} = {pair.get('lambda')} != 4sin^2(k pi/2h) = {lam}")
        v = np.array([complex(re, im) for re, im in pair["vector"]])
        _require(v.shape == (A.shape[0],) and np.all(np.isfinite(v)), "bad eigenvector")
        res = np.max(np.abs(A @ v - pair["lambda"] * v))
        scale = max(1.0, np.max(np.abs(A)) * np.max(np.abs(v)))
        _require(res <= RESIDUAL_TOL * scale, f"eigenvector residual {res:.3e}")


def _check_eigen_q(system: str, stdout: str) -> None:
    payload = strict_json(stdout)
    _require(payload.get("system") == system and payload.get("q") == 2.0, "wrong system or q")
    got = payload.get("eigenvalues")
    _require(isinstance(got, list) and all(_finite(x) for x in got), "bad eigenvalues")
    rq = math.sqrt(2.0)
    law = sorted(1 + (lam - 2) * rq + 2.0 for lam in cartan_eigenvalues(system))
    _require(len(got) == len(law), "wrong number of eigenvalues")
    dev = max(abs(a - b) for a, b in zip(sorted(got), law))
    _require(dev <= Q_LAW_TOL, f"q-law deviation {dev:.3e}")
    cert = payload.get("certificate_deviation")
    _require(_finite(cert) and cert <= CERTIFICATE_TOL, f"certificate deviation {cert}")


def _check_catalog(system: str, stdout: str) -> None:
    payload = strict_json(stdout)
    h, exps = _H_EXPONENTS[system]
    n = int(system[1:])
    edges = dynkin_edges(system)
    _require(payload.get("system") == system and payload.get("rank") == n, "wrong system/rank")
    _require(payload.get("h") == h and payload.get("exponents") == exps, "wrong h/exponents")
    _require(sorted(tuple(e) for e in payload.get("edges", [])) == sorted(edges), "wrong edges")
    _require(payload.get("cartan") == cartan(system).astype(int).tolist(), "wrong Cartan matrix")
    colors = payload.get("coloring", {})
    _require(sorted(colors) == sorted(str(v) for v in range(1, n + 1)), "coloring misses vertices")
    _require(colors.get("1") == "white", "vertex 1 is not white")
    _require(all(colors[str(i)] != colors[str(j)] for i, j in edges), "coloring not proper")


# ---------------------------------------------------------------- ising


def ising_hamiltonian(N: int, J: float, hz: float, hx: float) -> np.ndarray:
    """Dense periodic H from Kronecker products of Pauli matrices."""
    I2, X, Z = np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])

    def site_op(ops: Dict[int, np.ndarray]) -> np.ndarray:
        out = np.ones((1, 1))
        for n in range(N):
            out = np.kron(out, ops.get(n, I2))
        return out

    H = np.zeros((1 << N, 1 << N))
    for n in range(N):
        H -= J * site_op({n: Z, (n + 1) % N: Z}) + hz * site_op({n: Z}) + hx * site_op({n: X})
    return H


def orbit_counts(N: int) -> List[int]:
    """Number of momentum-k states, k = 0..N-1: orbits of the cyclic shift
    whose size d admits k (k·d divisible by N)."""
    mask = (1 << N) - 1
    seen = bytearray(1 << N)
    counts = [0] * N
    for b in range(1 << N):
        if seen[b]:
            continue
        d, c = 0, b
        while not seen[c]:
            seen[c] = 1
            d += 1
            c = ((c << 1) & mask) | (c >> (N - 1))
        for k in range(N):
            counts[k] += (k * d) % N == 0
    return counts


def ground_energy(N: int, J: float, hz: float, hx: float, steps: int = 300) -> float:
    """Lowest eigenvalue by Lanczos with full reorthogonalization, H applied
    through bit operations on the sigma^z basis."""
    dim = 1 << N
    states = np.arange(dim)
    z = 1 - 2 * ((states[:, None] >> np.arange(N)) & 1)
    diag = -J * (z * np.roll(z, 1, axis=1)).sum(axis=1) - hz * z.sum(axis=1)
    flips = [states ^ (1 << j) for j in range(N)]

    def apply(v):
        return diag * v - hx * sum(v[f] for f in flips)

    steps = min(steps, dim)
    V = np.zeros((steps, dim))
    v = np.random.default_rng(0).standard_normal(dim)
    V[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for j in range(steps):
        w = apply(V[j])
        alpha.append(V[j] @ w)
        w -= V[: j + 1].T @ (V[: j + 1] @ w)
        w -= V[: j + 1].T @ (V[: j + 1] @ w)
        b = np.linalg.norm(w)
        if j + 1 == steps or b < 1e-12:
            break
        beta.append(b)
        V[j + 1] = w / b
    T = np.diag(alpha) + np.diag(beta[: len(alpha) - 1], 1) + np.diag(beta[: len(alpha) - 1], -1)
    return float(np.linalg.eigvalsh(T)[0])


class IsingReference:
    """What one (N, h_x, h_z) spectrum must satisfy."""

    def __init__(self, N: int, hx: float, hz: float, J: float = 1.0):
        self.N, self.hx, self.hz, self.J = N, hx, hz, J
        self.counts = orbit_counts(N)
        self.trace2 = (1 << N) * N * (J**2 + hz**2 + hx**2)
        if N <= EXACT_LEVELS_MAX_N:
            E = np.linalg.eigvalsh(ising_hamiltonian(N, J, hz, hx))
            self.levels: Optional[np.ndarray] = E - E[0]
            self.e0 = float(E[0])
        else:
            self.levels = None
            self.e0 = ground_energy(N, J, hz, hx)

    def check_csv(self, text: str) -> None:
        lines = text.splitlines()
        _require(bool(lines) and lines[0] == "p,epsilon", "missing p,epsilon header")
        try:
            rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        except ValueError:
            raise CheckFailed("CSV row does not parse") from None
        _require(all(len(r) == 2 and all(map(math.isfinite, r)) for r in rows), "bad CSV row")
        N = self.N
        _require(len(rows) == 1 << N, f"{len(rows)} levels, expected {1 << N}")
        per_k = [0] * N
        for p, _ in rows:
            _require(-math.pi < p <= math.pi + 1e-9, f"momentum {p} outside (-pi, pi]")
            per_k[round(p * N / (2 * math.pi)) % N] += 1
        _require(per_k == self.counts, f"levels per momentum {per_k} != orbit counts {self.counts}")
        eps = np.array(sorted(e for _, e in rows))
        _require(eps[0] == 0.0, "lowest level is not 0")
        # Tr H = 0 fixes the shift: E = eps - mean(eps).
        E = eps - eps.mean()
        scale = max(1.0, float(np.max(np.abs(E))))
        _require(abs(E[0] - self.e0) <= LEVEL_TOL * scale,
                 f"ground energy {E[0]} != reference {self.e0} (Tr H = 0 violated)")
        rel = abs(float(E @ E) - self.trace2) / self.trace2
        _require(rel <= TRACE_TOL, f"Tr H^2 relative error {rel:.3e}")
        if self.levels is not None:
            dev = float(np.max(np.abs(eps - self.levels)))
            _require(dev <= LEVEL_TOL * scale, f"levels deviate from eigvalsh by {dev:.3e}")


def _check_bands(stdout: str, bands: int) -> None:
    payload = strict_json(stdout)
    _require(isinstance(payload, dict) and payload.get("exploratory") is True, "not a band fit")
    masses = payload.get("masses")
    _require(isinstance(payload.get("bands"), list) and len(payload["bands"]) == bands
             and isinstance(masses, list) and len(masses) == bands
             and all(_finite(m) and m >= 0 for m in masses), "bad band fit")


# ---------------------------------------------------------------- verdicts


class References:
    """Every reference one command list needs, computed once up front."""

    def __init__(self, commands: Sequence[Command]):
        self.ising = {
            (c.n, c.hx, c.hz): IsingReference(c.n, c.hx, c.hz)
            for c in commands
            if c.kind == "ising"
        }


def _check_ising(cmd: Command, stdout: str, csv: Optional[str], refs: References) -> None:
    _require(csv is not None, "no CSV written")
    refs.ising[(cmd.n, cmd.hx, cmd.hz)].check_csv(csv)
    if cmd.bands:
        _check_bands(stdout, cmd.bands)
    else:
        _require(stdout == "", "unexpected stdout")


_CHECKS = {
    "verify-all": lambda cmd, stdout, csv, refs: _check_verify_all(stdout),
    "verify": lambda cmd, stdout, csv, refs: _check_verify_record(strict_json(stdout), cmd.target),
    "eigen": lambda cmd, stdout, csv, refs: _check_eigen(cmd.target, stdout),
    "eigen-q": lambda cmd, stdout, csv, refs: _check_eigen_q(cmd.target, stdout),
    "catalog": lambda cmd, stdout, csv, refs: _check_catalog(cmd.target, stdout),
    "ising": _check_ising,
}


def verdict(cmd: Command, rc: int, stdout: str, csv: Optional[str], refs: References) -> Optional[str]:
    """None if the command's outputs are correct, else the reason they are not."""
    check = _CHECKS[cmd.kind]
    try:
        _require(rc == 0, f"exit code {rc}")
        check(cmd, stdout, csv, refs)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return f"malformed output: {exc!r}"
    return None
