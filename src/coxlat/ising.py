"""Exact diagonalization of the periodic Ising chain with both fields.

    H = -J sum_n sigma^z_n sigma^z_{n+1} - h_z sum_n sigma^z_n
        - h_x sum_n sigma^x_n        (site N+1 = site 1)

Basis: product sigma^z states indexed by bitstrings; site 1 is the most
significant bit, bit 0 means spin +1.  H is real-symmetric with exact
entries, the translation T is a bit rotation, and [H, T] = 0 exactly.
Momentum sector k keeps the T-orbits whose size d has k·d = 0 mod N.  Orbit
b, with representative r_b (its smallest state), gives the unit vector |b>
with amplitude amp(s) = e^{2 pi i k m/N}/sqrt(d_b) on each s with T^m s = r_b.
A spin flip s = r_a xor 2^n into a kept orbit b adds -h_x·sqrt(d_a)·amp(s) at
(a, b) (Sandvik, arXiv:1101.3281, 4.1-4.3).  H is real, so sector N-k is the
conjugate of sector k; only k <= N/2 is solved.  Theta = P∘K (P the bit
reversal, P T P = T^-1; K conjugation) maps |b> to e^{-i phi_b}|pi(b)>, pi(b)
the orbit of P r_b, phi_b = 2 pi k·m(P r_b)/N.  Column b of U is e^{-i phi_b/2}|b>
if pi(b) = b; if b < pi(b), columns b and pi(b) are (|b> + Theta|b>)/sqrt 2 and
i(|b> - Theta|b>)/sqrt 2.  Theta fixes them, so U^H H U is real; E(r_a) is added
after it.  No dense H or U is formed; `build_hamiltonian` is the oracle.

This exists for property verification at desk scale — it makes no
attempt at scaling-limit physics, and the dispersion fit is explicitly
exploratory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "IsingParams",
    "MomentumLevel",
    "MAX_STATES",
    "build_hamiltonian",
    "translation_operator",
    "classical_energies",
    "momentum_spectrum",
    "dispersion_probe",
    "free_fermion_energy",
    "critical_field",
]

MAX_STATES = 16384
# grid points of the h_x scan in critical_field
_CRITICAL_SCAN_POINTS = 2001


@dataclass(frozen=True)
class IsingParams:
    N: int
    J: float = 1.0
    h_z: float = 0.0
    h_x: float = 0.0

    def __post_init__(self):
        if self.N < 2 or 2**self.N > MAX_STATES:
            raise ValueError(f"N must satisfy 2 <= N and 2^N <= {MAX_STATES}")
        if not all(math.isfinite(x) for x in (self.J, self.h_z, self.h_x)):
            raise ValueError("J, h_z and h_x must be finite")
        if self.J <= 0 or self.h_z < 0 or self.h_x < 0:
            raise ValueError("need J > 0, h_z >= 0, h_x >= 0")


@dataclass
class MomentumLevel:
    p: float
    epsilon: float
    k: int = 0
    vector: Optional[np.ndarray] = None


def _rotl(b: int, N: int) -> int:
    return ((b << 1) & ((1 << N) - 1)) | (b >> (N - 1))


def _sz(b: int, site: int, N: int) -> int:
    """sigma^z at 1-based site: +1 when the bit is clear."""
    return 1 - 2 * ((b >> (N - site)) & 1)


def _diagonal(params: IsingParams) -> np.ndarray:
    """Diagonal of H, -J·(bond sum) - h_z·(magnetization), for every state."""
    N = params.N
    states = np.arange(1 << N)
    sz = 1 - 2 * ((states[:, None] >> np.arange(N)) & 1)
    bonds = (sz * np.roll(sz, 1, axis=1)).sum(axis=1)
    return -params.J * bonds - params.h_z * sz.sum(axis=1)


def build_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense 2^N x 2^N real-symmetric matrix of H."""
    states = np.arange(1 << params.N)
    H = np.diag(_diagonal(params))
    for n in range(params.N):
        H[states ^ (1 << n), states] -= params.h_x
    return H


def translation_operator(N: int) -> np.ndarray:
    """Permutation matrix of the cyclic shift sending site n+1 to site n."""
    dim = 1 << N
    T = np.zeros((dim, dim), dtype=int)
    for b in range(dim):
        T[_rotl(b, N), b] = 1
    return T


def classical_energies(params: IsingParams) -> np.ndarray:
    """Sorted diagonal energies at h_x = 0 (brute-force bitstring sum)."""
    N, J, h_z = params.N, params.J, params.h_z
    out = []
    for b in range(1 << N):
        bonds = sum(_sz(b, n, N) * _sz(b, n % N + 1, N) for n in range(1, N + 1))
        mag = sum(_sz(b, n, N) for n in range(1, N + 1))
        out.append(-J * bonds - h_z * mag)
    return np.sort(np.array(out, dtype=float))


def _orbit_table(N: int):
    """Per state s: representative r (smallest state of its T-orbit),
    shift m with T^m s = r, and orbit size d."""
    states = np.arange(1 << N)
    rep, shift, size = states.copy(), np.zeros_like(states), np.full_like(states, N)
    image = states
    for m in range(1, N):
        image = _rotl(image, N)
        lower = image < rep
        rep[lower], shift[lower] = image[lower], m
        size[(image == states) & (size == N)] = m
    return rep, shift, size


def _wrap_momentum(k: int, N: int) -> float:
    p = 2 * math.pi * k / N
    return p if 2 * k <= N else p - 2 * math.pi


def momentum_spectrum(
    params: IsingParams, with_vectors: bool = False
) -> List[MomentumLevel]:
    """All 2^N levels as (p, epsilon) with epsilon >= 0 above the ground state.

    Sectors k <= N/2 are solved as real symmetric blocks in the Theta basis
    above; sector N-k reuses sector k's levels and conjugate vectors.  Levels
    come back sorted by (k, epsilon); the ground level is the single one with
    epsilon = 0 — its p is whatever the diagonalization says, not assumed.
    """
    N = params.N
    energy = _diagonal(params)
    rep, shift, size = _orbit_table(N)
    reps = np.flatnonzero(rep == np.arange(1 << N))
    orbit = np.searchsorted(reps, rep)
    flips = reps[:, None] ^ (1 << np.arange(N))
    mirror = ((reps[:, None] >> np.arange(N)) & 1) @ (1 << np.arange(N)[::-1])
    levels: List[MomentumLevel] = []
    for k in range(N // 2 + 1):
        kept = (k * size[reps]) % N == 0
        col, n = np.cumsum(kept) - 1, int(kept.sum())
        amp = np.exp(2j * math.pi * k * shift / N) / np.sqrt(size)
        g = np.exp(-2j * math.pi * k * shift[mirror[kept]] / N)
        pair, own = col[orbit[mirror[kept]]], np.arange(n)  # row a of U: u0 at a, u1 at pair
        u1 = np.where(pair == own, 0, np.where(pair > own, 1j, g) / math.sqrt(2))
        u0 = np.where(pair == own, np.sqrt(g), -1j * u1)
        a, j = np.nonzero(kept[:, None] & kept[orbit[flips]])
        s = flips[a, j]
        ra, rb = col[a], col[orbit[s]]
        f = -params.h_x * np.sqrt(size[reps[a]]) * amp[s]
        vals = np.stack([u0[ra], u1[ra]]).conj()[:, None] * f * np.stack([u0[rb], u1[rb]])
        idx = np.stack([ra, pair[ra]])[:, None] * n + np.stack([rb, pair[rb]])
        Hk = np.diag(energy[reps[kept]])
        Hk += np.bincount(idx.ravel(), vals.real.ravel(), n * n).reshape(n, n)
        w, psi = np.linalg.eigh(Hk) if with_vectors else (np.linalg.eigvalsh(Hk), None)
        if with_vectors:
            psi = kept[orbit] * amp * (u0[:, None] * psi + u1[:, None] * psi[pair])[col[orbit]].T
        for q in {k, (N - k) % N}:
            vs = [None] * n if psi is None else psi if q == k else psi.conj()
            levels += [MomentumLevel(_wrap_momentum(q, N), float(e), q, v) for e, v in zip(w, vs)]
    levels.sort(key=lambda level: level.k)
    e0 = min(level.epsilon for level in levels)
    for level in levels:
        level.epsilon -= e0
    return levels


def dispersion_probe(params: IsingParams, band_count: int) -> dict:
    """Exploratory quasiparticle fit epsilon ~ sqrt(m^2 + c·p_lat^2).

    Bands are the j-th excitation energies per momentum (ground level
    dropped), p_lat = 2 sin(p/2) is the lattice momentum proxy, and the
    fit is linear least squares on epsilon^2.  Finite chains are far
    from the scaling limit: the output carries no pass/fail meaning.
    """
    if band_count < 0:
        raise ValueError("band_count must be nonnegative")
    levels = momentum_spectrum(params)
    by_p: Dict[float, List[float]] = {}
    ground_dropped = False
    for level in sorted(levels, key=lambda l: l.epsilon):
        if not ground_dropped and level.epsilon == 0.0:
            ground_dropped = True
            continue
        by_p.setdefault(round(level.p, 12), []).append(level.epsilon)
    bands = []
    for j in range(band_count):
        pts = [
            (p, es[j])
            for p, es in sorted(by_p.items())
            if len(es) > j
        ]
        if len(pts) < 2:
            raise ValueError(f"insufficient momentum points for band {j}")
        x = np.array([(2 * math.sin(p / 2)) ** 2 for p, _ in pts])
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.array([e for _, e in pts]) ** 2  # overflows to inf, not OverflowError
        design = np.vstack([np.ones_like(x), x]).T
        (m2, c), *_ = np.linalg.lstsq(design, y, rcond=None)
        mass = math.sqrt(max(m2, 0.0))
        fit = np.sqrt(np.maximum(m2 + c * x, 0.0))
        rms = float(np.sqrt(np.mean((np.sqrt(y) - fit) ** 2)))
        bands.append(
            {
                "band": j,
                "points": pts,
                "mass": mass,
                "slope": float(c),
                "rms_residual": rms,
            }
        )
    masses = [b["mass"] for b in bands]
    ratios = [m / masses[0] for m in masses] if masses and masses[0] > 0 else []
    return {"exploratory": True, "bands": bands, "masses": masses, "mass_ratios": ratios}


def free_fermion_energy(J: float, h_x: float, p: float) -> float:
    """Single-quasiparticle energy on the h_z = 0 line:
    2·sqrt(J² + h_x² - 2·J·h_x·cos p)."""
    return 2 * math.sqrt(J**2 + h_x**2 - 2 * J * h_x * math.cos(p))


def critical_field(J: float = 1.0) -> float:
    """h_x minimizing the free-fermion gap min_p epsilon(p) at h_z = 0.

    The minimum over p sits at p = 0, giving gap 2|J - h_x|; the scan
    returns h_x = J under this Hamiltonian normalization (conventions
    that halve the fields quote J/2).
    """
    grid = np.linspace(0.0, 2.0 * J, _CRITICAL_SCAN_POINTS)
    gaps = [min(free_fermion_energy(J, h, p) for p in (0.0, math.pi)) for h in grid]
    return float(grid[int(np.argmin(gaps))])
