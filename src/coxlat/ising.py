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
after it.  No dense H or U is formed.

`hamiltonian_entries` lists the nonzero entries of H on the standard library:
`verify ising-symmetry` reads them and `build_hamiltonian`, the dense oracle,
fills them in, so only the functions that densify H or solve it import numpy.
This exists for property verification at desk scale — it makes no attempt at
scaling-limit physics, and `dispersion_probe`'s zero-momentum gaps, the
masses of the E8 claim at h_x = J, h_z > 0 (Zamolodchikov 1989), are
explicitly exploratory.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import index
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IsingParams",
    "MomentumLevel",
    "MAX_STATES",
    "hamiltonian_entries",
    "build_hamiltonian",
    "translation_operator",
    "classical_energies",
    "momentum_spectrum",
    "dispersion_probe",
    "free_fermion_energy",
]

MAX_STATES = 16384


class IsingParams(namedtuple("IsingParams", "N J h_z h_x")):
    """Chain length and couplings, validated on construction and on _replace.

    An integer 2 <= N with 2^N <= MAX_STATES, finite J > 0 and h_z, h_x >= 0,
    and a finite N·(J + h_z + h_x), which bounds every entry and level of H.
    """

    __slots__ = ()

    def __new__(cls, N: int, J: float = 1.0, h_z: float = 0.0, h_x: float = 0.0):
        N = index(N)  # an int; a float raises TypeError
        # compare N before exponentiating: 2**N of a huge N exhausts memory
        if N < 2 or N > MAX_STATES.bit_length() - 1:
            raise ValueError(f"N must satisfy 2 <= N and 2^N <= {MAX_STATES}")
        if not all(math.isfinite(x) for x in (J, h_z, h_x)):
            raise ValueError("J, h_z and h_x must be finite")
        if J <= 0 or h_z < 0 or h_x < 0:
            raise ValueError("need J > 0, h_z >= 0, h_x >= 0")
        # every entry and level of H is bounded by ||H||_inf <= N·(J + h_z + h_x)
        if not math.isfinite(N * (J + h_z + h_x)):
            raise ValueError("N*(J + h_z + h_x) is not finite, so H would overflow")
        return super().__new__(cls, N, J, h_z, h_x)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: validate it too
        return cls(*iterable)


class MomentumLevel(NamedTuple):
    p: float
    epsilon: float
    k: int


def _rotl(b: int, N: int) -> int:
    return ((b << 1) & ((1 << N) - 1)) | (b >> (N - 1))


def _sz(b: int, site: int, N: int) -> int:
    """sigma^z at 1-based site: +1 when the bit is clear."""
    return 1 - 2 * ((b >> (N - site)) & 1)


def _diagonal(params: IsingParams) -> List[float]:
    """Diagonal of H, -J·(bond sum) - h_z·(magnetization), for every state.

    A state b with w domain walls (the bits of b xor rotl(b)) and m down spins
    (its set bits) has bond sum N - 2w and magnetization N - 2m.
    """
    N, J, h_z = params.N, float(params.J), float(params.h_z)
    bonds = [-J * (N - 2 * w) for w in range(N + 1)]
    field = [h_z * (N - 2 * m) for m in range(N + 1)]
    return [bonds[(b ^ _rotl(b, N)).bit_count()] - field[b.bit_count()] for b in range(1 << N)]


def hamiltonian_entries(params: IsingParams) -> Dict[Tuple[int, int], float]:
    """The nonzero entries {(row, col): value} of H: E(s) at (s, s) for every
    state s (kept even where E(s) is 0), and -h_x at (s xor 2^n, s) when h_x > 0."""
    N, h_x = params.N, float(params.h_x)
    entries = {(s, s): e for s, e in enumerate(_diagonal(params))}
    if h_x:
        entries.update(((s ^ (1 << n), s), -h_x) for s in range(1 << N) for n in range(N))
    return entries


def build_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense 2^N x 2^N real-symmetric matrix of H: hamiltonian_entries, densified."""
    import numpy as np

    entries = hamiltonian_entries(params)
    H = np.zeros((1 << params.N, 1 << params.N))
    H[tuple(zip(*entries))] = tuple(entries.values())
    return H


def translation_operator(N: int) -> np.ndarray:
    """Permutation matrix of the cyclic shift sending site n+1 to site n."""
    import numpy as np

    dim = 1 << N
    T = np.zeros((dim, dim), dtype=int)
    for b in range(dim):
        T[_rotl(b, N), b] = 1
    return T


def classical_energies(params: IsingParams) -> List[float]:
    """Sorted diagonal energies at h_x = 0 (brute-force bitstring sum)."""
    N, J, h_z = params.N, params.J, params.h_z
    out = []
    for b in range(1 << N):
        bonds = sum(_sz(b, n, N) * _sz(b, n % N + 1, N) for n in range(1, N + 1))
        mag = sum(_sz(b, n, N) for n in range(1, N + 1))
        out.append(float(-J * bonds - h_z * mag))
    return sorted(out)


def _orbit_table(N: int):
    """Per state s: representative r (smallest state of its T-orbit),
    shift m with T^m s = r, and orbit size d."""
    import numpy as np

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


def momentum_spectrum(params: IsingParams) -> List[MomentumLevel]:
    """All 2^N levels as (p, epsilon) with epsilon >= 0 above the ground state.

    Sectors k <= N/2 are solved as real symmetric blocks in the Theta basis
    above; sector N-k reuses sector k's levels.  Levels come back sorted by
    (k, epsilon); the ground level is the single one with epsilon = 0 — its
    p is whatever the diagonalization says, not assumed.
    """
    import numpy as np

    N = params.N
    energy = np.array(_diagonal(params))
    rep, shift, size = _orbit_table(N)
    reps = np.flatnonzero(rep == np.arange(1 << N))
    orbit = np.searchsorted(reps, rep)
    flips = reps[:, None] ^ (1 << np.arange(N))
    mirror = ((reps[:, None] >> np.arange(N)) & 1) @ (1 << np.arange(N)[::-1])
    blocks = []
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
        blocks.append(np.linalg.eigvalsh(Hk))
    e0 = min(float(w.min()) for w in blocks)
    levels: List[MomentumLevel] = []
    for q in range(N):
        p = _wrap_momentum(q, N)
        levels += [MomentumLevel(p, float(e) - e0, q) for e in blocks[min(q, N - q)]]
    return levels


def dispersion_probe(params: IsingParams, band_count: int) -> dict:
    """Exploratory masses: the band_count lowest zero-momentum gaps.

    Mass j is the epsilon of the (j+1)-th lowest k = 0 level minus that of
    the lowest, and mass_ratios divides by mass 0 (empty when it is 0).  At
    h_x = J with h_z > 0 these gaps approach Zamolodchikov's E8 masses as N
    grows; in the ordered phase the first is the tunnelling splitting, not a
    mass.  Finite chains carry no pass/fail meaning.
    """
    if band_count < 0:
        raise ValueError("band_count must be nonnegative")
    zero = sorted(level.epsilon for level in momentum_spectrum(params) if level.k == 0)
    if len(zero) <= band_count:
        raise ValueError(f"{band_count} bands need {band_count + 1} zero-momentum levels; "
                         f"N = {params.N} has {len(zero)}")
    masses = [e - zero[0] for e in zero[1:band_count + 1]]
    ratios = [m / masses[0] for m in masses] if masses and masses[0] > 0 else []
    bands = [{"band": j, "mass": m} for j, m in enumerate(masses)]
    return {"exploratory": True, "bands": bands, "masses": masses, "mass_ratios": ratios}


def free_fermion_energy(J: float, h_x: float, p: float) -> float:
    """Single-quasiparticle energy on the h_z = 0 line, 2·sqrt(J² + h_x² - 2·J·h_x·cos p),
    its radicand written as (J - h_x)² + 4·J·h_x·sin²(p/2), never negative.  Its
    minimum, at p = 0, is the gap 2|J - h_x|, which closes at h_x = J."""
    return 2 * math.sqrt((J - h_x) ** 2 + 4 * J * h_x * math.sin(p / 2) ** 2)

