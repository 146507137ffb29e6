"""Francis double-shift QR for general real matrices: the float oracle of the q-law.

`coxlat` proves the spectrum law of A(q) = qL + U exactly (qdeform.q_spectrum)
and prints the law's values; this solver finds the spectrum of A(q) from the
matrix alone, so the tests can hold the two against each other and against
numpy.  It runs on plain Python floats.
"""

from __future__ import annotations

import math
from typing import Tuple

# general_eigenvalues gives up after this many QR sweeps without a deflation
QR_MAX_ITERATIONS = 30
EPS = 2.0 ** -52  # a subdiagonal entry below EPS times its diagonal neighbours is 0


def _reflect(H: list, k: int, x: float, y: float, z: float, cols: range, rows: range) -> float:
    """H <- P·H·P, P the reflector on indices k..k+2 taking (x, y, z) to (x', 0, 0);
    returns x'.  P·H is formed on the columns `cols`, H·P on the rows `rows`.
    With z = 0, index k+2 may be H's zero padding."""
    if not (y or z):  # P = I will do
        return x
    sigma = math.copysign(math.hypot(x, y, z), x)
    p = x + sigma
    u0, u1, u2, q, r = p / sigma, y / sigma, z / sigma, y / p, z / p
    k1, k2 = k + 1, k + 2
    r0, r1, r2 = H[k], H[k1], H[k2]
    for j in cols:
        d = r0[j] + q * r1[j] + r * r2[j]
        r0[j] -= d * u0
        r1[j] -= d * u1
        r2[j] -= d * u2
    for i in rows:
        row = H[i]
        d = row[k] + q * row[k1] + r * row[k2]
        row[k] -= d * u0
        row[k1] -= d * u1
        row[k2] -= d * u2
    return -sigma


def _normalize(H: list) -> int:
    """Scale H in place, exactly, by the power 2^-e that brings it below 1; return e."""
    entries = [x for row in H for x in row]
    if not all(map(math.isfinite, entries)):
        raise ValueError("the matrix is not finite")
    e = math.frexp(max(map(abs, entries)))[1]
    for row in H:
        row[:] = [math.ldexp(x, -e) for x in row]
    return e


def _balance(H: list, n: int) -> None:
    """Parlett-Reinsch balancing in place: scale row and column i by reciprocal
    powers of 2 until their off-diagonal 1-norms about agree.  A(q) far from
    q = 1 is far from normal, and balancing makes its eigenvalues well conditioned."""
    done = False
    while not done:
        done = True
        for i in range(n):
            d = abs(H[i][i])  # centred A(q) has a zero diagonal, so this is exact there
            c = sum([abs(row[i]) for row in H]) - d
            r = sum(map(abs, H[i])) - d
            f = 2.0 ** round((math.log2(r) - math.log2(c)) / 2) if c and r else 1.0
            if c * f + r / f < 0.95 * (c + r):
                done = False
                H[i] = [x / f for x in H[i]]
                for row in H:
                    row[i] *= f


def _pair(a: float, b: float, c: float, d: float) -> list:
    """The eigenvalues of [[a, b], [c, d]]; a complex pair comes out conjugate."""
    p = (a + d) / 2
    disc = (a - d) * (a - d) / 4 + b * c
    r = math.sqrt(abs(disc))
    return [complex(p - r), complex(p + r)] if disc >= 0 else [complex(p, -r), complex(p, r)]


def general_eigenvalues(M) -> Tuple[complex, ...]:
    """Eigenvalues of a general real matrix, sorted by (real, imag).

    Scaled, centred, balanced and reduced to Hessenberg form by Householder
    reflections, the matrix is deflated from the bottom by Francis double-shift
    QR sweeps (Golub & Van Loan, §7.5), one eigenvalue or 2 x 2 block at a time.
    Non-finite input, or a block still whole after QR_MAX_ITERATIONS sweeps,
    raises ValueError.
    """
    H = [[float(x) for x in row] + [0.0] for row in M]
    n = len(H)
    H.append([0.0] * (n + 1))  # the zero row and column that _reflect may touch
    e = _normalize(H)
    # A(q) far from q = 1 is a multiple of I plus a small part: solve for the part
    centre = sum(H[i][i] for i in range(n)) / n
    for i in range(n):
        H[i][i] -= centre
    _balance(H, n)
    e_part = _normalize(H)
    for c in range(n - 2):  # zero column c below the subdiagonal, bottom up
        for i in range(n - 2, c, -1):
            H[i][c] = _reflect(H, i, H[i][c], H[i + 1][c], 0.0, range(c + 1, n), range(n))
            H[i + 1][c] = 0.0
    found, m, its = [], n - 1, 0
    while m >= 0:
        l = m
        while l > 0 and abs(H[l][l - 1]) > EPS * ((abs(H[l - 1][l - 1]) + abs(H[l][l])) or 1.0):
            l -= 1
        if l >= m - 1:  # the bottom 1 x 1 or 2 x 2 block has split off
            found += [complex(H[m][m])] if l == m else _pair(
                H[m - 1][m - 1], H[m - 1][m], H[m][m - 1], H[m][m])
            m, its = l - 1, 0
            continue
        its += 1
        if its > QR_MAX_ITERATIONS:
            raise ValueError(f"the QR iteration did not converge in {QR_MAX_ITERATIONS} sweeps")
        if its % 10:  # the shifts are the eigenvalues of the trailing 2 x 2 block
            s = H[m - 1][m - 1] + H[m][m]
            t = H[m - 1][m - 1] * H[m][m] - H[m - 1][m] * H[m][m - 1]
        else:  # an exceptional shift breaks a cycle
            w = abs(H[m][m - 1]) + abs(H[m - 1][m - 2])
            x = 0.75 * w + H[m][m]
            s, t = 2 * x, x * x + 0.4375 * w * w
        # the first column of (H - s1)(H - s2) starts the bulge
        x = H[l][l] * (H[l][l] - s) + H[l][l + 1] * H[l + 1][l] + t
        y = H[l + 1][l] * (H[l][l] + H[l + 1][l + 1] - s)
        z = H[l + 1][l] * H[l + 2][l + 1]
        for k in range(l, m):  # chase the bulge down the block
            if k > l:
                x, y, z = H[k][k - 1], H[k + 1][k - 1], H[k + 2][k - 1]
            top = _reflect(H, k, x, y, z, range(k, m + 1), range(l, min(k + 3, m) + 1))
            if k > l:
                H[k][k - 1], H[k + 1][k - 1], H[k + 2][k - 1] = top, 0.0, 0.0
    up = 2.0 ** (e // 2), 2.0 ** (e - e // 2)  # 2^e as two float factors
    found = [complex((math.ldexp(z.real, e_part) + centre) * up[0] * up[1],
                     math.ldexp(z.imag, e_part) * up[0] * up[1]) for z in found]
    return tuple(sorted(found, key=lambda z: (z.real, z.imag)))
