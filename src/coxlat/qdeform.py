"""q-deformation of generalized Cartan matrices: A(q) = qL + U.

A = L + U is the unique split into unit-diagonal lower/upper triangular
parts.  When the graph of A (vertices i, j joined iff a_ij != 0) is a
tree, the deformed spectrum is {1 + (lambda-2)sqrt(q) + q} over
eigenvalues lambda of A, and eigenvectors transport coordinatewise by
powers q^{k_i/2}.  The exponent vector k is rootsys.tree_levels of the
graph: along any edge, the numerically larger endpoint has k one more
than the smaller (making diag(q^{k_i/2}) conjugate
sqrt(q)A + (1-sqrt(q))^2 I into A(q)).

q is restricted to positive reals, so sqrt(q) is unambiguous.
Disconnected graphs are rejected along with cycles; per-component
application would be the natural extension for forests.

Like spectral, this runs on plain Python floats; an extreme q ends in a
non-finite deviation, never in OverflowError or ZeroDivisionError.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Tuple

from .intmat import IMatrix, as_imatrix
from .rootsys import tree_levels
from .spectral import IDENTITY_TOL, jacobi_eigh, max_abs, residual

__all__ = [
    "QDeformedCartan",
    "deform",
    "evaluate",
    "q_eigenvalue",
    "q_eigenvector",
    "conjugation_certificate",
    "q_spectrum",
    "general_eigenvalues",
    "Q_SPECTRUM_TOL",
    "CERTIFICATE_TOL",
]

# default tolerances of the `coxlat verify` q-spectrum and q-certificate
# checks, which grade the deviations q_spectrum and conjugation_certificate return
Q_SPECTRUM_TOL = 1e-8
CERTIFICATE_TOL = 1e-10
# general_eigenvalues gives up after this many QR sweeps without a deflation
QR_MAX_ITERATIONS = 30
EPS = 2.0 ** -52  # a subdiagonal entry below EPS times its diagonal neighbours is 0


class QDeformedCartan(NamedTuple):
    """Unit-triangular split A = L + U (exact) with the tree exponent vector;
    evaluate(D, 1.0) is A in floats."""

    L: IMatrix
    U: IMatrix
    exponent_vector: Tuple[int, ...]

    @property
    def cartan_eigenvalues(self) -> tuple:
        """The eigenvalues of A, solved once per record by jacobi_eigh.

        The solved matrix has the off-diagonal entries sign(a_ij)·sqrt(a_ij·a_ji).
        On a tree it is diagonally similar to A, and a symmetric A is itself.
        """
        values = _CARTAN_EIGENVALUES.get(self)
        if values is None:
            A = evaluate(self, 1.0)
            S = tuple(tuple(math.copysign(math.sqrt(a * b), a) for a, b in zip(row, col))
                      for row, col in zip(A, zip(*A)))
            values = _CARTAN_EIGENVALUES[self] = jacobi_eigh(S, with_vectors=False)[0]
        return values


# QDeformedCartan.cartan_eigenvalues by record
_CARTAN_EIGENVALUES: Dict[QDeformedCartan, tuple] = {}


def deform(A) -> QDeformedCartan:
    """Split a generalized Cartan matrix (tree graph) into L + U.

    A pair with a_ij·a_ji < 0 raises ValueError: no generalized Cartan
    matrix has one, and cartan_eigenvalues needs a_ij·a_ji >= 0.
    """
    A = as_imatrix(A)
    ks = tree_levels(A)
    if any(a * b < 0 for row, col in zip(A, zip(*A)) for a, b in zip(row, col)):
        raise ValueError("a_ij·a_ji < 0 for a pair: not a generalized Cartan matrix")
    L = tuple(tuple(1 if j == i else a if j < i else 0 for j, a in enumerate(r))
              for i, r in enumerate(A))
    U = tuple(tuple(1 if j == i else a if j > i else 0 for j, a in enumerate(r))
              for i, r in enumerate(A))
    return QDeformedCartan(L=L, U=U, exponent_vector=ks)


def _check_q(q: float) -> float:
    q = float(q)
    if not (math.isfinite(q) and q > 0):
        raise ValueError("q must be positive and finite")
    return q


def evaluate(D: QDeformedCartan, q: float) -> tuple:
    """qL + U as a float matrix."""
    q = _check_q(q)
    return tuple(tuple(q * l + u for l, u in zip(rl, ru)) for rl, ru in zip(D.L, D.U))


def q_eigenvalue(lam: float, q: float) -> float:
    """The deformed eigenvalue 1 + (lambda - 2)sqrt(q) + q."""
    q = _check_q(q)
    return 1 + (lam - 2) * math.sqrt(q) + q


def _scales(D: QDeformedCartan, q: float):
    """The diagonal of S = diag(q^{k_i/2}); a power past the float range is inf."""
    for k in D.exponent_vector:
        try:
            yield q ** (k / 2.0)
        except OverflowError:
            yield math.inf


def q_eigenvector(x, D: QDeformedCartan, q: float) -> tuple:
    """Transport an eigenvector of A to one of A(q): x_i -> q^{k_i/2} x_i.

    Its eigenvalue lambda is the Rayleigh quotient of x.  A real x gives a
    real vector, a complex x a complex one.
    """
    q = _check_q(q)
    A = evaluate(D, 1.0)  # A(1) = L + U = A
    norm2 = sum(v.conjugate() * v for v in x).real
    if not norm2:
        raise ValueError("x is the zero vector")
    Ax = [sum(a * w for a, w in zip(row, x)) for row in A]
    lam = sum(v.conjugate() * y for v, y in zip(x, Ax)).real / norm2
    if residual(A, x, lam) > IDENTITY_TOL:
        raise ValueError("x is not an eigenvector of A to tolerance")
    xq = tuple(s * v for s, v in zip(_scales(D, q), x))
    if residual(evaluate(D, q), xq, q_eigenvalue(lam, q)) > IDENTITY_TOL:
        raise ValueError("transported vector failed the deformed residual check")
    return xq


def conjugation_certificate(D: QDeformedCartan, q: float) -> dict:
    """Deviation of S·(sqrt(q)A + (1-sqrt(q))² I)·S⁻¹ from A(q), S = diag(q^{k_i/2}).

    A deviation at rounding level certifies the deformed spectrum law
    constructively for this q.
    """
    q = _check_q(q)
    rq = math.sqrt(q)
    shift = (1 - rq) ** 2
    s = tuple(_scales(D, q))
    # a scale that underflowed to 0 puts 0/0 on the diagonal: a NaN for the caller
    dev = max_abs(
        s[i] * (rq * a + (shift if i == j else 0.0)) / s[j] - aq if s[j] else math.nan
        for i, (row, row_q) in enumerate(zip(evaluate(D, 1.0), evaluate(D, q)))
        for j, (a, aq) in enumerate(zip(row, row_q))
    )
    return {
        "q": q,
        "max_abs_deviation": dev,
        "exponent_vector": list(D.exponent_vector),
    }


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
    raises ValueError.  This is the independent solver of q_spectrum's actual side.
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


def q_spectrum(D: QDeformedCartan, q: float) -> dict:
    """Actual spectrum of A(q) next to the predicted {1+(lambda-2)sqrt(q)+q}.

    lambda runs over D.cartan_eigenvalues (jacobi_eigh on the symmetrized A);
    the actual spectrum comes from the general solver, so the two sides share
    no routine.
    """
    q = _check_q(q)
    predicted = tuple(sorted((complex(q_eigenvalue(lam, q)) for lam in D.cartan_eigenvalues),
                             key=lambda z: (z.real, z.imag)))
    actual = general_eigenvalues(evaluate(D, q))
    return {
        "q": q,
        "eigenvalues": actual,
        "predicted": predicted,
        "max_abs_deviation": max_abs(a - p for a, p in zip(actual, predicted)),
    }
