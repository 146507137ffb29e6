"""Command-line front end: catalog dumps, named verifications, spectra, Ising runs.

Exit codes: 0 = requested checks passed, 1 = a verification failed,
2 = usage/input error or a failed write to stdout.  All verification
output is deterministic (fixed ordering, no timestamps).  JSON output is
strict: a value that would print as NaN or Infinity is an error (exit 2)
instead.  Integer identities are serialized as JSON integers (never
through floating point) and complex numbers as [re, im] pairs.

Importing this module loads only the standard library.  ``main`` parses
the request first; each command then imports the coxlat modules it uses.
The exact layer (intmat, rootsys, lattice, gabrielov) runs on Python ints,
the rank-8 float layer (spectral, qdeform) on Python floats, and
``verify ising-symmetry`` reads the entries of the Ising Hamiltonian as a
dict.  ``verify q-spectrum`` and ``verify q-certificate`` solve nothing:
qdeform proves both identities once per system, in integers, for every
q > 0, and ``eigen --q`` prints the law's values.  So only ``ising``, which
solves the momentum blocks, loads numpy
(the ``ising`` extra; without it, ``ising`` exits 2).  The records are
named tuples, so no command loads ``dataclasses``, and only ``ising``
(through numpy) loads the ``inspect``, ``ast`` and ``dis`` that it imports.

``ising`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy loads, whatever is
preset, so every solve runs on one LAPACK thread and prints the same bytes.

A ``coxlat`` process (``main()`` with no ``argv``, as the console script and
``python -m coxlat.cli`` call it) ends with ``os._exit`` once its output is
flushed, so it skips the interpreter's teardown.  Callers that pass ``argv``
get the exit code back.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial
from typing import Callable, Dict, List, Optional

__all__ = ["main", "run_verification", "VERIFY_NAMES"]

Q_GRID = (0.25, 0.5, 2.0, 4.0)
Q_SYSTEMS = tuple(
    [f"A{n}" for n in range(1, 9)] + ["D4", "D5", "E6", "E7", "E8"]
)


def _complex_pair(x):
    """json.dumps's hook for what it cannot write: a complex number as [re, im]."""
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"cannot serialize {type(x)!r}")


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity raises ValueError (exit code 2), and a
    numpy integer or array or a set raises TypeError from _complex_pair."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False, default=_complex_pair)
    except ValueError:
        raise ValueError("the result is not finite, so it has no strict JSON form") from None


EXACT_TOL = 0.0
GOLDEN_TOL = 1e-12
# a failed reference conjugator counts as repaired only by a word this short
REPAIR_MAX_LEN = 12


def _worst(deviations) -> float:
    """Largest deviation; a NaN at any position makes the result NaN (which fails)."""
    return float(max(deviations, key=lambda d: (math.isnan(d), d)))


def _verify_steinberg() -> tuple:
    from . import lattice, rootsys
    from .intmat import add, deviation, iidentity, matmul
    from .rootsys import CATALOG_IDS

    dev = 0
    for rid in CATALOG_IDS:
        A = rootsys.cartan_matrix(rid)
        C_B, C_W = lattice.steinberg_decomposition(A)
        I = iidentity(rid.rank)
        dev = max(
            dev,
            deviation(add(C_B, C_W), add(add(I, I), A, -1)),
            deviation(matmul(C_B, C_B), I),
            deviation(matmul(C_W, C_W), I),
        )
    return float(dev), EXACT_TOL, f"C_B + C_W = 2I - A over {len(CATALOG_IDS)} systems (exact)"


def _verify_factorization(target: str) -> tuple:
    """The e8- or e6-factorization record; target is "E8" or "E6"."""
    from . import gabrielov, rootsys

    factorization = {"E8": gabrielov.e8_factorization, "E6": gabrielov.e6_factorization}
    _, deviations = factorization[target]()
    conjugation = gabrielov.conjugation_report(target)
    parts = [f"{label}: {'pass' if dev == 0 else 'fail'}"
             for label, dev in {**deviations, **conjugation}.items()]
    # the conjugator identity graded is the one listed last: the reference
    # word as written, or the join's pinned repair word when that fails
    *_, conj_dev = conjugation.values()
    j = gabrielov.JOINS[target]
    word = list(j.repair_word) if len(conjugation) > 1 else None
    if word is not None:
        parts.append(f"reference conjugator failed as written; repaired word {word}")
    # Sebastiani–Thom: the exponents of the factors add up to those of the target
    return (float(max(*deviations.values(), conj_dev)), EXACT_TOL, "; ".join(parts),
            word is None or len(word) <= REPAIR_MAX_LEN,
            rootsys.exponents(*j.factors) == rootsys.exponents(j.target))


def _verify_gamma_alpha() -> tuple:
    from . import gabrielov
    from .intmat import deviation, iidentity

    A_star = gabrielov.join_cartan(gabrielov.JOINS["E8"].factors)
    start = gabrielov.BasedLattice(A_star, iidentity(len(A_star)))
    left = gabrielov.apply_word(start, gabrielov.GAMMA_SQUARE_WORD)
    right = gabrielov.apply_word(start, gabrielov.ALPHA1_SIX_WORD)
    return (float(deviation(left.basis, right.basis)), EXACT_TOL,
            f"gamma2·gamma1 = alpha1^6 from the standard rank-{len(A_star)} basis (exact)")


def _verify_root_image() -> tuple:
    from . import gabrielov

    count, all_norm_2 = gabrielov.root_image_count()
    return (float(abs(count - 60)), EXACT_TOL,
            f"240 root triples -> {count} distinct images, all norm 2: {all_norm_2}",
            count == 60, all_norm_2)


def _cartan_law(k: int, h: int) -> float:
    """The Cartan eigenvalue 4·sin²(kπ/2h) of exponent k, Coxeter number h."""
    return 4 * math.sin(k * math.pi / (2 * h)) ** 2


def _verify_eigvecs(system: str, a_range: int) -> tuple:
    """The closed-form eigenvectors of system ("E8" or "E6"), a in 1..a_range."""
    from . import rootsys, spectral

    rid = rootsys.RootSystemId.parse(system)
    closed_form = {"E8": spectral.e8_eigenvector, "E6": spectral.e6_eigenvector}[system]
    A = rootsys.cartan_matrix(rid)
    h, exps = rootsys.exponents(rid)
    residuals = []
    lams = []
    for a in range(1, a_range + 1):
        for b in (1, 2):
            lam = spectral.eigenvalue_for_angles(a * math.pi / (a_range + 1), b * math.pi / 3)
            residuals.append(spectral.residual(A, closed_form(a, b), lam))
            lams.append(lam)
    worst = _worst(residuals)
    target = [_cartan_law(k, h) for k in exps]
    spec_dev = _worst([abs(l - t) for l, t in zip(sorted(lams), target)])
    return (_worst([worst, spec_dev]), spectral.IDENTITY_TOL,
            f"{len(lams)} closed-form vectors, worst residual {worst:.3e}, "
            f"eigenvalue-set deviation {spec_dev:.3e}")


def _verify_pf() -> tuple:
    from . import rootsys, spectral
    from .rootsys import RootSystemId

    rid = RootSystemId("E", 8)
    A = rootsys.cartan_matrix(rid)
    v = sorted(spectral.perron_frobenius(A))
    zam = spectral.zamolodchikov_vector()
    dev_sorted = _worst([abs(a - z) for a, z in zip(v, zam)])
    closed = sorted(spectral.pf_closed_form())
    dev_closed = _worst([abs(c / closed[0] - z) for c, z in zip(closed, zam)])
    rounded = tuple(round(t, 2) for t in v)
    golden_err = abs(v[1] / v[0] - (1 + math.sqrt(5)) / 2)
    # the closed form in vertex order is the PF eigenvector, for exponent 1
    h, _ = rootsys.exponents(rid)
    pf_residual = spectral.residual(A, spectral.pf_closed_form(), _cartan_law(1, h))
    return (_worst([dev_sorted, dev_closed]), spectral.IDENTITY_TOL,
            f"sorted-vector deviation {dev_sorted:.3e}, closed-form deviation "
            f"{dev_closed:.3e}, rounds to {rounded}, golden-ratio error {golden_err:.3e}",
            rounded == (1.0, 1.62, 1.99, 2.40, 2.96, 3.22, 3.89, 4.78),
            golden_err <= GOLDEN_TOL, pf_residual <= spectral.IDENTITY_TOL)


@cache
def _q_records() -> dict:
    """The deformed record of each of Q_SYSTEMS, shared by the two q checks."""
    from . import qdeform, rootsys
    from .rootsys import RootSystemId

    return {name: qdeform.deform(rootsys.cartan_matrix(RootSystemId.parse(name)))
            for name in Q_SYSTEMS}


def _q_grid_worst(measure: Callable) -> float:
    """Worst deviation measure(D, q) over Q_SYSTEMS x Q_GRID."""
    return _worst([measure(D, q) for D in _q_records().values() for q in Q_GRID])


def _verify_q_spectrum() -> tuple:
    from . import qdeform

    return (_q_grid_worst(qdeform.q_spectrum), EXACT_TOL,
            f"multiset law over {len(Q_SYSTEMS)} systems x q in {Q_GRID}")


def _verify_q_certificate() -> tuple:
    from . import qdeform

    worst = _q_grid_worst(qdeform.conjugation_certificate)
    e8_exp = _q_records()["E8"].exponent_vector
    return (worst, EXACT_TOL,
            f"diagonal conjugation over {len(Q_SYSTEMS)} systems x q in {Q_GRID}; "
            f"E8 exponent vector {list(e8_exp)}",
            e8_exp == (0, 1, 1, 2, 3, 4, 5, 6))


def _entry_deviation(X: dict, Y: dict) -> float:
    """max |X - Y| over the union of the keys of two sparse matrices, a missing
    key read as 0.0.  Equal finite matrices give 0.0 at once; the finiteness
    test keeps a NaN or inf entry failing, which dict == passes when both sides
    hold the same float object."""
    if X == Y and all(map(math.isfinite, X.values())):
        return 0.0
    return _worst([abs(X.get(key, 0.0) - Y.get(key, 0.0)) for key in X.keys() | Y.keys()])


def _verify_ising() -> tuple:
    from . import ising

    deviations = []
    cases = [
        ising.IsingParams(N=2, J=1.0, h_z=0.0, h_x=0.0),
        ising.IsingParams(N=3, J=1.0, h_z=0.3, h_x=0.7),
        ising.IsingParams(N=4, J=2.0, h_z=0.5, h_x=1.3),
        ising.IsingParams(N=6, J=1.0, h_z=0.0, h_x=0.5),
        ising.IsingParams(N=8, J=1.0, h_z=0.25, h_x=1.0),
    ]
    for params in cases:
        H = ising.hamiltonian_entries(params)
        # T sends state b to perm[b], so T·H·T^-1 has H[b, c] at (perm[b], perm[c])
        perm = [ising._rotl(b, params.N) for b in range(1 << params.N)]
        deviations += [
            _entry_deviation(H, {(c, r): v for (r, c), v in H.items()}),
            _entry_deviation(H, {(perm[r], perm[c]): v for (r, c), v in H.items()}),
        ]
    classical = ising.IsingParams(N=6, J=1.0, h_z=0.4, h_x=0.0)
    Hc = ising.hamiltonian_entries(classical)
    diagonal = sorted(Hc.get((s, s), 0.0) for s in range(1 << classical.N))
    deviations.append(
        _worst([abs(d - e) for d, e in zip(diagonal, ising.classical_energies(classical))]))
    return (_worst(deviations), EXACT_TOL,
            f"H symmetric, [H,T] = 0, classical diagonal matches brute force "
            f"({len(cases)} parameter sets, exact)")


# name -> check, in run order.  A check imports the modules it runs when it
# runs, and none loads numpy.  It grades nothing: it returns what it measured,
# (deviation, default tolerance, details, *conditions), and run_verification
# grades that.
_CHECKS: Dict[str, Callable[[], tuple]] = {
    "steinberg": _verify_steinberg,
    "e8-factorization": partial(_verify_factorization, "E8"),
    "e6-factorization": partial(_verify_factorization, "E6"),
    "gamma-alpha": _verify_gamma_alpha,
    "root-image": _verify_root_image,
    "e8-eigvecs": partial(_verify_eigvecs, "E8", 4),
    "e6-eigvecs": partial(_verify_eigvecs, "E6", 3),
    "pf-zamolodchikov": _verify_pf,
    "q-spectrum": _verify_q_spectrum,
    "q-certificate": _verify_q_certificate,
    "ising-symmetry": _verify_ising,
}
VERIFY_NAMES = (*_CHECKS, "all")


def run_verification(name: str, tol: Optional[float] = None) -> List[dict]:
    """Run one named verification (or all of them, in fixed order) and grade it.

    A record passes when every condition of its check holds and its
    deviation is at most its tolerance (so a NaN deviation fails): ``tol``
    when given, else the check's default.  ``tol`` moves no other condition.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    if tol is not None:
        tol += 0.0  # -0.0 + 0.0 is +0.0, so a zero tolerance prints without a sign
    if name not in VERIFY_NAMES:
        raise ValueError(f"unknown verification {name!r}")
    reports = []
    for n in _CHECKS if name == "all" else [name]:
        deviation, default, details, *conditions = _CHECKS[n]()
        tolerance = default if tol is None else tol
        status = "pass" if all(conditions) and deviation <= tolerance else "fail"
        reports.append({"name": n, "status": status, "deviation": deviation,
                        "tolerance": tolerance, "details": details})
    return reports


def _print_reports(reports: List[dict], as_json: bool) -> None:
    if as_json:
        # strict JSON has no NaN: a non-finite deviation (a failed check) prints as null
        reports = [r if math.isfinite(r["deviation"]) else {**r, "deviation": None}
                   for r in reports]
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        print(_json_text(payload))
        return
    for r in reports:
        print(
            f"{r['status'].upper():4s} {r['name']:20s} "
            f"deviation={r['deviation']:.3e} tol={r['tolerance']:.1e}  {r['details']}"
        )


def _cmd_catalog(args) -> int:
    from . import rootsys
    from .rootsys import RootSystemId

    rid = RootSystemId.parse(args.system)
    h, exps = rootsys.exponents(rid)
    edges = rootsys.dynkin_edges(rid)
    A = rootsys.cartan_matrix(rid)
    colors = sorted(rootsys.coloring(A).items())
    if args.json:
        payload = {
            "system": str(rid),
            "rank": rid.rank,
            "h": h,
            "exponents": exps,
            "edges": [list(e) for e in edges],
            "coloring": {str(v): c for v, c in colors},
            "cartan": A,
        }
        print(_json_text(payload))
        return 0
    print(f"{rid}: rank {rid.rank}, Coxeter number h = {h}")
    print(f"exponents: {exps}")
    print(f"edges: {edges}")
    print("coloring: " + ", ".join(f"{v}:{c[0].upper()}" for v, c in colors))
    print("Cartan matrix:")
    for row in A:
        print("  [" + " ".join(f"{v:2d}" for v in row) + "]")
    return 0


def _cmd_verify(args) -> int:
    reports = run_verification(args.name, tol=args.tol)
    _print_reports(reports, args.json)
    return 0 if all(r["status"] == "pass" for r in reports) else 1


def _cmd_eigen(args) -> int:
    from . import rootsys, spectral
    from .rootsys import RootSystemId

    rid = RootSystemId.parse(args.system)
    if args.q is not None:
        from . import qdeform

        D = qdeform.deform(rootsys.cartan_matrix(rid))
        cert = qdeform.conjugation_certificate(D, args.q)  # rejects a bad q first
    pairs = spectral.cartan_spectrum(rid)
    # under --q the law's values, ascending as the eigenvalues of A are
    lams = [p.lam if args.q is None else qdeform.q_eigenvalue(p.lam, args.q) for p in pairs]
    if args.format == "csv":
        print("k,h,lambda")
        for p, lam in zip(pairs, lams):
            print(f"{p.k},{p.h},{lam:.15g}")
        return 0
    if args.q is None:
        payload = [
            {
                "k": p.k,
                "h": p.h,
                "lambda": p.lam,
                "vector": [complex(v) for v in p.vector],
                "residual": p.residual,
            }
            for p in pairs
        ]
    else:
        payload = {
            "system": str(rid),
            "q": args.q,
            "eigenvalues": lams,
            "exponent_vector": list(D.exponent_vector),
            "certificate_deviation": cert,
        }
    print(_json_text(payload))
    return 0


def _cmd_ising(args) -> int:
    from . import ising

    params = ising.IsingParams(N=args.n, J=args.J, h_z=args.hz, h_x=args.hx)
    if args.bands < 0:  # rejected before the solve, not after it
        raise ValueError("band_count must be nonnegative")
    if args.bands and not args.out:
        raise ValueError("--bands requires --out (CSV goes to the file, masses to stdout)")
    # OpenBLAS reads its thread count once, when numpy loads, and reads this
    # variable before GOTO_NUM_THREADS and OMP_NUM_THREADS: a pool's threads
    # round differently, so one thread keeps the bytes the same everywhere
    if "numpy" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        levels = ising.momentum_spectrum(params)
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ValueError(
            "ising needs numpy: install the ising extra (pip install 'coxlat[ising]')"
        ) from None
    if not all(math.isfinite(level.epsilon) for level in levels):
        raise ValueError("the spectrum is not finite for these couplings")
    csv = "p,epsilon\n" + "".join(
        f"{level.p:.12g},{level.epsilon:.12g}\n" for level in levels
    )
    # read and serialize the masses first: too few k = 0 levels leave no CSV behind
    masses = _json_text(ising.dispersion_probe(params, args.bands)) if args.bands else None
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(csv)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(csv)
    if masses is not None:
        print(masses)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse drops a failed write of --help; here it raises, so main exits 2
    def print_help(self, file=None):
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coxlat",
        description="Root-lattice Coxeter toolkit: catalog, verifications, spectra, Ising chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="print Cartan matrix, exponents, coloring")
    p_cat.add_argument("system", help="root system name, e.g. A4, D5, E8")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(func=_cmd_catalog)

    p_ver = sub.add_parser("verify", help="run a named identity verification")
    p_ver.add_argument("name", choices=VERIFY_NAMES)
    p_ver.add_argument("--json", action="store_true")
    p_ver.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the check's default tolerance (affects exit code)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_eig = sub.add_parser("eigen", help="spectrum of a catalog Cartan matrix")
    p_eig.add_argument("system")
    p_eig.add_argument("--q", type=float, default=None, help="positive deformation parameter")
    p_eig.add_argument("--format", choices=("json", "csv"), default="json")
    p_eig.set_defaults(func=_cmd_eigen)

    p_is = sub.add_parser("ising", help="momentum-resolved Ising spectrum export")
    p_is.add_argument("--n", type=int, required=True)
    p_is.add_argument("--J", type=float, default=1.0)
    p_is.add_argument("--hx", type=float, default=0.0)
    p_is.add_argument("--hz", type=float, default=0.0)
    p_is.add_argument("--bands", type=int, default=0,
                      help="print this many zero-momentum gaps (JSON to stdout)")
    p_is.add_argument("--out", default=None, help="write the p,epsilon CSV here")
    p_is.set_defaults(func=_cmd_ising)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:  # every command raises it before it writes to stdout
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:  # stdout is full or its reader has gone
        print(f"error: cannot write to stdout: {exc.strerror}", file=sys.stderr)
        code = 2
    if argv is None:
        # the last flush: teardown would flush a failed stdout again and walk
        # the heap, and every file is closed already
        sys.stderr.flush()
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
