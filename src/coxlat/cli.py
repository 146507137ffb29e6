"""Command-line front end: catalog dumps, named verifications, spectra, Ising runs.

Exit codes: 0 = requested checks passed, 1 = a verification failed,
2 = usage/input error.  All verification output is deterministic
(fixed ordering, no timestamps).  JSON output is strict: a value that
would print as NaN or Infinity is an error (exit 2) instead.  Integer
identities are serialized as JSON integers (never through floating
point) and complex numbers as [re, im] pairs.

Importing this module loads only the standard library.  ``main`` parses
the request first; each command then imports the coxlat modules it uses,
and numpy with them.  A command other than ``ising`` factors nothing
larger than the 256 x 256 oracle of ``verify ising-symmetry`` (every
Cartan matrix has rank at most 8), where an OpenBLAS thread pool only
spins, so before numpy loads ``main`` defaults ``OPENBLAS_NUM_THREADS``
to 1.  ``ising`` blocks grow with N and keep the default pool.  A thread
count already set in the environment wins, and a caller that has loaded
numpy is left as it is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from .rootsys import RootSystemId

__all__ = ["main", "run_verification", "VERIFY_NAMES"]

Q_GRID = (0.25, 0.5, 2.0, 4.0)
Q_SYSTEMS = tuple(
    [f"A{n}" for n in range(1, 9)] + ["D4", "D5", "E6", "E7", "E8"]
)
# OpenBLAS reads the first of these that is set when numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def to_jsonable(x):
    """Recursive conversion to JSON-safe values with exact integers."""
    import numpy as np

    if isinstance(x, (bool, str)) or x is None:
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    if isinstance(x, np.ndarray):
        return [to_jsonable(row) for row in x]
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x)!r}")


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity raises ValueError (exit code 2)."""
    try:
        return json.dumps(to_jsonable(payload), indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("the result is not finite, so it has no strict JSON form") from None


EXACT_TOL = 0.0
GOLDEN_TOL = 1e-12
# a failed reference conjugator counts as repaired only by a word this short
REPAIR_MAX_LEN = 12


def _report(deviation: float, tolerance: float, details: str, ok: bool = True) -> dict:
    """A check record without its name, which run_verification puts first."""
    return {
        "status": "pass" if ok and deviation <= tolerance else "fail",
        "deviation": deviation,
        "tolerance": tolerance,
        "details": details,
    }


def _worst(deviations) -> float:
    """Largest deviation; a NaN anywhere makes the result NaN (which fails)."""
    import numpy as np

    return float(np.max(deviations))


def _verify_steinberg(tolerance: float) -> dict:
    from . import lattice, rootsys
    from .intmat import deviation, iidentity
    from .rootsys import CATALOG_IDS

    dev = 0
    for rid in CATALOG_IDS:
        A = rootsys.cartan_matrix(rid)
        C_B, C_W = lattice.steinberg_decomposition(A)
        I = iidentity(rid.rank)
        dev = max(
            dev,
            deviation(C_B + C_W, 2 * I - A),
            deviation(C_B @ C_B, I),
            deviation(C_W @ C_W, I),
        )
    return _report(
        float(dev),
        tolerance,
        f"C_B + C_W = 2I - A over {len(CATALOG_IDS)} systems (exact)",
    )


def _verify_factorization(fact: Callable, conj: Callable, tolerance: float) -> dict:
    _, deviations = fact()
    crep = conj()
    shown = {**deviations, **crep["deviations"]}
    parts = [f"{label}: {'pass' if dev == 0 else 'fail'}" for label, dev in shown.items()]
    # the conjugator identity graded is the one listed last: the reference
    # word as written, or the BFS repair that replaces it when it fails
    *_, conj_dev = crep["deviations"].values()
    word = crep.get("repaired_word")
    if word is not None:
        parts.append(f"reference conjugator failed as written; repaired word {word}")
    elif "repaired_word" in crep and conj_dev > 0:
        parts.append("reference conjugator failed as written; no repair word found")
    return _report(
        float(max(*deviations.values(), conj_dev)),
        tolerance,
        "; ".join(parts),
        ok=word is None or len(word) <= REPAIR_MAX_LEN,
    )


def _verify_gamma_alpha(tolerance: float) -> dict:
    from . import gabrielov
    from .intmat import deviation, iidentity
    from .rootsys import RootSystemId

    ids = [RootSystemId("A", 4), RootSystemId("A", 2), RootSystemId("A", 1)]
    A_star = gabrielov.join_cartan(ids)
    start = gabrielov.BasedLattice(A_star, iidentity(8))
    left = gabrielov.apply_word(start, gabrielov.GAMMA_SQUARE_WORD)
    right = gabrielov.apply_word(start, gabrielov.ALPHA1_SIX_WORD)
    return _report(
        float(deviation(left.basis, right.basis)),
        tolerance,
        "gamma2·gamma1 = alpha1^6 from the standard rank-8 basis (exact)",
    )


def _verify_root_image(tolerance: float) -> dict:
    from . import gabrielov

    count, all_norm_2 = gabrielov.root_image_count()
    return _report(
        float(abs(count - 60)),
        tolerance,
        f"240 root triples -> {count} distinct images, all norm 2: {all_norm_2}",
        ok=(count == 60 and all_norm_2),
    )


def _verify_eigvecs(rid: RootSystemId, a_range: int, builder: Callable, tolerance: float) -> dict:
    import numpy as np

    from . import rootsys, spectral

    A = np.array(rootsys.cartan_matrix(rid), dtype=float)
    h, exps = rootsys.exponents(rid)
    residuals = []
    lams = []
    for a in range(1, a_range + 1):
        for b in (1, 2):
            lam = spectral.eigenvalue_for_angles(a * math.pi / (a_range + 1), b * math.pi / 3)
            residuals.append(spectral.residual(A, builder(a, b), lam))
            lams.append(lam)
    worst = _worst(residuals)
    target = [4 * math.sin(k * math.pi / (2 * h)) ** 2 for k in exps]
    spec_dev = _worst([abs(l - t) for l, t in zip(sorted(lams), target)])
    return _report(
        _worst([worst, spec_dev]),
        tolerance,
        f"{len(lams)} closed-form vectors, worst residual {worst:.3e}, "
        f"eigenvalue-set deviation {spec_dev:.3e}",
    )


def _verify_pf(tolerance: float) -> dict:
    import numpy as np

    from . import rootsys, spectral
    from .rootsys import RootSystemId

    A = rootsys.cartan_matrix(RootSystemId("E", 8))
    v = np.sort(spectral.perron_frobenius(np.array(A, dtype=float)))
    zam = spectral.zamolodchikov_vector(1.0)
    dev_sorted = _worst(np.abs(v - zam))
    closed = spectral.pf_closed_form()
    dev_closed = _worst(np.abs(np.sort(closed) / np.min(closed) - zam))
    rounded = tuple(round(float(t), 2) for t in v)
    golden_err = abs(v[1] / v[0] - (1 + math.sqrt(5)) / 2)
    ok = rounded == (1.0, 1.62, 1.99, 2.40, 2.96, 3.22, 3.89, 4.78) and golden_err <= GOLDEN_TOL
    return _report(
        _worst([dev_sorted, dev_closed]),
        tolerance,
        f"sorted-vector deviation {dev_sorted:.3e}, closed-form deviation "
        f"{dev_closed:.3e}, rounds to {rounded}, golden-ratio error {golden_err:.3e}",
        ok=ok,
    )


def _q_grid_worst(measure: Callable) -> float:
    """Worst max_abs_deviation of measure(D, q) over Q_SYSTEMS x Q_GRID."""
    from . import qdeform, rootsys
    from .rootsys import RootSystemId

    deviations = []
    for name in Q_SYSTEMS:
        D = qdeform.deform(rootsys.cartan_matrix(RootSystemId.parse(name)))
        deviations += [measure(D, q)["max_abs_deviation"] for q in Q_GRID]
    return _worst(deviations)


def _verify_q_spectrum(tolerance: float) -> dict:
    from . import qdeform

    return _report(
        _q_grid_worst(qdeform.q_spectrum),
        tolerance,
        f"multiset law over {len(Q_SYSTEMS)} systems x q in {Q_GRID}",
    )


def _verify_q_certificate(tolerance: float) -> dict:
    from . import qdeform, rootsys
    from .rootsys import RootSystemId

    worst = _q_grid_worst(qdeform.conjugation_certificate)
    e8_exp = qdeform.deform(rootsys.cartan_matrix(RootSystemId("E", 8))).exponent_vector
    return _report(
        worst,
        tolerance,
        f"diagonal conjugation over {len(Q_SYSTEMS)} systems x q in {Q_GRID}; "
        f"E8 exponent vector {list(e8_exp)}",
        ok=e8_exp == (0, 1, 1, 2, 3, 4, 5, 6),
    )


def _verify_ising(tolerance: float) -> dict:
    import numpy as np

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
        H = ising.build_hamiltonian(params)
        T = ising.translation_operator(params.N).astype(float)
        deviations += [np.max(np.abs(H - H.T)), np.max(np.abs(T @ H - H @ T))]
    classical = ising.IsingParams(N=6, J=1.0, h_z=0.4, h_x=0.0)
    Hc = ising.build_hamiltonian(classical)
    deviations.append(np.max(np.abs(np.sort(np.diag(Hc)) - ising.classical_energies(classical))))
    return _report(
        _worst(deviations),
        tolerance,
        f"H symmetric, [H,T] = 0, classical diagonal matches brute force "
        f"({len(cases)} parameter sets, exact)",
    )


# the parser's choices, known without loading numpy; _verifiers() runs them
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
    "all",
)


def _verifiers() -> Dict[str, Tuple[Callable[[float], dict], float]]:
    """name -> (check, default tolerance), in VERIFY_NAMES order; a check's
    other conditions ignore --tol.  Each check reads module attributes when
    it runs, not when this table is built."""
    from . import gabrielov, qdeform, spectral
    from .rootsys import RootSystemId

    return {
        "steinberg": (_verify_steinberg, EXACT_TOL),
        "e8-factorization": (
            lambda tol: _verify_factorization(
                gabrielov.e8_factorization, gabrielov.conjugation_report_e8, tol
            ),
            EXACT_TOL,
        ),
        "e6-factorization": (
            lambda tol: _verify_factorization(
                gabrielov.e6_factorization, gabrielov.conjugation_report_e6, tol
            ),
            EXACT_TOL,
        ),
        "gamma-alpha": (_verify_gamma_alpha, EXACT_TOL),
        "root-image": (_verify_root_image, EXACT_TOL),
        "e8-eigvecs": (
            lambda tol: _verify_eigvecs(RootSystemId("E", 8), 4, spectral.e8_eigenvector, tol),
            spectral.IDENTITY_TOL,
        ),
        "e6-eigvecs": (
            lambda tol: _verify_eigvecs(RootSystemId("E", 6), 3, spectral.e6_eigenvector, tol),
            spectral.IDENTITY_TOL,
        ),
        "pf-zamolodchikov": (_verify_pf, spectral.IDENTITY_TOL),
        "q-spectrum": (_verify_q_spectrum, qdeform.Q_SPECTRUM_TOL),
        "q-certificate": (_verify_q_certificate, qdeform.CERTIFICATE_TOL),
        "ising-symmetry": (_verify_ising, EXACT_TOL),
    }


def run_verification(name: str, tol: Optional[float] = None) -> List[dict]:
    """Run one named verification (or all of them, in fixed order).

    ``tol`` replaces each check's default tolerance.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tolerance must be finite and non-negative")
    if name not in VERIFY_NAMES:
        raise ValueError(f"unknown verification {name!r}")
    verifiers = _verifiers()
    reports = []
    for n in verifiers if name == "all" else [name]:
        check, default = verifiers[n]
        reports.append({"name": n, **check(default if tol is None else tol)})
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
    data = rootsys.root_system(rid)
    if args.json:
        payload = {
            "system": str(rid),
            "rank": data.rank,
            "h": data.h,
            "exponents": list(data.exponents),
            "edges": [list(e) for e in data.edges],
            "coloring": {str(v): c for v, c in sorted(data.coloring.items())},
            "cartan": data.cartan,
        }
        print(_json_text(payload))
        return 0
    print(f"{rid}: rank {data.rank}, Coxeter number h = {data.h}")
    print(f"exponents: {list(data.exponents)}")
    print(f"edges: {list(data.edges)}")
    print(
        "coloring: "
        + ", ".join(f"{v}:{c[0].upper()}" for v, c in sorted(data.coloring.items()))
    )
    print("Cartan matrix:")
    for row in data.cartan:
        print("  [" + " ".join(f"{int(v):2d}" for v in row) + "]")
    return 0


def _cmd_verify(args) -> int:
    reports = run_verification(args.name, tol=args.tol)
    _print_reports(reports, args.json)
    return 0 if all(r["status"] == "pass" for r in reports) else 1


def _cmd_eigen(args) -> int:
    import numpy as np

    from . import qdeform, rootsys, spectral
    from .rootsys import RootSystemId

    rid = RootSystemId.parse(args.system)
    if args.q is None:
        pairs = spectral.cartan_spectrum(rid)
        if args.format == "csv":
            print("k,h,lambda")
            for p in pairs:
                print(f"{p.k},{p.h},{p.lam:.15g}")
        else:
            payload = [
                {
                    "k": p.k,
                    "h": p.h,
                    "lambda": p.lam,
                    "vector": [to_jsonable(complex(v)) for v in np.atleast_1d(p.vector)],
                    "residual": p.residual,
                }
                for p in pairs
            ]
            print(_json_text(payload))
        return 0
    D = qdeform.deform(rootsys.cartan_matrix(rid))
    spec = qdeform.q_spectrum(D, args.q)
    cert = qdeform.conjugation_certificate(D, args.q)
    h, exps = rootsys.exponents(rid)
    eigenvalues = [float(v.real) for v in np.atleast_1d(spec["eigenvalues"])]
    if args.format == "csv":
        print("k,h,lambda")
        for k, lam in zip(exps, eigenvalues):
            print(f"{k},{h},{lam:.15g}")
    else:
        payload = {
            "system": str(rid),
            "q": args.q,
            "eigenvalues": eigenvalues,
            "exponent_vector": list(D.exponent_vector),
            "certificate_deviation": cert["max_abs_deviation"],
        }
        print(_json_text(payload))
    return 0


def _cmd_ising(args) -> int:
    from . import ising

    params = ising.IsingParams(N=args.n, J=args.J, h_z=args.hz, h_x=args.hx)
    if args.bands and not args.out:
        raise ValueError("--bands requires --out (CSV goes to the file, fits to stdout)")
    levels = ising.momentum_spectrum(params)
    if not all(math.isfinite(level.epsilon) for level in levels):
        raise ValueError("the spectrum is not finite for these couplings")
    csv = "p,epsilon\n" + "".join(
        f"{level.p:.12g},{level.epsilon:.12g}\n" for level in levels
    )
    # fit and serialize first: a failed band fit must leave no CSV behind
    fit = _json_text(ising.dispersion_probe(params, args.bands)) if args.bands else None
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    if fit is not None:
        print(fit)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_is.add_argument("--bands", type=int, default=0, help="fit this many bands (JSON to stdout)")
    p_is.add_argument("--out", default=None, help="write the p,epsilon CSV here")
    p_is.set_defaults(func=_cmd_ising)
    return parser


def _default_blas_threads(command: str) -> None:
    """One OpenBLAS thread for every command but ``ising`` (module docstring).

    Only a process that has not loaded numpy yet, and whose environment
    names no thread count, is changed.
    """
    if command == "ising" or "numpy" in sys.modules:
        return
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _default_blas_threads(args.command)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
