"""Command-line interface: exit codes, serialization, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat import cli, gabrielov, ising, lattice, qdeform, rootsys, spectral
from coxlat.cli import VERIFY_NAMES, main, run_verification
from coxlat.rootsys import CATALOG_IDS, RootSystemId

E8 = RootSystemId("E", 8)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_catalog_json_exact_integers(capsys):
    code, out = _run(capsys, "catalog", "A3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["system"] == "A3"
    assert payload["h"] == 4
    assert payload["exponents"] == [1, 2, 3]
    assert payload["cartan"] == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert all(isinstance(v, int) for row in payload["cartan"] for v in row)


def test_catalog_human_readable(capsys):
    code, out = _run(capsys, "catalog", "E6")
    assert code == 0
    assert "rank 6" in out and "h = 12" in out


def test_catalog_bad_system_exits_2(capsys):
    assert main(["catalog", "Z9"]) == 2


# an Arabic-Indic three and a fullwidth eight: only ASCII digits name a rank
@pytest.mark.parametrize("name", ["A٣", "E８"])
def test_catalog_non_ascii_rank_exits_2(capsys, name):
    assert main(["catalog", name]) == 2
    assert "cannot parse root system name" in capsys.readouterr().err


def test_systems_outside_the_catalog_exit_2(capsys):
    assert main(["catalog", "A9"]) == 2
    assert main(["eigen", "D9", "--q", "2.0"]) == 2
    assert "not in the catalog" in capsys.readouterr().err


def test_verify_names_cover_the_contract():
    assert VERIFY_NAMES == (
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


@pytest.mark.parametrize("name", ["steinberg", "gamma-alpha", "root-image"])
def test_verify_single_pass(capsys, name):
    code, out = _run(capsys, "verify", name)
    assert code == 0
    assert out.startswith("PASS")


def test_verify_unknown_name_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_json_report_shape(capsys):
    code, out = _run(capsys, "verify", "steinberg", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["name"] == "steinberg"
    assert rep["status"] == "pass"
    assert rep["deviation"] <= rep["tolerance"]


def test_verify_tolerance_override_flips_exit_code(capsys):
    # an impossible tolerance turns a passing float check into a failure
    code, out = _run(capsys, "verify", "e8-eigvecs", "--tol", "1e-300")
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_bad_tolerance_exits_2(capsys):
    # a tolerance that cannot gate anything is a usage error, not a failed check
    for tol in ("nan", "-1", "inf"):
        assert main(["verify", "steinberg", "--tol", tol]) == 2


def test_verify_negative_zero_tolerance_prints_as_zero(capsys):
    # -0.0 passes the nonnegative check, and prints exactly as --tol 0 does
    for flags in ([], ["--json"]):
        assert main(["verify", "steinberg", "--tol", "-0.0", *flags]) == 0
        negative = capsys.readouterr()
        assert main(["verify", "steinberg", "--tol", "0", *flags]) == 0
        assert negative == capsys.readouterr()
        assert "-0" not in negative.out


def test_verify_all_deterministic(capsys):
    code1, out1 = _run(capsys, "verify", "all", "--json")
    code2, out2 = _run(capsys, "verify", "all", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)["reports"]
    assert [r["name"] for r in reports] == list(VERIFY_NAMES[:-1])
    assert all(r["status"] == "pass" for r in reports)


# the text lines of the exact records in `coxlat verify all`, byte for byte
EXACT_RECORD_LINES = [
    "PASS steinberg            deviation=0.000e+00 tol=0.0e+00  "
    "C_B + C_W = 2I - A over 16 systems (exact)",
    "PASS e8-factorization     deviation=0.000e+00 tol=0.0e+00  "
    "G^t A_* G = A: pass; G^{-1} C_* G = C_G: pass; G = reference matrix: pass; "
    "w^{-1} C_BW w = C_G: pass",
    "PASS e6-factorization     deviation=0.000e+00 tol=0.0e+00  "
    "G^t A_* G = A: pass; G^{-1} C_* G = C_G: pass; G = reference matrix: pass; "
    "v^{-1} C_BW v = C_G: fail; repaired w^{-1} C_BW w = C_G (word [3, 1, 6]): pass; "
    "reference conjugator failed as written; repaired word [3, 1, 6]",
    "PASS gamma-alpha          deviation=0.000e+00 tol=0.0e+00  "
    "gamma2·gamma1 = alpha1^6 from the standard rank-8 basis (exact)",
    "PASS root-image           deviation=0.000e+00 tol=0.0e+00  "
    "240 root triples -> 60 distinct images, all norm 2: True",
    "PASS q-spectrum           deviation=0.000e+00 tol=0.0e+00  "
    "multiset law over 13 systems x q in (0.25, 0.5, 2.0, 4.0)",
    "PASS q-certificate        deviation=0.000e+00 tol=0.0e+00  "
    "diagonal conjugation over 13 systems x q in (0.25, 0.5, 2.0, 4.0); "
    "E8 exponent vector [0, 1, 1, 2, 3, 4, 5, 6]",
]


def test_exact_verify_records_print_byte_for_byte(capsys):
    code, out = _run(capsys, "verify", "all")
    assert code == 0
    names = [line.split()[1] for line in EXACT_RECORD_LINES]
    assert [line for line in out.splitlines() if line.split()[1] in names] == EXACT_RECORD_LINES


ISING_DETAILS = ("H symmetric, [H,T] = 0, classical diagonal matches brute force "
                 "(5 parameter sets, exact)")


def test_ising_symmetry_prints_byte_for_byte(capsys):
    code, out = _run(capsys, "verify", "ising-symmetry")
    assert code == 0
    assert out == f"PASS ising-symmetry       deviation=0.000e+00 tol=0.0e+00  {ISING_DETAILS}\n"
    code, out = _run(capsys, "verify", "ising-symmetry", "--json")
    assert code == 0
    assert out == (
        '{\n  "name": "ising-symmetry",\n  "status": "pass",\n  "deviation": 0.0,\n'
        f'  "tolerance": 0.0,\n  "details": "{ISING_DETAILS}"\n}}\n'
    )


def _break_symmetry_only(H, N):
    # lower row 0 on the whole T-orbit {(0, 2^n)} of (0, 1), not on its transpose
    for n in range(N):
        H[0, 1 << n] = H.get((0, 1 << n), 0.0) - 1.0


def _break_translation_only(H, N):
    # one flip amplitude changed on both sides: symmetric, but (0, 1) and (0, 2) now differ
    H[0, 1] = H[1, 0] = H.get((0, 1), 0.0) - 1.0


def _perturb_diagonal_only(H, N):
    # state 0 is its own T-orbit: symmetric and translation-invariant, only E(0) is off
    H[0, 0] += 0.5


@pytest.mark.parametrize("mutate", [_break_symmetry_only, _break_translation_only,
                                    _perturb_diagonal_only])
def test_ising_symmetry_fails_on_a_broken_entry(monkeypatch, capsys, mutate):
    # each mutation breaks exactly one of the three conditions the check grades
    real = ising.hamiltonian_entries

    def entries(params):
        H = real(params)
        mutate(H, params.N)
        return H

    monkeypatch.setattr(ising, "hamiltonian_entries", entries)
    [report] = run_verification("ising-symmetry")
    assert report["status"] == "fail"
    assert report["deviation"] > 0
    assert main(["verify", "ising-symmetry"]) == 1
    assert capsys.readouterr().out.startswith("FAIL ising-symmetry")


def test_run_verification_rejects_unknown():
    with pytest.raises(ValueError):
        run_verification("nope")


def test_eigen_json(capsys):
    code, out = _run(capsys, "eigen", "A2")
    assert code == 0
    rows = json.loads(out)
    assert [r["k"] for r in rows] == [1, 2]
    assert abs(rows[0]["lambda"] - 1.0) < 1e-12
    # vectors serialize as [re, im] pairs
    assert all(len(c) == 2 for r in rows for c in r["vector"])


def test_eigen_csv(capsys):
    code, out = _run(capsys, "eigen", "A2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,h,lambda"
    assert len(lines) == 3


def test_eigen_deformed(capsys):
    code, out = _run(capsys, "eigen", "A2", "--q", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["exponent_vector"] == [0, 1]
    assert abs(payload["eigenvalues"][0] - (3 - np.sqrt(2))) < 1e-12
    assert payload["certificate_deviation"] <= 1e-10


def test_eigen_nonpositive_q_exits_2(capsys):
    assert main(["eigen", "A2", "--q", "-1.0"]) == 2
    assert main(["eigen", "A2", "--q", "0.0"]) == 2
    assert main(["eigen", "A2", "--q", "inf"]) == 2
    assert main(["eigen", "A2", "--q", "nan"]) == 2


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# `eigen X --q Q` prints the law at the lambda that `eigen X` prints: one solve
# of the Cartan spectrum serves both, at every q, the ends of the float range included
@pytest.mark.parametrize("q", ["0.25", "2.0", "1e-300", "1.7e308"])
@pytest.mark.parametrize("system", [str(rid) for rid in CATALOG_IDS])
def test_eigen_q_prints_the_law_at_the_eigen_spectrum(capsys, system, q):
    code, out = _run(capsys, "eigen", system)
    assert code == 0
    rows = _strict_loads(out)
    law = [qdeform.q_eigenvalue(r["lambda"], float(q)) for r in rows]
    code, out = _run(capsys, "eigen", system, "--q", q)
    assert code == 0
    assert _strict_loads(out)["eigenvalues"] == law
    code, out = _run(capsys, "eigen", system, "--format", "csv")
    assert code == 0
    code, q_out = _run(capsys, "eigen", system, "--q", q, "--format", "csv")
    assert code == 0
    assert q_out.splitlines() == ["k,h,lambda"] + [
        f"{row.rsplit(',', 1)[0]},{lam:.15g}" for row, lam in zip(out.splitlines()[1:], law)]


def test_eigen_huge_q_is_strict_json_or_exits_2(capsys):
    # the certificate overflows at these q; Infinity must never be printed
    for system, q in (("D4", "1e300"), ("E8", "1e200")):
        code, out = _run(capsys, "eigen", system, "--q", q)
        if code == 0:
            _strict_loads(out)
        else:
            assert code == 2 and out == ""


def test_ising_csv_shape(capsys):
    code, out = _run(capsys, "ising", "--n", "3", "--hx", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,epsilon"
    assert len(lines) == 1 + 2**3


def test_ising_out_file(tmp_path, capsys):
    target = tmp_path / "levels.csv"
    code, out = _run(capsys, "ising", "--n", "4", "--hx", "2.0", "--out", str(target))
    assert code == 0
    assert out == ""  # CSV went to the file, nothing on stdout
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "p,epsilon"
    assert len(lines) == 17


def test_ising_bands_json(tmp_path, capsys):
    target = str(tmp_path / "disp.csv")
    code = main(["ising", "--n", "6", "--hx", "2.0", "--bands", "1", "--out", target])
    out = capsys.readouterr().out
    assert code == 0
    probe = json.loads(out)
    assert probe["exploratory"] is True
    assert len(probe["bands"]) == 1


def test_ising_bands_without_out_exits_2(capsys):
    assert main(["ising", "--n", "4", "--bands", "1"]) == 2


def test_ising_negative_bands_exits_2_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(params):
        raise AssertionError("momentum_spectrum ran for a rejected --bands")

    monkeypatch.setattr(ising, "momentum_spectrum", no_solve)
    target = tmp_path / "levels.csv"
    # the sign is the error reported, with --out or without it
    for out in (["--out", str(target)], []):
        assert main(["ising", "--n", "13", "--bands", "-1", *out]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: band_count must be nonnegative\n")
    assert not target.exists()


def test_ising_cap_exits_2(capsys):
    assert main(["ising", "--n", "15"]) == 2


def test_ising_nonfinite_field_exits_2(capsys):
    for flag, value in (("--hx", "nan"), ("--hz", "inf"), ("--J", "nan")):
        assert main(["ising", "--n", "4", flag, value]) == 2


def test_ising_nonfinite_levels_exit_2(tmp_path, capsys):
    # finite fields whose spectrum overflows: nothing is written
    target = tmp_path / "levels.csv"
    assert main(["ising", "--n", "2", "--hx", "1e308", "--out", str(target)]) == 2
    assert main(["ising", "--n", "2", "--hx", "1e308"]) == 2
    assert capsys.readouterr().out == ""
    assert not target.exists()
    # N = 2 has three k = 0 levels, so two gaps at most: no CSV outlives the
    # refused third
    argv = ["ising", "--n", "2", "--bands", "3", "--out", str(target)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 3 bands need 4 zero-momentum levels; N = 2 has 3\n"
    assert not target.exists()


def test_ising_near_max_couplings_are_served(capsys):
    # ||H||_inf <= N·(J + h_z + h_x) stays finite here, so H and its levels do
    for flags in (["--J", "1e307"], ["--hx", "1e300"]):
        assert main(["ising", "--n", "8", *flags]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2**8


def test_ising_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "levels.csv"
    for bands in ("0", "1"):
        assert main(["ising", "--n", "8", "--bands", bands, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error:") and str(target) in line


@pytest.mark.parametrize(
    "name, module, attr, fake",
    [
        ("q-spectrum", qdeform, "q_spectrum",
         lambda real: lambda D, q: math.nan),
        ("e8-eigvecs", spectral, "residual", lambda real: lambda *args: math.nan),
    ],
    ids=["q-spectrum", "e8-eigvecs"],
)
def test_nan_deviation_fails_the_check(monkeypatch, capsys, name, module, attr, fake):
    monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
    [report] = run_verification(name)
    assert report["status"] == "fail"
    assert math.isnan(report["deviation"])
    # no tolerance admits a NaN, however large
    [loose] = run_verification(name, tol=1e300)
    assert loose["status"] == "fail" and loose["tolerance"] == 1e300
    # strict JSON has no NaN: the failed record prints with a null deviation
    capsys.readouterr()
    assert main(["verify", name, "--json"]) == 1
    assert _strict_loads(capsys.readouterr().out)["deviation"] is None


@pytest.mark.parametrize("name", ["q-spectrum", "q-certificate"])
def test_q_checks_run_no_eigensolver(monkeypatch, name):
    # both q records grade integer identities proved once per record
    def no_solver(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(spectral, "jacobi_eigh", no_solver)
    [report] = run_verification(name)
    assert report["status"] == "pass"
    assert report["deviation"] == 0.0


def test_q_spectrum_fails_on_a_broken_record(monkeypatch, capsys):
    # a record whose L closes a cycle (see test_qdeform) fails the check
    records = dict(cli._q_records())
    L = [list(r) for r in records["E8"].L]
    L[7][0] += 1
    records["E8"] = records["E8"]._replace(L=tuple(map(tuple, L)))
    monkeypatch.setattr(cli, "_q_records", lambda: records)
    [report] = run_verification("q-spectrum")
    assert report["status"] == "fail" and report["deviation"] > 0
    assert main(["verify", "q-spectrum"]) == 1
    assert main(["verify", "q-certificate"]) == 1


@pytest.mark.parametrize("where", [0, 4, -1], ids=["first", "middle", "last"])
def test_nan_anywhere_makes_the_maximum_nan(where):
    # Python's max([1.0, nan]) is 1.0: the float layer's maxima must not drop a NaN
    values = [1.0, 2.0, 3.0, 0.5, 4.0, 0.25, 2.5, 1.5, 3.5]
    values[where] = math.nan
    assert math.isnan(cli._worst(values))
    A = [[2.0 if i == j else 0.0 for j in range(len(values))] for i in range(len(values))]
    A[where][where] = math.nan
    assert math.isnan(spectral.residual(A, [1.0] * len(values), 2.0))


def test_ising_symmetry_keeps_a_nan_entry_failing(monkeypatch):
    # dict == takes the same NaN object as equal to itself, so the equal-dict
    # fast path must not grade a NaN entry 0.0
    real = ising.hamiltonian_entries

    def with_nan(params):
        # only the symmetry cases (h_x > 0), so the classical diagonal stays clean
        entries = real(params)
        if params.h_x:
            entries[(0, 0)] = math.nan
        return entries

    monkeypatch.setattr(ising, "hamiltonian_entries", with_nan)
    [report] = run_verification("ising-symmetry")
    assert report["status"] == "fail"
    assert math.isnan(report["deviation"])


def test_entry_deviation_fast_path_and_fallback():
    H = {(0, 0): 1.0, (0, 1): -0.5, (1, 0): -0.5}
    assert cli._entry_deviation(H, dict(H)) == 0.0
    assert cli._entry_deviation(H, {**H, (1, 0): -0.25}) == 0.25
    assert cli._entry_deviation(H, {(0, 0): 1.0, (0, 1): -0.5}) == 0.5
    for bad in (math.nan, math.inf):
        X = {**H, (1, 1): bad}
        assert math.isnan(cli._entry_deviation(X, dict(X)))


# `eigen X --q Q` at the ends of the float range.  Every system is served:
# the printed values are the law's, 1 + (lambda-2)sqrt(q) + q, finite for every
# finite q > 0, and the certificate is exact, so nothing leaves the float range.
EXTREME_Q = ("5e-324", "1e-300", "1e-200", "1e-20", "1e20", "1e200", "1e300", "1.7e308")


@pytest.mark.parametrize("q", EXTREME_Q)
@pytest.mark.parametrize("system", [str(rid) for rid in CATALOG_IDS])
def test_extreme_q_keeps_its_exit_codes(capsys, system, q):
    code = main(["eigen", system, "--q", q])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    payload = _strict_loads(captured.out)
    assert len(payload["eigenvalues"]) == int(system[1:])
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"])
    assert payload["certificate_deviation"] == 0.0


def test_wrong_e8_word_fails_its_record(monkeypatch, capsys):
    # a failed Gram identity is a failed record, not an exception
    e8 = gabrielov.JOINS["E8"]
    monkeypatch.setitem(gabrielov.JOINS, "E8", e8._replace(word=e8.word[1:]))
    [report] = run_verification("e8-factorization")
    assert report["status"] == "fail"
    assert report["deviation"] > 0
    assert "G^t A_* G = A: fail" in report["details"]
    # --tol grades the factorization deviations like every other check
    [loose] = run_verification("e8-factorization", tol=report["deviation"])
    assert loose["status"] == "pass"
    capsys.readouterr()
    assert main(["verify", "all", "--json"]) == 1
    reports = _strict_loads(capsys.readouterr().out)["reports"]
    assert [r["name"] for r in reports] == list(VERIFY_NAMES[:-1])
    assert "e8-factorization" in {r["name"] for r in reports if r["status"] == "fail"}


def test_exact_e6_conjugator_needs_no_repair(monkeypatch):
    monkeypatch.setitem(gabrielov.JOINS, "E6",
                        gabrielov.JOINS["E6"]._replace(conjugator_word=(3, 1, 6)))
    [report] = run_verification("e6-factorization")
    assert report["status"] == "pass"
    assert report["deviation"] == 0
    assert "repaired" not in report["details"]
    assert report["details"].endswith("v^{-1} C_BW v = C_G: pass")


def test_e6_without_any_repair_word_fails(monkeypatch):
    # C_G = I is conjugate to no Coxeter element: the pinned word fails too
    monkeypatch.setitem(gabrielov.JOINS, "E6",
                        gabrielov.JOINS["E6"]._replace(cg_word=()))
    [report] = run_verification("e6-factorization")
    assert report["status"] == "fail"
    assert "repaired w^{-1} C_BW w = C_G (word [3, 1, 6]): fail" in report["details"]


def test_failed_e6_word_with_no_repair_word_fails_on_its_deviation(monkeypatch):
    # with no pinned repair word the failed written word is graded as it is
    monkeypatch.setitem(gabrielov.JOINS, "E6",
                        gabrielov.JOINS["E6"]._replace(repair_word=None))
    [report] = run_verification("e6-factorization")
    assert report["status"] == "fail"
    assert report["deviation"] > 0
    assert "repaired" not in report["details"]
    assert report["details"].endswith("v^{-1} C_BW v = C_G: fail")


def test_e6_repair_longer_than_the_limit_fails(monkeypatch):
    monkeypatch.setattr(cli, "REPAIR_MAX_LEN", 2)
    [report] = run_verification("e6-factorization")
    assert report["status"] == "fail"
    assert "repaired word [3, 1, 6]" in report["details"]


def test_to_jsonable_exact_and_complex():
    big = 10**30
    assert json.loads(cli._json_text(big)) == big
    assert json.loads(cli._json_text(1 + 2j)) == [1.0, 2.0]
    # payloads hold Python scalars only: a numpy integer is refused, not converted
    with pytest.raises(TypeError):
        cli._json_text(np.int64(7))


def test_join_exponent_arithmetic_is_graded(monkeypatch):
    # E8's exponent 7 misread as 9: A4*A2*A1 no longer adds up to it, E6's join still does
    exponents = rootsys.exponents

    def misread(*ids):
        h, exps = exponents(*ids)
        return (h, [9 if k == 7 else k for k in exps]) if ids == (E8,) else (h, exps)

    monkeypatch.setattr(rootsys, "exponents", misread)
    [e8] = run_verification("e8-factorization")
    [e6] = run_verification("e6-factorization")
    assert (e8["status"], e8["deviation"]) == ("fail", 0)
    assert e6["status"] == "pass"
    # a failed condition ignores the tolerance, however large
    [loose] = run_verification("e8-factorization", tol=1e300)
    assert (loose["status"], loose["tolerance"]) == ("fail", 1e300)


def test_e8_weight_row_is_graded(monkeypatch):
    # E8's normal form misread as E6's, x³ + y⁴ + z²: E8 then gets h = 12 and
    # E6's exponents.  The join A4*A2*A1 reads its own weights, and the E8
    # Cartan spectrum its own matrix, so both E8 records fail; E6's passes
    weights = rootsys._weights
    monkeypatch.setattr(
        rootsys, "_weights", lambda rid: ((1, 3), (1, 4), (1, 2)) if rid == E8 else weights(rid)
    )
    assert rootsys.exponents(E8) == (12, [1, 4, 5, 7, 8, 11])
    [factorization] = run_verification("e8-factorization")
    [eigvecs] = run_verification("e8-eigvecs")
    [e6] = run_verification("e6-factorization")
    assert (factorization["status"], eigvecs["status"]) == ("fail", "fail")
    assert e6["status"] == "pass"


def _bump_first(vector):
    return (vector[0] + 1, *vector[1:])


def _plus_one_in_reference_g(target):
    def plant(mp):
        j = gabrielov.JOINS[target]
        G = [list(row) for row in j.change_of_basis]
        G[0][0] += 1
        mp.setitem(gabrielov.JOINS, target, j._replace(change_of_basis=tuple(map(tuple, G))))
    return plant


def _patch(module, attr, mutate):
    """A plant that replaces module.attr by mutate(real)."""
    return lambda mp: mp.setattr(module, attr, mutate(getattr(module, attr)))


# one planted defect per record and the exact set of records that then fail.
# The L <-> U swap passes q-spectrum, and rightly: q·law(1/q) = law(q)
_PLANTED_DEFECTS = [
    ("coloring-all-white",
     _patch(lattice, "coloring", lambda real: lambda A: dict.fromkeys(real(A), "white")),
     {"steinberg", "e8-factorization", "e6-factorization"}),
    ("e8-reference-g", _plus_one_in_reference_g("E8"), {"e8-factorization"}),
    ("e6-reference-g", _plus_one_in_reference_g("E6"), {"e6-factorization"}),
    ("alpha1-six-word-short", _patch(gabrielov, "ALPHA1_SIX_WORD", lambda real: real[:-1]),
     {"gamma-alpha"}),
    ("e8-move-word-short",
     lambda mp: mp.setitem(gabrielov.JOINS, "E8", gabrielov.JOINS["E8"]._replace(
         word=gabrielov.JOINS["E8"].word[:-1])),
     {"e8-factorization", "root-image"}),
    ("a-n-root-dropped",
     _patch(gabrielov, "_contract_roots", lambda real: lambda rows, n: real(rows, n)[:-1]),
     {"root-image"}),
    ("e8-eigenvector-entry",
     _patch(spectral, "e8_eigenvector", lambda real: lambda a, b: _bump_first(real(a, b))),
     {"e8-eigvecs"}),
    ("e6-eigenvector-entry",
     _patch(spectral, "e6_eigenvector", lambda real: lambda a, b: _bump_first(real(a, b))),
     {"e6-eigvecs"}),
    ("m8-off",
     _patch(spectral, "zamolodchikov_vector", lambda real: lambda: (*real()[:7], real()[7] * 1.001)),
     {"pf-zamolodchikov"}),
    ("pf-entries-swapped",
     _patch(spectral, "pf_closed_form", lambda real: lambda: (real()[1], real()[0], *real()[2:])),
     {"pf-zamolodchikov"}),
    ("law-constant-term",
     _patch(qdeform, "char_poly", lambda real: lambda M: [*real(M)[:-1], real(M)[-1] + 1]),
     {"q-spectrum"}),
    ("last-tree-level",
     _patch(qdeform, "tree_levels", lambda real: lambda A: (*real(A)[:-1], real(A)[-1] + 1)),
     {"q-certificate"}),
    ("l-u-swapped",
     _patch(qdeform, "deform", lambda real: lambda A: real(A)._replace(L=real(A).U, U=real(A).L)),
     {"q-certificate"}),
    ("classical-energies",
     _patch(ising, "classical_energies", lambda real: lambda p: [e + 1e-3 for e in real(p)]),
     {"ising-symmetry"}),
]


@pytest.fixture
def fresh_q_proofs():
    # the q records and their proofs are cached per process: a plant must reach them
    caches = (cli._q_records, qdeform._law_deviation, qdeform._certificate_deviation)
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


@pytest.mark.parametrize("plant, failing", [row[1:] for row in _PLANTED_DEFECTS],
                         ids=[row[0] for row in _PLANTED_DEFECTS])
def test_each_record_fails_on_its_planted_defect(monkeypatch, fresh_q_proofs, plant, failing):
    plant(monkeypatch)
    reports = run_verification("all")
    assert {r["name"] for r in reports if r["status"] == "fail"} == failing


def test_every_record_has_a_planted_defect():
    planted = set().union(*(failing for *_, failing in _PLANTED_DEFECTS))
    assert planted == set(VERIFY_NAMES[:-1])


_SYSTEMS = st.sampled_from(
    [str(rid) for rid in CATALOG_IDS] + ["Z9", "A0", "e8", "A9", "D9", "A100000"]
)
_NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 1e308, 5e-324]),
    st.floats(),
)
_JSON_FLAG = st.sampled_from([[], ["--json"]])


def _opt(flag, value):
    # the --flag=value form keeps argparse from reading "-1e+300" as an option
    return [f"{flag}={value!r}"]


_CATALOG = st.tuples(_SYSTEMS, _JSON_FLAG).map(lambda t: ["catalog", t[0], *t[1]])
_EIGEN = st.tuples(
    _SYSTEMS,
    st.one_of(st.just([]), _NUMBERS.map(lambda q: _opt("--q", q))),
    st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]),
).map(lambda t: ["eigen", t[0], *t[1], *t[2]])
_VERIFY = st.tuples(
    st.sampled_from(VERIFY_NAMES + ("bogus",)),
    st.one_of(st.just([]), _NUMBERS.map(lambda tol: _opt("--tol", tol))),
    _JSON_FLAG,
).map(lambda t: ["verify", t[0], *t[1], *t[2]])
_ISING = st.tuples(
    st.integers(min_value=-1, max_value=9),  # N >= 10 is too slow for a fuzz
    st.lists(
        st.tuples(st.sampled_from(["--J", "--hx", "--hz"]), _NUMBERS), max_size=3
    ),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
)


def _outcome(argv):
    """(exit code, stdout) of main(argv); only SystemExit may escape main."""
    out = io.StringIO()
    quiet = contextlib.redirect_stderr(io.StringIO())
    with contextlib.redirect_stdout(out), quiet, np.errstate(all="ignore"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    return code, out.getvalue()


def _assert_finite_csv(text, header):
    lines = text.splitlines()
    assert lines[0] == header
    for line in lines[1:]:
        assert all(math.isfinite(float(v)) for v in line.split(",")), line


_FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


@_FUZZ
@given(argv=st.one_of(_CATALOG, _EIGEN))
def test_fuzz_catalog_and_eigen(argv):
    code, out = _outcome(argv)
    if code == 2 or argv[0] == "catalog" and "--json" not in argv:
        return
    if "csv" in argv:
        _assert_finite_csv(out, "k,h,lambda")
    else:
        _strict_loads(out)


@settings(_FUZZ, max_examples=25)
@given(argv=_VERIFY)
def test_fuzz_verify(argv):
    code, out = _outcome(argv)
    if code != 2 and "--json" in argv:
        _strict_loads(out)


@settings(_FUZZ, max_examples=40)
@given(case=_ISING)
def test_fuzz_ising(case):
    n, fields, bands, to_file = case
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "levels.csv"
        argv = ["ising", f"--n={n}"] + [a for f, v in fields for a in _opt(f, v)]
        argv += [f"--bands={bands}"] + (["--out", str(target)] if to_file else [])
        code, out = _outcome(argv)
        if code == 2:
            return
        csv = target.read_text() if to_file else out
        _assert_finite_csv(csv, "p,epsilon")
        if bands:
            _strict_loads(out)
