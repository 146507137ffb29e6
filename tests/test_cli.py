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

from coxlat import cli, gabrielov, ising, qdeform, spectral
from coxlat.cli import VERIFY_NAMES, main, run_verification, to_jsonable
from coxlat.rootsys import CATALOG_IDS, RootSystemId, cartan_matrix


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
    code, out = _run(capsys, "verify", "q-spectrum", "--tol", "1e-300")
    assert code == 1
    assert out.startswith("FAIL")


def test_verify_bad_tolerance_exits_2(capsys):
    # a tolerance that cannot gate anything is a usage error, not a failed check
    for tol in ("nan", "-1", "inf"):
        assert main(["verify", "steinberg", "--tol", tol]) == 2


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
]


def test_exact_verify_records_print_byte_for_byte(capsys):
    code, out = _run(capsys, "verify", "all")
    assert code == 0
    assert out.splitlines()[:len(EXACT_RECORD_LINES)] == EXACT_RECORD_LINES


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
    # finite levels whose band fit overflows: no CSV outlives the failed fit
    argv = ["ising", "--n", "2", "--J", "1e300", "--bands", "1", "--out", str(target)]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
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
         lambda real: lambda D, q: {**real(D, q), "max_abs_deviation": math.nan}),
        ("e8-eigvecs", spectral, "residual", lambda real: lambda *args: math.nan),
    ],
    ids=["q-spectrum", "e8-eigvecs"],
)
def test_nan_deviation_fails_the_check(monkeypatch, capsys, name, module, attr, fake):
    monkeypatch.setattr(module, attr, fake(getattr(module, attr)))
    [report] = run_verification(name)
    assert report["status"] == "fail"
    assert math.isnan(report["deviation"])
    # strict JSON has no NaN: the failed record prints with a null deviation
    capsys.readouterr()
    assert main(["verify", name, "--json"]) == 1
    assert _strict_loads(capsys.readouterr().out)["deviation"] is None


def test_q_spectrum_solves_each_cartan_matrix_once(monkeypatch):
    # the four grid points of a system read one Cartan solve of its record
    solved = []
    real = spectral.jacobi_eigh

    def counted(*args, **kwargs):
        solved.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(qdeform, "_CARTAN_EIGENVALUES", {})
    monkeypatch.setattr(spectral, "jacobi_eigh", counted)
    monkeypatch.setattr(qdeform, "jacobi_eigh", counted)
    [report] = run_verification("q-spectrum")
    assert report["status"] == "pass"
    assert len(solved) == len(cli.Q_SYSTEMS) == 13


@pytest.mark.parametrize("where", [0, 4, -1], ids=["first", "middle", "last"])
def test_nan_anywhere_makes_the_maximum_nan(monkeypatch, where):
    # Python's max([1.0, nan]) is 1.0: the float layer's maxima must not drop a NaN
    values = [1.0, 2.0, 3.0, 0.5, 4.0, 0.25, 2.5, 1.5, 3.5]
    values[where] = math.nan
    assert math.isnan(cli._worst(values))
    A = [[2.0 if i == j else 0.0 for j in range(len(values))] for i in range(len(values))]
    A[where][where] = math.nan
    assert math.isnan(spectral.residual(A, [1.0] * len(values), 2.0))
    D = qdeform.deform(cartan_matrix(RootSystemId("E", 8)))
    real = qdeform.evaluate
    rows = [list(r) for r in real(D, 2.0)]
    rows[where][where] = math.nan

    def evaluate(D, q):
        return rows if q == 2.0 else real(D, q)

    monkeypatch.setattr(qdeform, "evaluate", evaluate)
    assert math.isnan(qdeform.conjugation_certificate(D, 2.0)["max_abs_deviation"])


# `eigen X --q Q` at the ends of the float range: the systems that are served
# (exit 0); every other one exits 2 with EXTREME_Q_ERROR.  The deformed matrix
# or its certificate leaves the float range there, and nothing may crash.
EXTREME_Q_SERVED = {
    "5e-324": {"A1", "A2", "A3", "D4"},
    "1e-300": {"A1", "A2", "A3", "D4"},
    "1e-200": {"A1", "A2", "A3", "A4", "D4", "D5"},
    "1e-20": {str(rid) for rid in CATALOG_IDS},
    "1e20": {str(rid) for rid in CATALOG_IDS},
    "1e200": {"A1", "A2"},
    "1e300": {"A1"},
    "1.7e308": {"A1"},
}
EXTREME_Q_ERROR = "error: the result is not finite, so it has no strict JSON form"


@pytest.mark.parametrize("q", EXTREME_Q_SERVED)
@pytest.mark.parametrize("system", [str(rid) for rid in CATALOG_IDS])
def test_extreme_q_keeps_its_exit_codes(capsys, system, q):
    code = main(["eigen", system, "--q", q])
    captured = capsys.readouterr()
    if system in EXTREME_Q_SERVED[q]:
        assert code == 0 and captured.err == ""
        payload = _strict_loads(captured.out)
        assert len(payload["eigenvalues"]) == int(system[1:])
    else:
        assert code == 2 and captured.out == ""
        assert captured.err.splitlines() == [EXTREME_Q_ERROR]


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


def test_e6_repair_past_the_bfs_budget_fails(monkeypatch, capsys):
    monkeypatch.setattr(gabrielov, "BFS_MAX_NODES", 20)
    [report] = run_verification("e6-factorization")
    assert report["status"] == "fail"
    assert report["deviation"] > 0
    assert "repaired" not in report["details"]
    assert report["details"].endswith(
        "reference conjugator failed as written; repair search stopped at its budget "
        "of 20 group elements"
    )
    capsys.readouterr()
    assert main(["verify", "all", "--json"]) == 1
    reports = _strict_loads(capsys.readouterr().out)["reports"]
    assert [r["name"] for r in reports] == list(VERIFY_NAMES[:-1])
    assert [r["name"] for r in reports if r["status"] == "fail"] == ["e6-factorization"]


def test_e6_without_any_repair_word_fails(monkeypatch):
    # C_G = I is conjugate to no Coxeter element: the search covers all of W(E6)
    monkeypatch.setitem(gabrielov.JOINS, "E6",
                        gabrielov.JOINS["E6"]._replace(cg_word=()))
    [report] = run_verification("e6-factorization")
    assert report["status"] == "fail"
    assert report["details"].endswith(
        "reference conjugator failed as written; no word in W(E6) repairs it"
    )


def test_e6_repair_longer_than_the_limit_fails(monkeypatch):
    monkeypatch.setattr(cli, "REPAIR_MAX_LEN", 2)
    [report] = run_verification("e6-factorization")
    assert report["status"] == "fail"
    assert "repaired word [3, 1, 6]" in report["details"]


def test_broken_e8_conjugator_is_repaired_like_e6(monkeypatch):
    # the BFS repair belongs to no one join: any reference word that fails gets it
    e8 = gabrielov.JOINS["E8"]
    monkeypatch.setitem(gabrielov.JOINS, "E8",
                        e8._replace(conjugator_word=e8.conjugator_word[1:]))
    [report] = run_verification("e8-factorization")
    assert report["status"] == "pass"
    assert report["deviation"] == 0
    assert "w^{-1} C_BW w = C_G: fail; repaired w^{-1} C_BW w = C_G" in report["details"]
    assert report["details"].endswith(
        "reference conjugator failed as written; repaired word [3, 1, 6, 7, 8, 7]"
    )


def test_to_jsonable_exact_and_complex():
    big = 10**30
    assert to_jsonable(big) == big
    assert to_jsonable(1 + 2j) == [1.0, 2.0]
    # payloads hold Python scalars only: a numpy integer is refused, not converted
    with pytest.raises(TypeError):
        to_jsonable(np.int64(7))


def test_to_jsonable_refuses_records():
    # records are named tuples: only exact lists and tuples serialize as arrays
    for record in (RootSystemId("E", 8), spectral.cartan_spectrum(RootSystemId("A", 2))[0]):
        with pytest.raises(TypeError):
            to_jsonable(record)
        with pytest.raises(TypeError):
            to_jsonable({"payload": [record]})


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
