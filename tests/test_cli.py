"""Command-line interface: exit codes, serialization, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from coxlat.cli import VERIFY_NAMES, main, run_verification, to_jsonable


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
    # the certificate overflows at q = 1e300; Infinity must never be printed
    code, out = _run(capsys, "eigen", "D4", "--q", "1e300")
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


def test_ising_bands_json(capsys):
    target = "/tmp/coxlat_test_disp.csv"
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


def test_to_jsonable_exact_and_complex():
    big = 10**30
    assert to_jsonable(big) == big
    assert to_jsonable(np.int64(7)) == 7
    assert to_jsonable(1 + 2j) == [1.0, 2.0]
    from fractions import Fraction

    assert to_jsonable(Fraction(1, 3)) == "1/3"
    arr = np.array([[2, -1], [-1, 2]], dtype=object)
    assert to_jsonable(arr) == [[2, -1], [-1, 2]]
