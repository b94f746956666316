"""Command-line interface: payload shapes, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from wedgegroup import make_boost, make_rotation, matrix_units
from wedgegroup.cli import main


def run_cli(args, stdin_data=None, capsys=None):
    """Invoke main() in-process; returns (exit_code, parsed_stdout, stderr)."""
    if stdin_data is not None:
        import io

        old = sys.stdin
        sys.stdin = io.StringIO(stdin_data)
        try:
            code = main(args)
        finally:
            sys.stdin = old
    else:
        code = main(args)
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def lorentz_json(m):
    return json.dumps([float(v) for v in np.asarray(m).ravel()])


def test_polar_identity(capsys):
    code, doc, _ = run_cli(["polar"], stdin_data=lorentz_json(np.eye(4)), capsys=capsys)
    assert code == 0
    assert doc["status"] == "ok"
    payload = doc["payload"]
    assert payload["angle"] == 0 and payload["rapidity"] == 0
    assert payload["axis"] is None and payload["boost_dir"] is None
    assert payload["residual"] <= 1e-15


def test_polar_boost(capsys):
    m = make_boost([1, 0, 0], 1.0).m
    code, doc, _ = run_cli(["polar"], stdin_data=lorentz_json(m), capsys=capsys)
    assert code == 0
    payload = doc["payload"]
    assert abs(payload["rapidity"] - 1.0) <= 1e-12
    assert np.allclose(payload["boost_dir"], [1, 0, 0], atol=1e-12)
    assert np.allclose(payload["B"], m.ravel(), atol=1e-12)
    assert np.allclose(payload["R"], np.eye(4).ravel(), atol=1e-12)


def test_polar_malformed_json(capsys):
    code, doc, err = run_cli(["polar"], stdin_data="{not json", capsys=capsys)
    assert code == 2
    assert doc["status"] == "error"
    assert "invalid input" in err


def test_polar_wrong_shape(capsys):
    code, doc, _ = run_cli(["polar"], stdin_data="[1, 2, 3]", capsys=capsys)
    assert code == 2
    assert doc["status"] == "error"


def test_factor_identity(capsys):
    code, doc, _ = run_cli(["factor"], stdin_data=lorentz_json(np.eye(4)), capsys=capsys)
    assert code == 0
    refl = doc["payload"]["reflections"]
    assert len(refl) == 2 and refl[0] == refl[1]
    m = np.asarray(refl[0]["matrix"]).reshape(4, 4)
    assert np.allclose(m, np.diag([-1.0, -1.0, 1.0, 1.0]))
    assert doc["payload"]["residual"] <= 1e-15


def test_factor_random(capsys):
    code, doc, _ = run_cli(["factor", "--random", "--seed", "7"], capsys=capsys)
    assert code == 0
    assert doc["payload"]["residual"] <= 1e-9
    assert len(doc["payload"]["reflections"]) == 2


def test_factor_rejects_antichronous(capsys):
    m = np.diag([-1.0, 1.0, 1.0, -1.0])
    code, doc, _ = run_cli(["factor"], stdin_data=lorentz_json(m), capsys=capsys)
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] == "NotOrthochronous"


def test_reconstruct_tautological(capsys):
    spec = json.dumps({"kind": "tautological"})
    code, doc, _ = run_cli(
        ["reconstruct", "--samples", "100", "--seed", "3"], stdin_data=spec, capsys=capsys
    )
    assert code == 0
    assert doc["payload"]["axioms"]["pass"] is True
    assert doc["payload"]["homomorphism"]["pass"] is True
    assert doc["payload"]["homomorphism"]["max_residual"] <= 1e-10


def test_reconstruct_zero_samples_warns(capsys):
    spec = json.dumps({"kind": "tautological"})
    code, doc, err = run_cli(
        ["reconstruct", "--samples", "0"], stdin_data=spec, capsys=capsys
    )
    assert code == 0
    assert "vacuous" in err
    for check in doc["payload"].values():
        assert check["samples"] == 0 and check["pass"] is True


def test_reconstruct_negative_control(capsys):
    spec = json.dumps({"kind": "spinorial-negative"})
    code, doc, _ = run_cli(
        ["reconstruct", "--samples", "50"], stdin_data=spec, capsys=capsys
    )
    assert code == 1
    assert doc["payload"]["axioms"]["pass"] is False
    # the homomorphism stage is short-circuited after the axiom failure
    assert doc["payload"]["homomorphism"]["samples"] == 0
    assert doc["payload"]["homomorphism"]["pass"] is False


def test_reconstruct_bad_kind(capsys):
    code, doc, _ = run_cli(
        ["reconstruct"], stdin_data=json.dumps({"kind": "bogus"}), capsys=capsys
    )
    assert code == 2
    assert doc["status"] == "error"


def _algebra_doc(n, omega):
    gens = []
    for e in matrix_units(n):
        g = np.kron(e, np.eye(n))
        gens.append([[[float(z.real), float(z.imag)] for z in row] for row in g])
    vec = [[float(z.real), float(z.imag)] for z in omega]
    return {"algebra": {"d": n * n, "generators": gens}, "vector": vec}


def test_modular_command(capsys):
    p = np.array([0.8, 0.2])
    omega = np.zeros(4, dtype=complex)
    omega[0], omega[3] = np.sqrt(p[0]), np.sqrt(p[1])
    code, doc, _ = run_cli(
        ["modular"], stdin_data=json.dumps(_algebra_doc(2, omega)), capsys=capsys
    )
    assert code == 0
    payload = doc["payload"]
    assert payload["antilinear"] is True
    for value in payload["residuals"].values():
        assert value <= 1e-10
    # Delta = rho x rho^-1; its first diagonal entry is p0/p0 = 1
    delta = payload["Delta"]
    assert delta[0][0] == pytest.approx([1.0, 0.0])


def test_modular_not_separating(capsys):
    doc_in = {
        "algebra": {
            "d": 2,
            "generators": [
                [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            ],
        },
        "vector": [[1.0, 0.0], [1.0, 0.0]],
    }
    code, doc, _ = run_cli(["modular"], stdin_data=json.dumps(doc_in), capsys=capsys)
    assert code == 1
    assert doc["payload"]["error"] == "NotSeparating"


def test_modular_not_cyclic(capsys):
    # the identity generates only the scalars, whose orbit of a vector is a line
    doc_in = {
        "algebra": {"d": 2, "generators": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]},
        "vector": [[1.0, 0.0], [1.0, 0.0]],
    }
    code, doc, _ = run_cli(["modular"], stdin_data=json.dumps(doc_in), capsys=capsys)
    assert code == 1
    assert doc["status"] == "fail"
    assert doc["payload"]["error"] == "NotCyclic"


def test_modular_dimension_cap(capsys):
    doc_in = {
        "algebra": {"d": 17, "generators": [np.eye(17).tolist()]},
        "vector": [[1.0, 0.0]] * 17,
    }
    # real entries are promoted to [re, im] pairs client-side; build manually
    gens = [[[[1.0 if i == j else 0.0, 0.0] for j in range(17)] for i in range(17)]]
    doc_in["algebra"]["generators"] = gens
    code, doc, _ = run_cli(["modular"], stdin_data=json.dumps(doc_in), capsys=capsys)
    assert code == 1
    assert doc["payload"]["error"] == "DimensionCapExceeded"


def test_modular_shape_error(capsys):
    code, doc, _ = run_cli(
        ["modular"], stdin_data=json.dumps({"algebra": 5}), capsys=capsys
    )
    assert code == 2


def test_suite_quick(capsys):
    code, doc, _ = run_cli(["suite", "--level", "quick", "--seed", "1"], capsys=capsys)
    assert code == 0
    reports = doc["payload"]["reports"]
    assert len(reports) == 8
    assert all(r["pass"] for r in reports)
    assert {r["check"] for r in reports} == {
        "factorization",
        "ambiguity-classification",
        "e-independence",
        "homomorphism",
        "translation-extension",
        "negative-control",
        "continuity",
        "modular-oracle",
    }


def test_suite_force_fail(capsys):
    code, doc, err = run_cli(
        ["suite", "--level", "quick", "--seed", "1", "--force-fail"], capsys=capsys
    )
    assert code == 1
    failing = [r for r in doc["payload"]["reports"] if not r["pass"]]
    assert [r["check"] for r in failing] == ["forced-failure"]
    assert "check failed: forced-failure" in err


def test_file_input_matches_stdin(tmp_path, capsys):
    m = make_rotation([0, 0, 1], 0.3).m
    path = tmp_path / "element.json"
    path.write_text(lorentz_json(m))
    code1, doc1, _ = run_cli(["polar", "--file", str(path)], capsys=capsys)
    code2, doc2, _ = run_cli(["polar"], stdin_data=lorentz_json(m), capsys=capsys)
    assert code1 == code2 == 0
    assert doc1 == doc2


def test_missing_file(capsys):
    code, doc, _ = run_cli(["polar", "--file", "/nonexistent/x.json"], capsys=capsys)
    assert code == 2


def test_tol_flag_loosens_validation(capsys):
    m = make_boost([0, 1, 0], 0.5).m.copy()
    m[0, 0] += 3e-7  # breaks the metric at the default tolerance
    code, doc, _ = run_cli(["polar"], stdin_data=lorentz_json(m), capsys=capsys)
    # a matrix that fails validation is a domain failure, not a usage error
    assert code == 1
    assert doc["status"] == "fail"
    code, doc, _ = run_cli(
        ["polar", "--tol", "1e-5"], stdin_data=lorentz_json(m), capsys=capsys
    )
    assert code == 0


def test_tol_env_override(capsys, monkeypatch):
    m = make_boost([0, 1, 0], 0.5).m.copy()
    m[0, 0] += 3e-7
    monkeypatch.setenv("WEDGEGROUP_TOL", "1e-5")
    code, doc, _ = run_cli(["polar"], stdin_data=lorentz_json(m), capsys=capsys)
    assert code == 0


def test_determinism_byte_identical():
    script = (
        "from wedgegroup.cli import main; import sys;"
        "sys.exit(main(['suite', '--level', 'quick', '--seed', '9']))"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    parallel = subprocess.run(
        [
            sys.executable,
            "-c",
            "from wedgegroup.cli import main; import sys;"
            "sys.exit(main(['suite', '--level', 'quick', '--seed', '9', '--parallel', '4']))",
        ],
        capture_output=True,
        text=True,
    )
    assert parallel.stdout == runs[0].stdout


def test_canonical_float_formatting(capsys):
    code, _, _ = run_cli(["polar"], stdin_data=lorentz_json(np.eye(4)), capsys=capsys)
    out, _ = capsys.readouterr(), None
    # re-run to capture the raw line
    code, doc, _ = run_cli(["polar"], stdin_data=lorentz_json(np.eye(4)), capsys=capsys)
    assert code == 0
    # keys are sorted at every level and -0.0 is normalized away
    text = json.dumps(doc, sort_keys=True)
    assert "-0.0" not in text


def test_usage_error_exit_code():
    assert main(["polar", "--bogus"]) == 2
    assert main([]) == 2
