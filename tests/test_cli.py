import dataclasses
import json
import math

import numpy as np
import pytest

from dirac_surface import dirac
from dirac_surface.cli import main
from dirac_surface.clifford import GAMMA
from dirac_surface.corpus import corpus_path


PLANE = str(corpus_path("plane"))
CLIFFORD = str(corpus_path("clifford"))
CLIFFORD_ROTATED = str(corpus_path("clifford-rotated"))
PLANE_TORUS = str(corpus_path("plane-torus"))
GRAPH = str(corpus_path("graph"))


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    return code, out.read_text()


def test_frame_plane_point(tmp_path):
    code, text = run(tmp_path, "frame", PLANE, "--at", "0.1", "0.2")
    assert code == 0
    report = json.loads(text)
    rec = report["records"][0]
    assert rec["g"] == [[1, 0], [0, 1]]
    assert rec["trace3"] == 0 and rec["trace4"] == 0


def test_frame_clifford_hat_trace(tmp_path):
    code, text = run(tmp_path, "frame", CLIFFORD, "--at", "0", "0", "--json")
    assert code == 0
    rec = json.loads(text)["records"][0]
    assert abs(rec["hat_trace3"] - 2.0) <= 1e-8


@pytest.mark.parametrize(
    "argv,calls_per_point",
    [
        (("frame", GRAPH), 1),
        (("frame", CLIFFORD_ROTATED), 1),
        (("verify", GRAPH), 13),
        (("verify", CLIFFORD_ROTATED), 13),
        (("verify", CLIFFORD_ROTATED, "--gauged"), 13),
    ],
)
def test_frame_at_calls_per_point(tmp_path, monkeypatch, argv, calls_per_point):
    """A frame query builds its one frame and reads everything else, the
    gauge-fixed torsion included, from the jets; a verify point adds only
    the 12 frames of the three-step residual probe."""
    from dirac_surface import cli, geometry, weierstrass

    calls = []
    frame = geometry.frame_at
    counted = lambda *a: calls.append(a) or frame(*a)
    for module in (cli, dirac, geometry, weierstrass):
        monkeypatch.setattr(module, "frame_at", counted)
    code, _ = run(tmp_path, *argv, "--at", "0.3", "0.2")
    assert code == 0
    assert len(calls) == calls_per_point


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["frame", str(tmp_path / "nope.imm")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_file_exit_code(tmp_path):
    bad = tmp_path / "bad.imm"
    bad.write_text("name: x\nparams: u v\nx1: u +* v\n")
    assert main(["parse-check", str(bad)]) == 2


def test_verify_plane_all_zero(tmp_path):
    code, text = run(tmp_path, "verify", PLANE, "--grid", "5x5")
    assert code == 0
    report = json.loads(text)
    assert all(r["residual_bilinear"] == 0 for r in report["records"])
    assert report["pass"] is True


def test_verify_clifford_gauged(tmp_path):
    code, text = run(
        tmp_path, "verify", CLIFFORD, "--grid", "5x5", "--gauged", "--threads", "2"
    )
    assert code == 0
    report = json.loads(text)
    assert report["summary"]["max_residual_bilinear"] <= 1e-8
    assert report["summary"]["worst_convergence_ratio"] >= 3.5


def test_verify_records_torsion_fields(tmp_path):
    code, text = run(tmp_path, "verify", CLIFFORD_ROTATED, "--grid", "3x3")
    assert code == 0
    for rec in json.loads(text)["records"]:
        assert abs(rec["torsion"][0] - 1.0) <= 1e-6
        assert abs(rec["torsion"][1]) <= 1e-6
        # gauge-fixed torsion of this torus vanishes identically
        assert max(abs(t) for t in rec["hat_torsion"]) <= 1e-6


def test_spectrum_clifford(tmp_path):
    code, text = run(tmp_path, "spectrum", CLIFFORD, "--grid", "8x8")
    assert code == 0
    report = json.loads(text)
    assert report["summary"]["constant_coefficient"] is True
    assert report["summary"]["fourier_oracle_distance"] <= 1e-10
    assert len(report["records"]) == 256


def test_spectrum_plane_torus(tmp_path):
    code, text = run(tmp_path, "spectrum", PLANE_TORUS, "--grid", "9x9")
    assert code == 0
    report = json.loads(text)
    assert report["summary"]["zero_eigenvalues"] == 4
    for rec in report["records"]:
        assert abs(rec["re"]) <= 1e-10


@pytest.mark.parametrize(
    "path,extra", [(CLIFFORD, ()), (CLIFFORD_ROTATED, ()), (CLIFFORD_ROTATED, ("--gauged",))]
)
def test_spectrum_conjugation_check(tmp_path, path, extra):
    code, text = run(tmp_path, "spectrum", path, "--grid", "8x8", *extra)
    assert code == 0
    (check,) = [c for c in json.loads(text)["checks"] if c["name"] == "conjugation_symmetry"]
    assert check["pass"] and check["value"] <= 1e-12


def test_spectrum_conjugation_check_fails_on_complex_coefficient(tmp_path, monkeypatch):
    symbol = dirac._symbol

    def complex_mass(*args, **kwargs):
        sym = symbol(*args, **kwargs)
        return dataclasses.replace(sym, B=sym.B + 0.3j * GAMMA[2])

    monkeypatch.setattr(dirac, "_symbol", complex_mass)
    code, text = run(tmp_path, "spectrum", CLIFFORD_ROTATED, "--grid", "8x8")
    assert code == 1
    (check,) = [c for c in json.loads(text)["checks"] if c["name"] == "conjugation_symmetry"]
    assert not check["pass"]


def test_lattice_cap(capsys):
    assert main(["verify", PLANE, "--grid", "1000x1000"]) == 3
    assert "lattice 1000x1000" in capsys.readouterr().err


def test_spectrum_dimension_cap(capsys):
    assert main(["spectrum", CLIFFORD, "--grid", "64x64"]) == 3


def test_spectrum_non_periodic(capsys):
    assert main(["spectrum", str(corpus_path("sphere")), "--grid", "8x8"]) == 2


def test_tube_plane(tmp_path):
    code, text = run(tmp_path, "tube", PLANE, "--at", "0.1", "0.2")
    assert code == 0
    report = json.loads(text)
    for rec in report["records"]:
        assert abs(rec["rho_exact"] - 1.0) <= 1e-12


def test_tube_graph_slopes(tmp_path):
    code, text = run(tmp_path, "tube", GRAPH, "--at", "0.3", "0.2")
    assert code == 0
    slopes = json.loads(text)["summary"]["slopes"]
    assert any(s is not None and s >= 1.9 for s in slopes.values())


def test_parse_check(tmp_path):
    code, text = run(tmp_path, "parse-check", CLIFFORD_ROTATED)
    assert code == 0
    rec = json.loads(text)["records"][0]
    assert rec["frame_rotation"] == "u"
    assert rec["periodic"] == [True, True]


def test_verify_deterministic_output(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", CLIFFORD, "--grid", "4x4", "--out", str(out1)]) == 0
    assert main(["verify", CLIFFORD, "--grid", "4x4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_export(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["frame", PLANE, "--grid", "2x2", "--csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert "trace3" in header
    assert len(lines) == 5  # header + four lattice points


def test_point_outside_domain(capsys):
    assert main(["frame", PLANE, "--at", "5", "0"]) == 2


def test_float_formatting_17_digits(tmp_path):
    code, text = run(tmp_path, "frame", CLIFFORD, "--at", "0.5", "0.5")
    assert code == 0
    # 17 significant digits keeps shortest round-trip values intact
    rec = json.loads(text)["records"][0]
    assert rec["x"][0] == pytest.approx(math.cos(0.5) / math.sqrt(2), abs=1e-15)


def test_at_accepts_exponent_notation(tmp_path):
    code, text = run(tmp_path, "frame", PLANE, "--at", "-1e-05", "0.3")
    assert code == 0
    assert json.loads(text)["records"][0]["s"] == [-1e-05, 0.3]


@pytest.mark.parametrize(
    "u,v",
    [("-0.026161526351038633", "-0.03572538676274539"), ("-0.00013", "0.00061")],
)
def test_frame_graph_near_origin(tmp_path, u, v):
    # the closed-form torsion is antisymmetric by construction, and the
    # frame query aligns no frames, however fast the pivoted frame turns
    code, text = run(tmp_path, "frame", GRAPH, "--at", u, v)
    assert code == 0
    rec = json.loads(text)["records"][0]
    assert rec["torsion_antisymmetry_defect"] == 0


def test_branch_error_names_queried_point(capsys):
    assert main(["tube", GRAPH, "--at", "-0.00013", "0.00061"]) == 1
    err = capsys.readouterr().err
    assert "s = (-0.00013, 0.00061)" in err
    assert "np.float64" not in err


def test_no_step_option():
    with pytest.raises(SystemExit) as info:
        main(["frame", PLANE, "--at", "0", "0", "--step", "1e-3"])
    assert info.value.code == 2
