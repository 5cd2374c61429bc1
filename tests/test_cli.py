import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import interior_lattice
from dirac_surface import cli, dirac, weierstrass
from dirac_surface.cli import main
from dirac_surface.clifford import GAMMA
from dirac_surface.corpus import corpus_path


PLANE = str(corpus_path("plane"))
CLIFFORD = str(corpus_path("clifford"))
CLIFFORD_ROTATED = str(corpus_path("clifford-rotated"))
PLANE_TORUS = str(corpus_path("plane-torus"))
GRAPH = str(corpus_path("graph"))
SPHERE = str(corpus_path("sphere"))


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
    "argv,rows_per_point",
    [
        (("frame", GRAPH), 1),
        (("frame", CLIFFORD_ROTATED), 1),
        (("verify", GRAPH), 13),
        (("verify", CLIFFORD_ROTATED), 13),
        (("verify", CLIFFORD_ROTATED, "--gauged"), 13),
        (("tube", SPHERE), 1),
        (("frame", SPHERE, "--grid", "3x4"), 1),
    ],
)
def test_frame_at_calls_per_point(tmp_path, monkeypatch, argv, rows_per_point):
    """A frame query builds its one frame and reads everything else, the
    gauge-fixed torsion included, from the jets, as does a tube query; a
    verify point adds only the 12 frames of the three-step residual
    probe.  Every frame row is counted, however the rows are batched."""
    from dirac_surface import cli, geometry, weierstrass

    rows = []
    frames = geometry.frames_at
    counted = lambda spec, S: rows.append(np.prod(np.shape(S)[:-1])) or frames(spec, S)
    for module in (cli, dirac, geometry, weierstrass):
        monkeypatch.setattr(module, "frames_at", counted)
    points = 12
    if "--grid" not in argv:
        argv += ("--at", "0.3" if argv[0] != "tube" else "1.0", "0.2")
        points = 1
    code, _ = run(tmp_path, *argv)
    assert code == 0
    assert sum(rows) == rows_per_point * points


@pytest.mark.parametrize("name", ["graph", "sphere", "clifford-rotated"])
def test_frame_lattice_records_match_point_queries(tmp_path, name):
    """A lattice's frames are built in one batch and a single point on
    plain floats; each lattice record renders exactly as the record of a
    query at its point."""
    from dirac_surface.cli import _render_json

    path = str(corpus_path(name))
    code, text = run(tmp_path, "frame", path, "--grid", "3x4")
    assert code == 0
    records = json.loads(text)["records"]
    assert len(records) == 12
    for rec in records:
        code, text = run(tmp_path, "frame", path, "--at", *map(repr, rec["s"]))
        assert code == 0
        assert _render_json(json.loads(text)["records"][0]) == _render_json(rec)


@pytest.mark.parametrize("name", ["plane", "clifford-rotated", "graph", "sphere"])
def test_interior_lattice_matches_point_loop(name):
    """The lattice is built in numpy with the arithmetic of the loop over
    its points, so every coordinate is the same float."""
    from dirac_surface.cli import _interior_lattice
    from dirac_surface.corpus import load_corpus

    spec = load_corpus(name)
    for n1, n2 in [(1, 1), (3, 4), (9, 9), (200, 7)]:
        assert np.array_equal(_interior_lattice(spec, n1, n2), interior_lattice(spec, n1, n2))


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
    "name,extra",
    [("clifford", ()), ("clifford-rotated", ()), ("clifford-rotated", ("--gauged",))],
    ids=["clifford", "clifford-rotated", "clifford-rotated-gauged"],
)
def test_spectrum_conjugation_check(tmp_path, name, extra):
    """Each mirror mode's squares are its partner's, conjugated, and the
    trace identities hold them against the mirror's own block: the check
    passes at rounding."""
    code, text = run(tmp_path, "spectrum", str(corpus_path(name)), "--grid", "8x8", *extra)
    assert code == 0
    (check,) = [c for c in json.loads(text)["checks"] if c["name"] == "trace_identity"]
    assert check["pass"] and check["value"] <= 1e-14


@pytest.mark.parametrize("path", [CLIFFORD, PLANE_TORUS], ids=["clifford", "plane-torus"])
def test_gauged_spectrum_runs_fourier_oracle(tmp_path, path):
    """The gauged matrix is unitarily similar to the plain one, so the
    plain symbol's mode oracle predicts its spectrum too."""
    code, text = run(tmp_path, "spectrum", path, "--grid", "8x8", "--gauged")
    assert code == 0
    report = json.loads(text)
    assert report["summary"]["constant_coefficient"] is True
    (check,) = [c for c in report["checks"] if c["name"] == "fourier_oracle_match"]
    assert check["pass"]


def test_gauged_spectrum_fails_on_non_unitary_gauge(tmp_path, monkeypatch):
    """A gauge rotation scaled off the unitary group scales the gauged
    spectrum, which the Fourier oracle of the plain symbol catches."""
    rotation = dirac.gauge_rotation

    def scaled(theta):
        V = rotation(theta)
        return dataclasses.replace(V, matrix=1.01 * V.matrix)

    monkeypatch.setattr(dirac, "gauge_rotation", scaled)
    code, text = run(tmp_path, "spectrum", CLIFFORD, "--grid", "8x8", "--gauged")
    assert code == 1
    failed = [c["name"] for c in json.loads(text)["checks"] if not c["pass"]]
    assert failed == ["fourier_oracle_match"]


def _perturbed_solve(monkeypatch, square=0.0, root=0.0):
    """``cli.eigenvalues`` with the first square of mode (0, 0) moved by
    ``square`` and its first value by ``root``, in the report as well:
    returns the list that receives the spectrum by mode."""
    solve = cli.eigenvalues
    seen = []

    def perturbed(op, **kwargs):
        vals, by_mode, *rest = solve(op, **kwargs)
        vals[np.flatnonzero(vals == by_mode.roots[0, 0])[0]] += root
        by_mode.roots[0, 0] += root
        by_mode.squares[0, 0] += square
        seen.append(by_mode)
        return vals, by_mode, *rest

    monkeypatch.setattr(cli, "eigenvalues", perturbed)
    return seen


@pytest.mark.parametrize("shift", [1e-9, 1e-3])
def test_perturbed_spectrum_fails_both_checks(tmp_path, monkeypatch, shift):
    """One value and one square of clifford's mode (0, 0) moved by
    ``shift``: the trace identities and the Fourier oracle of that mode
    both fail, each by the shift over the mode's own scale."""
    seen = _perturbed_solve(monkeypatch, square=1j * shift, root=shift)
    code, text = run(tmp_path, "spectrum", CLIFFORD, "--grid", "8x8")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    failed = [name for name, c in checks.items() if not c["pass"]]
    assert failed == ["trace_identity", "fourier_oracle_match"]
    (by_mode,) = seen
    scale = by_mode.norms[0]
    assert checks["fourier_oracle_match"]["value"] == pytest.approx(shift / math.sqrt(scale), rel=1e-4)
    assert checks["trace_identity"]["value"] == pytest.approx(shift / (math.sqrt(2) * scale), rel=1e-4)


def test_one_value_moved_alone_fails_the_fourier_oracle(tmp_path, monkeypatch):
    """One value of clifford's mode (0, 0) moved by 1e-9 with its square
    left as it was: the squares keep their traces, and the per-mode
    Fourier oracle, which compares the values themselves, fails."""
    _perturbed_solve(monkeypatch, root=1e-9)
    code, text = run(tmp_path, "spectrum", CLIFFORD, "--grid", "8x8")
    assert code == 1
    failed = [c["name"] for c in json.loads(text)["checks"] if not c["pass"]]
    assert failed == ["fourier_oracle_match"]


def test_spectrum_conjugation_check_fails_on_complex_coefficient(tmp_path, monkeypatch):
    """0.3 i gamma^3 added to every B: J no longer maps mode m to -m, so
    the conjugated squares copied to the mirrors miss the traces of the
    mirrors' own blocks."""
    symbol = dirac._symbol

    def complex_mass(*args, **kwargs):
        sym = symbol(*args, **kwargs)
        return dataclasses.replace(sym, B=sym.B + 0.3j * GAMMA[2])

    monkeypatch.setattr(dirac, "_symbol", complex_mass)
    code, text = run(tmp_path, "spectrum", CLIFFORD_ROTATED, "--grid", "8x8")
    assert code == 1
    (check,) = [c for c in json.loads(text)["checks"] if c["name"] == "trace_identity"]
    assert not check["pass"]


@pytest.mark.parametrize("mutation", ["complex-mass", "complex-hop"])
def test_spectrum_antiunitary_check_fails_on_complex_coefficient(
    tmp_path, monkeypatch, capsys, mutation
):
    """0.3 i gamma^3 added to every B, or site 0's hop along +u scaled by
    1 + 0.1 i: J no longer commutes with the operator, the report names
    the failed antiunitary_defect check, and the run exits 1 without a
    traceback."""
    if mutation == "complex-mass":
        symbol = dirac._symbol

        def mutated(*args, **kwargs):
            sym = symbol(*args, **kwargs)
            return dataclasses.replace(sym, B=sym.B + 0.3j * GAMMA[2])

        monkeypatch.setattr(dirac, "_symbol", mutated)
    else:
        assemble = cli.assemble_grid_operator

        def mutated(*args, **kwargs):
            op = assemble(*args, **kwargs)
            stencil = op.stencil.copy()
            stencil[0, 1] *= 1 + 0.1j
            return dataclasses.replace(op, stencil=stencil)

        monkeypatch.setattr(cli, "assemble_grid_operator", mutated)
    code, text = run(tmp_path, "spectrum", CLIFFORD_ROTATED, "--grid", "8x8")
    assert code == 1 and capsys.readouterr().err == ""
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert not checks["antiunitary_defect"]["pass"]
    assert checks["antiunitary_defect"]["value"] >= 0.15


@pytest.mark.parametrize(
    "name,invariant",
    [
        ("clifford", ["u", "v"]),
        ("plane-torus", ["u", "v"]),
        ("clifford-rotated", ["v"]),
        ("moebius-clifford", ["v"]),
        ("inverted-clifford", ["v"]),
        ("bump-torus", []),
    ],
)
def test_spectrum_reports_the_mode_reduction(tmp_path, name, invariant):
    """Every periodic corpus file, the three test tori included, exits 0
    at 8x8, and gauged at 16x16, where a gauged grid keeps the invariant
    directions of its plain one.  The summary names the invariant
    directions and the shift defect of both; the antiunitary defect is at
    rounding; the lifted residual is a check exactly when some direction
    is invariant, and null otherwise."""
    for options, records in ((["--grid", "8x8"], 256), (["--grid", "16x16", "--gauged"], 1024)):
        code, text = run(tmp_path, "spectrum", str(corpus_path(name)), *options)
        assert code == 0
        report = json.loads(text)
        assert len(report["records"]) == records
        summary = report["summary"]
        assert summary["invariant_directions"] == invariant, options
        defect = dict(zip("uv", summary["shift_defect"]))
        assert all(defect[a] <= 1e-15 for a in invariant)
        assert all(d >= 1e-2 for a, d in defect.items() if a not in invariant)
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["antiunitary_defect"]["pass"]
        assert checks["antiunitary_defect"]["value"] <= 1e-15
        if invariant:
            assert checks["mode_residual"]["pass"]
            assert summary["mode_residual"] == checks["mode_residual"]["value"] <= 1e-14
        else:
            assert summary["mode_residual"] is None and "mode_residual" not in checks


def test_gauged_moebius_spectrum_at_32x32_is_reduced_along_v(tmp_path):
    """Rounding puts the gauge angle of gauged moebius-clifford at pi on
    some sites of the row u = 3 pi / 2 and at -pi on others; both lift to
    one gauge rotation, so the grid keeps its invariance along v, and the
    spectrum is solved per mode and passes its checks."""
    code, text = run(tmp_path, "spectrum", str(corpus_path("moebius-clifford")), "--grid", "32x32", "--gauged")
    assert code == 0
    report = json.loads(text)
    assert report["summary"]["invariant_directions"] == ["v"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["trace_identity"]["value"] <= 1e-14
    assert all(c["pass"] for c in checks.values())


@pytest.mark.parametrize("gauged", [False, True], ids=["plain", "gauged"])
def test_moebius_spectrum_at_64x64_with_the_cap_raised(tmp_path, monkeypatch, gauged):
    """Past the cap (dimension 16384) the values grow to |lambda| of
    about 150, and every check, relative to each mode's scale, still
    passes at rounding."""
    monkeypatch.setattr(dirac, "DEFAULT_EIG_CAP", 4 * 64 * 64)
    extra = ("--gauged",) if gauged else ()
    code, text = run(tmp_path, "spectrum", str(corpus_path("moebius-clifford")), "--grid", "64x64", *extra)
    assert code == 0
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    assert sorted(checks) == ["antiunitary_defect", "mode_residual", "trace_identity"]
    assert all(c["pass"] for c in checks.values())
    assert checks["trace_identity"]["value"] <= 1e-14


def _scaled_corpus_file(tmp_path, name):
    """The corpus file ``name`` with its immersion scaled by 1e-6."""
    lines = corpus_path(name).read_text().splitlines()
    scaled = [
        f"{line[:3]} 1e-6*({line[3:].strip()})" if line.startswith(("x1:", "x2:", "x3:", "x4:")) else line
        for line in lines
    ]
    path = tmp_path / f"{name}-scaled.imm"
    path.write_text("\n".join(scaled) + "\n")
    return str(path)


@pytest.mark.parametrize("name,grid", [("clifford", "8x8"), ("plane-torus", "9x9")])
def test_scaled_surfaces_keep_the_fourier_oracle(tmp_path, name, grid):
    """Scaling the immersion by 1e-6 scales the operator by 1e6, and its
    rounding with it: the symbol still reads as constant-coefficient, so
    the Fourier oracle runs, and every check, relative to its mode's
    scale, passes."""
    code, text = run(tmp_path, "spectrum", _scaled_corpus_file(tmp_path, name), "--grid", grid)
    assert code == 0
    report = json.loads(text)
    assert report["summary"]["constant_coefficient"] is True
    assert report["summary"]["max_abs"] >= 1e6
    checks = {c["name"]: c for c in report["checks"]}
    assert "fourier_oracle_match" in checks
    assert all(c["pass"] and c["value"] <= 1e-13 for c in checks.values())


def _phase_mutation(fault):
    """``dirac._bloch_phases`` with every weight conjugated, or with the
    weight of the translation by 2 along the last invariant direction
    dropped or negated.  In XY that translation holds the square of the
    hop by 1, the one hop of the squared operator that every invariant
    corpus surface keeps; the hop by 1 itself cancels on clifford and
    clifford-rotated."""
    phases = dirac._bloch_phases

    def mutated(modes, offsets, n1, n2):
        weights = phases(modes, offsets, n1, n2)
        if fault == "conjugated-phase":
            return weights.conj()
        axis = 1 if offsets[:, 1].any() else 0
        hop = (offsets[:, axis] == 2) & (offsets[:, 1 - axis] == 0)
        weights[:, hop] *= 0.0 if fault == "dropped-offset" else -1.0
        return weights

    return mutated


@pytest.mark.parametrize(
    "name,fault",
    [
        ("moebius-clifford", "conjugated-phase"),
        ("inverted-clifford", "conjugated-phase"),
        *(
            (name, fault)
            for name in ("clifford", "clifford-rotated", "moebius-clifford")
            for fault in ("dropped-offset", "flipped-hop")
        ),
    ],
)
def test_mode_residual_fails_on_a_faulty_reduction(tmp_path, monkeypatch, name, fault):
    """Faults in the reduction that the lifted residual must catch.  A
    conjugated phase solves mode -m in place of mode m: the multiset of
    squares is unchanged, so the residual is the only check that fails.
    On clifford and clifford-rotated X_m Y_m equals X_-m Y_-m to rounding,
    so a conjugated phase gives the right squared blocks there, and the
    surfaces whose modes tell m from -m serve for that fault."""
    monkeypatch.setattr(dirac, "_bloch_phases", _phase_mutation(fault))
    code, text = run(tmp_path, "spectrum", str(corpus_path(name)), "--grid", "8x8")
    assert code == 1
    report = json.loads(text)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "mode_residual" in failed
    assert report["summary"]["mode_residual"] > 1e-3
    if fault == "conjugated-phase":
        assert failed == ["mode_residual"]


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


def _flat_immersion(name, x3="0"):
    return (
        f"name: {name}\nparams: u v\nx1: u\nx2: v\nx3: {x3}\nx4: 0\n"
        "domain: u -1 1 v -1 1\nperiodic: false false\n"
    )


def test_csv_quotes_cells_that_hold_commas(tmp_path):
    import csv

    path = tmp_path / "twist.imm"
    path.write_text(_flat_immersion("twist, demo", x3="atan2(u, 2)"))
    out = tmp_path / "report.csv"
    assert main(["parse-check", str(path), "--csv", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 1 and len(rows[0]) == len(header)
    assert rows[0][header.index("name")] == "twist, demo"
    assert rows[0][header.index("coords[2]")] == "atan2(u, 2.0)"


def test_json_escapes_control_characters(tmp_path):
    from dirac_surface.cli import _render_json

    path = tmp_path / "tab\tpath.imm"
    path.write_text(_flat_immersion("tab\tname"))
    code, text = run(tmp_path, "parse-check", str(path))
    assert code == 0
    report = json.loads(text)
    assert (report["file"], report["spec"]) == (str(path), "tab\tname")
    every = "".join(map(chr, range(0x20))) + '"\\/'
    assert json.loads(_render_json(every)) == every


def test_floats_render_alike_in_every_container():
    """A float renders with 17 significant digits, or as a string when it
    is not finite, alone, in a list of floats, among other values and in
    a float column of records; a non-finite one makes any container or
    column holding it not finite."""
    import io

    from dirac_surface.cli import _all_finite, _columns, _render_json, _write_records

    floats = [0.1, -0.0, 1.0, 1 / 3, float("nan"), float("inf"), float("-inf")]
    text = '0.10000000000000001, 0, 1, 0.33333333333333331, "nan", "inf", "-inf"'
    assert ", ".join(map(_render_json, floats)) == text
    assert _render_json(floats) == _render_json(list(map(np.float64, floats))) == f"[{text}]"
    assert _render_json([*floats, True, 3]) == f"[{text}, true, 3]"
    assert _all_finite(floats[:4]) and _all_finite({"a": [floats[:4], "nan"]})
    for bad in floats[4:]:
        for value in ([1.0, bad], {"a": [[bad]]}, np.float64(bad), (True, bad)):
            assert not _all_finite(value)
    # one record whose column holds the floats, then one record per float
    head = ", ".join(text.split(", ")[:4])
    for block, finite, rendered in (
        ({"v": np.array([floats[:4]])}, True, [f"[{head}]"]),
        ({"v": np.array([floats])}, False, [f"[{text}]"]),
        ({"v": np.array(floats)}, False, text.split(", ")),
    ):
        fields, matrix = _columns(block)
        assert [f for *_, f in fields] == [finite]
        out = io.StringIO()
        _write_records(out, [(fields, matrix)])
        records = (f'    {{\n      "v": {v}\n    }}' for v in rendered)
        assert out.getvalue() == "[\n" + ",\n".join(records) + "\n  ]"


REPORT_KEYS = [
    "command", "spec", "file", "config", "records", "summary", "checks", "all_finite", "pass",
]


@pytest.mark.parametrize("fmt", ["--json", "--csv"])
@pytest.mark.parametrize("command", ["frame", "verify", "spectrum", "tube", "parse-check"])
def test_every_command_shares_one_report_layout(tmp_path, command, fmt):
    """Every command's report has the same top-level keys in the same
    order, passes exactly when it is finite and every check passes, exits
    0 exactly when it passes, and exports one CSV row per record."""
    argv = (command, CLIFFORD, *(("--grid", "8x8") if command == "spectrum" else ()))
    code, text = run(tmp_path, *argv, fmt)
    json_code, json_text = (code, text) if fmt == "--json" else run(tmp_path, *argv)
    report = json.loads(json_text)
    assert list(report) == REPORT_KEYS
    assert (report["command"], report["file"]) == (command, CLIFFORD)
    assert report["pass"] == (report["all_finite"] and all(c["pass"] for c in report["checks"]))
    assert code == json_code == (0 if report["pass"] else 1)
    if fmt == "--csv":
        header, *rows = text.splitlines()
        # the first column is the first record's first field, flattened
        assert header.split(",")[0].startswith(next(iter(report["records"][0])))
        assert len(rows) == len(report["records"])


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
    # the residual probe aligns its frames to the frame at the queried
    # point; the tube metric aligns none
    assert main(["verify", GRAPH, "--at", "0.000546398711756406", "0.0007605539960396201"]) == 1
    err = capsys.readouterr().err
    assert "s = (0.000546398711756406, 0.0007605539960396201)" in err
    assert "np.float64" not in err
    assert main(["tube", GRAPH, "--at", "-0.00013", "0.00061"]) == 0


def test_gauged_verify_aligns_turned_frames(tmp_path):
    # next to the graph origin the working frame turns too fast to align
    # (see above), the gauge-fixed frames it is turned into do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(
            tmp_path, "verify", GRAPH, "--at", "0.000546398711756406",
            "0.0007605539960396201", "--gauged",
        )
    assert code == 0
    assert all(check["pass"] for check in json.loads(text)["checks"])


def test_verify_domain_error_names_first_lattice_point(tmp_path, capsys):
    """A lattice is evaluated in one batch; a point outside a coordinate
    map's domain is reported as the first such point in lattice order,
    and a one-point query names its point."""
    imm = tmp_path / "log.imm"
    imm.write_text(
        "name: log\nparams: u v\nx1: u\nx2: v\nx3: log(u)\nx4: 0\n"
        "domain: u -1 1 v -1 1\nperiodic: false false\n"
    )
    assert main(["verify", str(imm), "--grid", "3x3"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: verify: domain error in 'log(u)': log of a non-positive value "
        "at s = (-0.5, -0.5)\n"
    )
    assert main(["frame", str(imm), "--grid", "3x3"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: frame: domain error in 'log(u)': log of a non-positive value "
        "at s = (-0.5, -0.5)\n"
    )
    assert main(["frame", str(imm), "--at", "-0.5", "0.3"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: frame: domain error in 'log(u)': log of a non-positive value "
        "at s = (-0.5, 0.3)\n"
    )


def test_no_step_option():
    with pytest.raises(SystemExit) as info:
        main(["frame", PLANE, "--at", "0", "0", "--step", "1e-3"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("frame", PLANE, "--gauged"),
        ("frame", PLANE, "--at", "0.1", "0.2", "--grid", "3x3"),
        ("verify", PLANE, "--grid", "3x3", "--at", "0.1", "0.2"),
        ("spectrum", CLIFFORD, "--at", "0.1", "0.2"),
        ("tube", PLANE, "--grid", "3x3"),
        ("tube", PLANE, "--gauged"),
        ("parse-check", PLANE, "--at", "0.1", "0.2"),
        ("parse-check", PLANE, "--grid", "3x3"),
        ("parse-check", PLANE, "--gauged"),
    ],
)
def test_unread_or_conflicting_option_refused(argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2


def test_verify_starts_no_thread(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, _ = run(tmp_path, "verify", CLIFFORD, "--grid", "3x3", "--threads", "2")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", GRAPH, "--grid", "3x3"),
        ("verify", CLIFFORD_ROTATED, "--grid", "3x3", "--gauged"),
        ("spectrum", CLIFFORD, "--grid", "8x8"),
        ("spectrum", CLIFFORD_ROTATED, "--grid", "8x8", "--gauged"),
        ("frame", SPHERE, "--at", "1.0", "0.7"),
        ("tube", SPHERE, "--at", "1.0", "0.7"),
        ("parse-check", CLIFFORD_ROTATED),
    ],
)
def test_threads_option_is_hidden_and_inert(tmp_path, capsys, argv):
    """The benchmark still passes --threads to every command; the option
    changes nothing in the report and is left out of the help."""
    code, plain = run(tmp_path, *argv)
    assert code == 0
    code, threaded = run(tmp_path, *argv, "--threads", "2")
    assert code == 0
    assert threaded == plain
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert "--threads" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["frame", "verify", "tube"])
def test_non_finite_point_refused(capsys, command):
    # clifford is periodic in both axes, so no domain bound catches these;
    # argparse would take "-inf" and "-nan" for options if passed on as they are
    for u, v, bad in (
        ("nan", "0.3", "nan"), ("inf", "0.3", "inf"), ("0.3", "nan", "nan"),
        ("0.3", "-inf", "-inf"), ("0.3", "-nan", "nan"),
    ):
        assert main([command, CLIFFORD, "--at", u, v]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {command}: point coordinate {bad} is not finite\n"


_OVERFLOW = """name: over
params: u v
x1: u
x2: v
x3: exp(800*u)
x4: sqrt(v)
domain: u 0 1 v 0 1
periodic: false false
"""


@pytest.mark.parametrize("command", ["frame", "verify", "tube"])
@pytest.mark.parametrize(
    "u,v,expr",
    [("0.9", "0.5", "exp((800.0 * u))"), ("0.3", "1e-140", "sqrt(v)")],
    ids=["exp-overflow", "sqrt-third-partial"],
)
def test_jet_overflow_is_input_error(tmp_path, capsys, command, u, v, expr):
    """A jet that overflows, on plain floats or in numpy, is refused as
    an input error naming the expression and the point."""
    path = tmp_path / "over.imm"
    path.write_text(_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(path), "--at", u, v]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {command}: domain error in '{expr}': the 3-jet is not finite "
        f"at s = ({float(u)!r}, {float(v)!r})\n"
    )


def test_overflowing_domain_bound_is_input_error(tmp_path, capsys):
    path = tmp_path / "bound.imm"
    path.write_text(_OVERFLOW.replace("u 0 1 v", "u 0 exp(1000) v"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["parse-check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: parse-check: {path}: line 7: bad constant 'exp(1000)': "
        "domain error in 'exp(1000.0)': the 3-jet is not finite\n"
    )


@pytest.mark.parametrize("command", ["frame", "tube"])
def test_badly_scaled_tangents_span_a_plane(tmp_path, command):
    """Orthogonal tangents 1e89 apart in length are independent: the Gram
    residual of d2 x is measured against d2 x, not the longer tangent."""
    path = tmp_path / "over.imm"
    path.write_text(_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, command, str(path), "--at", "0.25", "0.25")
    assert code == 0


@pytest.mark.parametrize("command", ["frame", "tube"])
def test_short_first_tangent_is_not_vanishing(tmp_path, command):
    """The mirror case: d1 x = (1, 0, 0, 0) beside a d2 x 1e89 long
    normalises to a unit vector, so it does not vanish."""
    path = tmp_path / "over.imm"
    path.write_text(_OVERFLOW.replace("exp(800*u)", "exp(800*v)"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, command, str(path), "--at", "0.25", "0.25")
    assert code == 0


@pytest.mark.parametrize(
    "name,at",
    [("clifford", ("0.3", "0.2")), ("sphere", ("1.0", "0.7")), ("over", ("0.1", "0.5"))],
)
def test_bilinear_checks_judge_against_tangent_scale(tmp_path, monkeypatch, name, at):
    """The bilinear residuals are judged against max(1, max|T|): tangents
    4.4e37 long pass, and bilinears scaled by 1 + 1e-6 fail on unit-scale
    and on badly scaled tangents alike."""
    if name == "over":
        path = tmp_path / "over.imm"
        path.write_text(_OVERFLOW)
    else:
        path = corpus_path(name)
    code, _ = run(tmp_path, "verify", str(path), "--at", *at)
    assert code == 0
    # psi = U Psi with Psi scaled by sqrt(1 + 1e-6): every bilinear, W
    # among them, grows by 1 + 1e-6
    monkeypatch.setattr(weierstrass, "_ROUND", weierstrass._ROUND * math.sqrt(1.0 + 1e-6))
    code, text = run(tmp_path, "verify", str(path), "--at", *at)
    assert code == 1
    failed = [c["name"] for c in json.loads(text)["checks"] if not c["pass"]]
    assert failed == ["weierstrass_identity"]


@pytest.mark.parametrize(
    "where,point",
    [(["--at", "0.5", "0.5"], "(0.5, 0.5)"), (["--grid", "3x3"], "(0.5, 0.25)")],
    ids=["point", "lattice"],
)
def test_overflowing_tangent_length_is_input_error(tmp_path, capsys, where, point):
    """Finite jets whose squared tangent length overflows are refused as
    an input error naming the first such point, without a warning."""
    path = tmp_path / "over.imm"
    path.write_text(_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["frame", str(path), *where]) == 2
    assert capsys.readouterr().err == (
        f"error: frame: squared tangent length is not finite at s = {point}\n"
    )


@pytest.mark.parametrize("name,u,v", [("plane", "5", "5"), ("sphere", "3.0", "0.7")])
def test_tube_point_outside_domain(capsys, name, u, v):
    assert main(["tube", str(corpus_path(name)), "--at", u, v]) == 2
    assert f"point coordinate {float(u)} outside domain" in capsys.readouterr().err


def test_same_chirality_entry_exits_1(tmp_path, capsys, monkeypatch):
    """A symbol that commutes with gamma^5 in part breaks the solver's
    chiral form: an invariant failure (exit 1), not an input error."""
    symbol = dirac._symbol

    def chirality_even_mass(*args, **kwargs):
        sym = symbol(*args, **kwargs)
        return dataclasses.replace(sym, B=sym.B + 0.1 * np.eye(4))

    monkeypatch.setattr(dirac, "_symbol", chirality_even_mass)
    assert main(["spectrum", CLIFFORD, "--grid", "8x8", "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spectrum: grid operator does not anticommute with gamma^5")
    assert "Traceback" not in err


def test_unseparated_near_kernel_cluster_exits_1(tmp_path, capsys, monkeypatch):
    """The near-kernel roots are checked for a gap at the cut.  With the
    identity added to the operator's near-mode block (zero on plane-torus
    9x9), its four least |lambda|^2 read 1, above the cut of 0.12: the
    cluster is not separated there, and the run exits 1 with a message."""
    mode_blocks = dirac._mode_blocks

    def shifted(stencil, *args):
        blocks = mode_blocks(stencil, *args)
        if stencil.shape[0] == 4:  # the operator's blocks, not those of XY
            blocks += np.eye(blocks.shape[-1])
        return blocks

    monkeypatch.setattr(dirac, "_mode_blocks", shifted)
    assert main(["spectrum", PLANE_TORUS, "--grid", "9x9", "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spectrum: near-kernel cluster of 2 squared eigenvalues")
    assert "Traceback" not in err


_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises
from dirac_surface.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy."))

seen = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    seen.append([argv[0], main(argv), scipy_modules()])
print(json.dumps(seen))
"""


def test_pointwise_commands_do_not_import_scipy(tmp_path):
    """No command needs scipy: a fresh interpreter in which importing
    scipy raises imports the CLI and runs every command, in JSON and
    CSV, plain and gauged spectra (the zero modes of plane-torus come
    from the operator's own mode blocks), and runs that exit with an
    error, each with its exit code, and loads no scipy module."""
    out = str(tmp_path / "report")
    argvs = [
        (["frame", CLIFFORD_ROTATED, "--at", "0.3", "0.2", "--out", out], 0),
        (["frame", CLIFFORD_ROTATED, "--grid", "3x3", "--csv", "--out", out], 0),
        (["verify", CLIFFORD_ROTATED, "--grid", "3x3", "--gauged", "--out", out], 0),
        (["verify", SPHERE, "--at", "1.0", "0.7", "--gauged", "--csv", "--out", out], 0),
        (["tube", SPHERE, "--at", "1.0", "0.7", "--out", out], 0),
        (["parse-check", CLIFFORD_ROTATED, "--out", out], 0),
        (["spectrum", CLIFFORD, "--grid", "4x4", "--out", out], 0),
        (["spectrum", CLIFFORD_ROTATED, "--grid", "8x8", "--gauged", "--csv", "--out", out], 0),
        (["spectrum", str(corpus_path("moebius-clifford")), "--grid", "16x16", "--gauged", "--out", out], 0),
        (["spectrum", PLANE_TORUS, "--grid", "8x8", "--gauged", "--out", out], 0),
        (["spectrum", PLANE_TORUS, "--grid", "8x8", "--out", out], 0),
        (["frame", str(tmp_path / "missing.imm"), "--at", "0.3", "0.2", "--out", out], 2),
        (["spectrum", SPHERE, "--out", out], 2),
        (["spectrum", CLIFFORD, "--grid", "64x64", "--out", out], 3),
        (["verify", str(corpus_path("bump-torus")), "--grid", "3x3", "--out", out], 1),
    ]
    src = str(Path(dirac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps([argv for argv, _ in argvs])],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    seen = json.loads(child.stdout)
    assert seen == [["import", 0, []]] + [[argv[0], code, []] for argv, code in argvs]


_NUMPY_MA_PROBE = """
import json, sys
from dirac_surface.cli import main

seen = [[argv[0], main(argv), "numpy.ma" in sys.modules] for argv in json.loads(sys.argv[1])]
print(json.dumps(seen))
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """numpy.ma takes about 10 ms to import, and np.unique loads it: a
    fresh interpreter that runs every command, the spectrum last, of a
    degenerate spectrum, of the 16x16 spectra whose mirror modes are
    paired and of plane-torus's zero modes too, has not loaded it."""
    out = str(tmp_path / "report")
    argvs = [
        ["frame", CLIFFORD_ROTATED, "--grid", "3x3", "--out", out],
        ["verify", CLIFFORD_ROTATED, "--grid", "3x3", "--gauged", "--out", out],
        ["tube", SPHERE, "--at", "1.0", "0.7", "--out", out],
        ["parse-check", CLIFFORD_ROTATED, "--out", out],
        ["spectrum", CLIFFORD, "--grid", "4x4", "--out", out],
        ["spectrum", CLIFFORD_ROTATED, "--grid", "8x8", "--gauged", "--csv", "--out", out],
        ["spectrum", CLIFFORD, "--grid", "16x16", "--out", out],
        ["spectrum", CLIFFORD_ROTATED, "--grid", "16x16", "--gauged", "--out", out],
        ["spectrum", PLANE_TORUS, "--grid", "9x9", "--out", out],
    ]
    src = str(Path(dirac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert json.loads(child.stdout) == [[argv[0], 0, False] for argv in argvs]


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    """Repeated in-process calls share one parser, and a refused call
    leaves nothing behind: each call prints and exits exactly as it does
    in a fresh process."""
    from dirac_surface import cli

    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    monkeypatch.setenv("COLUMNS", "80")
    argvs = [
        ["frame", PLANE, "--gauged"],
        ["frame", PLANE, "--at", "0.1", "0.2"],
        ["spectrum", CLIFFORD, "--at", "0.1", "0.2"],
        ["parse-check", CLIFFORD_ROTATED],
        ["frame", PLANE, "--at", "0.1", "0.2", "--grid", "3x3"],
        ["frame", PLANE, "--at", "0.1", "0.2"],
    ]
    src = str(Path(dirac.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "dirac_surface.cli", *argv],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    # built by the first call, unless an earlier test in this process did
    assert built in ([], ["dirac-surface"])
    assert cli._build_parser() is cli._build_parser()
