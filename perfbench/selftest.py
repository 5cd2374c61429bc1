"""Self-test of the benchmark's output checks, run from the checkout root::

    python3 perfbench/selftest.py

Runs one op of each kind through ``dirac_surface.cli.main``, shows that
its check accepts the real output, then perturbs each checked field just
past its tolerance and shows that the check rejects it.  Also checks that
the metric names ``run.py`` prints are the ones ``BENCHMARK.json`` lists.
Exits 1 if any check fails to accept or to reject.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import TOL  # noqa: E402
from workloads import Op, corpus_file  # noqa: E402


def _run(op):
    import dirac_surface.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    if code != 0:
        raise SystemExit(f"{' '.join(op.argv)} exited {code}")
    return json.loads(out.getvalue())


def _verify(surface, gauged, grid=(3, 4)):
    argv = ["verify", corpus_file(surface), "--grid", f"{grid[0]}x{grid[1]}", "--threads", "1"]
    argv += ["--gauged"] if gauged else []
    return Op("verify", surface, tuple(argv), grid[0] * grid[1], grid, gauged)


def _point(kind, surface, point):
    argv = [kind, corpus_file(surface)]
    argv += ["--at", repr(point[0]), repr(point[1])] if kind != "parse-check" else []
    return Op(kind, surface, tuple(argv), 1, point=point)


def _edit(path, delta):
    """A perturbation adding ``delta`` at a nested index path of the report."""

    def apply(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta

    return apply


def _set(key, value):
    return lambda report: report.__setitem__(key, value)


def _spectrum_cases(results):
    """Perturbations of spectra: (name, op, values, partner, expected message)."""
    op, vals = results["clifford"]
    real = int(np.argmax(np.abs(vals.real) * (np.abs(vals.imag) < 1e-12)))
    twin = int(np.argmin(np.abs(vals + vals[real])))
    d = 10 * TOL["spectrum"]
    shifted = vals.copy()
    shifted[real] += d
    tilted = vals.copy()
    tilted[real] += 1j * d
    tilted[twin] -= 1j * d
    rot_op, rot_vals = results["clifford-rotated"]
    gauged_op, gauged_vals = results["clifford-rotated --gauged"]
    return [
        ("spectrum closed under -lambda", op, shifted, None, "-lambda"),
        ("spectrum closed under conj", op, tilted, None, "conj"),
        ("plain clifford closed form", op, vals * (1 + d), None, "closed-form"),
        ("plain/gauged multisets agree", gauged_op, gauged_vals, rot_vals * (1 + d), "multisets"),
        ("spectrum size", rot_op, rot_vals[1:], None, "eigenvalues"),
    ]


def _as_report(vals):
    return {"records": [{"re": float(v.real), "im": float(v.imag)} for v in vals]}


def main() -> int:
    bad = []

    def expect(name, problems, reject, key=""):
        ok = bool(problems) == reject and (not reject or any(key in p for p in problems))
        verdict = ("rejects" if reject else "accepts") if ok else "WRONG"
        print(f"{verdict:>8}  {name}" + (f": {problems}" if not ok else ""))
        if not ok:
            bad.append(name)

    t = TOL
    cases = []
    for surface, gauged in (("graph", False), ("clifford-rotated", True)):
        op = _verify(surface, gauged)
        perturb = [
            ("W", _edit(["records", 0, "W", 0, 0], 10 * t["tangent"]), "W at"),
            ("pass", _set("pass", False), "pass"),
            ("lattice point", _edit(["records", 0, "s", 1], 10 * t["lattice"]), "lattice"),
        ]
        if surface == "clifford-rotated":
            perturb += [
                ("torsion", _edit(["records", 3, "torsion", 0], 10 * t["torsion"]), "torsion off"),
                ("hat_torsion", _edit(["records", 2, "hat_torsion", 1], 10 * t["torsion"]), "hat_torsion"),
            ]
        cases.append((op, perturb))
    for surface, point in (("graph", (0.31, -0.72)), ("sphere", (1.1, 4.0)), ("plane", (0.2, 0.4))):
        perturb = [
            ("orthonormal", _edit(["records", 0, "n", 1, 2], 10 * t["orthonormal"]), "orthonormal"),
            ("x", _edit(["records", 0, "x", 0], 10 * t["position"]), "x off"),
            ("trace_invariant", _edit(["records", 0, "trace_invariant"], 10 * t["trace"]), "trace_invariant"),
            ("point", _edit(["records", 0, "s", 0], 1e-15), "point"),
        ]
        cases.append((_point("frame", surface, point), perturb))
    for surface, point in (("graph", (0.3, 0.2)), ("clifford", (2.0, 5.0))):
        perturb = [
            ("rho at zero offset", _edit(["records", 0, "rho_exact"], 10 * t["rho"]), "rho_exact"),
            ("pass", _set("pass", False), "pass"),
        ]
        cases.append((_point("tube", surface, point), perturb))
    for surface in ("graph", "sphere", "clifford-rotated"):
        perturb = [
            ("coordinate", _edit(["records", 0, "coords", 2], f"+{10 * t['position']}"), "echoed"),
        ]
        cases.append((_point("parse-check", surface, (0.4, 0.7)), perturb))

    for op, perturb in cases:
        report = _run(op)
        check = checks.CHECKS[op.kind]
        label = f"{op.kind} {op.surface}"
        expect(f"{label}: real output", check(report, op), reject=False)
        for name, apply, key in perturb:
            bent = copy.deepcopy(report)
            apply(bent)
            expect(f"{label}: perturbed {name}", check(bent, op), reject=True, key=key)

    results = {}
    for surface, gauged in (("clifford", False), ("clifford-rotated", False), ("clifford-rotated", True)):
        argv = ["spectrum", corpus_file(surface), "--grid", "8x8"] + (["--gauged"] if gauged else [])
        op = Op("spectrum", surface, tuple(argv), 64, (8, 8), gauged)
        vals = checks.spectrum_values(_run(op))
        key = surface + (" --gauged" if gauged else "")
        partner = results["clifford-rotated"][1] if gauged else None
        expect(f"spectrum {key}: real output", checks.check_spectrum(_as_report(vals), op, partner), reject=False)
        results[key] = (op, vals)
    for name, op, vals, partner, key in _spectrum_cases(results):
        expect(f"perturbed {name}", checks.check_spectrum(_as_report(vals), op, partner), reject=True, key=key)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect("per-layer names and units match BENCHMARK.json",
           [] if listed == run.per_layer_units() else ["mismatch"], reject=False)
    listed = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect("end-to-end names and units match BENCHMARK.json",
           [] if listed == run.END_TO_END else ["mismatch"], reject=False)

    print("self-test", "FAILED: " + ", ".join(bad) if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
