"""Command-line front end.

::

    dirac-surface <frame|verify|spectrum|tube|parse-check> <file>
                  [--at U V | --grid NxM] [--gauged]
                  [--json | --csv] [--out PATH] [--threads K]

Exit codes: 0 every check passed, 1 an invariant failed (or a numeric
field came out non-finite), 2 input error, 3 resource cap exceeded.

Reports are deterministic: field order is fixed and floats are printed
with 17 significant digits, so identical inputs yield byte-identical
output.  The environment variable ``DIRAC_SURFACE_SEED`` seeds the RNG
used by the random-rotation property tests in the test suite; the CLI
itself draws no random numbers.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import os
import sys
from decimal import Decimal, InvalidOperation

import numpy as np

from .dirac import (
    DimensionCapError,
    NonPeriodicDomainError,
    assemble_grid_operator,
    eigenvalues,
    fourier_eigenvalues,
    is_constant_coefficient,
    multiset_distance,
)
from .expr import ExprError, ImmersionSpec, load_immersion, unparse
from .geometry import (
    GeometryError,
    connection_from_frame,
    frame_at,
    gauge_at,
    tube_metrics_at,
)
from .weierstrass import reconstruct, safe_ratio


__all__ = ["main"]

_DEFAULT_RESIDUAL_STEPS = (1e-2, 5e-3, 2.5e-3)

# most points a --grid lattice may hold for frame and verify
MAX_LATTICE_POINTS = 65536

# tolerances for the pass/fail flags, mirrored by the acceptance tests
TOL = {
    "orthonormality": 1e-12,
    "det_rotation": 1e-10,
    "torsion_antisymmetry": 1e-8,
    "gauge_relations": 1e-10,
    "bilinear": 1e-8,
    "bilinear_imag": 1e-10,
    "spinor_orthonormality": 1e-12,
    "residual_ratio": 3.5,
    "fourier_match": 1e-10,
    "conjugation_symmetry": 1e-10,
    "tube_slope": 1.9,
    "tube_exact": 1e-12,
    "tube_floor": 1e-9,
}


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def _render_json(obj, indent=0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{key}": {_render_json(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_render_json(v) for v in obj) + "]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = value


def _render_csv(report) -> str:
    rows = []
    for record in report["records"]:
        flat = {}
        _flatten("", record, flat)
        rows.append(flat)
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for key in columns:
            val = row.get(key, "")
            if isinstance(val, bool):
                cells.append("true" if val else "false")
            elif isinstance(val, (float, np.floating)):
                cells.append(_fmt_float(float(val)).strip('"'))
            else:
                cells.append(str(val))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return math.isfinite(float(value))
    return True


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _check(name, value, threshold, kind="max") -> dict:
    """A named pass/fail flag; ``kind`` is 'max' (value <= threshold) or
    'min' (value >= threshold)."""
    ok = bool(value <= threshold) if kind == "max" else bool(value >= threshold)
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "kind": kind,
        "pass": ok,
    }


def _interior_lattice(spec: ImmersionSpec, n1: int, n2: int):
    (lo1, hi1), (lo2, hi2) = spec.domain
    points = []
    for i in range(n1):
        for j in range(n2):
            points.append(
                (
                    lo1 + (hi1 - lo1) * (i + 1) / (n1 + 1),
                    lo2 + (hi2 - lo2) * (j + 1) / (n2 + 1),
                )
            )
    return points


def _points_from_args(spec, args, default_grid):
    if args.at is not None:
        u, v = args.at
        for axis, val in enumerate((u, v)):
            lo, hi = spec.domain[axis]
            if not spec.periodic[axis] and not (lo <= val <= hi):
                raise ExprError(
                    f"point coordinate {val} outside domain [{lo}, {hi}]"
                )
        return [(u, v)]
    n1, n2 = args.grid if args.grid is not None else default_grid
    if n1 * n2 > MAX_LATTICE_POINTS:
        raise DimensionCapError(
            f"lattice {n1}x{n2} has {n1 * n2} points, above the cap "
            f"{MAX_LATTICE_POINTS}"
        )
    return _interior_lattice(spec, n1, n2)


def _map_points(points, worker, threads):
    if threads == 1 or len(points) <= 1:
        return [worker(pt) for pt in points]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, points))


def _finish(report, args) -> int:
    checks = report["checks"]
    finite = _all_finite(report)
    report["all_finite"] = finite
    report["pass"] = bool(finite and all(c["pass"] for c in checks))
    if args.format == "csv":
        text = _render_csv(report)
    else:
        text = _render_json(_jsonable(report)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_frame(args) -> int:
    spec = load_immersion(args.file)
    points = _points_from_args(spec, args, default_grid=(3, 3))

    def worker(pt):
        frame = frame_at(spec, pt)
        conn = connection_from_frame(frame)
        gd = gauge_at(conn)
        R = frame.rotation()
        gram = R.T @ R
        record = {
            "s": list(pt),
            "x": frame.x.tolist(),
            "ehat": frame.ehat.tolist(),
            "n": frame.n.tolist(),
            "g": frame.g.tolist(),
            "det_g": frame.det_g,
            "trace3": conn.trace3,
            "trace4": conn.trace4,
            "trace_invariant": math.hypot(conn.trace3, conn.trace4),
            "gamma_tan": conn.gamma_tan.tolist(),
            "gamma_nor": conn.gamma_nor.tolist(),
            "torsion": conn.torsion.tolist(),
            "theta": gd.theta,
            "hat_trace3": gd.hat_trace3,
            "hat_trace4": gd.hat_trace4,
            "hat_torsion": gd.hat_torsion.tolist(),
            "gauge_degenerate": gd.degenerate,
            "orthonormality_defect": float(np.max(np.abs(gram - np.eye(4)))),
            "det_rotation_defect": float(abs(np.linalg.det(R) - 1.0)),
            "torsion_antisymmetry_defect": float(
                np.max(np.abs(conn.gamma_nor + conn.gamma_nor.transpose(0, 2, 1)))
            ),
            "gauge_relation_defect": max(
                abs(conn.trace3 - gd.hat_trace3 * math.cos(gd.theta)),
                abs(conn.trace4 + gd.hat_trace3 * math.sin(gd.theta)),
            ),
        }
        return record

    records = _map_points(points, worker, args.threads)
    checks = [
        _check(
            "frame_orthonormality",
            max(r["orthonormality_defect"] for r in records),
            TOL["orthonormality"],
        ),
        _check(
            "frame_orientation",
            max(r["det_rotation_defect"] for r in records),
            TOL["det_rotation"],
        ),
        _check(
            "torsion_antisymmetry",
            max(r["torsion_antisymmetry_defect"] for r in records),
            TOL["torsion_antisymmetry"],
        ),
        _check(
            "gauge_relations",
            max(r["gauge_relation_defect"] for r in records),
            TOL["gauge_relations"],
        ),
    ]
    report = {
        "command": "frame",
        "spec": spec.name,
        "file": args.file,
        "config": {"points": len(records)},
        "records": records,
        "summary": {
            "max_trace_invariant": max(r["trace_invariant"] for r in records),
            "min_trace_invariant": min(r["trace_invariant"] for r in records),
        },
        "checks": checks,
    }
    return _finish(report, args)


def _cmd_verify(args) -> int:
    spec = load_immersion(args.file)
    points = _points_from_args(spec, args, default_grid=(5, 5))
    steps = _DEFAULT_RESIDUAL_STEPS

    def worker(pt):
        rep = reconstruct(spec, pt, gauged=args.gauged, steps=steps)
        # residuals at the floating-point floor count as converged; the
        # reported ratio is capped so every numeric field stays finite
        ratios = [
            min(safe_ratio(rep.residual_dirac[i], rep.residual_dirac[i + 1]), 1e6)
            for i in range(len(rep.residual_dirac) - 1)
        ]
        return {
            "s": list(pt),
            "residual_bilinear": rep.residual_bilinear,
            "max_imag": rep.max_imag,
            "orthonormality": rep.orthonormality,
            "residual_dirac": list(rep.residual_dirac),
            "convergence_ratio": min(ratios),
            "torsion": rep.torsion.tolist(),
            "hat_torsion": rep.hat_torsion.tolist(),
            "W": rep.W.tolist(),
            "T": rep.T.tolist(),
        }

    records = _map_points(points, worker, args.threads)
    worst_ratio = min(r["convergence_ratio"] for r in records)
    checks = [
        _check(
            "weierstrass_identity",
            max(r["residual_bilinear"] for r in records),
            TOL["bilinear"],
        ),
        _check(
            "bilinear_imaginary_parts",
            max(r["max_imag"] for r in records),
            TOL["bilinear_imag"],
        ),
        _check(
            "spinor_orthonormality",
            max(r["orthonormality"] for r in records),
            TOL["spinor_orthonormality"],
        ),
        _check(
            "dirac_residual_ratio", worst_ratio, TOL["residual_ratio"], kind="min"
        ),
    ]
    report = {
        "command": "verify",
        "spec": spec.name,
        "file": args.file,
        "config": {
            "gauged": args.gauged,
            "residual_steps": list(steps),
            "points": len(records),
        },
        "records": records,
        "summary": {
            "max_residual_bilinear": max(r["residual_bilinear"] for r in records),
            "worst_convergence_ratio": worst_ratio,
        },
        "checks": checks,
    }
    return _finish(report, args)


def _cmd_spectrum(args) -> int:
    spec = load_immersion(args.file)
    grid = args.grid if args.grid is not None else (8, 8)
    n1, n2 = grid
    op = assemble_grid_operator(spec, n1, n2, gauged=args.gauged)
    vals, squares = eigenvalues(op, return_squares=True)
    # every coefficient of the operator is real, so the antiunitary
    # J = (i tau_3 (x) tau_2) K commutes with it and the spectrum is closed
    # under conjugation; the squares mu = lambda^2 carry the same closure
    checks = [
        _check(
            "conjugation_symmetry",
            multiset_distance(squares, squares.conj()),
            TOL["conjugation_symmetry"],
        )
    ]
    # the mode oracle describes the plain central-difference assembly; the
    # gauged matrix carries link factors in its hoppings, so skip it there
    constant = (not args.gauged) and is_constant_coefficient(op)
    fourier_dist = None
    if constant:
        fourier_dist = multiset_distance(vals, fourier_eigenvalues(op))
        checks.append(
            _check("fourier_oracle_match", fourier_dist, TOL["fourier_match"])
        )
    records = [
        {"re": float(v.real), "im": float(v.imag)} for v in vals
    ]
    report = {
        "command": "spectrum",
        "spec": spec.name,
        "file": args.file,
        "config": {
            "grid": [n1, n2],
            "gauged": args.gauged,
            "dimension": op.dim,
        },
        "records": records,
        "summary": {
            "constant_coefficient": constant,
            "fourier_oracle_distance": fourier_dist,
            "zero_eigenvalues": int(np.sum(np.abs(vals) < 1e-10)),
            "max_abs": float(np.max(np.abs(vals))),
        },
        "checks": checks,
    }
    return _finish(report, args)


def _cmd_tube(args) -> int:
    spec = load_immersion(args.file)
    if args.at is not None:
        pt = tuple(args.at)
    else:
        (lo1, hi1), (lo2, hi2) = spec.domain
        pt = (lo1 + 0.37 * (hi1 - lo1), lo2 + 0.41 * (hi2 - lo2))
    eps = (0.04, 0.02, 0.01)
    directions = {
        "n3": np.array([1.0, 0.0]),
        "n4": np.array([0.0, 1.0]),
        "mixed": np.array([1.0, 1.0]) / math.sqrt(2.0),
    }

    offsets = [(0.0, 0.0)] + [e * d for d in directions.values() for e in eps]
    samples = iter(tube_metrics_at(spec, pt, offsets))
    zero = next(samples)
    records = [
        {
            "direction": "origin",
            "eps": 0.0,
            "rho_exact": zero.rho_exact,
            "rho_leading": zero.rho_leading,
            "g_tube_defect": float(np.max(np.abs(zero.g_tube - zero.frame.g))),
        }
    ]
    checks = [
        _check(
            "density_at_zero_offset",
            abs(zero.rho_exact - 1.0),
            TOL["tube_exact"],
        ),
        _check(
            "metric_at_zero_offset",
            records[0]["g_tube_defect"],
            TOL["tube_exact"],
        ),
    ]
    slopes = {}
    for label in directions:
        diffs = []
        for e in eps:
            ts = next(samples)
            diffs.append(abs(ts.rho_exact - ts.rho_leading))
            records.append(
                {
                    "direction": label,
                    "eps": e,
                    "rho_exact": ts.rho_exact,
                    "rho_leading": ts.rho_leading,
                    "abs_difference": diffs[-1],
                }
            )
        if min(diffs) > TOL["tube_floor"]:
            slope = float(np.polyfit(np.log(eps), np.log(diffs), 1)[0])
            slopes[label] = slope
            checks.append(
                _check(f"quadratic_decay_{label}", slope, TOL["tube_slope"], "min")
            )
        else:
            # differences at the differencing noise floor: the expansion is
            # exact in this direction and a log-log fit is meaningless
            slopes[label] = None
            checks.append(
                _check(f"exact_agreement_{label}", max(diffs), TOL["tube_floor"])
            )
    report = {
        "command": "tube",
        "spec": spec.name,
        "file": args.file,
        "config": {"at": list(pt), "eps": list(eps)},
        "records": records,
        "summary": {"slopes": slopes},
        "checks": checks,
    }
    return _finish(report, args)


def _cmd_parse_check(args) -> int:
    spec = load_immersion(args.file)
    record = {
        "name": spec.name,
        "params": list(spec.param_names),
        "coords": [unparse(c, spec.param_names) for c in spec.coord_exprs],
        "domain": [list(spec.domain[0]), list(spec.domain[1])],
        "periodic": list(spec.periodic),
        "frame_rotation": (
            None
            if spec.frame_rotation is None
            else unparse(spec.frame_rotation, spec.param_names)
        ),
    }
    report = {
        "command": "parse-check",
        "spec": spec.name,
        "file": args.file,
        "config": {},
        "records": [record],
        "summary": {},
        "checks": [],
    }
    return _finish(report, args)


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _grid(text: str):
    try:
        n1, n2 = text.lower().split("x")
        n1, n2 = int(n1), int(n2)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}, expected NxM")
    if n1 < 1 or n2 < 1:
        raise argparse.ArgumentTypeError("grid sizes must be positive")
    return (n1, n2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-surface",
        description=(
            "Frames, curvature, spinor reconstruction and operator spectra "
            "for surfaces immersed in 4-space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("frame", "frame, metric, connection and gauge data at sample points"),
        ("verify", "tangent reconstruction from spinor bilinears"),
        ("spectrum", "assemble the periodic grid operator and diagonalize"),
        ("tube", "tube metric and density diagnostics"),
        ("parse-check", "parse an immersion file and echo its structure"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="immersion definition file")
        p.add_argument(
            "--at", nargs=2, type=float, metavar=("U", "V"), default=None,
            help="evaluate at a single parameter point",
        )
        p.add_argument(
            "--grid", type=_grid, default=None, metavar="NxM",
            help="evaluate on an interior lattice (or the operator grid)",
        )
        p.add_argument("--gauged", action="store_true", help="use the gauge-fixed operator")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument(
            "--json", dest="format", action="store_const", const="json",
            help="JSON report (default)",
        )
        fmt.add_argument(
            "--csv", dest="format", action="store_const", const="csv",
            help="flattened CSV export of the records",
        )
        p.set_defaults(format="json")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument(
            "--threads", type=int, default=os.cpu_count() or 1,
            help="worker threads for per-point evaluation",
        )
    return parser


_COMMANDS = {
    "frame": _cmd_frame,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "tube": _cmd_tube,
    "parse-check": _cmd_parse_check,
}


def _positional_at(argv):
    """Rewrite the two values after each ``--at`` in positional notation.

    argparse takes a token such as ``-1e-05`` for an option, since its
    negative-number pattern has no exponent; ``-0.00001`` is the same
    float and parses as a value.
    """
    argv = list(argv)
    for i, token in enumerate(argv):
        if token != "--at":
            continue
        for j in range(i + 1, min(i + 3, len(argv))):
            try:
                value = Decimal(argv[j])
            except InvalidOperation:
                continue
            # beyond the float range the long positional form buys nothing
            if argv[j].startswith("-") and value.is_finite() and abs(value.adjusted()) < 400:
                argv[j] = format(value, "f")
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_positional_at(argv))
    try:
        return _COMMANDS[args.command](args)
    except DimensionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ExprError, NonPeriodicDomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
