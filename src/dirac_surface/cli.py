"""Command-line front end.

::

    dirac-surface frame       <file> [--at U V | --grid NxM]
    dirac-surface verify      <file> [--at U V | --grid NxM] [--gauged]
    dirac-surface spectrum    <file> [--grid NxM] [--gauged]
    dirac-surface tube        <file> [--at U V]
    dirac-surface parse-check <file>

Every command also takes ``[--json | --csv] [--out PATH]``; an option
a command does not read is refused with exit code 2.  The CSV export
writes one row per record, flattened, under the union of the records'
columns, and quotes a cell that holds a comma, a quote or a line break
as Python's ``csv`` module does.

Exit codes: 0 every check passed, 1 an invariant failed (or a numeric
field came out non-finite), 2 input error, 3 resource cap exceeded.  An
error is printed as ``error: <command>: <message>``.

``main`` loads the immersion file and hands it to the command, which
returns the config, records, summary and checks of its report; only
``_finish`` builds a report, sets ``all_finite`` and ``pass``, renders it
and writes it.  Reports are deterministic: field order is fixed and floats are printed
with 17 significant digits, so identical inputs yield byte-identical
output.  The environment variable ``DIRAC_SURFACE_SEED`` seeds the RNG
used by the random-rotation property tests in the test suite; the CLI
itself draws no random numbers.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .dirac import (
    DimensionCapError,
    NonPeriodicDomainError,
    SpectrumInvariantError,
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
    frames_at,
    gauge_at,
    tube_metrics_at,
)
from .weierstrass import RESIDUAL_STEPS, reconstruct


__all__ = ["main"]

# most points a --grid lattice may hold for frame and verify
MAX_LATTICE_POINTS = 65536

# lattice points per batch of frame
_FRAME_CHUNK = 512

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
    "mode_residual": 1e-12,
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


# a JSON string escapes the quote, the backslash and every control character
_JSON_ESCAPES = {
    ord('"'): '\\"',
    ord("\\"): "\\\\",
    **{c: f"\\u{c:04x}" for c in range(0x20)},
}


def _render_json(obj, indent=0) -> str:
    # exact floats are most of a report: they and lists of them go first
    if type(obj) is float:
        return _fmt_float(obj)
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
        if all(type(v) is float for v in obj):
            return "[" + ", ".join(map(_fmt_float, obj)) + "]"
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
    return '"' + str(obj).translate(_JSON_ESCAPES) + '"'


def _flatten(prefix, value, out):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else k, v, out)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = value


def _csv_cell(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (float, np.floating)):
        return _fmt_float(float(val)).strip('"')
    return str(val)


def _render_csv(records) -> str:
    # only a CSV export loads the csv module
    import csv
    import io

    rows = []
    for record in records:
        flat = {}
        _flatten("", record, flat)
        rows.append(flat)
    columns = list(dict.fromkeys(key for row in rows for key in row))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row.get(key, "")) for key in columns] for row in rows)
    return text.getvalue()


def _all_finite(value) -> bool:
    if type(value) is float:
        return math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
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
    """The n1 x n2 interior lattice of the domain, row by row, as (n1 n2, 2)."""
    (lo1, hi1), (lo2, hi2) = spec.domain
    u = lo1 + (hi1 - lo1) * np.arange(1, n1 + 1) / (n1 + 1)
    v = lo2 + (hi2 - lo2) * np.arange(1, n2 + 1) / (n2 + 1)
    return np.stack(np.meshgrid(u, v, indexing="ij"), axis=-1).reshape(-1, 2)


def _in_domain(spec, pt):
    """``pt`` as a tuple, refused if a coordinate is not finite or leaves
    a non-periodic domain axis."""
    for val, (lo, hi), periodic in zip(pt, spec.domain, spec.periodic):
        if not math.isfinite(val):
            raise ExprError(f"point coordinate {val} is not finite")
        if not periodic and not (lo <= val <= hi):
            raise ExprError(f"point coordinate {val} outside domain [{lo}, {hi}]")
    return tuple(pt)


def _points_from_args(spec, args, default_grid):
    """The queried points as an (n, 2) array: the ``--at`` point or a lattice."""
    if args.at is not None:
        return np.array([_in_domain(spec, args.at)])
    n1, n2 = args.grid if args.grid is not None else default_grid
    if n1 * n2 > MAX_LATTICE_POINTS:
        raise DimensionCapError(
            f"lattice {n1}x{n2} has {n1 * n2} points, above the cap "
            f"{MAX_LATTICE_POINTS}"
        )
    return _interior_lattice(spec, n1, n2)


def _records(points, columns) -> list:
    """One record per point: its coordinates ``s``, then an entry per column."""
    keys = ("s", *columns)
    return [dict(zip(keys, row)) for row in zip(points.tolist(), *columns.values())]


def _finish(args, spec, config, records, summary, checks) -> int:
    """Build the report of a command, write it, and return the exit code."""
    report = {
        "command": args.command,
        "spec": spec.name,
        "file": args.file,
        "config": config,
        "records": records,
        "summary": summary,
        "checks": checks,
    }
    finite = _all_finite(report)
    report["all_finite"] = finite
    report["pass"] = bool(finite and all(c["pass"] for c in checks))
    if args.format == "csv":
        text = _render_csv(records)
    else:
        text = _render_json(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# commands: each returns the config, records, summary and checks of its report
# ---------------------------------------------------------------------------


# frame checks: name, the column whose largest entry it bounds, tolerance
_FRAME_CHECKS = (
    ("frame_orthonormality", "orthonormality_defect", "orthonormality"),
    ("frame_orientation", "det_rotation_defect", "det_rotation"),
    ("torsion_antisymmetry", "torsion_antisymmetry_defect", "torsion_antisymmetry"),
    ("gauge_relations", "gauge_relation_defect", "gauge_relations"),
)


def _gauge_relation_defect(t3, t4, hat_t3, theta) -> float:
    # the C library's cos and sin, as for the gauge angle's atan2
    return max(abs(t3 - hat_t3 * math.cos(theta)), abs(t4 + hat_t3 * math.sin(theta)))


def _frame_columns(spec: ImmersionSpec, points) -> dict:
    """The ``frame`` columns at ``points``, built in one batch; a column
    holds one entry per point, in plain Python numbers."""
    # a single point stays a (2,) array, which eval_jets serves on plain floats
    one = len(points) == 1
    listed = (lambda a: [a.tolist()]) if one else (lambda a: a.tolist())
    frame = frames_at(spec, points[0] if one else points)
    conn = connection_from_frame(frame)
    gd = gauge_at(conn)
    R = frame.rotation()
    gram = R.swapaxes(-1, -2) @ R
    anti = conn.gamma_nor + conn.gamma_nor.swapaxes(-1, -2)
    # hat_trace3 is the C library's hypot of the two traces
    t3, t4, hat_t3, theta = map(listed, (conn.trace3, conn.trace4, gd.hat_trace3, gd.theta))
    return {
        "x": listed(frame.x),
        "ehat": listed(frame.ehat),
        "n": listed(frame.n),
        "g": listed(frame.g),
        "det_g": listed(frame.det_g),
        "trace3": t3,
        "trace4": t4,
        "trace_invariant": hat_t3,
        "gamma_tan": listed(conn.gamma_tan),
        "gamma_nor": listed(conn.gamma_nor),
        "torsion": listed(conn.torsion),
        "theta": theta,
        "hat_trace3": hat_t3,
        # the gauge fix zeroes the second trace by construction
        "hat_trace4": [0.0] * len(points),
        "hat_torsion": listed(gd.hat_torsion),
        "gauge_degenerate": listed(gd.degenerate),
        "orthonormality_defect": listed(np.abs(gram - np.eye(4)).max(axis=(-2, -1))),
        "det_rotation_defect": listed(np.abs(np.linalg.det(R) - 1.0)),
        "torsion_antisymmetry_defect": listed(np.abs(anti).max(axis=(-3, -2, -1))),
        "gauge_relation_defect": list(map(_gauge_relation_defect, t3, t4, hat_t3, theta)),
    }


def _cmd_frame(spec, args):
    points = _points_from_args(spec, args, default_grid=(3, 3))
    records = []
    # the columns that the checks and the summary read, over every pass
    kept = {key: [] for key in ("trace_invariant", *(key for _, key, _ in _FRAME_CHECKS))}
    # passes of a fixed number of points bound the arrays held at once
    for i in range(0, len(points), _FRAME_CHUNK):
        chunk = points[i : i + _FRAME_CHUNK]
        columns = _frame_columns(spec, chunk)
        records += _records(chunk, columns)
        for key, column in kept.items():
            column += columns[key]
    checks = [_check(name, max(kept[key]), TOL[tol]) for name, key, tol in _FRAME_CHECKS]
    summary = {
        "max_trace_invariant": max(kept["trace_invariant"]),
        "min_trace_invariant": min(kept["trace_invariant"]),
    }
    return {"points": len(points)}, records, summary, checks


def _cmd_verify(spec, args):
    points = _points_from_args(spec, args, default_grid=(5, 5))
    rep = reconstruct(spec, points, gauged=args.gauged)
    columns = {
        key: getattr(rep, key)
        for key in (
            "residual_bilinear", "max_imag", "orthonormality", "residual_dirac",
            "convergence_ratio", "torsion", "hat_torsion", "W", "T",
        )
    }
    # residuals at the floating-point floor give an infinite ratio;
    # the cap keeps every numeric field of the report finite
    columns["convergence_ratio"] = np.minimum(columns["convergence_ratio"], 1e6)
    # the bilinears reconstruct the tangents, so their residuals are judged
    # against the tangents' own scale, max(1, max|T|) at each point
    scale = np.maximum(1.0, np.abs(rep.T).max(axis=(-2, -1)))
    judged = {
        key: max(np.ravel(getattr(rep, key) / scale).tolist())
        for key in ("residual_bilinear", "max_imag")
    }
    columns = {key: a.tolist() for key, a in columns.items()}
    worst_bilinear = max(columns["residual_bilinear"])
    worst_ratio = min(columns["convergence_ratio"])
    checks = [
        _check("weierstrass_identity", judged["residual_bilinear"], TOL["bilinear"]),
        _check("bilinear_imaginary_parts", judged["max_imag"], TOL["bilinear_imag"]),
        _check(
            "spinor_orthonormality",
            max(columns["orthonormality"]),
            TOL["spinor_orthonormality"],
        ),
        _check(
            "dirac_residual_ratio", worst_ratio, TOL["residual_ratio"], kind="min"
        ),
    ]
    config = {"gauged": args.gauged, "residual_steps": list(RESIDUAL_STEPS), "points": len(points)}
    summary = {
        "max_residual_bilinear": worst_bilinear,
        "worst_convergence_ratio": worst_ratio,
    }
    return config, _records(points, columns), summary, checks


def _cmd_spectrum(spec, args):
    n1, n2 = args.grid if args.grid is not None else (8, 8)
    op = assemble_grid_operator(spec, n1, n2, gauged=args.gauged)
    vals, squares, residual = eigenvalues(op, return_squares=True, return_residual=True)
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
    constant = is_constant_coefficient(op)
    fourier_dist = None
    if constant:
        fourier_dist = multiset_distance(vals, fourier_eigenvalues(op))
        checks.append(
            _check("fourier_oracle_match", fourier_dist, TOL["fourier_match"])
        )
    # the per-mode solve, lifted to the grid, against the stencil of XY
    if residual is not None:
        checks.append(_check("mode_residual", residual, TOL["mode_residual"]))
    config = {"grid": [n1, n2], "gauged": args.gauged, "dimension": op.dim}
    records = [{"re": v.real, "im": v.imag} for v in vals.tolist()]
    summary = {
        "constant_coefficient": constant,
        "fourier_oracle_distance": fourier_dist,
        "zero_eigenvalues": int(np.sum(np.abs(vals) < 1e-10)),
        "max_abs": float(np.max(np.abs(vals))),
        "invariant_directions": [spec.param_names[a] for a in op.invariant_directions],
        "shift_defect": list(op.shift_defect),
        "mode_residual": residual,
    }
    return config, records, summary, checks


def _cmd_tube(spec, args):
    if args.at is not None:
        pt = _in_domain(spec, args.at)
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
    g_defect = float(np.max(np.abs(zero.g_tube - zero.frame.g)))
    records = [
        {
            "direction": "origin",
            "eps": 0.0,
            "rho_exact": zero.rho_exact,
            "rho_leading": zero.rho_leading,
            "g_tube_defect": g_defect,
        }
    ]
    checks = [
        _check("density_at_zero_offset", abs(zero.rho_exact - 1.0), TOL["tube_exact"]),
        _check("metric_at_zero_offset", g_defect, TOL["tube_exact"]),
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
            # differences at the rounding floor: the expansion is exact in
            # this direction and a log-log fit is meaningless
            slopes[label] = None
            checks.append(
                _check(f"exact_agreement_{label}", max(diffs), TOL["tube_floor"])
            )
    return {"at": list(pt), "eps": list(eps)}, records, {"slopes": slopes}, checks


def _cmd_parse_check(spec, args):
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
    return {}, [record], {}, []


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


# command: (handler, help, the options it reads besides --json, --csv, --out)
_COMMANDS = {
    "frame": (
        _cmd_frame,
        "frame, metric, connection and gauge data at sample points",
        ("at", "grid"),
    ),
    "verify": (
        _cmd_verify,
        "tangent reconstruction from spinor bilinears",
        ("at", "grid", "gauged"),
    ),
    "spectrum": (
        _cmd_spectrum,
        "assemble the periodic grid operator and diagonalize",
        ("grid", "gauged"),
    ),
    "tube": (_cmd_tube, "tube metric and density diagnostics", ("at",)),
    "parse-check": (
        _cmd_parse_check, "parse an immersion file and echo its structure", ()
    ),
}


# built once per process: parsing leaves no state on the parser, and
# in-process callers would otherwise rebuild five subparsers per call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-surface",
        description=(
            "Frames, curvature, spinor reconstruction and operator spectra "
            "for surfaces immersed in 4-space."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="immersion definition file")
        # a single point and a lattice exclude each other
        points = p.add_mutually_exclusive_group() if "at" in options else p
        if "at" in options:
            points.add_argument(
                "--at", nargs=2, type=float, metavar=("U", "V"), default=None,
                help="evaluate at a single parameter point",
            )
        if "grid" in options:
            points.add_argument(
                "--grid", type=_grid, default=None, metavar="NxM",
                help="evaluate on an interior lattice (or the operator grid)",
            )
        if "gauged" in options:
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
        # accepted and ignored, because perfbench still passes --threads to
        # every command: delete this line once the benchmark stops passing it
        p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    return parser


def _positional_at(argv):
    """Prefix a space to each negative number among the values of ``--at``.

    argparse takes a token such as ``-1e-05`` or ``-inf`` for an option,
    since its negative-number pattern has no exponent, inf or nan; a token
    that starts with a space is a value, and ``float`` ignores the space.
    """
    argv = list(argv)
    for i, token in enumerate(argv):
        if token != "--at":
            continue
        for j in range(i + 1, min(i + 3, len(argv))):
            try:
                float(argv[j])
            except ValueError:
                continue
            if argv[j].startswith("-"):
                argv[j] = " " + argv[j]
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_positional_at(argv))
    try:
        spec = load_immersion(args.file)
        return _finish(args, spec, *_COMMANDS[args.command][0](spec, args))
    except DimensionCapError as exc:
        code, error = 3, exc
    except (ExprError, NonPeriodicDomainError, OSError, ValueError) as exc:
        code, error = 2, exc
    except (GeometryError, SpectrumInvariantError) as exc:
        code, error = 1, exc
    print(f"error: {args.command}: {error}", file=sys.stderr)
    return code

if __name__ == "__main__":
    sys.exit(main())
