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
returns the config, records, summary and checks of its report, the
records as columns: one numpy array per float field over the records,
and lists for the few bool, str and None fields.  Only ``_finish``
builds a report: it checks the float columns of each record layout
with one ``np.isfinite``, sets ``all_finite`` and ``pass``, renders the
records through one %-template per record layout, formatting the
floats in bulk, and writes them a chunk at a time, so the whole text is
never held in memory.
Reports are deterministic: field order is fixed and floats are printed
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
    fourier_mode_distance,
    is_constant_coefficient,
    trace_identity_defect,
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
    "fourier_match": 1e-11,
    "antiunitary_defect": 1e-13,
    "trace_identity": 1e-11,
    "mode_residual": 1e-12,
    "tube_slope": 1.9,
    "tube_exact": 1e-12,
    "tube_floor": 1e-9,
}


# ---------------------------------------------------------------------------
# deterministic rendering
# ---------------------------------------------------------------------------
#
# A command returns its records as blocks of columns: a block maps each
# field of one record layout to its values at the block's n records, in
# record order, a float field as an array (n, ...) and a bool, str or
# None field as a list, and the report lists the records of its blocks
# one block after another.  A finite float column is formatted in bulk
# through one %-template per layout; any other column, and a float
# column that is not all finite, is rendered a record's value at a time
# by _render_json, which also renders the small sections of the report.
# Both follow _fmt_float's rules: 17 significant digits, -0.0 written as
# 0, and nan, inf and -inf as strings.


# the .17g texts a report writes otherwise: -0.0 as 0, the others as strings
_FLOAT_TEXTS = {"-0": "0", "nan": '"nan"', "inf": '"inf"', "-inf": '"-inf"'}


def _fmt_float(x: float) -> str:
    text = format(x, ".17g")
    return _FLOAT_TEXTS.get(text, text)


# a JSON string escapes the quote, the backslash and every control character
_JSON_ESCAPES = {
    ord('"'): '\\"',
    ord("\\"): "\\\\",
    **{c: f"\\u{c:04x}" for c in range(0x20)},
}


def _render_json(obj, indent=0) -> str:
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is str and obj.isprintable() and '"' not in obj and "\\" not in obj:
        return f'"{obj}"'
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
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
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return "[" + ", ".join(_render_json(v) for v in obj) + "]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return '"' + str(obj).translate(_JSON_ESCAPES) + '"'


def _all_finite(value) -> bool:
    """Whether every float in ``value``, nested dicts and lists, is finite."""
    kind = type(value)
    if kind is float:
        return math.isfinite(value)
    if kind is str or kind is bool or value is None:
        return True
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return all(map(_all_finite, value))
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return True


def _shape(value) -> tuple:
    """The shape of a nested list, read along its first entries."""
    shape = ()
    while isinstance(value, (list, tuple)):
        shape += (len(value),)
        value = value[0] if value else None
    return shape


def _leaves(value) -> list:
    """The entries of a nested list, in order."""
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def _columns(block) -> tuple:
    """A block of columns made ready to write, as (fields, floats).

    ``floats`` (n, F) holds the entries of the block's float columns side
    by side, -0.0 made 0.  ``fields`` holds (key, cell shape, slots,
    cells, finite) per column, in record order: for a float column the
    slice of ``floats`` that holds it and None, for any other column None
    and its n cells as Python values; and whether all of it is finite.
    """
    names, parts, cells = [], [], []
    for key, column in block.items():
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            shape = column.shape[1:]
            parts.append(column.reshape(len(column), math.prod(shape)))
            cells.append(None)
        else:
            # numpy's scalars do not render as JSON: cells are Python values
            column = column.tolist() if isinstance(column, np.ndarray) else list(column)
            shape = _shape(column[0]) if column else ()
            cells.append(column)
        names.append((key, shape))
    n = len(parts[0]) if parts else len(cells[0])
    floats = np.concatenate(parts, axis=1) if parts else np.empty((n, 0))
    floats += 0.0  # -0.0 becomes 0.0, every other float stays
    finite = np.isfinite(floats)
    every = bool(finite.all())
    fields, stop = [], 0
    for (key, shape), cell in zip(names, cells):
        if cell is None:
            slots = slice(stop, stop + math.prod(shape))
            stop = slots.stop
            fields.append((key, shape, slots, None, every or bool(finite[:, slots].all())))
        else:
            fields.append((key, shape, None, cell, _all_finite(cell)))
    return fields, floats


# values rendered and written at once
_CHUNK_VALUES = 1 << 14


def _chunks(floats):
    """The (start, stop) of each chunk of a block's records."""
    step = max(1, _CHUNK_VALUES // max(1, floats.shape[1]))
    return [(i, min(i + step, len(floats))) for i in range(0, len(floats), step)]


def _slots(shape, indent: int, slot: str) -> str:
    """A nested list of ``shape`` with ``slot`` for each entry, laid out
    as _render_json lays out nested lists at ``indent``."""
    if not shape:
        return slot
    if not shape[0]:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join([slot] * shape[0]) + "]"
    pad = "  " * indent
    inner = f"{pad}  {_slots(shape[1:], indent + 1, slot)}"
    return "[\n" + ",\n".join([inner] * shape[0]) + "\n" + pad + "]"


@functools.lru_cache(maxsize=64)
def _records_template(layout, count: int) -> str:
    """The %-template of ``count`` records of ``layout``, a tuple of
    (key, cell shape, slot), as items of the report's records list."""
    items = [
        f'      "{key.replace("%", "%%")}": {_slots(shape, 3, slot)}'
        for key, shape, slot in layout
    ]
    return ",\n".join(["    {\n" + ",\n".join(items) + "\n    }"] * count)


def _write_records(fh, blocks) -> None:
    """Write the records list of a JSON report, a chunk at a time.

    A finite float column fills one %.17g slot per entry; any other
    column fills one %s slot per record with its value rendered whole."""
    sep = "["
    for fields, floats in blocks:
        # the args of a record: runs of its floats and its renderings
        layout, plan, rendered = [], [], []
        for key, shape, slots, cells, finite in fields:
            if cells is None and finite:
                layout.append((key, shape, "%.17g"))
                if plan and type(plan[-1]) is slice and plan[-1].stop == slots.start:
                    slots = slice(plan.pop().start, slots.stop)
                plan.append(slots)
                continue
            if cells is None:
                cells = floats[:, slots].reshape(-1, *shape).tolist()
            layout.append((key, (), "%s"))
            plan.append(len(rendered))
            rendered.append([_render_json(c, 3) for c in cells])
        layout = tuple(layout)
        for i, j in _chunks(floats):
            if not rendered:
                args = floats[i:j].ravel().tolist()
            else:
                args = []
                for r, row in enumerate(floats[i:j].tolist(), i):
                    for part in plan:
                        if type(part) is int:
                            args.append(rendered[part][r])
                        else:
                            args += row[part]
            fh.write(sep + "\n" + _records_template(layout, j - i) % tuple(args))
            sep = ","
    fh.write("[]" if sep == "[" else "\n  ]")


def _csv_cell(val) -> str:
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (float, np.floating)):
        return _fmt_float(float(val)).strip('"')
    return str(val)


def _write_csv(fh, blocks) -> None:
    """Write the records as CSV, one row per record, a chunk at a time,
    under the union of the blocks' columns, each flattened to one cell
    per entry (``key[i][j]``); a block lacking a column leaves it empty."""
    # only a CSV export loads the csv module
    import csv

    names = [
        [[key + "".join(f"[{i}]" for i in index) for index in np.ndindex(shape)]
         for key, shape, *_ in fields]
        for fields, _ in blocks
    ]
    header = list(dict.fromkeys(name for block in names for field in block for name in field))
    where = {name: k for k, name in enumerate(header)}
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for (fields, floats), block_names in zip(blocks, names):
        # the columns of the float entries, in the order of ``floats``,
        # and of the other columns' entries
        float_at, cell_at, cell_fields = [], [], []
        for (_, _, _, cells, _), field_names in zip(fields, block_names):
            at = [where[name] for name in field_names]
            if cells is None:
                float_at += at
            else:
                cell_at += at
                cell_fields.append(cells)
        for i, j in _chunks(floats):
            rows = np.full((j - i, len(header)), "", dtype=object)
            # %.17g writes nan, inf and -inf as _fmt_float's strings unquoted
            text = "%.17g\n" * floats[i:j].size % tuple(floats[i:j].ravel().tolist())
            rows[:, float_at] = np.array(text.split("\n")[:-1], dtype=object).reshape(
                j - i, floats.shape[1]
            )
            if cell_fields:
                rows[:, cell_at] = [
                    [_csv_cell(x) for cells in cell_fields for x in _leaves(cells[r])]
                    for r in range(i, j)
                ]
            writer.writerows(rows.tolist())


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


def _finish(args, spec, config, records, summary, checks) -> int:
    """Check the report of a command, write it, and return the exit code.

    ``records`` holds the report's blocks of columns (see above).  Every
    column is in hand before the first byte is written, so an error
    leaves no partial report.
    """
    blocks = [_columns(block) for block in records]
    finite = all(f for fields, _ in blocks for *_, f in fields) and _all_finite(
        [config, summary, checks]
    )
    passed = bool(finite and all(c["pass"] for c in checks))

    def write(fh):
        if args.format == "csv":
            _write_csv(fh, blocks)
            return
        head = {"command": args.command, "spec": spec.name, "file": args.file, "config": config}
        tail = {"summary": summary, "checks": checks, "all_finite": finite, "pass": passed}
        fh.write("{\n" + "".join(f'  "{k}": {_render_json(v, 1)},\n' for k, v in head.items()))
        fh.write('  "records": ')
        _write_records(fh, blocks)
        fh.write("".join(f',\n  "{k}": {_render_json(v, 1)}' for k, v in tail.items()) + "\n}\n")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)
    return 0 if passed else 1


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
    return max(abs(t3 - hat_t3 * math.cos(theta)), abs(t4 + hat_t3 * math.sin(theta)))


def _frame_columns(spec: ImmersionSpec, points) -> dict:
    """The ``frame`` columns at ``points``, built in one batch; a column
    is an array (len(points), ...)."""
    # a single point stays a (2,) array, which eval_jets serves on plain floats
    one = len(points) == 1
    rows = (lambda a: np.asarray(a)[None]) if one else np.asarray
    frame = frames_at(spec, points[0] if one else points)
    conn = connection_from_frame(frame)
    gd = gauge_at(conn)
    R = frame.rotation()
    gram = R.swapaxes(-1, -2) @ R
    anti = conn.gamma_nor + conn.gamma_nor.swapaxes(-1, -2)
    # hat_trace3 is the C library's hypot of the two traces
    t3, t4, hat_t3, theta = map(rows, (conn.trace3, conn.trace4, gd.hat_trace3, gd.theta))
    # the C library's cos and sin, as for the gauge angle's atan2
    gauge_defect = map(_gauge_relation_defect, *(a.tolist() for a in (t3, t4, hat_t3, theta)))
    return {
        "s": points,
        "x": rows(frame.x),
        "ehat": rows(frame.ehat),
        "n": rows(frame.n),
        "g": rows(frame.g),
        "det_g": rows(frame.det_g),
        "trace3": t3,
        "trace4": t4,
        "trace_invariant": hat_t3,
        "gamma_tan": rows(conn.gamma_tan),
        "gamma_nor": rows(conn.gamma_nor),
        "torsion": rows(conn.torsion),
        "theta": theta,
        "hat_trace3": hat_t3,
        # the gauge fix zeroes the second trace by construction
        "hat_trace4": np.zeros(len(points)),
        "hat_torsion": rows(gd.hat_torsion),
        "gauge_degenerate": rows(gd.degenerate),
        "orthonormality_defect": rows(np.abs(gram - np.eye(4)).max(axis=(-2, -1))),
        "det_rotation_defect": rows(np.abs(np.linalg.det(R) - 1.0)),
        "torsion_antisymmetry_defect": rows(np.abs(anti).max(axis=(-3, -2, -1))),
        "gauge_relation_defect": np.array(list(gauge_defect)),
    }


def _cmd_frame(spec, args):
    points = _points_from_args(spec, args, default_grid=(3, 3))
    # passes of a fixed number of points bound the intermediate arrays held at once
    passes = [
        _frame_columns(spec, points[i : i + _FRAME_CHUNK])
        for i in range(0, len(points), _FRAME_CHUNK)
    ]
    columns = passes[0]
    if len(passes) > 1:
        # each column is joined as its passes are let go
        columns = {key: np.concatenate([p.pop(key) for p in passes]) for key in list(columns)}
    checks = [
        _check(name, columns[key].max(), TOL[tol]) for name, key, tol in _FRAME_CHECKS
    ]
    summary = {
        "max_trace_invariant": float(columns["trace_invariant"].max()),
        "min_trace_invariant": float(columns["trace_invariant"].min()),
    }
    return {"points": len(points)}, [columns], summary, checks


def _cmd_verify(spec, args):
    points = _points_from_args(spec, args, default_grid=(5, 5))
    rep = reconstruct(spec, points, gauged=args.gauged)
    columns = {"s": points} | {
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
        key: (getattr(rep, key) / scale).max() for key in ("residual_bilinear", "max_imag")
    }
    worst_bilinear = float(columns["residual_bilinear"].max())
    worst_ratio = float(columns["convergence_ratio"].min())
    checks = [
        _check("weierstrass_identity", judged["residual_bilinear"], TOL["bilinear"]),
        _check("bilinear_imaginary_parts", judged["max_imag"], TOL["bilinear_imag"]),
        _check(
            "spinor_orthonormality",
            columns["orthonormality"].max(),
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
    return config, [columns], summary, checks


def _cmd_spectrum(spec, args):
    n1, n2 = args.grid if args.grid is not None else (8, 8)
    op = assemble_grid_operator(spec, n1, n2, gauged=args.gauged)
    vals, by_mode, residual = eigenvalues(op, return_squares=True, return_residual=True)
    # every coefficient of the operator is real, so the antiunitary
    # J = (i tau_3 (x) tau_2) K commutes with it, which eigenvalues
    # assumes when it copies the conjugated squares of mode m to mode -m;
    # every mode's squares, the copies included, against its own block
    checks = [
        _check("antiunitary_defect", op.antiunitary_defect, TOL["antiunitary_defect"]),
        _check("trace_identity", trace_identity_defect(by_mode), TOL["trace_identity"]),
    ]
    constant = is_constant_coefficient(op)
    fourier_dist = None
    # one site per cell: each mode is one plane wave of the symbol
    if constant and len(op.invariant_directions) == 2:
        fourier_dist = fourier_mode_distance(op, by_mode)
        checks.append(
            _check("fourier_oracle_match", fourier_dist, TOL["fourier_match"])
        )
    # the per-mode solve, lifted to the grid, against the stencil of XY
    if residual is not None:
        checks.append(_check("mode_residual", residual, TOL["mode_residual"]))
    config = {"grid": [n1, n2], "gauged": args.gauged, "dimension": op.dim}
    records = [{"re": vals.real, "im": vals.imag}]
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
    zero, *samples = tube_metrics_at(spec, pt, offsets)
    g_defect = float(np.max(np.abs(zero.g_tube - zero.frame.g)))
    diffs = [abs(ts.rho_exact - ts.rho_leading) for ts in samples]
    # the origin record, then one per direction and offset, each block's
    # float fields as the columns of one array
    origin = np.array([[0.0, zero.rho_exact, zero.rho_leading, g_defect]])
    offset = np.array(
        [
            (e, ts.rho_exact, ts.rho_leading, d)
            for e, ts, d in zip(eps * len(directions), samples, diffs)
        ]
    )
    records = [
        {
            "direction": ["origin"],
            "eps": origin[:, 0],
            "rho_exact": origin[:, 1],
            "rho_leading": origin[:, 2],
            "g_tube_defect": origin[:, 3],
        },
        {
            "direction": [label for label in directions for _ in eps],
            "eps": offset[:, 0],
            "rho_exact": offset[:, 1],
            "rho_leading": offset[:, 2],
            "abs_difference": offset[:, 3],
        },
    ]
    checks = [
        _check("density_at_zero_offset", abs(zero.rho_exact - 1.0), TOL["tube_exact"]),
        _check("metric_at_zero_offset", g_defect, TOL["tube_exact"]),
    ]
    slopes = {}
    for k, label in enumerate(directions):
        along = diffs[k * len(eps) : (k + 1) * len(eps)]
        if min(along) > TOL["tube_floor"]:
            slope = float(np.polyfit(np.log(eps), np.log(along), 1)[0])
            slopes[label] = slope
            checks.append(
                _check(f"quadratic_decay_{label}", slope, TOL["tube_slope"], "min")
            )
        else:
            # differences at the rounding floor: the expansion is exact in
            # this direction and a log-log fit is meaningless
            slopes[label] = None
            checks.append(
                _check(f"exact_agreement_{label}", max(along), TOL["tube_floor"])
            )
    return {"at": list(pt), "eps": list(eps)}, records, {"slopes": slopes}, checks


def _cmd_parse_check(spec, args):
    # one record: each column holds its one entry
    record = {
        "name": [spec.name],
        "params": [list(spec.param_names)],
        "coords": [[unparse(c, spec.param_names) for c in spec.coord_exprs]],
        "domain": np.array([spec.domain], dtype=float),
        "periodic": [list(spec.periodic)],
        "frame_rotation": [
            None
            if spec.frame_rotation is None
            else unparse(spec.frame_rotation, spec.param_names)
        ],
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
