"""The record-by-record report renderer, as a byte-identity oracle.

This is how the CLI rendered a report before it rendered records from
columns: each command's records as a list of dicts of plain Python
numbers, the whole report walked recursively for finiteness, rendered
into one string by the recursive ``_render_json`` (or flattened record
by record into CSV by ``_render_csv``) and written at once.
``finish`` takes what a command returns (its records as blocks of
columns) and gives the text and exit code the old ``_finish`` gave.
"""

import math

import numpy as np


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


def records_of(blocks) -> list:
    """The records of blocks of columns as dicts of plain Python values,
    as the commands built them before they returned columns."""
    records = []
    for block in blocks:
        cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in block.values()]
        records += [dict(zip(block, row)) for row in zip(*cells)]
    return records


def finish(args, spec, config, blocks, summary, checks):
    """The text and the exit code of a command's report."""
    records = records_of(blocks)
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
    return text, 0 if report["pass"] else 1
