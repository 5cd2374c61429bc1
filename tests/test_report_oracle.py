"""Reports rendered from columns are byte-identical to the reports of the
record-by-record renderer they replaced (``render_oracle``): the same
stdout, the same file with ``--out``, no stderr and the same exit code,
for every command in JSON and CSV, on every corpus file."""

import io
import json
import math

import numpy as np
import pytest

import render_oracle
from dirac_surface import cli
from dirac_surface.cli import main
from dirac_surface.corpus import corpus_path, load_corpus


CORPUS = (
    "plane", "graph", "sphere", "clifford", "clifford-rotated", "plane-torus",
    "bump-torus", "moebius-clifford", "inverted-clifford",
)


def _command_lines():
    lines = []
    for name in CORPUS:
        path = str(corpus_path(name))
        spec = load_corpus(name)
        at = [repr(lo + f * (hi - lo)) for (lo, hi), f in zip(spec.domain, (0.3, 0.6))]
        lines += [
            ("frame", path, "--grid", "4x4"),
            ("frame", path, "--at", *at),
            ("verify", path, "--grid", "3x3"),
            ("verify", path, "--grid", "3x3", "--gauged"),
            ("tube", path),
            ("parse-check", path),
        ]
        if all(spec.periodic):
            lines += [
                ("spectrum", path, "--grid", "8x8"),
                ("spectrum", path, "--grid", "8x8", "--gauged"),
            ]
    # two frame passes of 512 points, and records written in several chunks
    lines.append(("frame", str(corpus_path("sphere")), "--grid", "30x20"))
    return lines


COMMAND_LINES = _command_lines()


def _id(argv):
    return "-".join([argv[0], argv[1].rsplit("/", 1)[-1].removesuffix(".imm"), *argv[2:]])


def _check_against_oracle(tmp_path, capsys, monkeypatch, argv):
    """Run ``argv`` in JSON and CSV, to stdout and with ``--out``, and
    compare each run with the oracle's rendering of the same columns;
    returns the JSON report written to stdout."""
    expected = []
    finish = cli._finish

    def both(args, spec, *report):
        expected.append(render_oracle.finish(args, spec, *report))
        return finish(args, spec, *report)

    monkeypatch.setattr(cli, "_finish", both)
    out = tmp_path / "report"
    reports = {}
    for fmt in ("--json", "--csv"):
        for where in ((), ("--out", str(out))):
            expected.clear()
            out.unlink(missing_ok=True)
            code = main([*argv, fmt, *where])
            stdout, stderr = capsys.readouterr()
            if not expected:
                # the command failed before its report: nothing is written
                assert (stdout, out.exists()) == ("", False)
                assert code in (1, 2, 3) and stderr.startswith(f"error: {argv[0]}: ")
                text = ""
            else:
                if where:
                    assert stdout == ""
                    text = out.read_text(encoding="utf-8")
                else:
                    text = stdout
                [(oracle_text, oracle_code)] = expected
                assert (code, text, stderr) == (oracle_code, oracle_text, ""), (fmt, where)
            reports[fmt, bool(where)] = text
    assert reports["--json", True] == reports["--json", False]
    assert reports["--csv", True] == reports["--csv", False]
    return reports["--json", False]


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=map(_id, COMMAND_LINES))
def test_report_matches_oracle(tmp_path, capsys, monkeypatch, argv):
    _check_against_oracle(tmp_path, capsys, monkeypatch, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", str(corpus_path("clifford-rotated")), "--grid", "3x3", "--gauged"),
        ("frame", str(corpus_path("graph")), "--grid", "3x4"),
        ("tube", str(corpus_path("sphere"))),
        ("spectrum", str(corpus_path("clifford")), "--grid", "4x4"),
    ],
    ids=["verify", "frame", "tube", "spectrum"],
)
def test_chunked_writes_match_oracle(tmp_path, capsys, monkeypatch, argv):
    """Chunks of one record, and of a few values, join into the same report."""
    for values in (1, 50):
        monkeypatch.setattr(cli, "_CHUNK_VALUES", values)
        _check_against_oracle(tmp_path, capsys, monkeypatch, argv)


SPOILED = [math.nan, math.inf, -math.inf, -0.0]


@pytest.mark.parametrize(
    "argv,key",
    [
        (("verify", str(corpus_path("clifford-rotated")), "--grid", "3x3"), "W"),
        (("verify", str(corpus_path("sphere")), "--at", "1.0", "0.7"), "convergence_ratio"),
        (("spectrum", str(corpus_path("moebius-clifford")), "--grid", "8x8"), "re"),
        (("spectrum", str(corpus_path("clifford")), "--grid", "4x4", "--gauged"), "im"),
    ],
    ids=["verify-W", "verify-at-ratio", "spectrum-re", "spectrum-im"],
)
def test_non_finite_columns_match_oracle(tmp_path, capsys, monkeypatch, argv, key):
    """nan, inf, -inf and -0.0 written into a float column after the
    command computed its checks render as the oracle renders them, make
    the report not finite and fail it."""
    handler, *rest = cli._COMMANDS[argv[0]]

    def spoiled(spec, args):
        config, blocks, summary, checks = handler(spec, args)
        column = blocks[0][key]
        column.flat[: len(SPOILED)] = SPOILED[: column.size]
        return config, blocks, summary, checks

    monkeypatch.setitem(cli._COMMANDS, argv[0], (spoiled, *rest))
    text = _check_against_oracle(tmp_path, capsys, monkeypatch, argv)
    report = json.loads(text)
    assert report["all_finite"] is False and report["pass"] is False
    assert '"nan"' in text and ('"inf"' in text or len(report["records"]) == 1)


def test_column_kinds_render_as_cells():
    """Bool, str and None columns, nested lists of them and float columns
    of any cell shape render as the oracle renders their records."""
    floats = np.array([[[0.1, -0.0], [1 / 3, 2.0]], [[1e-300, -5e300], [0.0, 7.0]]])
    block = {
        "s": floats[:, 0],
        "m": floats,
        "empty": np.zeros((2, 0)),
        "flag": np.array([True, False]),
        "name": ["a,\"b\"", "tab\tc"],
        "pair": [["u", None], [True, "v"]],
        "none": [None, None],
    }
    columns = cli._columns(block)
    assert all(finite for *_, finite in columns[0])
    args = type("Args", (), {"command": "frame", "file": "f", "out": None})
    spec = type("Spec", (), {"name": "n"})
    for fmt in ("json", "csv"):
        args.format = fmt
        text, code = render_oracle.finish(args, spec, {}, [block], {}, [])
        out = io.StringIO()
        if fmt == "csv":
            cli._write_csv(out, [columns])
        else:
            cli._write_records(out, [columns])
            start = text.index('"records": ') + len('"records": ')
            text = text[start : text.index(',\n  "summary"')]
        assert out.getvalue() == text
