"""Workload definitions: the ops of one round, drawn from the seed.

A round is the same list of op kinds every time; the seed and the round
index fix the random parts (lattice shapes, query points, op order).
Paths are relative to the checkout root, which is the working directory
of the process that runs the ops.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from decimal import Decimal


CORPUS = "src/dirac_surface/corpus"
THREADS = min(2, os.cpu_count() or 1)

# interior lattices of 36 points each: same work, different points
VERIFY_SHAPES = ((6, 6), (4, 9), (9, 4), (3, 12), (12, 3))
VERIFY_CASES = (("graph", False), ("sphere", False), ("clifford-rotated", True))

# 16x16 is dimension 1024; the shape is fixed because the eigensolve time
# depends on it (8x32 takes ~25 % longer at the same dimension)
SPECTRUM_GRID = (16, 16)
SPECTRUM_CASES = (("clifford", False), ("clifford-rotated", False), ("clifford-rotated", True))

# left out because they fail at some seed-drawn points (see CHANGES.md):
# frame and tube on graph near its origin, where the pivoted normal frame
# turns fast, and tube on clifford-rotated, whose fixed offsets fail the
# slope check at about half of all points
FRAME_SURFACES = ("plane", "plane-torus", "sphere", "clifford", "clifford-rotated")
TUBE_SURFACES = ("plane", "sphere", "clifford")
# as many parse-checks as tube queries, so the median op is a frame query
# and not the boundary between two kinds of op; graph keeps one op here
PARSE_SURFACES = ("graph", "sphere", "clifford-rotated")

# parameter domains of the corpus files, as the files declare them
_UNIT = (-1.0, 1.0)
_TORUS = (0.0, 2.0 * math.pi)
DOMAINS = {
    "plane": (_UNIT, _UNIT),
    "plane-torus": (_TORUS, _TORUS),
    "graph": (_UNIT, _UNIT),
    "sphere": ((0.3, math.pi - 0.3), _TORUS),
    "clifford": (_TORUS, _TORUS),
    "clifford-rotated": (_TORUS, _TORUS),
}


@dataclass(frozen=True)
class Op:
    kind: str                 # CLI command
    surface: str
    argv: tuple
    sites: int                # parameter points the op evaluates
    grid: tuple = ()
    gauged: bool = False
    point: tuple = ()

    @property
    def name(self) -> str:
        """The op kind: each round runs every kind of its workload once."""
        return f"{self.kind} {self.surface}" + (" --gauged" if self.gauged else "")


def corpus_file(surface: str) -> str:
    return f"{CORPUS}/{surface}.imm"


def _arg(x: float) -> str:
    """``x`` in positional notation, which parses back to the same float.

    The CLI's ``--at`` takes a negative number in exponent notation, such
    as ``-1e-05``, for an option and exits 2 (see CHANGES.md).
    """
    return format(Decimal(repr(x)), "f")


def _draw_point(rng, surface):
    (lo1, hi1), (lo2, hi2) = DOMAINS[surface]
    return (rng.uniform(lo1, hi1), rng.uniform(lo2, hi2))


def _verify_round(rng):
    ops = []
    for surface, gauged in VERIFY_CASES:
        n1, n2 = rng.choice(VERIFY_SHAPES)
        argv = ["verify", corpus_file(surface), "--grid", f"{n1}x{n2}"]
        argv += ["--gauged"] if gauged else []
        argv += ["--threads", str(THREADS)]
        ops.append(Op("verify", surface, tuple(argv), n1 * n2, (n1, n2), gauged))
    return ops


def _spectrum_round(rng):
    n1, n2 = SPECTRUM_GRID
    ops = []
    for surface, gauged in SPECTRUM_CASES:
        argv = ["spectrum", corpus_file(surface), "--grid", f"{n1}x{n2}"]
        argv += ["--gauged"] if gauged else []
        argv += ["--threads", str(THREADS)]
        ops.append(Op("spectrum", surface, tuple(argv), n1 * n2, (n1, n2), gauged))
    return ops


def _point_round(rng):
    ops = []
    for kind, surfaces in (("frame", FRAME_SURFACES), ("tube", TUBE_SURFACES)):
        for surface in surfaces:
            u, v = _draw_point(rng, surface)
            argv = (kind, corpus_file(surface), "--at", _arg(u), _arg(v), "--threads", str(THREADS))
            ops.append(Op(kind, surface, argv, 1, point=(u, v)))
    for surface in PARSE_SURFACES:
        # the point is where the benchmark evaluates the echoed coordinates
        argv = ("parse-check", corpus_file(surface), "--threads", str(THREADS))
        ops.append(Op("parse-check", surface, argv, 0, point=_draw_point(rng, surface)))
    return ops


ROUNDS = {
    "verify-lattice": _verify_round,
    "spectrum-grid": _spectrum_round,
    "point-queries": _point_round,
}

FILES = {
    "verify-lattice": sorted({s for s, _ in VERIFY_CASES}),
    "spectrum-grid": sorted({s for s, _ in SPECTRUM_CASES}),
    "point-queries": sorted(set(FRAME_SURFACES + TUBE_SURFACES + PARSE_SURFACES)),
}


def round_ops(workload: str, seed: int, index: int) -> list:
    """The ops of round ``index``, in a seed-drawn order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = ROUNDS[workload](rng)
    rng.shuffle(ops)
    return ops
