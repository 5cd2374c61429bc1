"""Bundled immersion files used by the demos, the CLI docs and the tests."""

from __future__ import annotations

import importlib.resources

from ..expr import ImmersionSpec, load_immersion


__all__ = ["corpus_path", "corpus_names", "load_corpus"]

_FILES = {
    "plane": "plane.imm",
    "plane-torus": "plane-torus.imm",
    "graph": "graph.imm",
    "sphere": "sphere.imm",
    "clifford": "clifford.imm",
    "clifford-rotated": "clifford-rotated.imm",
    "bump-torus": "bump-torus.imm",
    "moebius-clifford": "moebius-clifford.imm",
    "inverted-clifford": "inverted-clifford.imm",
}


def corpus_names():
    """Names of the bundled immersion files."""
    return tuple(_FILES)


def corpus_path(name: str):
    """Filesystem path of a bundled immersion file."""
    if name not in _FILES:
        raise KeyError(f"no bundled immersion named {name!r}")
    return importlib.resources.files(__package__).joinpath(_FILES[name])


def load_corpus(name: str) -> ImmersionSpec:
    """Parse a bundled immersion file by name."""
    return load_immersion(str(corpus_path(name)))
