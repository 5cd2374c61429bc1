"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from dirac_surface.clifford import (
    basis_round,
    basis_square,
    cospinor,
    gamma,
    gauge_rotation,
    so4_pairing,
    spin_lift,
)
from dirac_surface.cli import main
from dirac_surface.corpus import corpus_path, load_corpus
from dirac_surface.dirac import (
    assemble_grid_operator,
    dirac_symbol,
    eigenvalues,
    fourier_mode_distance,
    gauged_dirac_symbol,
)
from dirac_surface.geometry import (
    connection_from_frame,
    frames_at,
    gauge_angle,
    gauge_at,
    tube_metrics_at,
)
from dirac_surface.weierstrass import reconstruct, safe_ratio
from conftest import RING_TORUS, interior_lattice, rng_seed
from pointwise_oracles import _wrap_angle, apply_pointwise
from dirac_surface.expr import parse_immersion_file


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.failures = []
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def check(self, ok, detail):
        if not ok:
            self.failures.append(detail)

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"FAIL criterion {self.number} ({self.label}): exception {exc}")
            return False
        status = "PASS" if not self.failures else "FAIL"
        extra = "" if not self.failures else f" [{'; '.join(self.failures)}]"
        print(
            f"{status} criterion {self.number} ({self.label}): "
            f"{elapsed:.2f}s (budget {self.budget:.0f}s){extra}"
        )
        assert not self.failures, self.failures
        assert elapsed < self.budget, f"runtime {elapsed:.2f}s over budget"
        return False


def test_criterion_1_clifford_axioms():
    with _Criterion(1, "Clifford axioms and constant bases", 1.0) as c:
        for i in range(1, 5):
            for j in range(1, 5):
                anti = gamma(i) @ gamma(j) + gamma(j) @ gamma(i)
                expected = 2.0 * (i == j) * np.eye(4)
                c.check(np.array_equal(anti, expected), f"anticommutator {i}{j}")
        square = basis_square()
        for a in range(4):
            for b in range(4):
                val = cospinor(square[a]) @ square[b]
                c.check(val == (1.0 if a == b else 0.0), f"orthonormal {a}{b}")
        for k, psi in enumerate(basis_round()):
            vec = so4_pairing(cospinor(psi), psi)
            expected = np.zeros(4)
            expected[k] = 1.0
            # entries 1/sqrt(2) admit one rounding step; dyadic bases are exact
            c.check(
                np.max(np.abs(vec - expected)) <= 1e-15, f"vector basis {k + 1}"
            )


def test_criterion_2_spin_lift():
    with _Criterion(2, "spin lift conjugation identity", 1.0) as c:
        rng = np.random.default_rng(rng_seed())
        worst = 0.0
        for _ in range(100):
            raw = rng.normal(size=(4, 4))
            R = scipy.linalg.expm(raw - raw.T)
            U = spin_lift(R).matrix
            Uinv = U.conj().T
            for i in range(4):
                lhs = U @ gamma(i + 1) @ Uinv
                rhs = sum(R[i, mu] * gamma(mu + 1) for mu in range(4))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        c.check(worst <= 1e-10, f"conjugation defect {worst:.2e}")

        A = np.zeros((4, 4))
        A[2, 3], A[3, 2] = math.pi / 2, -math.pi / 2
        U = spin_lift(scipy.linalg.expm(A)).matrix
        r2 = math.sqrt(2.0)
        expected = np.diag(
            [(1 - 1j) / r2, (1 + 1j) / r2, (1 + 1j) / r2, (1 - 1j) / r2]
        )
        defect = float(np.max(np.abs(U - expected)))
        c.check(defect <= 1e-12, f"quarter-turn case {defect:.2e}")


def test_criterion_3_geometry():
    with _Criterion(3, "curvature traces, torsion, frame covariance", 5.0) as c:
        for name in ("clifford", "sphere"):
            spec = load_corpus(name)
            worst_trace = 0.0
            worst_anti = 0.0
            for pt in interior_lattice(spec, 9, 9):
                conn = connection_from_frame(frames_at(spec, pt))
                worst_trace = max(
                    worst_trace, abs(math.hypot(conn.trace3, conn.trace4) - 2.0)
                )
                worst_anti = max(
                    worst_anti,
                    float(
                        np.max(
                            np.abs(
                                conn.gamma_nor + conn.gamma_nor.transpose(0, 2, 1)
                            )
                        )
                    ),
                )
            c.check(worst_trace <= 1e-8, f"{name} trace invariant {worst_trace:.2e}")
            c.check(worst_anti <= 1e-8, f"{name} antisymmetry {worst_anti:.2e}")

        base = load_corpus("clifford")
        rotated = load_corpus("clifford-rotated")
        worst_shift = 0.0
        worst_invariance = 0.0
        for pt in interior_lattice(base, 5, 5):
            cb = connection_from_frame(frames_at(base, pt))
            cr = connection_from_frame(frames_at(rotated, pt))
            worst_shift = max(
                worst_shift,
                float(np.max(np.abs(cr.torsion - cb.torsion - [1.0, 0.0]))),
            )
            worst_invariance = max(
                worst_invariance,
                abs(
                    math.hypot(cr.trace3, cr.trace4)
                    - math.hypot(cb.trace3, cb.trace4)
                ),
            )
        c.check(worst_shift <= 1e-6, f"torsion shift {worst_shift:.2e}")
        c.check(
            worst_invariance <= 1e-8, f"trace invariance {worst_invariance:.2e}"
        )


def test_criterion_4_tube_density():
    with _Criterion(4, "tube density quadratic error", 5.0) as c:
        eps = (0.04, 0.02, 0.01)
        cases = (
            ("clifford", (0.4, 0.9), np.array([1.0, 1.0]) / math.sqrt(2.0)),
            ("graph", (0.3, 0.2), np.array([1.0, 0.0])),
        )
        for name, pt, direction in cases:
            spec = load_corpus(name)
            diffs = []
            for e in eps:
                ts = tube_metrics_at(spec, pt, [e * direction])[0]
                diffs.append(abs(ts.rho_exact - ts.rho_leading))
            slope = float(np.polyfit(np.log(eps), np.log(diffs), 1)[0])
            c.check(slope >= 1.9, f"{name} slope {slope:.3f}")

        plane = load_corpus("plane")
        worst = 0.0
        for q in ((0.0, 0.0), (0.2, -0.4), (0.7, 0.1)):
            ts = tube_metrics_at(plane, (0.1, 0.2), [q])[0]
            worst = max(worst, abs(ts.rho_exact - 1.0))
        c.check(worst <= 1e-12, f"plane density defect {worst:.2e}")


def _weierstrass_battery(c, spec, gauged):
    worst_bil = worst_imag = worst_orth = 0.0
    worst_ratio = math.inf
    for pt in interior_lattice(spec, 9, 9):
        rep = reconstruct(spec, pt, gauged=gauged)
        worst_bil = max(worst_bil, rep.residual_bilinear)
        worst_imag = max(worst_imag, rep.max_imag)
        worst_orth = max(worst_orth, rep.orthonormality)
        worst_ratio = min(worst_ratio, rep.convergence_ratio)
    tag = f"{spec.name}{' gauged' if gauged else ''}"
    c.check(worst_bil <= 1e-8, f"{tag} |W-T| {worst_bil:.2e}")
    c.check(worst_imag <= 1e-10, f"{tag} imag {worst_imag:.2e}")
    c.check(worst_orth <= 1e-12, f"{tag} orthonormality {worst_orth:.2e}")
    c.check(worst_ratio >= 3.5, f"{tag} residual ratio {worst_ratio:.2f}")


def test_criterion_5_weierstrass_relation():
    with _Criterion(5, "tangent reconstruction from kernel spinors", 30.0) as c:
        for name in (
            "plane",
            "plane-torus",
            "graph",
            "sphere",
            "clifford",
            "clifford-rotated",
        ):
            _weierstrass_battery(c, load_corpus(name), gauged=False)


def test_criterion_6_gauged_weierstrass():
    with _Criterion(6, "gauge-fixed operator and reconstruction", 30.0) as c:
        spec = load_corpus("clifford-rotated")
        _weierstrass_battery(c, spec, gauged=True)

        worst_cross = 0.0
        for pt in interior_lattice(spec, 9, 9):
            plain = reconstruct(spec, pt)
            gauged = reconstruct(spec, pt, gauged=True)
            worst_cross = max(worst_cross, float(np.max(np.abs(plain.W - gauged.W))))
        c.check(worst_cross <= 1e-10, f"gauged-vs-plain {worst_cross:.2e}")

        # operator-level gauge covariance through the half-angle rotation
        def covariance_error(s0, h):
            s0 = np.asarray(s0, dtype=float)
            sym_g = gauged_dirac_symbol(spec, s0)
            sym_p = dirac_symbol(spec, s0)
            th0 = gauge_at(connection_from_frame(frames_at(spec, s0))).theta
            coef = np.array([1.0, 0.3j, -0.2, 0.5 + 0.1j])

            def psi(s):
                return np.exp(1j * (0.7 * s[0] + 0.4 * s[1])) * coef

            def rotated(s):
                raw, degenerate = gauge_angle(connection_from_frame(frames_at(spec, s)))
                th = th0 if degenerate else th0 + _wrap_angle(raw - th0)
                return gauge_rotation(th / 2.0).matrix @ psi(s)

            lhs = apply_pointwise(sym_g, psi, s0, h)
            rhs = gauge_rotation(-th0 / 2.0).matrix @ apply_pointwise(
                sym_p, rotated, s0, h
            )
            return float(np.linalg.norm(lhs - rhs))

        for pt in ((0.4, 0.9), (2.0, 4.4)):
            ratio = safe_ratio(
                covariance_error(pt, 1e-2), covariance_error(pt, 5e-3)
            )
            c.check(ratio >= 3.5, f"covariance ratio {ratio:.2f} at {pt}")


def test_criterion_7_spectra():
    with _Criterion(7, "discrete spectra and weighted pairing", 60.0) as c:
        clifford = load_corpus("clifford")
        op = assemble_grid_operator(clifford, 8, 8)
        c.check(op.dim == 256, f"dimension {op.dim}")
        _, by_mode = eigenvalues(op, return_squares=True)
        # each mode (m, n) holds the double square 1 - 2 (sin^2(m h) +
        # sin^2(n h)) / h^2 and its four roots
        h = 2.0 * math.pi / 8
        m, n = by_mode.modes.T
        lam2 = 1.0 - 2.0 * ((np.sin(m * h) / h) ** 2 + (np.sin(n * h) / h) ** 2)
        dist = float(np.abs(by_mode.squares - lam2[:, None]).max())
        c.check(dist <= 1e-10, f"clifford closed form per mode {dist:.2e}")
        dist = fourier_mode_distance(op, by_mode)
        c.check(dist <= 1e-11, f"clifford Fourier oracle per mode {dist:.2e}")

        # flat periodic plane on an odd grid: purely imaginary spectrum with
        # exactly the four zero modes of the constant spinor components
        flat = assemble_grid_operator(load_corpus("plane-torus"), 9, 9)
        fvals = eigenvalues(flat)
        c.check(
            float(np.max(np.abs(fvals.real))) <= 1e-10,
            "plane-torus spectrum not purely imaginary",
        )
        zeros = int(np.sum(np.abs(fvals) < 1e-10))
        c.check(zeros == 4, f"plane-torus zero count {zeros}")

        ring = parse_immersion_file(RING_TORUS)
        from test_dirac import _ibp_defect

        e8 = _ibp_defect(ring, 8)
        e16 = _ibp_defect(ring, 16)
        c.check(
            e8 / e16 >= 3.5, f"pairing defect ratio {e8 / e16:.2f}"
        )


def test_criterion_8_determinism(tmp_path):
    with _Criterion(8, "byte-identical verification reports", 60.0) as c:
        out1 = tmp_path / "run1.json"
        out2 = tmp_path / "run2.json"
        clifford = str(corpus_path("clifford"))
        code1 = main(["verify", clifford, "--grid", "5x5", "--out", str(out1)])
        code2 = main(["verify", clifford, "--grid", "5x5", "--out", str(out2)])
        c.check(code1 == 0 and code2 == 0, f"exit codes {code1}, {code2}")
        c.check(out1.read_bytes() == out2.read_bytes(), "reports differ")
