"""Benchmark of the dirac-surface CLI, run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``verify-lattice``, ``spectrum-grid``, ``point-queries`` or
``all``.  Each workload is a closed loop: one worker process calls
``dirac_surface.cli.main(argv)`` for one op after another, in whole
rounds, and checks every op's output against values computed apart from
the library.  Cold starts (fresh interpreter, import, file loading) run
in separate processes spread across the run.

``--trace 0`` prints the end-to-end metrics of the workload.  ``--trace 1``
runs every workload once more with the library's layers wrapped, and
prints the per-layer metrics of all of them; spans are written to
``perfbench/out/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import FILES, corpus_file


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-lattice", "spectrum-grid", "point-queries")

COLD_STARTS = 8        # timed cold starts per run, spread across it
TIMEOUT_S = 150        # longest wait for any one reply of a child

# one thread for BLAS/OpenMP in every child, so runs do not depend on
# the library defaults of the machine
ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)

# The quantile of an op kind's wall times that stands for its time in a
# run.  The 2-vCPU VM the benchmark was tuned on alternates between two
# speeds about 1.6x apart, in stretches of 0.1 s to minutes.  A 1-3 s op
# spans many stretches, so the median of its runs is steady.  A point
# query lasts 3-60 ms, less than a stretch, so its times split into two
# modes and their median jumps between them as the slow share of the run
# crosses one half (IQR/median 0.29 over 36-s windows of one series); the
# fastest of its ~130 runs stays on the faster mode (0.06).
KIND_QUANTILE = {"verify-lattice": 0.5, "spectrum-grid": 0.5, "point-queries": 0.0}

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "sites_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# per-layer metrics per workload: (layer, statistic, unit).  calls, flips
# and flagged are counts per traced round, self_s is seconds per round,
# per_site is calls per parameter point evaluated.
_POINTWISE = [
    ("expr.eval_jet2", "calls", "count"),
    ("expr.eval_jet2", "self_s", "s"),
    ("geometry.frame_at", "calls", "count"),
    ("geometry.frame_at", "self_s", "s"),
    ("geometry.frame_at", "per_site", "calls/site"),
    ("geometry.align_frame", "calls", "count"),
    ("geometry.align_frame", "flips", "count"),
    ("geometry.connection_from_frame", "calls", "count"),
    ("geometry.connection_from_frame", "self_s", "s"),
    ("dirac.spin_connection_from_frame", "calls", "count"),
    ("dirac.spin_connection_from_frame", "self_s", "s"),
]
PER_LAYER = {
    "verify-lattice": _POINTWISE + [
        ("geometry.gauge_at", "calls", "count"),
        ("geometry.gauge_at", "self_s", "s"),
        ("clifford.spin_lift", "calls", "count"),
        ("clifford.spin_lift", "self_s", "s"),
        ("clifford.spin_lift", "per_site", "calls/site"),
        ("clifford.spin_lift", "flagged", "count"),
        ("dirac.apply_pointwise", "calls", "count"),
        ("dirac.apply_pointwise", "self_s", "s"),
        ("weierstrass.reconstruct", "self_s", "s"),
        ("weierstrass.dirac_residual", "self_s", "s"),
        ("weierstrass.kernel_basis_at", "calls", "count"),
        ("cli.main", "self_s", "s"),
    ],
    "spectrum-grid": _POINTWISE + [
        ("dirac.assemble_grid_operator", "self_s", "s"),
        ("dirac.assemble_grid_operator", "operator_bytes", "bytes"),
        ("dirac.eigenvalues", "self_s", "s"),
        ("dirac.fourier_eigenvalues", "self_s", "s"),
        ("dirac.multiset_distance", "self_s", "s"),
        ("cli.main", "self_s", "s"),
        ("cli.main", "report_bytes", "bytes"),
    ],
    "point-queries": [
        ("expr.load_immersion", "calls", "count"),
        ("expr.load_immersion", "self_s", "s"),
        ("expr.parse_immersion_file", "self_s", "s"),
        ("expr.parse_expression", "self_s", "s"),
        ("geometry.frame_at", "calls", "count"),
        ("geometry.frame_at", "self_s", "s"),
        ("geometry.frame_at", "per_site", "calls/site"),
        ("geometry.tube_metric_at", "calls", "count"),
        ("geometry.tube_metric_at", "self_s", "s"),
        ("cli.main", "self_s", "s"),
        ("cli.main", "report_bytes", "bytes"),
    ],
}


def layer_metric_name(workload, layer, stat):
    if stat == "operator_bytes":
        return f"{workload}.dirac.operator_bytes"
    if stat == "report_bytes":
        return f"{workload}.cli.report_bytes"
    return f"{workload}.{layer}.{stat}"


def per_layer_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {"setup.import_s": "s", "setup.modules": "count"}
    for wl in WORKLOADS:
        for layer, stat, unit in PER_LAYER[wl]:
            units[layer_metric_name(wl, layer, stat)] = unit
        units[f"{wl}.trace.overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _files(workload):
    return [corpus_file(s) for s in FILES[workload]]


def cold_start(workload) -> dict:
    """One fresh interpreter: import the CLI, load the workload's files."""
    proc = subprocess.run(
        [sys.executable, WORKER, "cold", workload, *_files(workload)],
        cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


class Worker:
    """The long-lived process that runs one workload's ops."""

    def __init__(self, workload, seed):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "serve", workload, str(seed), *_files(workload)],
            cwd=ROOT, env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait(TIMEOUT_S)}")
        return json.loads(line)

    def request(self, line) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read()

    def round(self, index, traced=False) -> list:
        return self.request(f"round {index} {int(traced)}")["ops"]

    def close(self) -> dict:
        final = self.request("end")
        self.proc.stdin.close()
        self.proc.wait(TIMEOUT_S)
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _quantile(values, q):
    values = sorted(values)
    k = (len(values) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (k - lo)


def op_times(ops, workload):
    """Per op kind: (typical wall time in the run, sites of one op)."""
    walls, sites = {}, {}
    for name, wall, n, _, _ in ops:
        walls.setdefault(name, []).append(wall)
        sites[name] = n
    q = KIND_QUANTILE[workload]
    return {name: (_quantile(w, q), sites[name]) for name, w in walls.items()}


def op_p50(times):
    """Median op of a round; every round runs each op kind once."""
    return statistics.median(t for t, _ in times.values())


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0

    def add(self, ops):
        self.attempted += len(ops)
        self.failed += sum(1 for op in ops if not op[3])
        return ops


def measure(workload, seed, seconds, tally) -> dict:
    """End-to-end metrics of one workload over a run of ``seconds``."""
    cold_start(workload)  # untimed: compiles bytecode, warms the file cache
    worker = Worker(workload, seed)
    try:
        ops, cold = [], []
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            ops += tally.add(worker.round(index))
            index += 1
            last = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            # cold starts at evenly spaced points of the run, between rounds
            while len(cold) < COLD_STARTS and elapsed >= (len(cold) + 0.5) / COLD_STARTS * seconds:
                cold.append(cold_start(workload)["setup_s"])
                elapsed = time.perf_counter() - start
            if elapsed + last > seconds:
                break
        while len(cold) < COLD_STARTS:
            cold.append(cold_start(workload)["setup_s"])
        final = worker.close()
    finally:
        worker.kill()
    times = op_times(ops, workload)
    return {
        "setup_s": statistics.median(cold),
        "op_p50_s": op_p50(times),
        # a round's sites over a round made of each kind's typical time
        "sites_per_s": sum(n for _, n in times.values()) / sum(t for t, _ in times.values()),
        "peak_rss_mb": final["peak_rss_kb"] / 1024.0,
    }


def trace_workload(workload, seed, seconds, tally):
    """Untraced and traced rounds on the same inputs, in alternating order."""
    worker = Worker(workload, seed)
    try:
        plain, traced = [], []
        start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            for on in (False, True) if index % 2 == 0 else (True, False):
                (traced if on else plain).extend(tally.add(worker.round(index, traced=on)))
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - t0) > seconds:
                break
        final = worker.close()
    finally:
        worker.kill()

    rounds = index
    totals = final["layers"]
    sites = sum(op[2] for op in traced) / rounds
    out = {}
    for layer, stat, _ in PER_LAYER[workload]:
        rec = totals.get(layer, {"calls": 0, "self_s": 0.0, "extra": 0, "extra_max": 0})
        value = {
            "calls": rec["calls"] / rounds,
            "self_s": rec["self_s"] / rounds,
            "per_site": rec["calls"] / rounds / sites,
            "flips": rec["extra"] / rounds,
            "flagged": rec["extra"] / rounds,
            "operator_bytes": rec["extra_max"],
            "report_bytes": statistics.mean(op[4] for op in traced),
        }[stat]
        out[layer_metric_name(workload, layer, stat)] = value
    out[f"{workload}.trace.overhead"] = op_p50(op_times(traced, workload)) / op_p50(
        op_times(plain, workload)
    )
    return out, worker.ready


def trace_all(seed, seconds, tally) -> dict:
    cold_start(WORKLOADS[0])  # untimed warm-up, as in ``measure``
    metrics, ready = {}, []
    for wl in WORKLOADS:
        layer, info = trace_workload(wl, seed, seconds / len(WORKLOADS), tally)
        metrics.update(layer)
        ready.append(info)
    head = {
        "setup.import_s": statistics.median(r["import_s"] for r in ready),
        "setup.modules": ready[0]["modules"],
    }
    return dict(head, **metrics)


def _print_result(metrics, units, tally):
    for name, value in metrics.items():
        print(f"{name:<58} {value:>16.6g} {units[name]}")
    print(f"{'ops attempted':<58} {tally.attempted:>16d}")
    print(f"{'ops failed':<58} {tally.failed:>16d}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dirac_surface", "cli.py")):
        print("error: no dirac_surface sources under src/ in this checkout", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        _print_result(trace_all(args.seed, args.seconds, tally), per_layer_units(), tally)
        return 0
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, units = {}, {}
    for wl in names:
        for name, value in measure(wl, args.seed, args.seconds, tally).items():
            key = name if len(names) == 1 else f"{wl}.{name}"
            metrics[key], units[key] = value, END_TO_END[name]
    _print_result(metrics, units, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
