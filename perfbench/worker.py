"""The process that runs a workload's ops through ``dirac_surface.cli.main``.

Started by ``run.py`` with the checkout root as working directory::

    python worker.py cold WORKLOAD FILE...      one timed cold start, then exit
    python worker.py serve WORKLOAD SEED FILE... cold start, then serve rounds

Set-up is timed from just before ``import dirac_surface`` to the
workload's immersion files being loaded, so only ``sys``, ``os`` and
``time`` are imported before the clock starts.  A serving worker reads
``round INDEX TRACED`` and ``end`` lines on stdin and answers each with
one JSON line on stdout; the ops' own reports are captured in memory.
"""

import os
import sys
import time


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cold_start(files):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    modules = len(sys.modules)
    t0 = time.perf_counter()
    import dirac_surface.cli  # noqa: F401

    t_import = time.perf_counter() - t0
    from dirac_surface.expr import load_immersion

    for path in files:
        load_immersion(path)
    return {
        "setup_s": time.perf_counter() - t0,
        "import_s": t_import,
        "modules": len(sys.modules) - modules,
    }


def run_round(cli, workload, seed, index, tracer):
    """Run the ops of one round; check each op's output after its timing."""
    import contextlib
    import io

    import checks
    from workloads import round_ops

    results, partners = [], {}
    if tracer is not None:
        tracer.install()
    try:
        for k, op in enumerate(round_ops(workload, seed, index)):
            out, err = io.StringIO(), io.StringIO()
            call = lambda: cli.main(list(op.argv))  # noqa: E731
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call() if tracer is None else tracer.run_op((index, k), call)
            except (Exception, SystemExit) as exc:
                code = f"raised {exc!r}"
            wall = time.perf_counter() - t0
            problems = [] if code == 0 else [f"exit {code}: {err.getvalue().strip()}"]
            if not problems:
                problems = _check(checks, op, out.getvalue(), partners)
            for msg in problems:
                print(f"FAILED {' '.join(op.argv)}: {msg}", file=sys.stderr)
            results.append([op.name, wall, op.sites, not problems, len(out.getvalue())])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results


def _check(checks, op, text, partners):
    import json

    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    if op.kind != "spectrum":
        return checks.CHECKS[op.kind](report, op)
    # the second frame of a surface in a round is compared with the first
    problems = checks.check_spectrum(report, op, partners.get(op.surface))
    partners.setdefault(op.surface, checks.spectrum_values(report))
    return problems


def serve(workload, seed, ready):
    import json
    import resource

    import dirac_surface.cli as cli
    from tracing import Tracer, layer_totals

    def reply(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    reply(ready)
    tracer = None
    for line in sys.stdin:
        words = line.split()
        if words[0] == "round":
            traced = words[2] == "1"
            if traced and tracer is None:
                tracer = Tracer()
            ops = run_round(cli, workload, seed, int(words[1]), tracer if traced else None)
            reply({"ops": ops})
        elif words[0] == "end":
            layers = {}
            if tracer is not None:
                layers = layer_totals(tracer.spans)
                os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
                tracer.write(os.path.join(ROOT, "perfbench", "out", f"spans-{workload}.jsonl"))
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_kb": peak, "layers": layers})
            return


def main(argv):
    mode, workload = argv[0], argv[1]
    if mode == "cold":
        ready = cold_start(argv[2:])
        import json

        print(json.dumps(ready))
    else:
        ready = cold_start(argv[3:])
        serve(workload, int(argv[2]), ready)


if __name__ == "__main__":
    main(sys.argv[1:])
