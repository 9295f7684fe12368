"""pendusim benchmark: end-to-end and per-layer timings of the simulator,
driven through its entry point ``pendusim.cli.main`` in this process.

    python3 perfbench/run.py --workload paper_presets --seed 1 --seconds 10 --trace 0

Run from the root of a source tree (``src/pendusim`` is imported from there,
never from an installed copy).  ``--workload all`` runs every workload, each
in its own process, one after the other.

A run repeats whole rounds of the workload's operations until ``--seconds``
have passed.  The first round's outputs are checked against computations made
here (see checks.py); every later round must write byte-identical files.
``--trace 0`` reports setup_s, wall_s (each call's fastest time, summed over
a round) and peak_rss_mb.
``--trace 1`` first makes the workload's once-per-run operations (the
full-length paper studies) and checks them, then alternates untraced and
traced rounds and reports the per-layer metrics of the traced rounds and the
tracing overhead.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""

import os
import sys
import time

T_SCRIPT = time.perf_counter()


def _process_age():
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(0.0, now - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_SCRIPT = _process_age()

# One BLAS thread per library: the program's matrices are at most 12 x 12, and
# numpy's and scipy's OpenBLAS copies would otherwise start one worker each,
# which exceeds the two cores this benchmark is sized for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import pendusim from this tree's src/; the time from process start to
    here is setup_s.  It runs before the benchmark's own imports, so setup_s
    holds the interpreter's start and the program's imports only."""
    if not os.path.isfile(os.path.join(SRC, "pendusim", "cli.py")):
        raise SystemExit(f"error: no pendusim source under {SRC}")
    sys.path.insert(0, SRC)
    import pendusim
    import pendusim.cli
    if os.path.dirname(os.path.abspath(pendusim.__file__)) != os.path.join(SRC, "pendusim"):
        raise SystemExit(f"error: imported pendusim from {pendusim.__file__}")
    return pendusim, AGE_AT_SCRIPT + (time.perf_counter() - T_SCRIPT)


pendusim, SETUP_S = import_program()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

OUT_ROOT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("paper_presets", "arm7_sweep", "free_swing")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def digest_tree(path):
    """{relative file path: sha256} of every file under path."""
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_round(cli_main, operations):
    """Run one round's cli.main calls; returns (wall seconds of each call,
    failed calls, {label: captured stdout})."""
    walls, failed, stdout = [], 0, {}
    for label, argv in operations:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t = time.perf_counter()
            code = cli_main(argv)
            walls.append(time.perf_counter() - t)
        stdout[label] = buf.getvalue()
        if code != 0:
            failed += 1
            print(f"operation {label} exited {code}:\n{stdout[label]}", file=sys.stderr)
    return walls, failed, stdout


def fastest(rounds):
    """Wall time of a round made of each operation's fastest call.

    Every round makes the same calls with the same inputs.  Neighbours on a
    shared host slow a process by up to 2x for seconds at a time and never
    speed it up, so the fastest of many short calls follows the program's own
    cost, where a median follows the neighbours' load; taking the minimum
    per call rather than per round needs a quiet spell only as long as one
    call."""
    return sum(min(calls) for calls in zip(*rounds))


def thread_count():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 1


def layer_metrics(summaries, walls_traced, walls_plain):
    """Per-layer metrics: counts from the first traced round (every round
    does the same work), self times as medians over traced rounds."""
    first = summaries[0]

    def med(name):
        return statistics.median(s[name]["self_s"] for s in summaries)

    evals = first["dynamics.Eval"]["calls"]
    m = {
        "engine.assemble.calls": (first["engine.assemble"]["calls"], "count"),
        "engine.assemble.configs": (first["engine.assemble"]["configs"], "count"),
        "engine.assemble.self_s": (med("engine.assemble"), "s"),
        "engine.configs_per_eval": (
            first["engine.assemble"]["configs"] / evals if evals else 0.0, "ratio"),
        "dynamics.Eval.calls": (evals, "count"),
        "dynamics.Eval.self_s": (med("dynamics.Eval"), "s"),
        "dynamics.act_solve.self_s": (med("dynamics.act_solve"), "s"),
        "control.u_vector.self_s": (med("control.u_vector"), "s"),
        "control.solve_equilibrium_qm.calls": (
            first["control.solve_equilibrium_qm"]["calls"], "count"),
        "control.solve_equilibrium_qm.self_s": (med("control.solve_equilibrium_qm"), "s"),
    }
    for name in ("sim.run", "sim.build_report", "sim.write_csv", "sim.load_scenario",
                 "svg.write_trajectory_svgs", "cli.main"):
        m[f"{name}.self_s"] = (med(name), "s")
    traced = fastest(walls_traced)
    m["trace.wall_s"] = (traced, "s")
    m["trace.overhead_s"] = (traced - fastest(walls_plain), "s")
    return m


def run_workload(args):
    import tracing
    import workloads
    from pendusim.model import model_to_dict, preset_paper

    work = os.path.join(OUT_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    try:
        docs = {n: model_to_dict(preset_paper(n)) for n in (3, 7)}
        wl = workloads.WORKLOADS[args.workload](args.seed, inputs, docs)
        tracer = tracing.Tracer(pendusim) if args.trace else None
        walls_plain, walls_traced, summaries = [], [], []
        once = os.path.join(work, "once")
        once_ops = wl.once_operations(once) if tracer is not None else []
        _, failed, stdout = run_round(pendusim.cli.main, once_ops)
        attempted = len(once_ops)
        fails = wl.check_once(once, stdout) if once_ops else []
        shutil.rmtree(once, ignore_errors=True)
        reference = None
        start = time.perf_counter()
        k = 0
        # Whole rounds until the time is up; a traced run ends on a traced round.
        while (k == 0 or (tracer is not None and k % 2 == 1)
               or time.perf_counter() - start < args.seconds):
            traced = tracer is not None and k % 2 == 1
            out = os.path.join(work, f"round{k}")
            ops = wl.operations(out)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                walls, bad, stdout = run_round(pendusim.cli.main, ops)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += len(ops)
            failed += bad
            digest = digest_tree(out)
            if reference is None:
                fails += wl.check(out, stdout)
                reference = digest
            elif digest != reference:
                kind = "traced" if traced else "untraced"
                fails.append(f"round {k} ({kind}) wrote different outputs from round 0")
            shutil.rmtree(out)
            if traced:
                walls_traced.append(walls)
                summaries.append(tracer.summary())
            else:
                walls_plain.append(walls)
            k += 1
        threads = thread_count()
        if threads > (os.cpu_count() or 1):
            fails.append(f"{threads} threads on {os.cpu_count()} cores")

        if tracer is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"setup_s": (SETUP_S, "s"),
                       "wall_s": (fastest(walls_plain), "s"),
                       "peak_rss_mb": (rss_mb, "MB")}
        else:
            metrics = layer_metrics(summaries, walls_traced, walls_plain)
            os.makedirs(OUT_ROOT, exist_ok=True)
            tracer.write(os.path.join(OUT_ROOT,
                                      f"trace_{args.workload}_{args.seed}.csv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {k} rounds, "
          f"{attempted} operations, {failed} failed")
    for kind, rounds in (("untraced", walls_plain), ("traced", walls_traced)):
        if rounds:
            print(f"  {kind} round walls [s]: "
                  + " ".join(f"{sum(w):.4f}" for w in rounds))
    for msg in fails:
        print(f"CHECK FAILED: {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def run_all(args):
    """Every workload in its own process, so each setup_s is a cold one."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, rec in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = rec
    return merged


def main(argv=None):
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
