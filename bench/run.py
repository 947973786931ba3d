"""pauli-access benchmark runner.

    python3 bench/run.py --workload chain-d-cli --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` beside this directory, in one single-threaded process.  The run
repeats passes of the workload until ``--seconds`` have gone by, checks every
output, prints a report and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer ones.  End-to-end times
are CPU seconds scaled to a reference machine speed (``speed.py``).  Details,
files written and the workloads' reasons are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from spans import SPAN_FIELDS, Tracer, self_times
from speed import SpeedSampler

# one thread: BLAS pools would otherwise start with numpy's import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: extra fresh processes that repeat the set-up, for the median of setup_s
SETUP_PROBES = 4

#: times are process CPU seconds scaled to the reference speed of speed.py:
#: on a shared host the wall clock also counts the time the host takes the
#: CPU away (steal), and CPU time moves with the load other guests put on
#: the core; neither is the program's doing
END_TO_END = {"setup_s": "s", "ref_cpu_s": "s", "peak_rss_mb": "MB"}

#: per-layer metric -> (unit, source).  Sources: ("self", spans) sums self
#: time over spans whose name is listed or starts with a listed "prefix.";
#: ("span", name) sums the durations of the spans of that name; ("count",
#: name) and ("max", name) read the tracer's counters; ("run", name) is
#: computed by the runner.  Times are CPU seconds, not scaled: they share a
#: pass with each other, so the machine's speed weighs on all of them alike.
PER_LAYER = {
    "closure.generate_s": ("s", ("self", ("closure.generate",))),
    "closure.generate_calls": ("count", ("count", "closure.generate_calls")),
    "closure.members": ("count", ("count", "closure.members")),
    "closure.brackets_tested": ("count", ("count", "closure.brackets_tested")),
    "closure.dedupe_hits": ("count", ("count", "closure.dedupe_hits")),
    "closure.reference_s": ("s", ("self", ("closure.generate_reference",))),
    "closure.set_json_s": ("s", ("self", ("closure.accessible_set_to_json",))),
    "closure.load_set_s": ("s", ("self", ("closure.load_accessible_set",))),
    "graph.build_graph_s": ("s", ("self", ("graph.build_graph",))),
    "graph.build_graph_calls": ("count", ("count", "graph.build_graph_calls")),
    "graph.partition_s": ("s", ("self", ("graph.partition_k_finite",))),
    "graph.order_s": ("s", ("self", ("graph.order_members",))),
    "graph.edges": ("count", ("count", "graph.edges")),
    "graph.fallback_blocks": ("count", ("count", "graph.fallback_blocks")),
    "graph.export_dot_s": ("s", ("self", ("graph.export_dot",))),
    "graph.block_regen_s": ("s", ("self", ("graph.verify_block_regeneration",))),
    "statespace.build_model_s": ("s", ("self", ("statespace.build_model",))),
    "statespace.nnz_a": ("count", ("count", "statespace.nnz_a")),
    "statespace.model_json_s": ("s", ("self", ("statespace.model_to_json",))),
    "statespace.load_model_s": ("s", ("self", ("statespace.load_model",))),
    "statespace.x0_s": ("s", ("self", ("statespace.initial_state_vector",))),
    "statespace.rk4_s": ("s", ("self", ("statespace.simulate_reduced[rk4]",))),
    "statespace.expm_s": ("s", ("self", ("statespace.simulate_reduced[expm]",))),
    "statespace.rhs_evals": ("count", ("count", "statespace.rhs_evals")),
    "statespace.norm_drift": ("1", ("max", "statespace.norm_drift")),
    "statespace.csv_s": ("s", ("self", ("statespace.trajectory_to_csv",))),
    "statespace.csv_bytes": ("B", ("count", "statespace.csv_bytes")),
    "oracle.evolve_s": ("s", ("self", ("oracle.evolve_expectation",))),
    "oracle.evolve_calls": ("count", ("count", "oracle.evolve_calls")),
    "oracle.max_err": ("1", ("run", "max_err")),
    "hamiltonian.spec_s": ("s", ("self", ("hamiltonian.",))),
    # everything under the identities suite that no wrapped call covers is
    # Pauli algebra: random strings, apply_sequence, the bilinear identity
    "pauli.identities_s": ("s", ("self", ("cli.verify.identities",))),
    "cli.gen_s": ("s", ("span", "cli.gen")),
    "cli.graph_s": ("s", ("span", "cli.graph")),
    "cli.model_s": ("s", ("span", "cli.model")),
    "cli.simulate_s": ("s", ("span", "cli.simulate")),
    **{
        f"cli.verify.{suite}_s": ("s", ("span", f"cli.verify.{suite}"))
        for suite in ("prop2", "prop3", "case-d-count", "oracle", "lemmas", "identities")
    },
    "cli.self_s": ("s", ("self", ("cli.",))),
    "trace.overhead_s": ("s", ("run", "overhead")),
    "trace.untraced_names": ("count", ("run", "untraced")),
}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def set_up(workload: str, seed: int, tiny: bool):
    """Import the package from this checkout and build the workload's inputs."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pauliaccess
    import workloads

    if Path(pauliaccess.__file__).resolve().parent != SRC / "pauliaccess":
        raise RuntimeError(f"imported pauliaccess from {pauliaccess.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)
    params = workloads.TINY[workload] if tiny else {}
    return workloads.WORKLOADS[workload](seed, OUT, **params)


def probe_setup(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def run_op(op, tracer, op_id, sampler=None):
    """Time one operation, then check it.

    Returns ((cpu seconds, wall seconds, reference seconds), attempted,
    failures).  Without a sampler the reference seconds are the CPU seconds.
    """
    gc.collect()
    buf = io.StringIO()
    error = None
    with redirect_stdout(buf):
        mark = sampler.mark() if sampler else None
        wall, cpu = time.perf_counter(), time.process_time()
        idx = tracer.open(op.span, op=op_id) if tracer else None
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:  # a raising operation counts as failed
            result, error = None, exc
        finally:
            if tracer:
                tracer.close(idx)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    times = (cpu, wall, sampler.scale(cpu, mark)[0] if sampler else cpu)
    if error is not None:
        return times, op.attempted, [f"{op.name}: {type(error).__name__}: {error}"] * op.attempted
    try:
        attempted, failures = op.check(result, buf.getvalue())
    except Exception as exc:  # a check that cannot read the output fails the op
        attempted, failures = op.attempted, [f"{op.name}: check raised {exc!r}"] * op.attempted
    return times, attempted, failures


def run_pass(wl, tracer, pass_id: int, sampler=None) -> dict:
    """One pass of the workload's operations, its times scaled by ``sampler``."""
    rec = {
        "traced": tracer is not None, "cpu": {}, "wall": {}, "ref": {},
        "attempted": 0, "failures": [],
    }
    if tracer:
        rec["span_lo"] = len(tracer.spans)
        for namespace, spans in wl.trace_targets():
            tracer.install(namespace, spans)
    try:
        for i, op in enumerate(wl.ops()):
            (cpu, wall, ref), attempted, failures = run_op(op, tracer, f"{pass_id}.{i}", sampler)
            rec["cpu"][op.name] = cpu
            rec["wall"][op.name] = wall
            rec["ref"][op.name] = ref
            rec["attempted"] += attempted
            rec["failures"] += failures
    finally:
        if tracer:
            tracer.uninstall()
    rec["cpu_s"] = sum(rec["cpu"].values())
    rec["wall_s"] = sum(rec["wall"].values())
    rec["ref_cpu_s"] = sum(rec["ref"].values())
    if tracer:
        rec["span_hi"] = len(tracer.spans)
        rec["counters"] = dict(tracer.counters)
        rec["maxima"] = dict(tracer.maxima)
        tracer.counters.clear()
        tracer.maxima.clear()
    return rec


def layer_metrics(tracer, passes, wl) -> dict:
    """Per-layer metrics: medians over traced passes, maxima for ``max``."""
    own = self_times(tracer.spans)
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    run_values = {
        "max_err": getattr(wl, "max_err", 0.0),
        "overhead": statistics.median(p["cpu_s"] for p in traced)
        - statistics.median(p["cpu_s"] for p in plain),
        "untraced": len(tracer.untraced),
    }

    def matches(name, patterns):
        return any(name == p or (p.endswith(".") and name.startswith(p)) for p in patterns)

    out = {}
    for metric, (unit, (kind, arg)) in PER_LAYER.items():
        if kind == "run":
            value = run_values[arg]
        elif kind == "max":
            value = max(p["maxima"].get(arg, 0.0) for p in traced)
        else:
            per_pass = []
            for p in traced:
                rng = range(p["span_lo"], p["span_hi"])
                if kind == "self":
                    per_pass.append(sum(own[i] for i in rng if matches(tracer.spans[i][0], arg)))
                elif kind == "span":
                    per_pass.append(sum(
                        tracer.spans[i][2] - tracer.spans[i][1]
                        for i in rng if tracer.spans[i][0] == arg
                    ))
                else:
                    per_pass.append(p["counters"].get(arg, 0.0))
            value = statistics.median(per_pass)
        out[metric] = {"value": float(value), "unit": unit}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, sampler: SpeedSampler,
        tiny: bool = False, probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object and its report.

    ``sampler`` has probed the machine's speed since the process started.
    """
    wl = set_up(workload, seed, tiny)
    setup_times = [sampler.scale(time.process_time(), 0)[0]]
    try:
        setup_times += probe_setup(workload, seed, probes)
        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace else None
        passes = []
        start = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced passes, starting untraced
            traced = trace and len(passes) % 2 == 1
            if traced:
                # no probe may land inside a span: traced passes are not scaled
                sampler.stop()
                passes.append(run_pass(wl, tracer, len(passes)))
                sampler.start()
            else:
                passes.append(run_pass(wl, None, len(passes), sampler))
            enough = not trace or len(passes) >= 2
            if enough and time.perf_counter() - start >= seconds:
                break
        info = wl.info()
    finally:
        wl.close()

    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "ref_cpu_s": statistics.median(p["ref_cpu_s"] for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # reported, not bounded: wall time and the per-operation times
    wall_s = statistics.median(p["wall_s"] for p in plain)
    op_medians = {
        clock: {name: statistics.median(p[clock][name] for p in plain) for name in plain[0][clock]}
        for clock in ("cpu", "wall", "ref")
    }
    if trace:
        metrics = layer_metrics(tracer, passes, wl)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "environment": environment(),
        "passes": len(passes),
        "setup_samples_s": setup_times,
        "end_to_end": e2e,
        "wall_s": wall_s,
        "ops_failed": len(failures) / attempted,
        "op_median_s": op_medians,
        "pass_times_s": [
            {"traced": p["traced"], "cpu": p["cpu_s"], "wall": p["wall_s"], "ref": p["ref_cpu_s"]}
            for p in passes
        ],
        "failures": failures[:20],
        "workload_info": info,
        "result": result,
    }
    if trace:
        report["untraced"] = sorted(tracer.untraced)
        report["spans"] = [
            {**dict(zip(SPAN_FIELDS, span)), "run": tracer.run_id} for span in tracer.spans
        ]
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {report['passes']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  cpu {env['cpu']}")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<28} {value:12.6g} {END_TO_END[name]}")
    print(f"  {'wall_s':<28} {report['wall_s']:12.6g} s (wall clock)")
    # the CLI pipeline's subcommand times, what a CLI user waits for
    if report["workload"] == "chain-d-cli":
        medians = report["op_median_s"]
        for name, ref in medians["ref"].items():
            print(f"  {name + '_s':<28} {ref:12.6g} s ({medians['cpu'][name]:.6g} s CPU, "
                  f"{medians['wall'][name]:.6g} s wall clock)")
    print(f"  {'ops_failed':<28} {report['ops_failed']:12.6g} "
          f"({report['result']['failed']}/{report['result']['attempted']})")
    for key, value in report["workload_info"].items():
        print(f"  {key}: {value}")
    if report["trace"]:
        for name, m in report["result"]["metrics"].items():
            print(f"  {name:<28} {m['value']:12.6g} {m['unit']}")
        for name in report["untraced"]:
            print(f"  untraced: {name}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain-d-cli", "verify-suites", "desk-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    if not (SRC / "pauliaccess" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pauliaccess'}; "
              "run from the root of a pauli-access checkout", file=sys.stderr)
        return 2
    # the set-up's heavy part, importing numpy and scipy, starts after this
    sampler = SpeedSampler()
    sampler.start()
    try:
        if args.setup_probe:
            wl = set_up(args.workload, args.seed, tiny=False)
            elapsed = time.process_time()
            wl.close()
            print(json.dumps({"setup_s": sampler.scale(elapsed, 0)[0]}))
            return 0
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), sampler)
    finally:
        sampler.stop()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
