"""Benchmark for honeygame: runs one workload in this process and prints, as
the last line of standard output, one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a source checkout:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 bench/run.py --workload menu-solve --seed 0 --seconds 20 --trace 0

The program under test is the ``honeygame`` package in ``src/`` of the same
checkout, driven through ``honeygame.cli.main`` exactly as the command line
would run it, one command after another in one thread (a closed loop).
Rounds of the workload's commands repeat until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports per-layer metrics from the traced ones
plus the tracing overhead, and writes the spans to
``bench/_out/trace-<workload>-seed<seed>.json``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path
from statistics import median

from spans import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 5

# per-layer metric -> (span name, field: 0 total time, 1 self time, 2 calls)
SPAN_METRICS = {
    "scenario.load_scenario_s": ("scenario.load_scenario", 0),
    "scenario.generate_population_s": ("scenario.generate_population", 0),
    "scenario.dump_scenario_s": ("scenario.dump_scenario", 0),
    "scenario.dump_scenario_calls": ("scenario.dump_scenario", 2),
    "channel.a2g_rate_s": ("channel.a2g_rate", 0),
    "channel.a2g_rate_calls": ("channel.a2g_rate", 2),
    "channel.transmission_delay_s": ("channel.transmission_delay", 0),
    "solver.solve_complete_s": ("solver.solve_complete", 0),
    "solver.solve_partial_s": ("solver.solve_partial", 0),
    "solver.solve_partial_calls": ("solver.solve_partial", 2),
    "solver.solve_partial_relaxed_s": ("solver.solve_partial_relaxed", 0),
    "solver.optimal_rewards_s": ("solver.optimal_rewards", 0),
    "solver.linear_contract_s": ("solver.linear_contract", 0),
    "solver.uniform_contract_s": ("solver.uniform_contract", 0),
    "model.check_feasibility_s": ("model.check_feasibility", 0),
    "model.check_feasibility_calls": ("model.check_feasibility", 2),
    "model.check_fairness_s": ("model.check_fairness", 0),
    "model.participating_set_s": ("model.participating_set", 0),
    "model.participating_set_calls": ("model.participating_set", 2),
    "model.gcs_utility_s": ("model.gcs_utility", 0),
    "learn.hotboot_s": ("learn.hotboot", 0),
    "learn.run_dynamic_game_s": ("learn.run_dynamic_game", 0),
    "experiments.run_experiment_s": ("experiments.run_experiment", 0),
    "experiments.self_s": ("experiments.run_experiment", 1),
    "cli.self_s": ("cli.main", 1),
}


def import_honeygame() -> types.SimpleNamespace:
    """Import the package afresh: its modules are dropped first, so every
    call re-executes them (numpy and yaml stay loaded)."""
    for name in [m for m in sys.modules if m == "honeygame" or m.startswith("honeygame.")]:
        del sys.modules[name]
    cli = importlib.import_module("honeygame.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: honeygame was imported from {cli.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, scenario=sys.modules["honeygame.scenario"])


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    """Run one honeygame command; a traceback or usage error counts as exit 2."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the program crashed: record it, count a failed operation
            code, failure = 2, traceback.format_exc()
    if code != 0:
        print(f"honeygame {' '.join(argv)} exited {code}\n{err.getvalue()}{failure or ''}",
              file=sys.stderr)
    return code, out.getvalue()


def per_layer(tracer: Tracer, workload, untraced: list[float], traced: list[float]) -> dict:
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        values = [r["totals"].get(span, (0.0, 0.0, 0))[field] for r in tracer.rounds]
        metrics[metric] = (median(values), "count" if field == 2 else "s")
    metrics["solver.bunched_types"] = (workload.bunched_types, "count")
    metrics["learn.episodes"] = (median([r["counts"]["learn.episodes"] for r in tracer.rounds]),
                                 "count")
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")
    return metrics


def bench(args: argparse.Namespace, work: Path) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        hg = import_honeygame()
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.setup(hg)
        setup.append(time.perf_counter() - start)

    tracer = Tracer() if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    begin = time.perf_counter()
    i = 0
    while time.perf_counter() - begin < args.seconds or (tracer is not None and i < 2) or i == 0:
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.install()
            tracer.begin_round()
        start = time.perf_counter()
        results = [run_command(hg.cli, argv) for argv in workload.commands(i)]
        wall = time.perf_counter() - start
        if tracing:
            tracer.end_round(wall)
            tracer.uninstall()
        (traced if tracing else untraced).append(wall)
        attempted += len(results)
        failed += sum(code != 0 for code, _ in results)
        if not any(code for code, _ in results):
            try:
                problems += workload.collect(i, [stdout for _, stdout in results])
            except OSError as exc:  # a command that succeeded left no output
                problems.append(f"round {i}: {exc}")
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        problems += workload.check(hg, lambda argv: run_command(hg.cli, argv))
    except Exception:  # output the checks cannot parse is a check failure
        problems.append(f"checking the outputs raised\n{traceback.format_exc()}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (median(setup), "s"),
            "round_s": (median(untraced), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = per_layer(tracer, workload, untraced, traced)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "layers": {layer: list(names) for layer, (_, names) in LAYERS.items()},
            "untraced_round_s": untraced, "traced_round_s": traced,
            "overhead_s": metrics["trace.overhead_s"][0],
        })
        print(f"spans written to {path.relative_to(ROOT)}")
    print(f"{args.workload} seed {args.seed}: {i} rounds, {attempted} commands, "
          f"{failed} failed, {len(problems)} check failures")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "honeygame" / "__init__.py").is_file():
        print(f"error: no honeygame package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
