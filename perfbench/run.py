"""sceneground benchmark: one closed-loop client, one problem at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's suites from the seed (set-up), then runs passes
over every entry until S seconds have gone, one operation after another in
this process (``PipelineConfig(jobs=1)``).  Every operation's output is
checked.  With ``--trace 1`` passes alternate untraced and traced, and the
run reports per-layer metrics from the traced ones plus the tracing
overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "problem_p50_ms": "ms",
    "problem_tail_ms": "ms",
    "problems_per_s": "1/s",
    "peak_rss_mb": "MB",
    "triplet_precision_micro": "ratio",
    "triplet_recall_micro": "ratio",
}

# Times are milliseconds per operation over the traced passes; counts are
# per pass over the whole suite (deterministic, so they repeat exactly).
PER_LAYER = {
    "planner.axiom_closure_ms": "ms",
    "planner.axiom_closure_calls": "count",
    "planner.solve_self_ms": "ms",
    "planner.expanded": "count",
    "planner.heuristic_ms": "ms",
    "planner.heuristic_calls": "count",
    "planner.ground_actions_ms": "ms",
    "planner.ground_actions_calls": "count",
    "planner.solved_ratio": "ratio",
    "graph.classify_scene_ms": "ms",
    "graph.exemplar_from_json_ms": "ms",
    "graph.candidates": "count",
    "graph.kept_ratio": "ratio",
    "scene.observation_from_json_ms": "ms",
    "scene.merge_detections_ms": "ms",
    "goals.goal_ms": "ms",
    "goals.failed": "count",
    "pddl.parse_problem_ms": "ms",
    "pddl.serialize_problem_ms": "ms",
    "metrics.validate_plan_ms": "ms",
    "metrics.validate_plan_calls": "count",
    "metrics.evaluate_problem_self_ms": "ms",
    "metrics.task_success_rate": "ratio",
    "metrics.plan_length_mean": "steps",
    "bench.generate_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def git_commit() -> str:
    """HEAD of the checkout, read without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(values):
    """Highest whole percentile (nearest rank) with at least ten samples
    beyond it: (percentile, value, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n
    return 50, ordered[math.ceil(n / 2) - 1], n


def percentile(values, p):
    ordered = sorted(values)
    return ordered[max(math.ceil(len(ordered) * p / 100), 1) - 1]


def per_entry_ms(passes, scaled=True):
    """Each entry's latency: the median over its executions of the time
    scaled to the reference speed (see speed.py), or of the wall time."""
    times: dict[str, list[float]] = {}
    for _, outcomes in passes:
        for op, outcome in outcomes.items():
            if outcome.error is None:
                times.setdefault(op, []).append(outcome.scaled_ms if scaled else outcome.ms)
    return {op: median(ms) for op, ms in times.items()}


def pass_speed(outcomes) -> float:
    return median(o.speed for o in outcomes.values() if o.error is None)


def layer_metrics(tracer, traced, untraced, generate_ms, quality):
    """Per-layer figures from the traced passes' spans and counters."""
    numbers = [pass_no for pass_no, _ in traced]
    summary = tracer.summary(numbers)
    first = summary[numbers[0]]
    counts = tracer.counts[numbers[0]]
    ops = sum(len(outcomes) for _, outcomes in traced)
    speeds = {pass_no: pass_speed(outcomes) for pass_no, outcomes in traced}

    def ms(*names, field="ms"):
        return sum(
            rows[name][field] * speeds[pass_no]
            for pass_no, rows in summary.items()
            for name in names
            if name in rows
        ) / ops

    def calls(name, field="calls"):
        return first.get(name, {}).get(field, 0)

    plain, with_spans = per_entry_ms(untraced), per_entry_ms(traced)
    shared = plain.keys() & with_spans.keys()
    solves = calls("planner.solve")
    return {
        "planner.axiom_closure_ms": ms("planner.axiom_closure"),
        "planner.axiom_closure_calls": calls("planner.axiom_closure"),
        "planner.solve_self_ms": ms("planner.solve", field="self_ms"),
        "planner.expanded": counts["planner.expanded"],
        "planner.heuristic_ms": ms("planner.heuristic"),
        "planner.heuristic_calls": calls("planner.heuristic"),
        "planner.ground_actions_ms": ms("planner.ground_actions"),
        "planner.ground_actions_calls": calls("planner.ground_actions"),
        "planner.solved_ratio": counts["planner.solved"] / solves if solves else 0.0,
        "graph.classify_scene_ms": ms("graph.classify_scene"),
        "graph.exemplar_from_json_ms": ms("graph.exemplar_from_json"),
        "graph.candidates": counts["graph.candidates"],
        "graph.kept_ratio": (
            counts["graph.kept"] / counts["graph.candidates"] if counts["graph.candidates"] else 0.0
        ),
        "scene.observation_from_json_ms": ms("scene.observation_from_json"),
        "scene.merge_detections_ms": ms("scene.merge_detections"),
        "goals.goal_ms": ms("goals.parse_structured_goal", "goals.resolve_goal"),
        "goals.failed": calls("goals.parse_structured_goal", "errors")
        + calls("goals.resolve_goal", "errors"),
        "pddl.parse_problem_ms": ms("pddl.parse_problem"),
        "pddl.serialize_problem_ms": ms("pddl.serialize_problem"),
        "metrics.validate_plan_ms": ms("metrics.validate_plan"),
        "metrics.validate_plan_calls": calls("metrics.validate_plan"),
        "metrics.evaluate_problem_self_ms": ms("metrics.evaluate_problem", field="self_ms"),
        "metrics.task_success_rate": quality.get("task_success_rate", 0.0),
        "metrics.plan_length_mean": quality.get("plan_length_mean", 0.0),
        "bench.generate_ms": sum(generate_ms) / len(generate_ms),
        "trace.spans": sum(row["calls"] for row in first.values()),
        "trace.overhead_pct": 100.0
        * (sum(with_spans[op] for op in shared) / sum(plain[op] for op in shared) - 1.0),
    }


def repeat_signature(tracer, pass_no):
    """Everything deterministic a traced pass records: span calls and
    raised calls per name, plus the counters."""
    rows = tracer.summary([pass_no])[pass_no]
    return json.dumps(
        {
            "spans": {name: [r["calls"], r["errors"]] for name, r in sorted(rows.items())},
            "counts": dict(sorted(tracer.counts[pass_no].items())),
        },
        sort_keys=True,
    )


def is_traced(trace: int, pass_no: int) -> bool:
    """With tracing on, odd passes are traced and even ones are not."""
    return trace == 1 and pass_no % 2 == 1


def measure(workload, suites, seconds, trace, task, tracer):
    """Run whole passes until ``seconds`` have gone (and, when tracing, at
    least one untraced and one traced pass); return (pass number,
    outcomes) per pass.  Between passes, each entry's first output is
    checked and scored, and every output's bulky data is dropped, so the
    benchmark's own memory does not grow with the number of passes."""
    from speed import speeds
    from workloads import install_layer_spans

    run_pass, check, score = task
    gc.collect()  # start from the heap a fresh client would have, not set-up's garbage
    passes = []
    seen = set()
    start = perf_counter()
    while True:
        pass_no = len(passes)
        traced = is_traced(trace, pass_no)
        if traced:
            install_layer_spans(tracer)
        try:
            outcomes = run_pass(workload, suites, pass_no, tracer, traced)
        finally:
            tracer.close()
        timed = [o for o in outcomes.values() if o.kernels]
        for outcome, scale in zip(timed, speeds([o.kernels for o in timed])):
            outcome.speed = scale
        for op, outcome in outcomes.items():
            if outcome.error is None and op not in seen:
                seen.add(op)
                try:
                    outcome.problem = check(workload, outcome)
                    outcome.score = score(outcome)
                except Exception as exc:  # a check that cannot even run is a failure
                    outcome.problem = f"check raised {type(exc).__name__}: {exc}"
            outcome.detail = None
        passes.append((pass_no, outcomes))
        if perf_counter() - start >= seconds and len(passes) >= 1 + trace:
            return passes


def check_outputs(passes, pinned):
    """Every execution must reproduce its entry's reference digest (the
    pinned one on the default seed, else the first execution's), and each
    entry's first output must have passed the invariant checks.  Returns
    (first outcome per entry, problem per failing entry, attempted, failed)."""
    first = {}
    for _, outcomes in passes:
        for op, outcome in outcomes.items():
            if outcome.error is None and op not in first:
                first[op] = outcome
    problems = {}
    for op, outcome in first.items():
        problem = outcome.problem
        if problem is None and pinned is not None and pinned.get(op) != outcome.digest:
            problem = "output differs from the pinned reference digest"
        if problem is not None:
            problems[op] = problem
    if pinned is not None:
        for op in pinned.keys() - first.keys():
            problems[op] = "pinned entry never ran"
    attempted = failed = 0
    for _, outcomes in passes:
        for op, outcome in outcomes.items():
            attempted += 1
            if outcome.error is not None:
                problems.setdefault(op, outcome.error)
            failed += op in problems or outcome.digest != first[op].digest
    return first, problems, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sceneground" / "__init__.py").is_file():
        print(f"error: no sceneground sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import DEFAULT_SEED, SHARDS, TASKS, WORKLOADS, quality, set_up

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"
    try:
        suites, shards, generate_ms = set_up(workload, seed, work)
        tracer = Tracer()
        passes = measure(workload, suites, args.seconds, args.trace, TASKS[workload.task], tracer)
        pins = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))
        pinned = pins.get(workload.name) if seed == DEFAULT_SEED else None
        first, problems, attempted, failed = check_outputs(passes, pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    scores = quality([first[op].score for op in sorted(first) if first[op].score])
    untraced = [p for p in passes if not is_traced(args.trace, p[0])]
    traced = [p for p in passes if is_traced(args.trace, p[0])]
    repeats = {repeat_signature(tracer, p) for p, _ in traced}
    repeat_ok = len(repeats) <= 1

    entry_ms = per_entry_ms(untraced)
    p_tail, tail_ms, samples = tail(entry_ms.values())
    end_to_end = {
        "setup_s": median(seconds * scale for seconds, scale in shards),
        "problem_p50_ms": percentile(entry_ms.values(), 50),
        "problem_tail_ms": tail_ms,
        # One closed-loop client: throughput is the inverse of mean latency.
        "problems_per_s": 1000.0 * len(entry_ms) / sum(entry_ms.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "triplet_precision_micro": scores["triplet_precision_micro"],
        "triplet_recall_micro": scores["triplet_recall_micro"],
    }
    layers = layer_metrics(tracer, traced, untraced, generate_ms, scores) if traced else {}

    provenance = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "execution": "one process, one closed-loop client, PipelineConfig(jobs=1)",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "shards": SHARDS,
        "entries": len(entry_ms),
        "passes": len(passes),
        "machine_speed": median(pass_speed(outcomes) for _, outcomes in passes),
    }
    correct = failed == 0 and repeat_ok
    report = {
        "provenance": provenance,
        "end_to_end": end_to_end,
        "tail": {"percentile": p_tail, "samples": samples},
        "failed_ops": {"failed": failed, "attempted": attempted, "problems": problems},
        "quality": scores,
        "per_layer": layers,
        "counters_sha256": hashlib.sha256(repeats.pop().encode()).hexdigest() if traced else None,
        "repeat_ok": repeat_ok,
        "setup_shards": [{"wall_s": seconds, "speed": scale} for seconds, scale in shards],
        "entry_ms": entry_ms,
        "entry_wall_ms": per_entry_ms(untraced, scaled=False),
        "speed_per_pass": [pass_speed(outcomes) for _, outcomes in passes],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if traced:
        tracer.dump(OUT / f"{workload.name}.spans.jsonl")

    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for name, value in end_to_end.items():
        print(f"{name:34} {value:12.4f} {END_TO_END[name]}")
    print(f"{'problem_tail_ms is':34} p{p_tail} of {samples} entries")
    print(f"{'failed_ops':34} {failed} of {attempted}")
    print(f"{'machine_speed':34} {provenance['machine_speed']:12.4f} (times are scaled by it)")
    for name, value in scores.items():
        if name not in end_to_end:
            print(f"{name:34} {value:12.4f}")
    for name, value in layers.items():
        print(f"{name:34} {value:12.4f} {PER_LAYER[name]}")
    if traced:
        print(f"{'counters_sha256':34} {report['counters_sha256']}")
    for op, problem in sorted(problems.items())[:10]:
        print(f"FAILED {op}: {problem}")
    if not repeat_ok:
        print("FAILED traced passes recorded different counters")

    chosen = layers if args.trace == 1 else end_to_end
    units = PER_LAYER if args.trace == 1 else END_TO_END
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": chosen[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
