"""The three workloads: suite set-up, one operation, and its checks.

Every workload is built from ``SHARDS`` shards of identical composition
(same domains, sizes and noise; different generator seeds), so timings do
not depend on which problem sizes a seed happens to draw, and set-up can be
timed several times in one run.  An operation is one manifest entry:
evaluated by ``metrics.evaluate_suite`` (eval workloads) or grounded by the
``sceneground ground`` chain without a planner (ground-noisy).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median
from time import perf_counter

import sceneground.goals as goals
import sceneground.graph as graph
import sceneground.metrics as metrics
import sceneground.pddl as pddl
import sceneground.planner as planner
import sceneground.scene as scene
from sceneground.bench import GenConfig, write_suite
from sceneground.goals import GoalError
from sceneground.graph import ExemplarError
from sceneground.pddl import PddlError, serialize_plan
from sceneground.planner import SearchConfig
from sceneground.scene import SceneError

from spans import END, START, Tracer
from speed import REFERENCE_MS, kernel

# The package re-exports the function generate(), which hides the module
# of the same name from attribute access.
bench_generate = importlib.import_module("sceneground.bench.generate")

SHARDS = 3
DEFAULT_SEED = 0
SIGMA = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "eval" (evaluate_suite) or "ground" (grounding chain only)
    mode: str | None  # search mode of the eval workloads
    shard: tuple[tuple[GenConfig, int], ...]  # (generator config, problem count)


# Why each workload exists is in BENCHMARK.json and README.md.  The
# noisy workload has 240 entries because a noisy problem's cost varies a
# lot, and with fewer entries the median moves with the seed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-hanoi-optimal",
            "eval",
            "optimal",
            (
                (GenConfig(kind="hanoi", d=4, g=3), 6),
                (GenConfig(kind="hanoi", d=5, g=3), 3),
                (GenConfig(kind="hanoi", d=6, g=3), 1),
            ),
        ),
        Workload(
            "eval-noisy-satisficing",
            "eval",
            "satisficing",
            (
                (GenConfig(kind="blocksworld", n=5, sigma=SIGMA), 5),
                (GenConfig(kind="cooking", sigma=SIGMA), 75),
            ),
        ),
        Workload(
            "ground-noisy",
            "ground",
            None,
            (
                (GenConfig(kind="blocksworld", n=5, sigma=SIGMA), 3),
                (GenConfig(kind="hanoi", d=4, g=3, sigma=SIGMA), 9),
                (GenConfig(kind="cooking", sigma=SIGMA), 18),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Suite:
    """One generated suite on disk: a manifest plus the config that made it."""

    key: str  # "<shard>.<component>", prefix of the entry ids
    cfg: GenConfig
    manifest: Path


@dataclass
class Outcome:
    """One executed operation."""

    ms: float  # wall time
    digest: str | None  # None when the operation raised an unexpected error
    error: str | None = None  # unexpected exception, a failed operation
    detail: dict | None = None  # data for the checks, dropped once they ran
    kernels: tuple[float, float] = ()  # speed.kernel() ms just before and after
    speed: float = 1.0  # scale to the reference speed, set from the kernels
    problem: str | None = None  # the first invariant it violates
    score: tuple | None = None  # (tp, fp, fn, success, plan length)

    @property
    def scaled_ms(self) -> float:
        return self.ms * self.speed


def suite_seed(seed: int, shard: int, component: int) -> int:
    return seed * 10_000 + shard * 1_000 + component * 100


def set_up(workload: Workload, seed: int, work: Path):
    """Write every shard's suites.  Returns them with, per shard, the wall
    seconds and the speed factor of the kernel runs between its suites, and
    the scaled milliseconds of each generated problem."""
    suites: list[Suite] = []
    shards: list[tuple[float, float]] = []
    generate_ms: list[float] = []
    with Tracer() as timer:
        timer.wrap(bench_generate, "generate", "bench.generate")
        for shard in range(SHARDS):
            seconds = 0.0
            kernels = [kernel()]
            first_span = len(timer.spans)
            for component, (cfg, count) in enumerate(workload.shard):
                cfg = replace(cfg, seed=suite_seed(seed, shard, component))
                key = f"{shard}.{component}"
                start = perf_counter()
                manifest = write_suite(cfg, count, work / key)
                seconds += perf_counter() - start
                kernels.append(kernel())
                suites.append(Suite(key, cfg, manifest))
            scale = REFERENCE_MS / median(kernels)
            shards.append((seconds, scale))
            generate_ms += [
                (span[END] - span[START]) * 1000.0 * scale for span in timer.spans[first_span:]
            ]
    return suites, shards, generate_ms


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Layer wraps for the traced passes
# ---------------------------------------------------------------------------


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions at every lookup a caller uses."""

    def count_classified(kept, args):
        tracer.count("graph.candidates", len(args[0]))
        tracer.count("graph.kept", len(kept))
        return kept

    def trace_heuristic(heuristic, args):
        return tracer.function(heuristic, "planner.heuristic")

    for module, attr, name in (
        (metrics, "observation_from_json", "scene.observation_from_json"),
        (metrics, "merge_detections", "scene.merge_detections"),
        (metrics, "exemplar_from_json", "graph.exemplar_from_json"),
        (metrics, "classify_scene", "graph.classify_scene"),
        (metrics, "parse_structured_goal", "goals.parse_structured_goal"),
        (metrics, "resolve_goal", "goals.resolve_goal"),
        (metrics, "serialize_problem", "pddl.serialize_problem"),
        (metrics, "parse_problem", "pddl.parse_problem"),
        (metrics, "validate_plan", "metrics.validate_plan"),
        (metrics, "axiom_closure", "metrics.axiom_closure"),
        (metrics, "evaluate_problem", "metrics.evaluate_problem"),
        (scene, "observation_from_json", "scene.observation_from_json"),
        (scene, "merge_detections", "scene.merge_detections"),
        (graph, "observation_from_json", "scene.observation_from_json"),
        (graph, "merge_detections", "scene.merge_detections"),
        (graph, "exemplar_from_json", "graph.exemplar_from_json"),
        (graph, "classify_scene", "graph.classify_scene"),
        (goals, "parse_structured_goal", "goals.parse_structured_goal"),
        (goals, "resolve_goal", "goals.resolve_goal"),
        (pddl, "serialize_problem", "pddl.serialize_problem"),
        (pddl, "parse_problem", "pddl.parse_problem"),
        (planner, "axiom_closure", "planner.axiom_closure"),
        (planner, "ground_actions", "planner.ground_actions"),
    ):
        tracer.wrap(module, attr, name)
    tracer.wrap(graph, "classify", "graph.classify", after=count_classified)
    tracer.wrap(planner, "make_heuristic", "planner.make_heuristic", after=trace_heuristic)


# ---------------------------------------------------------------------------
# Eval workloads: metrics.evaluate_suite, one problem at a time
# ---------------------------------------------------------------------------


def eval_pass(workload: Workload, suites, pass_no: int, tracer: Tracer, traced: bool):
    """Score every suite once; return {entry id: Outcome} in manifest order.

    evaluate_suite looks evaluate_problem up in the metrics module, so the
    per-operation timer sits there.  evaluate_problem binds its default
    solver when it is defined, so the solver is passed explicitly.
    """
    config = metrics.PipelineConfig(search=SearchConfig(mode=workload.mode), jobs=1)
    outcomes: dict[str, Outcome] = {}
    solved: dict[str, tuple] = {}

    def capture_solve(domain, problem, cfg):
        result = planner.solve(domain, problem, cfg)
        solved[tracer.op[1]] = (domain, problem, result)
        return result

    def count_search(result, args):
        tracer.count("planner.expanded", result.expanded)
        tracer.count("planner.solved", result.status == "solved")
        return result

    solver = (
        tracer.function(capture_solve, "planner.solve", after=count_search)
        if traced
        else capture_solve
    )
    evaluate_problem = metrics.evaluate_problem

    for suite in suites:

        def timed(domain, entry, config, solver):
            op = f"{suite.key}/{entry.name}"
            tracer.op = (pass_no, op)
            before = kernel()
            start = perf_counter()
            try:
                return evaluate_problem(domain, entry, config, solver)
            except Exception as exc:
                outcomes[op] = Outcome(0.0, None, f"{type(exc).__name__}: {exc}")
                raise
            finally:
                ms = (perf_counter() - start) * 1000.0
                if op not in outcomes:
                    outcomes[op] = Outcome(ms, None, kernels=(before, kernel()))

        metrics.evaluate_problem = timed
        try:
            report = metrics.evaluate_suite(suite.manifest, config, solver=solver)
        except Exception:
            continue  # the raising entry is recorded; the rest are not attempted
        finally:
            metrics.evaluate_problem = evaluate_problem
        for record in report.records:
            op = f"{suite.key}/{record.name}"
            found = solved.get(op)
            plan = found[2].plan if found and found[2].plan is not None else None
            outcome = outcomes[op]
            outcome.digest = _digest(
                json.dumps(record.as_dict(), sort_keys=True),
                serialize_plan(plan) if plan is not None else "",
            )
            outcome.detail = {"cfg": suite.cfg, "record": record, "solved": found}
    return outcomes


def check_eval(workload: Workload, outcome: Outcome) -> str | None:
    """Invariants that hold on any seed; returns the first violation."""
    record = outcome.detail["record"]
    found = outcome.detail["solved"]
    if found is not None and found[2].status == "solved":
        domain, problem, result = found
        text = pddl.serialize_problem(problem)
        if pddl.serialize_problem(pddl.parse_problem(text, domain)) != text:
            return "grounded problem does not round-trip byte-identically"
        if not metrics.validate_plan(domain, problem.init, problem.goal, result.plan).ok:
            return "solved plan fails metrics.validate_plan"
        if not record.plan_valid or record.plan_length != len(result.plan):
            return "record disagrees with the solved plan"
    cfg = outcome.detail["cfg"]
    if cfg.kind == "hanoi" and cfg.sigma == 0:
        if record.failure is not None or not record.success:
            return f"noiseless hanoi failed: {record.failure}"
        if record.plan_length != 2**cfg.d - 1:
            return f"hanoi plan has {record.plan_length} steps, not {2**cfg.d - 1}"
        if record.grounding.precision != 1.0 or record.grounding.recall != 1.0:
            return "noiseless hanoi grounding is not exact"
    return None


def eval_score(outcome: Outcome) -> tuple:
    record = outcome.detail["record"]
    g = record.grounding
    return g.tp, g.fp, g.fn, record.success, record.plan_length


# ---------------------------------------------------------------------------
# ground-noisy: the `sceneground ground` chain, no planner
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def ground_op(domain, entry):
    """Observation, exemplar and goal in; problem PDDL and scene graph out.

    Functions are looked up on their modules at call time, so the traced
    passes see them.  Returns (problem text, graph JSON, failure, init).
    """
    try:
        obs = scene.observation_from_json(_read(entry.scene))
        exemplar = graph.exemplar_from_json(_read(entry.exemplar), domain)
        merged = scene.merge_detections(obs, domain)
        scene_graph = graph.classify_scene(merged, domain, exemplar)
    except (SceneError, ExemplarError) as exc:
        return "", "", f"grounding: {exc}", frozenset()
    init = graph.graph_to_init(scene_graph)
    try:
        spec = goals.parse_structured_goal(entry.goal_structured, domain)
        goal = goals.resolve_goal(spec, merged.typed_objects(), domain)
        problem = pddl.Problem(entry.name, domain.name, merged.typed_objects(), init, goal)
        text = pddl.serialize_problem(problem)
        pddl.parse_problem(text, domain)
    except (GoalError, PddlError) as exc:
        return "", scene_graph.to_json(), f"{type(exc).__name__}: {exc}", init
    return text, scene_graph.to_json(), None, init


def ground_pass(workload: Workload, suites, pass_no: int, tracer: Tracer, traced: bool):
    outcomes: dict[str, Outcome] = {}
    for suite in suites:
        domain, entries = metrics.load_manifest(suite.manifest)
        for entry in entries:
            op = f"{suite.key}/{entry.name}"
            tracer.op = (pass_no, op)
            before = kernel()
            start = perf_counter()
            try:
                text, graph_json, failure, init = ground_op(domain, entry)
            except Exception as exc:
                outcomes[op] = Outcome(0.0, None, f"{type(exc).__name__}: {exc}")
                continue
            ms = (perf_counter() - start) * 1000.0
            outcomes[op] = Outcome(
                ms,
                _digest(text, graph_json, failure or ""),
                detail={"domain": domain, "entry": entry, "text": text,
                        "graph": graph_json, "init": init},
                kernels=(before, kernel()),
            )
    return outcomes


def check_ground(workload: Workload, outcome: Outcome) -> str | None:
    d = outcome.detail
    if d["text"]:
        if pddl.serialize_problem(pddl.parse_problem(d["text"], d["domain"])) != d["text"]:
            return "grounded problem does not round-trip byte-identically"
    if d["graph"]:
        json.loads(d["graph"])
    return None


def ground_score(outcome: Outcome) -> tuple:
    d = outcome.detail
    truth = pddl.parse_problem(_read(d["entry"].ground_truth_problem), d["domain"])
    g = metrics.triplet_pr(d["init"], truth.init, d["domain"].observed)
    return g.tp, g.fp, g.fn, None, None


def quality(scores) -> dict[str, float]:
    """Grounding precision and recall pooled over entries (micro), plus task
    success and mean plan length where the workload plans."""
    tp, fp, fn = (sum(s[i] for s in scores) for i in range(3))
    out = {
        "triplet_precision_micro": tp / (tp + fp) if tp + fp else 1.0,
        "triplet_recall_micro": tp / (tp + fn) if tp + fn else 1.0,
    }
    if scores and scores[0][3] is not None:
        lengths = [s[4] for s in scores if s[4] is not None]
        out["task_success_rate"] = sum(s[3] for s in scores) / len(scores)
        out["plan_length_mean"] = sum(lengths) / len(lengths) if lengths else 0.0
    return out


TASKS = {
    "eval": (eval_pass, check_eval, eval_score),
    "ground": (ground_pass, check_ground, ground_score),
}
