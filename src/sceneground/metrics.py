"""Grounding pipeline (``ground``), grounding precision/recall, plan
validation, suite evaluation.

Grounding is scored as exact-match precision/recall over observed-predicate
atoms (derived atoms never count).  Suite metrics pool tp/fp/fn across
problems (micro averaging) and also report means of per-problem ratios
(macro); micro is the primary number and the report header says so.

A problem that fails at any pipeline stage contributes zeros for the
stages it never reached, and counts as valid once its goal resolves; only a
bad manifest or ground truth file aborts the suite, never one bad problem.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import fmean

from sceneground.goals import (
    Cassette,
    GoalError,
    LlmEndpointConfig,
    llm_parse_goal,
    parse_structured_goal,
    resolve_goal,
)
from sceneground.graph import (
    ExemplarError,
    SceneGraph,
    classify_scene,
    exemplar_from_json,
)
from sceneground.pddl import PddlError, parse_domain, parse_problem
# perfbench/workloads.py wraps metrics.serialize_problem by name when tracing.
from sceneground.pddl import serialize_problem  # noqa: F401
from sceneground.pddl.model import (
    EQUALITY,
    Domain,
    Plan,
    Problem,
    valid_name,
)
from sceneground.planner import SearchConfig, axiom_closure, solve, suite, suite_tables
from sceneground.scene import (
    MATCH_THRESHOLD,
    SceneError,
    merge_detections,
    observation_from_json,
)

AVERAGING_NOTE = (
    "P/R are micro-averaged (tp/fp/fn pooled across problems); "
    "macro columns are means of per-problem ratios"
)


class EvalError(ValueError):
    """Manifest or configuration problem that prevents scoring at all."""


@dataclass(frozen=True)
class GroundingScore:
    """Exact-match triplet counts.  As produced by triplet_pr, precision is
    tp/(tp+fp) (1.0 when nothing was predicted) and recall is tp/(tp+fn)
    (1.0 when the truth is empty).  Failure records constructed elsewhere
    may carry explicit zeros instead."""

    precision: float
    recall: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of replaying a plan.  ok means no failing step and no
    reason; a goal violation has a reason but no step index."""

    ok: bool
    step: int | None
    reason: str | None  # precondition-unsatisfied | unknown-action | goal-unsatisfied

    def __post_init__(self):
        if self.ok and (self.step is not None or self.reason is not None):
            raise ValueError("a passing verdict carries no failure data")


def triplet_pr(predicted, truth, observed) -> GroundingScore:
    """Compare two atom sets, restricted to the observed predicates.

    Nothing predicted gives the vacuous precision 1.0, and empty truth
    gives recall 1.0.
    """
    # Accept predicate names or PredicateSignature objects.
    names = {getattr(p, "name", p) for p in observed}
    predicted = {a for a in predicted if a.predicate in names}
    truth = {a for a in truth if a.predicate in names}
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    return GroundingScore(precision, recall, tp, fp, fn)


# ---------------------------------------------------------------------------
# Plan validation
# ---------------------------------------------------------------------------


def validate_plan(domain: Domain, init, goal, plan: Plan) -> Verdict:
    """Replay the plan from init; the goal must hold after the last step.

    The state is kept as per-predicate sets of argument tuples, changed in
    place by each step (deletes, then adds).  Each step's precondition
    literals and the goal literals are looked up in a fresh
    ``axiom_closure`` view of the state, which proves only the derived
    atoms they ask about.  A step naming no schema (or the wrong number of
    arguments) is unknown-action; the first violation wins.  Only a step's
    action name and arity are checked, not its argument types, so an
    ill-typed step whose literals hold is accepted.
    """
    facts: dict[str, set[tuple[str, ...]]] = {}
    for atom in init:
        facts.setdefault(atom.predicate, set()).add(atom.args)
    for index, step in enumerate(plan.steps):
        schema = domain.action(step.action)
        if schema is None or len(schema.params) != len(step.args):
            return Verdict(False, index, "unknown-action")
        env = dict(zip((v for v, _ in schema.params), step.args))
        reached = axiom_closure(facts, domain.derived)
        for lit in schema.precondition:
            args = tuple(env[a] for a in lit.atom.args)
            if lit.atom.predicate == EQUALITY:
                holds = args[0] == args[1]
            else:
                holds = (lit.atom.predicate, args) in reached
            if holds == lit.negated:
                return Verdict(False, index, "precondition-unsatisfied")
        for atom in schema.delete:
            facts.get(atom.predicate, set()).discard(tuple(env[a] for a in atom.args))
        for atom in schema.add:
            facts.setdefault(atom.predicate, set()).add(tuple(env[a] for a in atom.args))
    reached = axiom_closure(facts, domain.derived)
    if all((lit.atom in reached) != lit.negated for lit in goal):
        return Verdict(True, None, None)
    return Verdict(False, None, "goal-unsatisfied")


# ---------------------------------------------------------------------------
# Suite evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    match_threshold: float = MATCH_THRESHOLD
    search: SearchConfig = SearchConfig()
    llm: LlmEndpointConfig | None = None
    cassette: str | None = None
    cassette_mode: str = "replay"
    jobs: int = 1  # 1 only; deleted once perfbench/workloads.py stops passing it

    def __post_init__(self):
        if not 0.0 <= self.match_threshold <= 1.0:
            raise EvalError("match_threshold must lie in [0, 1]")
        if self.jobs != 1:
            raise EvalError(f"jobs must be 1 (suites run in one process), not {self.jobs!r}")
        if self.cassette_mode not in ("replay", "record"):
            raise EvalError(f"bad cassette mode {self.cassette_mode!r}")


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    scene: str
    exemplar: str
    goal_text: str | None
    goal_structured: str | None
    ground_truth_problem: str | None  # None for a scene grounded outside a suite


@dataclass(frozen=True)
class ProblemRecord:
    name: str
    grounding: GroundingScore
    problem_valid: bool
    plan_valid: bool
    success: bool
    plan_length: int | None
    failure: str | None

    def as_dict(self) -> dict:
        """The fields with the grounding counts inlined."""
        out = asdict(self)
        out.update(out.pop("grounding"))
        return out


@dataclass(frozen=True)
class DomainRow:
    domain: str
    n: int
    precision: float
    recall: float
    macro_precision: float
    macro_recall: float
    problem_validity: float
    plan_validity: float
    success: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple[DomainRow, ...]
    records: tuple[ProblemRecord, ...]

    def as_dict(self) -> dict:
        return {
            "averaging": AVERAGING_NOTE,
            "rows": [row.as_dict() for row in self.rows],
            "problems": [record.as_dict() for record in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def to_table(self) -> str:
        """Aligned text table, one row per domain, header note on averaging."""
        headers = (
            "domain",
            "n",
            "P",
            "R",
            "macro-P",
            "macro-R",
            "problem-valid",
            "plan-valid",
            "success",
        )
        body = [
            (
                row.domain,
                str(row.n),
                f"{row.precision:.3f}",
                f"{row.recall:.3f}",
                f"{row.macro_precision:.3f}",
                f"{row.macro_recall:.3f}",
                f"{row.problem_validity:.3f}",
                f"{row.plan_validity:.3f}",
                f"{row.success:.3f}",
            )
            for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(line[i]) for line in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = ["# " + AVERAGING_NOTE]
        for line in (headers, *body):
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
            )
        return "\n".join(lines) + "\n"


def aggregate(domain_name: str, records) -> DomainRow:
    records = tuple(records)
    if not records:
        raise EvalError("nothing to aggregate")
    tp = sum(r.grounding.tp for r in records)
    fp = sum(r.grounding.fp for r in records)
    fn = sum(r.grounding.fn for r in records)
    return DomainRow(
        domain=domain_name,
        n=len(records),
        precision=tp / (tp + fp) if tp + fp else 1.0,
        recall=tp / (tp + fn) if tp + fn else 1.0,
        macro_precision=fmean(r.grounding.precision for r in records),
        macro_recall=fmean(r.grounding.recall for r in records),
        problem_validity=fmean(float(r.problem_valid) for r in records),
        plan_validity=fmean(float(r.plan_valid) for r in records),
        success=fmean(float(r.success) for r in records),
    )


def stem_name(path: str) -> str:
    """A name from a file's stem: lowercased, each character a name cannot
    hold turned to '-'; 'scene' if that leaves nothing or a lone '-'."""
    name = re.sub(r"[^a-z0-9_-]", "-", Path(path).stem.lower())
    return name if valid_name(name) else "scene"


def load_manifest(path) -> tuple[Domain, tuple[ManifestEntry, ...]]:
    """Read a manifest JSON file; paths inside resolve against its folder."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, big int, deep nesting
        raise EvalError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(raw, dict) or "domain_file" not in raw or "problems" not in raw:
        raise EvalError("manifest must be an object with domain_file and problems")
    if not isinstance(raw["domain_file"], str):
        raise EvalError("manifest key 'domain_file' must be a string")
    base = path.parent
    try:
        domain = parse_domain((base / raw["domain_file"]).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise EvalError(f"cannot read domain file: {exc}") from None
    problems = raw["problems"]
    if not isinstance(problems, list) or not problems:
        raise EvalError("manifest lists no problems")
    entries = []
    for index, item in enumerate(problems):
        if not isinstance(item, dict):
            raise EvalError(f"problem {index} is not an object")
        for key in ("scene", "exemplar", "ground_truth_problem"):
            if key not in item:
                raise EvalError(f"problem {index} is missing {key}")
            if not isinstance(item[key], str):
                raise EvalError(f"problem {index}: {key} must be a string")
        for key in ("goal_text", "goal_structured"):
            if not isinstance(item.get(key), (str, type(None))):
                raise EvalError(f"problem {index}: {key} must be a string or null")
        text = item.get("goal_text")
        structured = item.get("goal_structured")
        if (text is None) == (structured is None):
            raise EvalError(
                f"problem {index} needs exactly one of goal_text, goal_structured"
            )
        entries.append(
            ManifestEntry(
                name=f"{index:03d}-{stem_name(item['scene'])}",
                scene=str(base / item["scene"]),
                exemplar=str(base / item["exemplar"]),
                goal_text=text,
                goal_structured=structured,
                ground_truth_problem=str(base / item["ground_truth_problem"]),
            )
        )
    return domain, tuple(entries)


def read_text(path: str) -> str:
    """A UTF-8 input file; an unreadable one is a SceneError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneError(f"cannot read {path}: {exc}") from None


@dataclass(frozen=True)
class Grounding:
    """What the grounding chain made of one entry.

    failure names the first stage that failed ("grounding: ..." or "goal:
    ...").  graph is kept when only the goal failed; problem is set only
    on success.
    """

    graph: SceneGraph | None
    problem: Problem | None
    failure: str | None


def _goal_literals(domain, entry, config):
    """goal_structured goes through the grammar and goal_text through the
    LLM.  An entry with both (the CLI's --goal) asks the LLM only when the
    grammar rejects the text."""
    if entry.goal_structured is not None:
        try:
            return parse_structured_goal(entry.goal_structured, domain)
        except GoalError as exc:
            if entry.goal_text is None:
                raise
            if config.llm is None:
                raise GoalError(
                    f"goal is not in the structured grammar ({exc}) and no LLM "
                    "endpoint is configured"
                ) from None
    if config.llm is None:
        raise GoalError("goal_text entries need an LLM endpoint configured")
    cassette = (
        Cassette(config.cassette, mode=config.cassette_mode)
        if config.cassette
        else None
    )
    return llm_parse_goal(entry.goal_text, domain, config.llm, cassette)


def ground(domain: Domain, entry: ManifestEntry, config: PipelineConfig) -> Grounding:
    """Scene and exemplar files plus a goal in, a problem out.

    Merges and classifies once and builds the goal from the merged objects
    only (never from the predicted init).  Each part of the problem is
    checked where it is made, so it needs no text round trip to be valid.
    Stage failures are returned, never raised.

    An exemplar file (an observation plus its labels) is compiled once per
    suite: its ``graph.ExemplarModel`` is kept in ``planner.suite_tables``
    under the file text and the match threshold for every entry that
    shares it.
    """
    try:
        obs = observation_from_json(read_text(entry.scene))
        text = read_text(entry.exemplar)
        key = (text, config.match_threshold)
        tables = suite_tables(domain)
        exemplar = tables.get(key)
        if exemplar is None:
            exemplar = tables[key] = exemplar_from_json(text, domain, config.match_threshold)
        scene = merge_detections(obs, domain, config.match_threshold)
        graph = classify_scene(scene, domain, exemplar)
    except (SceneError, ExemplarError) as exc:
        return Grounding(None, None, f"grounding: {exc}")

    objects = scene.typed_objects()
    try:
        goal = resolve_goal(_goal_literals(domain, entry, config), objects, domain)
    except GoalError as exc:
        return Grounding(graph, None, f"goal: {exc}")
    problem = Problem(entry.name, domain.name, objects, graph.atoms, goal)
    return Grounding(graph, problem, None)


def evaluate_problem(
    domain: Domain, entry: ManifestEntry, config: PipelineConfig, solver=solve
) -> ProblemRecord:
    """Score one manifest entry, never raising on per-problem failures.

    Ground truth that cannot be read or parsed is a manifest defect and
    raises, naming the entry and file.  Pipeline stages fail softly: a
    stage failure zeroes that stage and everything after it, and
    problem_valid means the goal stage passed (a failed goal stage still
    reports the grounding scores, matching the single-attempt protocol).

    A found plan is replayed on the predicted problem (plan_valid) and on
    the truth (success).  When the two problems have the same init and
    the same goal literals, the first verdict is also the second: replay
    depends on nothing else, so the plan is replayed once.
    """
    path = entry.ground_truth_problem
    try:
        truth = parse_problem(read_text(path), domain)
    except (SceneError, PddlError) as exc:
        raise EvalError(f"{entry.name}: ground truth {path}: {exc}") from None
    observed = {sig.name for sig in domain.observed}
    grounded = ground(domain, entry, config)
    if grounded.graph is None:
        truth_observed = {a for a in truth.init if a.predicate in observed}
        grounding = GroundingScore(0.0, 0.0, 0, 0, len(truth_observed))
    else:
        grounding = triplet_pr(grounded.graph.atoms, truth.init, observed)
    problem = grounded.problem
    if problem is None:
        return ProblemRecord(
            entry.name, grounding, False, False, False, None, grounded.failure
        )

    result = solver(domain, problem, config.search)
    if result.status != "solved":
        return ProblemRecord(
            entry.name,
            grounding,
            True,
            False,
            False,
            None,
            f"planner: {result.status}",
        )
    plan_valid = validate_plan(domain, problem.init, problem.goal, result.plan).ok
    if problem.init == truth.init and set(problem.goal) == set(truth.goal):
        success = plan_valid
    else:
        success = validate_plan(domain, truth.init, truth.goal, result.plan).ok
    return ProblemRecord(
        entry.name, grounding, True, plan_valid, success, len(result.plan), None
    )


def evaluate_suite(
    manifest, config: PipelineConfig = PipelineConfig(), solver=solve
) -> SuiteReport:
    """Evaluate every manifest problem in manifest order; one report row
    per domain.

    The entries are scored in one ``planner.suite`` on the manifest's
    domain, so they share what it compiles once: the planner's object
    tables, with h_add's relaxations and memos, and ``ground``'s compiled
    exemplars.
    """
    domain, entries = load_manifest(manifest)
    with suite(domain):
        records = tuple(evaluate_problem(domain, e, config, solver) for e in entries)
    row = aggregate(domain.name, records)
    return SuiteReport((row,), records)
