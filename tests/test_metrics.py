"""Grounding scores, plan validation, and suite evaluation."""

from __future__ import annotations

import itertools
import json
import os
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sceneground.goals as goals
import sceneground.metrics as metrics
from naive_ref import naive_run
from sceneground.bench import GenConfig, domain_text
from sceneground.bench import write_suite as write_bench_suite
from sceneground.goals import LlmEndpointConfig
from sceneground.metrics import (
    EvalError,
    GroundingScore,
    PipelineConfig,
    ProblemRecord,
    SuiteReport,
    Verdict,
    aggregate,
    evaluate_problem,
    evaluate_suite,
    load_manifest,
    triplet_pr,
    validate_plan,
)
from sceneground.pddl import parse_domain, parse_problem, serialize_problem
from sceneground.pddl.model import (
    GroundAtom,
    GroundLiteral,
    Plan,
    PlanStep,
    Problem,
)
from sceneground.planner import GroundTask, SearchConfig, SolveResult, solve, suite_tables
from sceneground.graph import exemplar_to_json
from sceneground.scene import Box, Detection, SceneObservation
from test_pddl import chain_domain

BLOCKS = parse_domain(domain_text("blocksworld"))
HANOI = parse_domain(domain_text("hanoi"))
OBSERVED = {sig.name for sig in BLOCKS.observed}


def on(a: str, b: str) -> GroundAtom:
    return GroundAtom("on", (a, b))


def lit(predicate: str, *args: str, negated: bool = False) -> GroundLiteral:
    return GroundLiteral(GroundAtom(predicate, args), negated)


# ---------------------------------------------------------------------------
# triplet_pr
# ---------------------------------------------------------------------------


def test_half_overlap_scores_half():
    a, b, c = on("x", "y"), on("y", "z"), on("z", "x")
    score = triplet_pr({a, b}, {b, c}, OBSERVED)
    assert (score.precision, score.recall) == (0.5, 0.5)
    assert (score.tp, score.fp, score.fn) == (1, 1, 1)


def test_exact_match_scores_one():
    atoms = {on("x", "y"), on("y", "z")}
    score = triplet_pr(atoms, set(atoms), OBSERVED)
    assert (score.precision, score.recall) == (1.0, 1.0)


def test_derived_atoms_are_ignored():
    pred = {on("x", "y"), GroundAtom("covered", ("y",))}
    truth = {on("x", "y"), GroundAtom("buried", ("y",))}
    score = triplet_pr(pred, truth, OBSERVED)
    assert (score.tp, score.fp, score.fn) == (1, 0, 0)
    assert (score.precision, score.recall) == (1.0, 1.0)


def test_empty_prediction_conventions():
    truth = {on("x", "y")}
    assert triplet_pr(set(), truth, OBSERVED).precision == 1.0
    assert triplet_pr(set(), truth, OBSERVED).recall == 0.0
    assert triplet_pr({on("x", "y")}, set(), OBSERVED).recall == 1.0


def test_scores_do_not_depend_on_iteration_order():
    atoms = [on("a", "b"), on("b", "c"), on("c", "d")]
    forward = triplet_pr(atoms, atoms[:2], OBSERVED)
    backward = triplet_pr(list(reversed(atoms)), atoms[1::-1], OBSERVED)
    assert forward == backward


# ---------------------------------------------------------------------------
# validate_plan
# ---------------------------------------------------------------------------


def test_empty_plan_with_satisfied_derived_goal_is_ok():
    verdict = validate_plan(
        BLOCKS, {on("b1", "b2")}, (lit("covered", "b2"),), Plan(())
    )
    assert verdict == Verdict(True, None, None)


def test_first_step_precondition_failure_reports_step_zero():
    plan = Plan((PlanStep("unstack-from-base", ("b1", "b2")),))
    verdict = validate_plan(BLOCKS, set(), (lit("covered", "b2"),), plan)
    assert verdict == Verdict(False, 0, "precondition-unsatisfied")


def test_unknown_action_and_bad_arity():
    good_goal = (lit("covered", "b2"),)
    plan = Plan((PlanStep("teleport", ("b1",)),))
    assert validate_plan(BLOCKS, set(), good_goal, plan).reason == "unknown-action"
    plan = Plan((PlanStep("unstack-from-base", ("b1",)),))
    verdict = validate_plan(BLOCKS, set(), good_goal, plan)
    assert verdict == Verdict(False, 0, "unknown-action")


def test_goal_failure_has_no_step_index():
    plan = Plan((PlanStep("unstack-from-base", ("b1", "b2")),))
    verdict = validate_plan(BLOCKS, {on("b1", "b2")}, (lit("on", "b1", "b2"),), plan)
    assert verdict == Verdict(False, None, "goal-unsatisfied")


def test_equality_preconditions_are_enforced():
    # move requires from != to; hand it the same peg twice.
    init = {
        GroundAtom("onpeg", ("d1", "p1")),
        GroundAtom("smaller", ("d1", "d2")),
    }
    plan = Plan((PlanStep("move", ("d1", "p1", "p1")),))
    verdict = validate_plan(HANOI, init, (lit("onpeg", "d1", "p1"),), plan)
    assert verdict == Verdict(False, 0, "precondition-unsatisfied")


def test_deep_rule_chains_are_judged_without_recursion():
    # p0 <- p1 <- ... <- p3000: proving (p0 a) suspends 3000 nested joins.
    domain = parse_domain(chain_domain(3000, cyclic=False))
    goal = (lit("p0", "a"),)
    verdict = validate_plan(domain, {GroundAtom("p3000", ("a",))}, goal, Plan(()))
    assert verdict == Verdict(True, None, None)
    verdict = validate_plan(domain, set(), goal, Plan(()))
    assert verdict == Verdict(False, None, "goal-unsatisfied")


def test_solver_plans_validate_end_to_end():
    objects = tuple((f"b{i}", "block") for i in range(1, 5))
    problem = Problem(
        "case",
        "blocksworld",
        objects,
        frozenset({on("b1", "b2"), on("b2", "b3")}),
        (lit("on", "b3", "b1"),),
    )
    result = solve(BLOCKS, problem, SearchConfig(mode="optimal"))
    assert result.status == "solved"
    assert validate_plan(BLOCKS, problem.init, problem.goal, result.plan).ok


def test_ok_verdict_carries_no_failure_data():
    with pytest.raises(ValueError):
        Verdict(True, 3, None)
    with pytest.raises(ValueError):
        Verdict(True, None, "goal-unsatisfied")


def random_state_and_plan(rng: random.Random):
    """A random blocksworld state plus a plan that is legal, damaged, or both."""
    blocks = [f"b{i}" for i in range(1, 5)]
    objects = tuple((b, "block") for b in blocks)
    init = set()
    tower = [blocks[0]]
    for b in blocks[1:]:
        if rng.random() < 0.5:
            init.add(on(b, tower[-1]))
            tower.append(b)
        else:
            tower = [b]
    walk = Problem("walk", "blocksworld", objects, frozenset(init), ())
    task = GroundTask(BLOCKS, walk)
    base = task.init[0]
    steps = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.6:
            options = list(task.successors((base, task.closure(base))))
            if not options:
                continue
            index, base = rng.choice(options)
            steps.append(task.actions[index])
        elif roll < 0.8:
            steps.append(rng.choice(task.actions))  # often inapplicable
        elif roll < 0.9:
            steps.append(PlanStep("warp", tuple(rng.sample(blocks, 2))))
        else:
            steps.append(PlanStep("unstack-from-base", (rng.choice(blocks),)))
    goal = (
        lit("on", rng.choice(blocks), rng.choice(blocks)),
        lit("covered", rng.choice(blocks), negated=rng.random() < 0.5),
    )
    return frozenset(init), goal, Plan(tuple(steps))


def test_validator_agrees_with_naive_interpreter():
    for seed in range(100):
        init, goal, plan = random_state_and_plan(random.Random(seed))
        verdict = validate_plan(BLOCKS, init, goal, plan)
        ok, reason, step = naive_run(BLOCKS, init, goal, plan)
        assert (verdict.ok, verdict.reason, verdict.step) == (ok, reason, step), (
            seed,
            plan,
        )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def record(name, tp, fp, fn, p, r, ok=True):
    return ProblemRecord(
        name, GroundingScore(p, r, tp, fp, fn), ok, ok, ok, 1 if ok else None, None
    )


def test_micro_pools_counts_and_macro_averages_ratios():
    # Problem A: tp=1 fp=0 fn=1 (P=1, R=0.5); B: tp=1 fp=1 fn=0 (P=0.5, R=1).
    rows = [record("a", 1, 0, 1, 1.0, 0.5), record("b", 1, 1, 0, 0.5, 1.0)]
    row = aggregate("blocksworld", rows)
    assert row.precision == pytest.approx(2 / 3)
    assert row.recall == pytest.approx(2 / 3)
    assert row.macro_precision == pytest.approx(0.75)
    assert row.macro_recall == pytest.approx(0.75)
    assert row.n == 2


def test_aggregate_rejects_empty_input():
    with pytest.raises(EvalError):
        aggregate("blocksworld", [])


def test_report_table_and_json_round_trip():
    row = aggregate("blocksworld", [record("a", 2, 0, 0, 1.0, 1.0)])
    report = SuiteReport((row,), (record("a", 2, 0, 0, 1.0, 1.0),))
    table = report.to_table()
    assert table.startswith("# P/R are micro-averaged")
    header, data = table.splitlines()[1:3]
    assert header.index("P") == data.index("1.000")
    parsed = json.loads(report.to_json())
    assert parsed["rows"][0]["success"] == 1.0
    assert parsed["problems"][0]["name"] == "a"


# ---------------------------------------------------------------------------
# Suite evaluation end to end
# ---------------------------------------------------------------------------

BLOCK = 10


def block_box(x: int, y: int) -> Box:
    return Box(float(x), float(y), float(x + BLOCK), float(y + BLOCK))


def block_obs(origins) -> SceneObservation:
    detections = tuple(Detection("block", block_box(x, y)) for x, y in origins)
    return SceneObservation(100, 100, detections, ())


def write_suite(tmp_path, goals):
    """A tiny blocksworld suite: one stacked pair plus a stray block.

    Scene raster names: block1 = top of the stack, block2 = the stray,
    block3 = the base, so truth init is {on(block3, block1)} under the
    exemplar's below-is-on convention.
    """
    (tmp_path / "domain.pddl").write_text(domain_text("blocksworld"))
    exemplar_obs = block_obs([(10, 40), (10, 10), (50, 10)])
    exemplar_atoms = {on("block3", "block1")}
    (tmp_path / "exemplar.json").write_text(
        exemplar_to_json(exemplar_obs, exemplar_atoms)
    )
    problems = []
    for index, goal in enumerate(goals):
        scene = block_obs([(12, 40), (12, 10), (52, 10)])
        scene_name = f"scene-{index}.json"
        (tmp_path / scene_name).write_text(scene.to_json())
        truth = Problem(
            f"truth-{index}",
            "blocksworld",
            tuple((f"block{i}", "block") for i in (1, 2, 3)),
            frozenset({on("block3", "block1")}),
            goal["truth_goal"],
        )
        truth_name = f"truth-{index}.pddl"
        (tmp_path / truth_name).write_text(serialize_problem(truth))
        problems.append(
            {
                "scene": scene_name,
                "exemplar": "exemplar.json",
                "goal_structured": goal["structured"],
                "ground_truth_problem": truth_name,
            }
        )
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"domain_file": "domain.pddl", "problems": problems}, indent=2)
    )
    return manifest


TWO_GOALS = (
    {"structured": "on(block2, block1)", "truth_goal": (lit("on", "block2", "block1"),)},
    {"structured": "covered(block1)", "truth_goal": (lit("covered", "block1"),)},
)


def test_clean_suite_scores_perfectly(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    report = evaluate_suite(manifest)
    row = report.rows[0]
    assert row.domain == "blocksworld"
    assert row.n == 2
    assert (row.precision, row.recall) == (1.0, 1.0)
    assert (row.macro_precision, row.macro_recall) == (1.0, 1.0)
    assert row.problem_validity == 1.0
    assert row.plan_validity == 1.0
    assert row.success == 1.0
    assert all(r.failure is None for r in report.records)
    assert [r.name for r in report.records] == ["000-scene-0", "001-scene-1"]


def test_empty_plan_stub_counts_already_satisfied_goals(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)

    def stub(domain, problem, cfg):
        return SolveResult("solved", Plan(()), 0)

    report = evaluate_suite(manifest, solver=stub)
    # covered(block1) already holds in the ground truth init; the other
    # goal needs real work, so the stub scores exactly the satisfied half.
    assert report.rows[0].success == 0.5
    assert report.rows[0].plan_validity == 0.5
    assert report.rows[0].precision == 1.0  # grounding unaffected by the stub


def test_a_defective_plan_fails_its_record_only(tmp_path):
    # The validator is the one judge of a found plan: a solver that returns
    # a plan whose first step cannot run costs that problem its plan
    # validity and success, and the suite carries on.
    manifest = write_suite(tmp_path, TWO_GOALS)
    reference = evaluate_suite(manifest)
    bogus = Plan((PlanStep("unstack-from-base", ("block2", "block2")),))

    def defective(domain, problem, cfg):
        result = solve(domain, problem, cfg)
        if problem.name != reference.records[0].name:
            return result
        return SolveResult("solved", bogus, result.expanded)

    report = evaluate_suite(manifest, solver=defective)
    bad, *rest = report.records
    assert bad == replace(
        reference.records[0], plan_valid=False, success=False, plan_length=1
    )
    assert tuple(rest) == reference.records[1:]
    assert report.rows[0].plan_validity == report.rows[0].success == 0.5


def test_parallel_evaluation_matches_inline(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    inline = evaluate_suite(manifest, PipelineConfig(jobs=1))
    pooled = evaluate_suite(manifest, PipelineConfig(jobs=2))
    assert inline == pooled


def count_exemplar_loads(monkeypatch) -> list[str]:
    """The text of each exemplar ``metrics.ground`` loads and compiles."""
    texts = []
    load = metrics.exemplar_from_json

    def loading(text, *args):
        texts.append(text)
        return load(text, *args)

    monkeypatch.setattr(metrics, "exemplar_from_json", loading)
    return texts


def test_evaluate_suite_releases_the_planner_tables(tmp_path, monkeypatch):
    # Both problems have the same objects and keep the same rules, so they
    # share one table, and the same exemplar file, so they share one
    # compiled exemplar: two memo entries, loaded once.  The suite's scope
    # is closed when it returns, and when a bad truth file makes it raise
    # after the first problem filled its tables.
    manifest = write_suite(tmp_path, TWO_GOALS)
    domains, sizes, scoped = [], [], []
    load, evaluate = metrics.load_manifest, metrics.evaluate_problem
    loads = count_exemplar_loads(monkeypatch)

    def loading(path):
        domain, entries = load(path)
        domains.append(domain)
        return domain, entries

    def evaluating(domain, *args):
        record = evaluate(domain, *args)
        scoped.append(suite_tables(domain))
        sizes.append(len(scoped[-1]))
        return record

    def closed(domain) -> bool:
        tables = suite_tables(domain)
        return tables == {} and all(tables is not inside for inside in scoped)

    monkeypatch.setattr(metrics, "load_manifest", loading)
    monkeypatch.setattr(metrics, "evaluate_problem", evaluating)
    assert evaluate_suite(manifest).rows[0].success == 1.0
    assert sizes == [2, 2] and scoped[0] is scoped[1] and closed(domains[0])
    assert len(loads) == 1
    (tmp_path / "truth-1.pddl").write_text("(define")
    with pytest.raises(EvalError, match="001-scene-1: ground truth"):
        evaluate_suite(manifest)
    assert sizes == [2, 2, 2] and closed(domains[1])
    assert len(loads) == 2


def test_each_distinct_exemplar_text_is_compiled_once_per_suite(tmp_path, monkeypatch):
    # Three entries over two exemplar files; the second file holds the same
    # exemplar written without indentation, so its text differs.
    manifest = write_suite(tmp_path, TWO_GOALS + TWO_GOALS[:1])
    exemplar = json.loads((tmp_path / "exemplar.json").read_text())
    (tmp_path / "exemplar-b.json").write_text(json.dumps(exemplar))
    doc = json.loads(manifest.read_text())
    doc["problems"][2]["exemplar"] = "exemplar-b.json"
    manifest.write_text(json.dumps(doc))
    loads = count_exemplar_loads(monkeypatch)
    first = evaluate_suite(manifest)
    assert len(loads) == 2 and len(set(loads)) == 2
    # The memo is the suite's, not the process's: a rerun loads both again.
    assert evaluate_suite(manifest) == first
    assert len(loads) == 4
    assert first.rows[0].success == 1.0


def relabel_exemplar(tmp_path, rows) -> None:
    path = tmp_path / "exemplar.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "true_atoms": rows}))


def test_a_shared_malformed_exemplar_fails_each_entry_alike(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    relabel_exemplar(tmp_path, [["on", "block1", "ghost"]])
    report = evaluate_suite(manifest)
    assert [r.failure for r in report.records] == [
        "grounding: malformed exemplar atom (on block1 ghost): unknown object 'ghost'"
    ] * 2


def test_a_scene_error_wins_over_a_malformed_exemplar(tmp_path):
    # The first entry's scene cannot merge, and it is the one that loads
    # the exemplar: its record names the scene, and the second entry, which
    # finds the exemplar compiled, still names the exemplar's fault.
    manifest = write_suite(tmp_path, TWO_GOALS)
    relabel_exemplar(tmp_path, [["covered", "block1"]])
    (tmp_path / "scene-0.json").write_text(block_obs([]).to_json())
    report = evaluate_suite(manifest)
    assert [r.failure for r in report.records] == [
        "grounding: empty scene: no detections at all",
        "grounding: exemplar labels non-observed predicate 'covered'",
    ]


def test_a_shared_uninformative_exemplar_fails_only_entries_that_consult_it(tmp_path):
    # No positive "on" label: the three-block scene has "on" candidates and
    # fails; the one-block scene has none, so it grounds to an empty init.
    manifest = write_suite(tmp_path, TWO_GOALS)
    relabel_exemplar(tmp_path, [])
    (tmp_path / "scene-1.json").write_text(block_obs([(12, 40)]).to_json())
    report = evaluate_suite(manifest)
    assert report.records[0].failure == (
        "grounding: exemplar is uninformative for 'on': 0 positive / 6 negative candidates"
    )
    assert report.records[1].failure == "planner: unsolvable"
    assert report.records[1].problem_valid


@pytest.mark.parametrize("sigma", (0.0, 0.2, 0.6))
@pytest.mark.parametrize("kind", ("blocksworld", "cooking", "hanoi"))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_suite_records_equal_cold_memo_records(kind, sigma, seed):
    # Each entry scored on its own, outside any suite and against a freshly
    # parsed domain, compiles everything anew, so what a suite shares among
    # its entries (compiled exemplars, planner tables) must change no
    # record, inline or pooled.
    with tempfile.TemporaryDirectory() as tmp:
        cfg = GenConfig(kind, n=4, d=3, sigma=sigma, seed=seed)
        manifest = write_bench_suite(cfg, 3, tmp)
        text = (Path(tmp) / "domain.pddl").read_text()
        _, entries = load_manifest(manifest)
        cold = tuple(
            evaluate_problem(parse_domain(text), entry, PipelineConfig()) for entry in entries
        )
        assert evaluate_suite(manifest).records == cold
        assert evaluate_suite(manifest, PipelineConfig(jobs=2)).records == cold


def test_broken_scene_zeroes_one_problem_only(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    (tmp_path / "scene-0.json").write_text("{not json")
    report = evaluate_suite(manifest)
    bad, good = report.records
    assert bad.failure is not None and bad.failure.startswith("grounding:")
    assert (bad.grounding.precision, bad.grounding.recall) == (0.0, 0.0)
    assert bad.grounding.fn == 1  # the truth atom it failed to predict
    assert not bad.success
    assert good.success
    assert report.rows[0].success == 0.5


def test_goal_failure_still_scores_grounding(tmp_path):
    goals = (
        {"structured": "on(block9, block1)", "truth_goal": (lit("on", "block2", "block1"),)},
    )
    manifest = write_suite(tmp_path, goals)
    report = evaluate_suite(manifest)
    rec = report.records[0]
    assert rec.failure is not None and rec.failure.startswith("goal:")
    assert (rec.grounding.precision, rec.grounding.recall) == (1.0, 1.0)
    assert not rec.problem_valid
    assert not rec.success


def test_goal_text_without_endpoint_is_a_goal_failure(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS[:1])
    raw = json.loads(manifest.read_text())
    raw["problems"][0].pop("goal_structured")
    raw["problems"][0]["goal_text"] = "stack block2 onto block1"
    manifest.write_text(json.dumps(raw))
    report = evaluate_suite(manifest)
    rec = report.records[0]
    assert rec.failure is not None and rec.failure.startswith("goal:")
    assert rec.grounding.precision == 1.0


def test_structured_goal_the_grammar_rejects_fails_its_problem_only(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    raw = json.loads(manifest.read_text())
    raw["problems"][0]["goal_structured"] = "stack block2 onto block1"
    manifest.write_text(json.dumps(raw))
    first, second = evaluate_suite(manifest).records
    assert first.failure == "goal: cannot parse goal clause 'stack block2 onto block1'"
    assert second.failure is None and second.success


DEAD_ENDPOINT = LlmEndpointConfig(base_url="http://127.0.0.1:9", model="stub", retries=0)


def as_goal_text(manifest, instructions):
    """Turn the first len(instructions) entries of a manifest into
    goal_text entries, in place."""
    raw = json.loads(manifest.read_text())
    for problem, instruction in zip(raw["problems"], instructions):
        problem.pop("goal_structured")
        problem["goal_text"] = instruction
    manifest.write_text(json.dumps(raw))


def test_goal_text_with_replay_cassette_matches_structured_twin(tmp_path, monkeypatch):
    (tmp_path / "structured").mkdir()
    (tmp_path / "text").mkdir()
    structured = evaluate_suite(write_suite(tmp_path / "structured", TWO_GOALS))
    manifest = write_suite(tmp_path / "text", TWO_GOALS)
    instructions = ["stack block2 onto block1", "cover block1"]
    as_goal_text(manifest, instructions)
    cassette = tmp_path / "cassette.json"
    cassette.write_text(
        json.dumps(
            [
                {
                    "request": {
                        "model": "stub",
                        "temperature": 0,
                        "messages": [
                            {"role": "user", "content": goals._goal_prompt(text, BLOCKS)}
                        ],
                    },
                    "response": goal["structured"],
                }
                for text, goal in zip(instructions, TWO_GOALS)
            ]
        )
    )

    def no_network(request, cfg):
        raise AssertionError("a replay cassette must not reach the endpoint")

    monkeypatch.setattr(goals, "_post_chat", no_network)
    config = PipelineConfig(llm=DEAD_ENDPOINT, cassette=str(cassette))
    replayed = evaluate_suite(manifest, config)
    assert replayed.records == structured.records
    assert all(r.success for r in replayed.records)


def test_corrupt_cassette_fails_one_goal_only(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    as_goal_text(manifest, ["stack block2 onto block1"])
    cassette = tmp_path / "cassette.json"
    cassette.write_text("{not json")
    config = PipelineConfig(llm=DEAD_ENDPOINT, cassette=str(cassette))
    bad, good = evaluate_suite(manifest, config).records
    assert bad.failure.startswith("goal: bad cassette")
    assert bad.grounding.precision == 1.0
    assert good.failure is None and good.success


def test_pool_size_is_clamped_to_cpu_count(tmp_path, monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(metrics, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    manifest = write_suite(tmp_path, TWO_GOALS)
    report = evaluate_suite(manifest, PipelineConfig(jobs=10**6))
    assert sizes == [3]
    assert report == evaluate_suite(manifest, PipelineConfig(jobs=1))


def test_plan_is_replayed_once_when_prediction_is_the_truth(tmp_path, monkeypatch):
    manifest = write_bench_suite(GenConfig("hanoi", d=3), 3, tmp_path)
    domain, entries = load_manifest(manifest)
    inits = []

    def counting(domain, init, goal, plan):
        inits.append(init)
        return validate_plan(domain, init, goal, plan)

    monkeypatch.setattr(metrics, "validate_plan", counting)
    config = PipelineConfig(search=SearchConfig(mode="optimal"))
    for entry in entries:
        del inits[:]
        record = evaluate_problem(domain, entry, config)
        assert record.success and record.plan_valid
        assert len(inits) == 1

    # The same entry against a truth with one more (unread) init atom, and
    # against one whose goal the plan misses: the plan is replayed on both
    # problems each time.
    entry = entries[0]
    truth = parse_problem(Path(entry.ground_truth_problem).read_text(), domain)
    extra = GroundAtom("on", ("disk3", "disk1"))
    assert extra not in truth.init
    missed = (lit("onpeg", "disk1", "peg2"),)
    for changed, success in (
        (replace(truth, init=truth.init | {extra}), True),
        (replace(truth, goal=missed), False),
    ):
        path = tmp_path / "changed-truth.pddl"
        path.write_text(serialize_problem(changed))
        del inits[:]
        record = evaluate_problem(
            domain, replace(entry, ground_truth_problem=str(path)), config
        )
        assert record.plan_valid and record.success == success
        assert inits == [truth.init, changed.init]


def test_single_replay_keeps_the_records_of_two(tmp_path):
    # Reference: replay every found plan on the predicted problem and on
    # the truth, as if the two were never the same.  The noiseless suites
    # give entries whose prediction is the truth, the noisy ones others.
    plans = []

    def recording(domain, problem, cfg):
        result = solve(domain, problem, cfg)
        plans.append((problem, result.plan))
        return result

    shared = solved = 0
    for kind, sigma in itertools.product(("blocksworld", "cooking"), (0.0, 0.2)):
        manifest = write_bench_suite(
            GenConfig(kind, sigma=sigma), 4, tmp_path / f"{kind}-{sigma}"
        )
        domain, entries = load_manifest(manifest)
        for entry in entries:
            del plans[:]
            record = evaluate_problem(domain, entry, PipelineConfig(), recording)
            truth = parse_problem(Path(entry.ground_truth_problem).read_text(), domain)
            expected = record
            if plans and plans[0][1] is not None:
                problem, plan = plans[0]
                solved += 1
                shared += problem.init == truth.init
                expected = replace(
                    record,
                    plan_valid=validate_plan(domain, problem.init, problem.goal, plan).ok,
                    success=validate_plan(domain, truth.init, truth.goal, plan).ok,
                )
            else:
                assert not (record.plan_valid or record.success)
            assert record == expected
    assert 0 < shared < solved


def test_success_implies_a_plan_was_produced(tmp_path):
    manifest = write_suite(tmp_path, TWO_GOALS)
    report = evaluate_suite(manifest)
    for rec in report.records:
        if rec.success:
            assert rec.plan_length is not None


@pytest.mark.parametrize(
    "goal, search, failure",
    [
        (
            # Each block on the other: no state holds both.
            {
                "structured": "on(block1, block2) AND on(block2, block1)",
                "truth_goal": (lit("on", "block1", "block2"), lit("on", "block2", "block1")),
            },
            SearchConfig(),
            "planner: unsolvable",
        ),
        (
            # Two moves away, so the first expansion cannot reach it.
            {
                "structured": "on(block1, block2) AND on(block2, block3)",
                "truth_goal": (lit("on", "block1", "block2"), lit("on", "block2", "block3")),
            },
            SearchConfig(node_limit=1),
            "planner: node-limit",
        ),
    ],
    ids=["unsolvable", "node-limit"],
)
def test_a_planner_failure_keeps_the_problem_and_scores_no_plan(tmp_path, goal, search, failure):
    domain, (entry,) = load_manifest(write_suite(tmp_path, (goal,)))
    record = evaluate_problem(domain, entry, PipelineConfig(search=search))
    assert record.failure == failure
    assert (record.problem_valid, record.plan_valid, record.success) == (True, False, False)
    assert record.plan_length is None
    assert (record.grounding.precision, record.grounding.recall) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# Manifest loading
# ---------------------------------------------------------------------------


def test_missing_manifest_raises():
    with pytest.raises(EvalError, match="cannot read manifest"):
        load_manifest("/nonexistent/manifest.json")


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda raw: raw.pop("domain_file"), "domain_file"),
        (lambda raw: raw.update(problems=[]), "no problems"),
        (lambda raw: raw["problems"][0].pop("scene"), "missing scene"),
        (
            lambda raw: raw["problems"][0].update(goal_text="also"),
            "exactly one",
        ),
        (
            lambda raw: raw["problems"][0].pop("goal_structured"),
            "exactly one",
        ),
        (lambda raw: raw.update(domain_file=5), "'domain_file' must be a string"),
        (
            lambda raw: raw["problems"][0].update(scene=7),
            "problem 0: scene must be a string",
        ),
        (
            lambda raw: raw["problems"][0].update(exemplar=None),
            "problem 0: exemplar must be a string",
        ),
        (
            lambda raw: raw["problems"][0].update(ground_truth_problem=["t.pddl"]),
            "problem 0: ground_truth_problem must be a string",
        ),
        (
            lambda raw: raw["problems"][0].update(goal_structured=123),
            "problem 0: goal_structured must be a string or null",
        ),
        (
            lambda raw: raw["problems"][0].update(goal_structured=["on(a, b)"]),
            "problem 0: goal_structured must be a string or null",
        ),
        (
            lambda raw: raw["problems"][0].update(goal_structured=None, goal_text=5),
            "problem 0: goal_text must be a string or null",
        ),
    ],
)
def test_malformed_manifests_are_rejected(tmp_path, mutate, fragment):
    manifest = write_suite(tmp_path, TWO_GOALS[:1])
    raw = json.loads(manifest.read_text())
    mutate(raw)
    manifest.write_text(json.dumps(raw))
    with pytest.raises(EvalError, match=fragment):
        load_manifest(manifest)


def test_pipeline_config_validation():
    with pytest.raises(EvalError):
        PipelineConfig(match_threshold=1.5)
    with pytest.raises(EvalError):
        PipelineConfig(jobs=0)
    with pytest.raises(EvalError, match="bad cassette mode 'bogus'"):
        PipelineConfig(cassette_mode="bogus")
