"""Acceptance suite: nine end-to-end checks, one test per criterion.

Run with -v to get one pass/fail line per criterion.  Each test prints a
short summary of the measured numbers; the heavyweight inputs (noiseless
benchmark suites, the 101-seed blocksworld sample) are built once per
module and shared.
"""

import json
import random
import statistics
import time

import pytest

from naive_ref import _ground_steps, naive_apply, naive_bfs, naive_closure
from sceneground.bench import (
    GenConfig,
    domain_text,
    gen_blocksworld,
    gen_cooking,
    gen_hanoi,
    generate,
    perturb,
    write_suite,
)
from sceneground.goals import format_goal
from sceneground.graph import (
    classify_scene,
    compile_exemplar,
    exemplar_to_json,
    graph_to_init,
)
from sceneground.metrics import (
    ManifestEntry,
    PipelineConfig,
    evaluate_suite,
    ground,
    load_manifest,
    triplet_pr,
    validate_plan,
)
from sceneground.pddl import parse_domain, parse_problem, serialize_domain, serialize_problem
from sceneground.pddl.model import Plan, PlanStep
from sceneground.planner import SearchConfig, solve
from sceneground.scene import merge_detections

OPTIMAL = SearchConfig(mode="optimal")

DOMAINS = {kind: parse_domain(domain_text(kind)) for kind in ("blocksworld", "hanoi", "cooking")}


# ---------------------------------------------------------------------------
# Shared heavyweight inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def noiseless(tmp_path_factory):
    """Four noiseless suites (>=50 seeds per domain family) plus their
    evaluation reports and the wall time the whole thing took."""
    root = tmp_path_factory.mktemp("noiseless")
    configs = [
        ("blocksworld", GenConfig("blocksworld", n=5), 50),
        ("hanoi3", GenConfig("hanoi", d=3, g=3), 25),
        ("hanoi4", GenConfig("hanoi", d=4, g=3), 25),
        ("cooking", GenConfig("cooking"), 50),
    ]
    started = time.perf_counter()
    reports = {}
    for label, cfg, count in configs:
        manifest = write_suite(cfg, count, root / label)
        reports[label] = evaluate_suite(manifest, PipelineConfig())
    elapsed = time.perf_counter() - started
    return root, reports, elapsed


@pytest.fixture(scope="module")
def blocks_101():
    return [gen_blocksworld(5, seed) for seed in range(101)]


def ground_with(problem, domain, exemplar_doc, folder):
    """Run the grounding pipeline on a generated scene, its goal and the
    given exemplar document."""
    folder.mkdir(parents=True, exist_ok=True)
    scene = folder / "scene.json"
    scene.write_text(problem.scene.to_json())
    exemplar = folder / "exemplar.json"
    exemplar.write_text(json.dumps(exemplar_doc))
    entry = ManifestEntry(
        "scene", str(scene), str(exemplar), None, format_goal(problem.truth.goal), None
    )
    return ground(domain, entry, PipelineConfig())


def block_of(text: str, opener: str) -> str:
    """The balanced s-expression starting at the first occurrence of opener."""
    start = text.index(opener)
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
    raise AssertionError("unbalanced parentheses")


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_noiseless_end_to_end(noiseless):
    _, reports, elapsed = noiseless
    for label, report in reports.items():
        (row,) = report.rows
        assert row.precision == 1.0 and row.recall == 1.0, label
        assert row.macro_precision == 1.0 and row.macro_recall == 1.0, label
        assert row.success == 1.0, label
    assert elapsed < 120.0
    print(f"criterion 1: PASS - 150 problems, P=R=success=1.0, {elapsed:.1f}s")


def test_criterion_2_problem_validity(noiseless):
    # ground builds its problem without writing it out, so every problem it
    # returns must also survive the text round trip.
    root, reports, _ = noiseless
    for label, report in reports.items():
        (row,) = report.rows
        assert row.problem_validity == 1.0, label
        domain, entries = load_manifest(root / label / "manifest.json")
        for entry in entries:
            problem = ground(domain, entry, PipelineConfig()).problem
            text = serialize_problem(problem)
            assert parse_problem(text, domain) == problem, entry.name
            assert serialize_problem(parse_problem(text, domain)) == text, entry.name
    print(
        "criterion 2: PASS - problem validity 1.0 on all 150 problems, "
        "each grounded problem round-trips through its text"
    )


def test_criterion_3_planner_optimality():
    checked = 0
    for seed in range(100):
        for problem in (
            gen_blocksworld(2 + seed % 3, seed),
            gen_hanoi(1 + seed % 4, 3, seed),
            gen_cooking(seed),
        ):
            domain = DOMAINS[problem.kind]
            result = solve(domain, problem.truth, OPTIMAL)
            assert result.status == "solved"
            oracle = naive_bfs(domain, problem.truth, state_limit=10**5)
            assert len(result.plan) == oracle, (problem.kind, seed)
            verdict = validate_plan(domain, problem.truth.init, problem.truth.goal, result.plan)
            assert verdict.ok, (problem.kind, seed)
            checked += 1
    assert checked == 300
    assert gen_hanoi(3, 3, 7).meta.optimal_length == 7
    assert gen_hanoi(5, 3, 11).meta.optimal_length == 31
    print("criterion 3: PASS - optimal = BFS oracle on 300 instances; hanoi 7/31 exact")


def test_criterion_4_validator_agreement():
    cases = 0
    rng = random.Random("validator-agreement")
    problems = (
        [gen_blocksworld(2 + s % 2, s) for s in range(4)]
        + [gen_hanoi(2 + s % 2, 3, s) for s in range(4)]
        + [gen_cooking(s) for s in range(7)]
    )
    for problem in problems:
        domain = DOMAINS[problem.kind]
        truth = problem.truth
        pool = _ground_steps(domain, truth.objects)
        memo = {}

        def naive_verdict(plan):
            atoms = frozenset(truth.init)
            for index, step in enumerate(plan.steps):
                reason, nxt = naive_apply(domain, atoms, step, memo)
                if reason != "ok":
                    return False, index, reason
                atoms = nxt
            if atoms not in memo:
                memo[atoms] = naive_closure(atoms, domain)
            full = memo[atoms]
            for lit in truth.goal:
                if (lit.atom in full) == lit.negated:
                    return False, None, "goal-unsatisfied"
            return True, None, None

        while cases < 1000:
            steps = []
            atoms = frozenset(truth.init)
            for _ in range(rng.randrange(0, 6)):
                roll = rng.random()
                if roll < 0.06:
                    steps.append(PlanStep("teleport", ("nowhere",)))
                elif roll < 0.12:
                    broken = rng.choice(pool)
                    steps.append(PlanStep(broken.action, broken.args[:-1]))
                elif roll < 0.55:
                    doable = [
                        s for s in pool if naive_apply(domain, atoms, s, memo)[0] == "ok"
                    ]
                    if not doable:
                        continue
                    step = rng.choice(doable)
                    steps.append(step)
                    atoms = naive_apply(domain, atoms, step, memo)[1]
                else:
                    steps.append(rng.choice(pool))
            plan = Plan(tuple(steps))
            verdict = validate_plan(domain, truth.init, truth.goal, plan)
            assert (verdict.ok, verdict.step, verdict.reason) == naive_verdict(plan)
            cases += 1
            if cases % 67 == 0:
                break  # rotate to the next problem
    assert cases == 1000
    print("criterion 4: PASS - validator agrees with naive interpreter on 1000 cases")


def test_criterion_5_noise_degrades_precision(blocks_101):
    domain = DOMAINS["blocksworld"]

    def precision(problem):
        scene = merge_detections(problem.scene, domain)
        ex_scene = merge_detections(problem.exemplar_obs, domain)
        model = compile_exemplar(ex_scene, problem.exemplar_labels, domain)
        graph = classify_scene(scene, domain, model)
        score = triplet_pr(graph_to_init(graph), problem.truth.init, domain.observed)
        return score.precision

    clean = [precision(p) for p in blocks_101[:100]]
    noisy = [precision(perturb(p, 0.5, p.meta.seed)) for p in blocks_101[:100]]
    mean_clean = statistics.mean(clean)
    mean_noisy = statistics.mean(noisy)
    assert mean_clean == 1.0
    assert mean_noisy < mean_clean
    print(
        "criterion 5: PASS - mean precision "
        f"{mean_noisy:.3f} at sigma=0.5 < {mean_clean:.3f} at sigma=0 (100 paired seeds)"
    )


def test_criterion_6_round_trip_identity(noiseless):
    root, _, _ = noiseless
    domains = problems = 0
    for path in sorted(root.rglob("*.pddl")):
        text = path.read_text(encoding="utf-8")
        if path.name == "domain.pddl":
            first = parse_domain(text)
            rendered = serialize_domain(first)
            assert parse_domain(rendered) == first, path
            assert serialize_domain(parse_domain(rendered)) == rendered, path
            domains += 1
        else:
            domain = parse_domain((path.parents[2] / "domain.pddl").read_text())
            first = parse_problem(text, domain)
            rendered = serialize_problem(first)
            assert parse_problem(rendered, domain) == first, path
            assert serialize_problem(parse_problem(rendered, domain)) == rendered, path
            problems += 1
    assert domains == 4 and problems == 150
    print(f"criterion 6: PASS - round-trip identity on {domains} domains, {problems} problems")


def _jittered_exemplar_doc(problem, rng):
    doc = json.loads(exemplar_to_json(problem.exemplar_obs, problem.exemplar_labels))
    width, height = doc["image_width"], doc["image_height"]
    for stream in ("class_detections", "phrase_detections"):
        for det in doc[stream]:
            x0, y0, x1, y1 = (c + rng.uniform(-150.0, 150.0) for c in det["box"])
            x0 = min(max(x0, 0.0), width - 2.0)
            x1 = min(max(x1, x0 + 1.0), width)
            y0 = min(max(y0, 0.0), height - 2.0)
            y1 = min(max(y1, y0 + 1.0), height)
            det["box"] = [x0, y0, x1, y1]
    return doc


def _label_flipped_doc(problem, domain, rng):
    doc = json.loads(exemplar_to_json(problem.exemplar_obs, problem.exemplar_labels))
    rows = doc["true_atoms"]
    by_pred = {}
    for row in rows:
        by_pred.setdefault(row[0], []).append(row)
    predicate = rng.choice(sorted(p for p, r in by_pred.items() if len(r) >= 2))
    rows.remove(by_pred[predicate][-1])
    scene = merge_detections(problem.exemplar_obs, domain)
    from sceneground.graph import enumerate_candidates

    spare = [
        [predicate, *args]
        for args in enumerate_candidates(scene, domain)[predicate][0]
        if [predicate, *args] not in rows
    ]
    rows.append(rng.choice(spare))
    return doc


def test_criterion_7_goal_first_isolation(tmp_path):
    rng = random.Random("goal-isolation")
    kinds = ("blocksworld", "hanoi", "cooking")
    corrupted_inits = 0
    for case in range(50):
        kind = kinds[case % 3]
        cfg = {
            "blocksworld": GenConfig("blocksworld", n=3, seed=case),
            "hanoi": GenConfig("hanoi", d=3, g=3, seed=case),
            "cooking": GenConfig("cooking", seed=case),
        }[kind]
        problem = generate(cfg)
        domain = DOMAINS[kind]
        clean_doc = json.loads(
            exemplar_to_json(problem.exemplar_obs, problem.exemplar_labels)
        )
        clean_run = ground_with(problem, domain, clean_doc, tmp_path / f"{case}-clean")
        if case % 3 == 2:
            doc = _label_flipped_doc(problem, domain, rng)
        else:
            doc = _jittered_exemplar_doc(problem, rng)
        bad_run = ground_with(problem, domain, doc, tmp_path / f"{case}-bad")
        assert clean_run.failure is None and bad_run.failure is None, case
        clean = serialize_problem(clean_run.problem)
        bad = serialize_problem(bad_run.problem)
        assert block_of(bad, "(:goal") == block_of(clean, "(:goal"), case
        assert block_of(bad, "(:objects") == block_of(clean, "(:objects"), case
        if block_of(bad, "(:init") != block_of(clean, "(:init"):
            corrupted_inits += 1
    assert corrupted_inits >= 25, corrupted_inits
    print(
        "criterion 7: PASS - goals byte-identical on 50 corruptions "
        f"({corrupted_inits} with visibly corrupted init)"
    )


def test_criterion_8_exemplar_gate(tmp_path):
    from sceneground.graph import enumerate_candidates

    injected = tripped = 0
    for kind, domain in DOMAINS.items():
        for seed in (0, 1):
            cfg = {
                "blocksworld": GenConfig("blocksworld", n=4, seed=seed),
                "hanoi": GenConfig("hanoi", d=3, g=3, seed=seed),
                "cooking": GenConfig("cooking", seed=seed),
            }[kind]
            problem = generate(cfg)
            base = json.loads(
                exemplar_to_json(problem.exemplar_obs, problem.exemplar_labels)
            )
            scene = merge_detections(problem.exemplar_obs, domain)
            candidates = enumerate_candidates(scene, domain)
            for sig in domain.observed:
                always = dict(base)
                always["true_atoms"] = base["true_atoms"] + [
                    [sig.name, *args] for args in candidates[sig.name][0]
                ]
                never = dict(base)
                never["true_atoms"] = [r for r in base["true_atoms"] if r[0] != sig.name]
                for doc in (always, never):
                    injected += 1
                    grounded = ground_with(problem, domain, doc, tmp_path / str(injected))
                    assert grounded.problem is None
                    assert grounded.failure.startswith("grounding: exemplar is uninformative")
                    tripped += 1
    assert injected == tripped == 28
    print(f"criterion 8: PASS - gate tripped on {tripped}/{injected} injected violations")


def test_criterion_9_calibration_bands(blocks_101):
    blocks_median = statistics.median(p.meta.optimal_length for p in blocks_101)
    assert 6 <= blocks_median <= 10, blocks_median
    # The evaluation preset: three pegs, four to six disks drawn per seed.
    hanoi_lengths = []
    for seed in range(101):
        disks = random.Random(f"hanoi-preset-{seed}").choice((4, 5, 6))
        hanoi_lengths.append(gen_hanoi(disks, 3, seed).meta.optimal_length)
    hanoi_median = statistics.median(hanoi_lengths)
    assert hanoi_median >= 31, hanoi_median
    print(
        "criterion 9: PASS - blocksworld median "
        f"{blocks_median} in [6, 10]; hanoi preset median {hanoi_median} >= 31"
    )
