"""Generator invariants: determinism, geometry, solvability, separation."""

import contextlib
import importlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_ref import SEPARATION_MARGIN, derive_atoms
from sceneground.bench import (
    DOMAIN_KINDS,
    BenchError,
    GenConfig,
    domain_text,
    gen_blocksworld,
    gen_cooking,
    gen_hanoi,
    gen_hanoi_preset,
    generate,
    perturb,
    write_suite,
)
from sceneground.bench.generate import CANVAS_H, CANVAS_W, _jitter_box
from sceneground.graph import (
    ExemplarError,
    classify_scene,
    compile_exemplar,
    enumerate_candidates,
    graph_to_init,
)
from sceneground.metrics import evaluate_suite, load_manifest, triplet_pr
from sceneground.pddl import parse_domain, serialize_problem
from sceneground.pddl.model import GroundAtom, atom_faults
import sceneground.planner as planner
from sceneground.planner import SearchConfig, solve
from sceneground.scene import Box, merge_detections

import random

DOMAINS = {kind: parse_domain(domain_text(kind)) for kind in DOMAIN_KINDS}

SAMPLE_CONFIGS = [
    GenConfig("blocksworld", n=5, seed=3),
    GenConfig("blocksworld", n=2, seed=1),
    GenConfig("hanoi", d=3, g=3, seed=2),
    GenConfig("hanoi", d=1, g=2, seed=0),
    GenConfig("hanoi", d=4, g=4, seed=5),
    GenConfig("cooking", seed=4),
]


def observed_names(kind):
    return {sig.name for sig in DOMAINS[kind].observed}


def exemplar_scene(problem):
    """The merged scene of the problem's exemplar observation."""
    return merge_detections(problem.exemplar_obs, DOMAINS[problem.kind])


def predicted_init(problem):
    domain = DOMAINS[problem.kind]
    scene = merge_detections(problem.scene, domain)
    model = compile_exemplar(exemplar_scene(problem), problem.exemplar_labels, domain)
    return graph_to_init(classify_scene(scene, domain, model))


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "sokoban"},
        {"kind": "blocksworld", "n": 1},
        {"kind": "blocksworld", "n": 7},
        {"kind": "hanoi", "d": 0},
        {"kind": "hanoi", "d": 7},
        {"kind": "hanoi", "g": 1},
        {"kind": "hanoi", "g": 7},
        {"kind": "hanoi", "d": 2, "g": 2},
        {"kind": "hanoi", "d": 5, "g": 4},
        {"kind": "cooking", "sigma": -0.1},
        {"kind": "cooking", "sigma": float("nan")},
        {"kind": "cooking", "sigma": float("inf")},
    ],
)
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(BenchError):
        GenConfig(**kwargs)


def test_generator_functions_check_bounds_too():
    with pytest.raises(BenchError):
        gen_blocksworld(9, 0)
    with pytest.raises(BenchError):
        gen_hanoi(3, 2, 0)
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(BenchError):
            perturb(gen_cooking(0), sigma, 0)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=str)
def test_same_seed_reproduces_problem_exactly(cfg):
    first = generate(cfg)
    second = generate(cfg)
    assert first == second
    assert first.scene.to_json() == second.scene.to_json()
    assert serialize_problem(first.truth) == serialize_problem(second.truth)


def test_different_seeds_vary_the_layout():
    layouts = {gen_blocksworld(5, seed).truth.init for seed in range(8)}
    assert len(layouts) > 1


# ---------------------------------------------------------------------------
# Geometry and truth stay in lockstep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=str)
def test_rederived_atoms_equal_truth_init(cfg):
    problem = generate(cfg)
    scene = merge_detections(problem.scene, DOMAINS[cfg.kind])
    assert derive_atoms(cfg.kind, scene) == problem.truth.init


@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=str)
def test_truth_is_plannable_and_solvable(cfg):
    problem = generate(cfg)
    domain = DOMAINS[cfg.kind]
    types = dict(problem.truth.objects)
    init = problem.truth.init
    assert [fault for atom in init for fault in atom_faults(atom, domain, types)] == []
    result = solve(domain, problem.truth, SearchConfig(mode="optimal"))
    assert result.status == "solved"
    assert len(result.plan) == problem.meta.optimal_length


def test_goal_requires_at_least_one_move():
    for seed in range(6):
        assert gen_blocksworld(4, seed).meta.optimal_length >= 1


# ---------------------------------------------------------------------------
# One-shot classification on clean scenes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", SAMPLE_CONFIGS, ids=str)
def test_classification_is_perfect_on_clean_scenes(cfg):
    problem = generate(cfg)
    score = triplet_pr(
        predicted_init(problem), problem.truth.init, observed_names(cfg.kind)
    )
    assert (score.precision, score.recall) == (1.0, 1.0)
    if problem.truth.init:
        assert score.tp == len(problem.truth.init)


def test_exemplar_labels_match_its_own_geometry():
    for cfg in SAMPLE_CONFIGS:
        problem = generate(cfg)
        derived = derive_atoms(cfg.kind, exemplar_scene(problem))
        assert derived == problem.exemplar_labels


def test_exemplar_covers_both_labels_for_used_predicates():
    for cfg in SAMPLE_CONFIGS:
        problem = generate(cfg)
        domain = DOMAINS[cfg.kind]
        scene = merge_detections(problem.scene, domain)
        test_candidates = enumerate_candidates(scene, domain)
        exemplar_candidates = enumerate_candidates(exemplar_scene(problem), domain)
        for predicate, cands in test_candidates.items():
            if not cands:
                continue
            labels = {
                GroundAtom(predicate, c.args) in problem.exemplar_labels
                for c in exemplar_candidates[predicate]
            }
            assert labels == {True, False}, predicate


def test_gutted_exemplar_is_rejected():
    problem = gen_cooking(0)
    no_positives = frozenset(
        a for a in problem.exemplar_labels if a.predicate != "sliced"
    )
    domain = DOMAINS["cooking"]
    scene = merge_detections(problem.scene, domain)
    model = compile_exemplar(exemplar_scene(problem), no_positives, domain)
    with pytest.raises(ExemplarError):
        classify_scene(scene, domain, model)


def test_cross_class_margin_exceeds_documented_constant():
    for cfg in SAMPLE_CONFIGS:
        problem = generate(cfg)
        domain = DOMAINS[cfg.kind]
        rows = {}
        for scene, atoms in (
            (merge_detections(problem.scene, domain), problem.truth.init),
            (exemplar_scene(problem), problem.exemplar_labels),
        ):
            for predicate, cands in enumerate_candidates(scene, domain).items():
                for c in cands:
                    rows.setdefault(predicate, []).append(
                        (c.feature, GroundAtom(predicate, c.args) in atoms)
                    )
        for predicate, feats in rows.items():
            positives = [f for f, label in feats if label]
            negatives = [f for f, label in feats if not label]
            for a in positives:
                for b in negatives:
                    assert math.dist(a, b) > SEPARATION_MARGIN[cfg.kind], predicate


# ---------------------------------------------------------------------------
# Detector noise
# ---------------------------------------------------------------------------


def test_zero_sigma_perturb_is_identity():
    problem = gen_blocksworld(4, 7)
    assert perturb(problem, 0.0, 99) == problem


def test_perturb_moves_scene_but_not_truth():
    clean = gen_blocksworld(5, 11)
    noisy = perturb(clean, 0.5, 11)
    assert noisy.scene != clean.scene
    assert noisy.truth == clean.truth
    assert noisy.exemplar_obs == clean.exemplar_obs
    assert noisy.exemplar_labels == clean.exemplar_labels
    assert noisy.meta.sigma == 0.5
    again = perturb(clean, 0.5, 11)
    assert again == noisy
    other = perturb(clean, 0.5, 12)
    assert other != noisy


def test_noise_degrades_blocksworld_precision():
    tp = fp = fn = 0
    for seed in range(25):
        noisy = perturb(gen_blocksworld(5, seed), 0.5, seed)
        score = triplet_pr(
            predicted_init(noisy), noisy.truth.init, observed_names("blocksworld")
        )
        tp += score.tp
        fp += score.fp
        fn += score.fn
    assert fp > 0
    assert tp / (tp + fp) < 1.0


@given(
    x_min=st.floats(0, CANVAS_W - 10),
    y_min=st.floats(0, CANVAS_H - 10),
    width=st.floats(1, 300),
    height=st.floats(1, 300),
    sigma=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_jittered_boxes_stay_valid_and_inside(x_min, y_min, width, height, sigma, seed):
    box = Box(
        x_min,
        y_min,
        min(x_min + width, CANVAS_W),
        min(y_min + height, CANVAS_H),
    )
    rng = random.Random(seed)
    moved = _jitter_box(box, sigma, rng)
    assert 0 <= moved.x_min < moved.x_max <= CANVAS_W
    assert 0 <= moved.y_min < moved.y_max <= CANVAS_H


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_blocksworld_optimum_sits_in_the_calibration_band():
    lengths = sorted(gen_blocksworld(5, seed).meta.optimal_length for seed in range(21))
    median = lengths[len(lengths) // 2]
    assert 6 <= median <= 10


def test_hanoi_preset_draws_transfer_instances():
    seen = set()
    for seed in range(6):
        problem = gen_hanoi_preset(seed)
        disks = sum(1 for o in problem.truth.objects if o[1] == "disk")
        pegs = sum(1 for o in problem.truth.objects if o[1] == "peg")
        assert pegs == 3
        assert disks in (4, 5, 6)
        assert problem.meta.optimal_length == 2**disks - 1
        seen.add(disks)
    assert len(seen) > 1


def test_hanoi_transfer_optimum_is_exact():
    for d in (1, 2, 3):
        assert gen_hanoi(d, 3, 0).meta.optimal_length == 2**d - 1


def test_cooking_roster_and_banded_plan_length():
    for seed in range(8):
        problem = gen_cooking(seed)
        names = {name for name, _ in problem.truth.objects}
        assert names == {
            "gripper1",
            "gripper2",
            "board1",
            "knife",
            "cucumber",
            "tomato",
            "white_bowl",
            "red_bowl",
        }
        assert 2 <= problem.meta.optimal_length <= 8
        sliced = {a.args[0] for a in problem.truth.init if a.predicate == "sliced"}
        target = problem.truth.goal[0].atom.args[0]
        assert sliced == {"cucumber", "tomato"} - {target}
        assert any(a.predicate == "carry" for a in problem.truth.init)


# ---------------------------------------------------------------------------
# Suites on disk
# ---------------------------------------------------------------------------


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_write_suite_reruns_byte_identical(tmp_path):
    cfg = GenConfig("hanoi", d=3, g=3, seed=5)
    write_suite(cfg, 2, tmp_path / "a")
    write_suite(cfg, 2, tmp_path / "b")
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a == b
    assert "manifest.json" in a
    assert "problems/000/scene.json" in a
    assert "problems/001/truth.pddl" in a


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig("cooking", sigma=0.2, seed=3),
        GenConfig("blocksworld", n=4, sigma=0.2, seed=3),
        GenConfig("hanoi", d=4, g=3, sigma=0.2, seed=3),
    ],
    ids=lambda cfg: cfg.kind,
)
def test_write_suite_shares_tables_and_writes_cold_bytes(cfg, tmp_path, monkeypatch):
    # A suite's problems are generated in one planner.suite, so their
    # solves share object tables; a write whose every solve compiles cold
    # (no suite open) must give the same bytes.
    built = []
    make = planner._object_table

    def counting(*args):
        built.append(args)
        return make(*args)

    monkeypatch.setattr(planner, "_object_table", counting)
    write_suite(cfg, 4, tmp_path / "shared")
    shared = len(built)
    # Imported by path: the package's ``generate`` attribute is the function.
    generate_module = importlib.import_module("sceneground.bench.generate")
    monkeypatch.setattr(generate_module, "suite", lambda domain: contextlib.nullcontext())
    write_suite(cfg, 4, tmp_path / "cold")
    assert shared < 4 <= len(built) - shared
    assert tree_bytes(tmp_path / "shared") == tree_bytes(tmp_path / "cold")


def test_write_suite_needs_at_least_one_problem(tmp_path):
    with pytest.raises(BenchError, match="count must be at least 1"):
        write_suite(GenConfig("hanoi", d=3, g=3), 0, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_written_suite_loads_and_reports_meta(tmp_path):
    manifest = write_suite(GenConfig("blocksworld", n=3, seed=2), 2, tmp_path)
    domain, entries = load_manifest(manifest)
    assert domain.name == DOMAINS["blocksworld"].name
    assert len(entries) == 2
    rows = json.loads(manifest.read_text())["problems"]
    for row in rows:
        assert row["meta"]["sigma"] == 0.0
        assert row["meta"]["optimal_length"] >= 1


def test_clean_suite_evaluates_to_all_ones(tmp_path):
    manifest = write_suite(GenConfig("cooking", seed=0), 3, tmp_path)
    report = evaluate_suite(manifest)
    row = report.rows[0]
    assert row.precision == 1.0
    assert row.recall == 1.0
    assert row.problem_validity == 1.0
    assert row.plan_validity == 1.0
    assert row.success == 1.0
