"""Candidate enumeration, one-shot classification, scene graphs."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from bisect import bisect_left
from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from naive_ref import (
    _naive_candidates,
    naive_1nn,
    naive_classify_scene,
    naive_distance2,
    well_typed,
)
import sceneground
from sceneground.bench import DOMAIN_KINDS, GenConfig, domain_text, generate, shipped_domain
from sceneground.graph import (
    _DISTANCE2,
    ExemplarError,
    SceneGraph,
    _exemplar_fault,
    classify,
    classify_scene,
    compile_exemplar,
    enumerate_candidates,
    exemplar_from_json,
    exemplar_to_json,
    graph_to_init,
)
from sceneground.metrics import ManifestEntry, PipelineConfig, ground
from sceneground.pddl import (
    GroundAtom,
    GroundLiteral,
    atom_faults,
    parse_domain,
    parse_problem,
    serialize_problem,
)
from sceneground.scene import (
    Box,
    Detection,
    Scene,
    SceneObject,
    SceneError,
    SceneObservation,
    merge_detections,
)

BLOCKS = parse_domain(
    """
    (define (domain blocks)
      (:types block - object)
      (:predicates (on ?a - block ?b - block)))
    """
)

KITCHEN = parse_domain(
    """
    (define (domain kitchen)
      (:types gripper - object carriable - object
              vegetable - carriable container - object)
      (:predicates
        (carry ?g - gripper ?o - carriable)
        (sliced ?v - vegetable)))
    """
)


def _scene(*objs, w=100.0, h=100.0):
    return Scene(w, h, tuple(objs))


def _block(name, x, y, side=10.0):
    return SceneObject(name, "block", Box(x, y, x + side, y + side))


def test_enumerate_candidates_counts():
    scene = _scene(_block("a", 0, 0), _block("b", 30, 0), _block("c", 60, 0))
    cands = enumerate_candidates(scene, BLOCKS)
    assert set(cands) == {"on"}
    args, features = cands["on"]
    assert len(args) == len(features) == 6  # ordered pairs of 3 objects
    assert all(subject != obj for subject, obj in args)


def test_enumerate_candidates_respects_types():
    scene = _scene(
        SceneObject("veg1", "vegetable", Box(0, 0, 10, 10)),
        SceneObject("veg2", "vegetable", Box(20, 0, 30, 10)),
        SceneObject("grip1", "gripper", Box(40, 0, 60, 20)),
    )
    cands = enumerate_candidates(scene, KITCHEN)
    # carry: gripper subjects only, carriable objects only.
    assert cands["carry"][0] == (("grip1", "veg1"), ("grip1", "veg2"))
    # sliced: unary over vegetables, one argument each.
    assert cands["sliced"][0] == (("veg1",), ("veg2",))
    assert all(len(f) == 4 for f in cands["carry"][1])
    assert all(len(f) == 6 for f in cands["sliced"][1])


def test_candidate_atom_forms():
    scene = _scene(
        SceneObject("veg1", "vegetable", Box(0, 0, 10, 10)),
        SceneObject("grip1", "gripper", Box(40, 0, 60, 20)),
    )
    cands = enumerate_candidates(scene, KITCHEN)
    # A candidate's arguments are its atom's: a pair, or one name alone.
    assert cands["carry"][0][0] == ("grip1", "veg1")
    assert cands["sliced"][0][0] == ("veg1",)


def _three_block_exemplar():
    # Feature geometry worked by hand on a 100x100 canvas:
    #   (a over b)  -> (0, 0.3, 0, 0.3)   labeled true
    #   (c beside b) -> (0.4, 0, 0.4, 0)  labeled false
    scene = _scene(
        _block("exa", 10, 40),
        _block("exb", 10, 10),
        _block("exc", 50, 10),
    )
    return scene, frozenset({GroundAtom("on", ("exa", "exb"))})


def _classify(scene, exemplar, domain, predicate):
    """The atoms classify() keeps of one predicate's test candidates,
    against the compiled exemplar's features of that predicate."""
    args, features = enumerate_candidates(scene, domain)[predicate]
    labeled = compile_exemplar(*exemplar, domain).labeled[predicate]
    return tuple(GroundAtom(predicate, args[i]) for i in classify(features, *labeled, predicate))


def test_classify_nearest_neighbor_oracle():
    exemplar = _three_block_exemplar()
    # Test pair with feature (0.01, 0.29, 0.01, 0.31): nearest is the positive.
    scene = _scene(
        SceneObject("s", "block", Box(11, 39, 21, 51)),
        _block("o", 10, 10),
    )
    kept = _classify(scene, exemplar, BLOCKS, "on")
    assert kept == (GroundAtom("on", ("s", "o")),)


def test_classify_zero_distance_to_negative_is_false():
    exemplar = _three_block_exemplar()
    # Exactly the negative exemplar layout: side-by-side blocks.
    scene = _scene(_block("p", 50, 10), _block("q", 10, 10))
    kept = _classify(scene, exemplar, BLOCKS, "on")
    assert kept == ()


def test_classify_tie_resolves_to_false():
    # Two-block exemplar: the only candidates are (a over b) true and
    # (b under a) false, with features (0, 0.3, 0, 0.3) and its negation.
    exemplar = (
        _scene(_block("exa", 10, 40), _block("exb", 10, 10)),
        frozenset({GroundAtom("on", ("exa", "exb"))}),
    )
    # Coincident test boxes: feature (0,0,0,0), equidistant from both.
    scene = _scene(
        SceneObject("p", "block", Box(10, 10, 20, 20)),
        SceneObject("q", "block", Box(10, 10, 20, 20)),
    )
    kept = _classify(scene, exemplar, BLOCKS, "on")
    assert kept == ()


def test_classification_is_the_same_on_every_python():
    # The nearest positive (exa over exb) is at squared distance
    # 0.8599999999999999 and the nearest negative (exb under exa) at 0.86
    # when summed left to right; the compensated float sum of CPython 3.12
    # rounds both to 0.86, a tie, which would drop the edge.
    exemplar = (
        _scene(
            SceneObject("exa", "block", Box(0, 0, 20, 20)),
            SceneObject("exb", "block", Box(30, 0, 50, 20)),
            SceneObject("exc", "block", Box(0, 0, 30, 10)),
        ),
        frozenset({GroundAtom("on", ("exa", "exb"))}),
    )
    scene = _scene(
        SceneObject("s", "block", Box(0, 0, 20, 20)),
        SceneObject("o", "block", Box(60, 60, 90, 70)),
    )
    graph = classify_scene(scene, BLOCKS, compile_exemplar(*exemplar, BLOCKS))
    assert graph_to_init(graph) == {GroundAtom("on", ("s", "o"))}


def test_gate_rejects_all_false_exemplar():
    exemplar = (
        _scene(_block("exa", 10, 10), _block("exb", 50, 10)), frozenset()
    )
    scene = _scene(_block("a", 0, 0), _block("b", 30, 0))
    with pytest.raises(ExemplarError) as err:
        _classify(scene, exemplar, BLOCKS, "on")
    assert "uninformative" in str(err.value)


def test_gate_rejects_all_true_exemplar():
    exemplar = (
        _scene(_block("exa", 10, 40), _block("exb", 10, 10)),
        frozenset(
            {GroundAtom("on", ("exa", "exb")), GroundAtom("on", ("exb", "exa"))}
        ),
    )
    scene = _scene(_block("a", 0, 0), _block("b", 30, 0))
    with pytest.raises(ExemplarError):
        _classify(scene, exemplar, BLOCKS, "on")


def test_gate_rejects_candidate_free_exemplar():
    exemplar = (_scene(_block("lone", 10, 10)), frozenset())
    scene = _scene(_block("a", 0, 0), _block("b", 30, 0))
    with pytest.raises(ExemplarError):
        _classify(scene, exemplar, BLOCKS, "on")


def test_gate_skipped_when_predicate_absent_from_test():
    # One test block: no "on" candidates, so the uninformative exemplar
    # never gets consulted.
    exemplar = (_scene(_block("lone", 10, 10)), frozenset())
    graph = classify_scene(
        _scene(_block("a", 0, 0)), BLOCKS, compile_exemplar(*exemplar, BLOCKS)
    )
    assert graph.atoms == frozenset()


def test_malformed_exemplar_atoms_rejected():
    blocks = _scene(_block("exa", 10, 40), _block("exb", 10, 10))
    kitchen = _scene(
        SceneObject("g1", "gripper", Box(0, 0, 10, 10)),
        SceneObject("tomato", "vegetable", Box(20, 0, 30, 10)),
    )
    cases = [
        (blocks, BLOCKS, GroundAtom("on", ("exa", "ghost")),
         "malformed exemplar atom (on exa ghost): unknown object 'ghost'"),
        (kitchen, KITCHEN, GroundAtom("carry", ("tomato", "tomato")),
         "malformed exemplar atom (carry tomato tomato): "
         "'tomato' has type 'vegetable', 'carry' requires 'gripper'"),
        (blocks, BLOCKS, GroundAtom("on", ("exa",)),
         "malformed exemplar atom (on exa): 'on' takes 2 args, got 1"),
        (blocks, BLOCKS, GroundAtom("covered", ("exa",)),
         "exemplar labels non-observed predicate 'covered'"),
    ]
    for scene, domain, atom, message in cases:
        with pytest.raises(ExemplarError) as err:
            classify_scene(
                scene, domain, compile_exemplar(scene, frozenset({atom}), domain)
            )
        assert str(err.value) == message


_LABEL_TWO_DERIVED_PREDICATES = """
from sceneground.bench import domain_text
from sceneground.graph import ExemplarError, classify_scene, compile_exemplar
from sceneground.pddl import GroundAtom, parse_domain
from sceneground.scene import Box, Scene, SceneObject

scene = Scene(100, 100, (
    SceneObject("block1", "block", Box(10, 10, 20, 20)),
    SceneObject("block2", "block", Box(10, 20, 20, 30)),
))
atoms = frozenset({
    GroundAtom("covered", ("block1",)),
    GroundAtom("supported", ("block2",)),
    GroundAtom("on", ("block1", "block2")),
})
try:
    domain = parse_domain(domain_text("blocksworld"))
    classify_scene(scene, domain, compile_exemplar(scene, atoms, domain))
except ExemplarError as exc:
    print(exc)
"""


def test_exemplar_error_is_the_same_under_every_string_hash_seed():
    # covered and supported are derived in blocksworld.  The error names
    # the first of them in sorted order, not the first a frozenset of
    # strings happens to yield, so reports do not change with the seed.
    src = str(Path(sceneground.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    messages = set()
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-c", _LABEL_TWO_DERIVED_PREDICATES],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        messages.add(done.stdout)
    assert messages == {"exemplar labels non-observed predicate 'covered'\n"}


def test_classification_invariant_under_common_translation():
    ex_scene, labels = _three_block_exemplar()
    scene = _scene(
        SceneObject("s", "block", Box(11, 39, 21, 51)),
        _block("o", 10, 10),
    )
    moved_scene = _scene(
        *(SceneObject(o.name, o.type, o.box.shifted(15, 9)) for o in scene.objects)
    )
    moved_ex_scene = _scene(
        *(SceneObject(o.name, o.type, o.box.shifted(15, 9)) for o in ex_scene.objects)
    )
    before = classify_scene(scene, BLOCKS, compile_exemplar(ex_scene, labels, BLOCKS))
    after = classify_scene(moved_scene, BLOCKS, compile_exemplar(moved_ex_scene, labels, BLOCKS))
    assert before.atoms == after.atoms


def test_classification_invariant_under_exemplar_object_order():
    ex_scene, labels = _three_block_exemplar()
    reordered = Scene(100, 100, tuple(reversed(ex_scene.objects)))
    scene = _scene(
        SceneObject("s", "block", Box(11, 39, 21, 51)),
        _block("o", 10, 10),
    )
    assert (
        classify_scene(scene, BLOCKS, compile_exemplar(ex_scene, labels, BLOCKS)).atoms
        == classify_scene(scene, BLOCKS, compile_exemplar(reordered, labels, BLOCKS)).atoms
    )


def test_unary_classification_by_shape():
    # Sliced vegetables are flat; unsliced ones are square.  The feature
    # also encodes position offsets, so the boxes are kept near one spot to
    # let shape dominate (the benchmark generator does the same with fixed
    # layout slots).
    exemplar = (
        _scene(
            SceneObject("exveg1", "vegetable", Box(10, 10, 40, 16)),
            SceneObject("exveg2", "vegetable", Box(12, 12, 27, 27)),
        ),
        frozenset({GroundAtom("sliced", ("exveg1",))}),
    )
    scene = _scene(
        SceneObject("veg1", "vegetable", Box(11, 11, 42, 17)),  # flat
        SceneObject("veg2", "vegetable", Box(11, 11, 27, 27)),  # square
    )
    kept = _classify(scene, exemplar, KITCHEN, "sliced")
    assert kept == (GroundAtom("sliced", ("veg1",)),)


def test_build_graph_and_init_round_trip():
    scene = _scene(
        SceneObject("veg1", "vegetable", Box(10, 10, 40, 16)),
        SceneObject("grip1", "gripper", Box(5, 5, 50, 50)),
    )
    cands = enumerate_candidates(scene, KITCHEN)
    chosen = frozenset(
        GroundAtom(predicate, cands[predicate][0][0]) for predicate in ("carry", "sliced")
    )
    assert chosen == {
        GroundAtom("carry", ("grip1", "veg1")),
        GroundAtom("sliced", ("veg1",)),
    }
    graph = SceneGraph(scene.objects, chosen)
    assert graph_to_init(graph) == chosen
    # A unary atom is a self-edge; the edges come sorted.
    assert json.loads(graph.to_json())["edges"] == [
        {"subject": "grip1", "predicate": "carry", "object": "veg1"},
        {"subject": "veg1", "predicate": "sliced", "object": "veg1"},
    ]


def test_empty_graph():
    graph = SceneGraph((_block("a", 0, 0),), frozenset())
    assert graph_to_init(graph) == frozenset()
    assert json.loads(graph.to_json())["edges"] == []
    assert len(graph.vertices) == 1


def test_graph_json_shape():
    graph = SceneGraph(
        (_block("a", 0, 0),), frozenset({GroundAtom("on", ("a",))})
    )
    doc = json.loads(graph.to_json())
    assert doc["vertices"] == [
        {"name": "a", "type": "block", "box": [0.0, 0.0, 10.0, 10.0]}
    ]
    assert doc["edges"] == [{"subject": "a", "predicate": "on", "object": "a"}]


def _stack_observation():
    # block at (10, 40) sits on block at (10, 52) -- adjacent vertically.
    return SceneObservation(
        100.0,
        100.0,
        (
            Detection("block", Box(10, 40, 20, 50), suggested_type="block"),
            Detection("block", Box(10, 52, 20, 62), suggested_type="block"),
            Detection("block", Box(50, 52, 60, 62), suggested_type="block"),
        ),
    )


def test_ground_scene_end_to_end(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(_stack_observation().to_json())
    exemplar = tmp_path / "exemplar.json"
    exemplar.write_text(
        exemplar_to_json(_stack_observation(), [GroundAtom("on", ("block1", "block2"))])
    )
    entry = ManifestEntry(
        "scene", str(scene), str(exemplar), None, "on(block2, block1)", None
    )
    grounded = ground(BLOCKS, entry, PipelineConfig())
    assert grounded.failure is None
    problem = grounded.problem
    goal = (GroundLiteral(GroundAtom("on", ("block2", "block1")), False),)
    assert problem.init == {GroundAtom("on", ("block1", "block2"))}
    assert problem.goal == goal
    types = dict(problem.objects)
    assert [fault for atom in problem.init for fault in atom_faults(atom, BLOCKS, types)] == []
    # The emitted problem survives its own serialization.
    reparsed = parse_problem(serialize_problem(problem), BLOCKS)
    assert reparsed == problem


@pytest.mark.parametrize(
    "rows, message",
    [
        ("on", "bad true_atoms: expected a list, not str"),
        ({"on": ["a", "b"]}, "bad true_atoms: expected a list, not dict"),
        ([["on", 1, 2]], "bad true_atoms entry 0: parts must be strings"),
        ([["on", "a", "b"], ["on", ["x"], "b"]], "bad true_atoms entry 1: parts"),
        ([[]], "bad true_atoms entry 0: expected a non-empty list"),
        (["on"], "bad true_atoms entry 0: expected a non-empty list"),
        ([None], "bad true_atoms entry 0: expected a non-empty list"),
    ],
    ids=["string", "object", "numbers", "nested-list", "empty-row", "bare-row", "null"],
)
def test_malformed_true_atoms_rows_rejected(rows, message):
    doc = json.loads(exemplar_to_json(_stack_observation(), []))
    doc["true_atoms"] = rows
    with pytest.raises(SceneError, match=f"^{re.escape(message)}"):
        exemplar_from_json(json.dumps(doc), BLOCKS)


def test_exemplar_json_round_trip():
    obs = _stack_observation()
    atoms = [GroundAtom("on", ("block1", "block2"))]
    text = exemplar_to_json(obs, atoms)
    loaded = exemplar_from_json(text, BLOCKS)
    scene = merge_detections(obs, BLOCKS)
    assert [o.name for o in scene.objects] == ["block1", "block2", "block3"]
    assert loaded == compile_exemplar(scene, frozenset(atoms), BLOCKS)
    assert loaded.fault is None
    assert graph_to_init(classify_scene(scene, BLOCKS, loaded)) == frozenset(atoms)


COOKING = parse_domain(domain_text("cooking"))
HANOI = parse_domain(domain_text("hanoi"))
COOKING_TYPES = ("gripper", "vegetable", "tool", "board", "container")
# Few distinct boxes on a 100x100 canvas, so scenes repeat boxes and
# features: equal distances to a positive and a negative (exact ties) are
# common, not rare.
BOX_POOL = tuple(
    Box(x, y, x + w, y + h) for x in (0, 30, 60) for y in (0, 30, 60)
    for w, h in ((20, 20), (30, 10))
)


@st.composite
def classification_cases(draw):
    domain, types = draw(
        st.sampled_from(
            (
                (BLOCKS, ("block",)),
                (COOKING, COOKING_TYPES),
                (HANOI, ("disk", "peg")),
            )
        )
    )

    def scene(prefix, min_size):
        rows = draw(
            st.lists(
                st.tuples(st.sampled_from(types), st.sampled_from(BOX_POOL)),
                min_size=min_size, max_size=5,
            )
        )
        return _scene(
            *(SceneObject(f"{prefix}{i}", t, box) for i, (t, box) in enumerate(rows))
        )

    ex_scene = scene("ex", 2)
    objects = ex_scene.typed_objects()
    labels = [
        GroundAtom(sig.name, args)
        for sig in domain.observed
        for args in itertools.product([n for n, _ in objects], repeat=sig.arity)
        if len(set(args)) == sig.arity
        and well_typed(GroundAtom(sig.name, args), domain, objects)
    ]
    true_atoms = frozenset(a for a in labels if draw(st.booleans()))
    return domain, scene("t", 1), (ex_scene, true_atoms)


@settings(max_examples=150, deadline=None)
@given(classification_cases())
def test_classify_scene_agrees_with_naive_1nn(case):
    domain, scene, exemplar = case
    expected = naive_classify_scene(scene, domain, *exemplar)
    model = compile_exemplar(*exemplar, domain)
    if expected is None:
        with pytest.raises(ExemplarError, match="uninformative"):
            classify_scene(scene, domain, model)
    else:
        assert graph_to_init(classify_scene(scene, domain, model)) == expected


@pytest.mark.parametrize("sigma", [0.0, 0.2, 0.6])
@pytest.mark.parametrize("kind", DOMAIN_KINDS)
def test_classify_scene_agrees_with_naive_1nn_on_generated_scenes(kind, sigma):
    # The generators' canvas is 1280x960, so a feature that divides an x
    # coordinate by the height differs from the documented one; the random
    # cases above draw on a square canvas.
    domain = shipped_domain(kind)
    for seed in range(12):
        problem = generate(GenConfig(kind=kind, sigma=sigma, seed=seed))
        ex_scene = merge_detections(problem.exemplar_obs, domain)
        scene = merge_detections(problem.scene, domain)
        model = compile_exemplar(ex_scene, problem.exemplar_labels, domain)
        expected = naive_classify_scene(scene, domain, ex_scene, problem.exemplar_labels)
        assert classify_scene(scene, domain, model).atoms == expected, (kind, sigma, seed)


@pytest.mark.parametrize("sigma", [0.0, 0.2, 0.6])
@pytest.mark.parametrize("kind", DOMAIN_KINDS)
def test_candidate_columns_are_the_naive_candidates_on_generated_scenes(kind, sigma):
    # Per observed predicate, the argument column equals the naive
    # enumeration's arguments and the feature column its features, bit for
    # bit (float.hex tells -0.0 from 0.0), both in scene order, on the
    # test and the exemplar scene.
    domain = shipped_domain(kind)
    for seed in range(12):
        problem = generate(GenConfig(kind=kind, sigma=sigma, seed=seed))
        for obs in (problem.scene, problem.exemplar_obs):
            scene = merge_detections(obs, domain)
            columns = enumerate_candidates(scene, domain)
            assert list(columns) == [sig.name for sig in domain.observed]
            for sig in domain.observed:
                expected = _naive_candidates(scene, domain, sig)
                args, features = columns[sig.name]
                assert args == tuple(a for a, _ in expected), (kind, sigma, seed)
                assert [tuple(map(float.hex, f)) for f in features] == [
                    tuple(map(float.hex, f)) for _, f in expected
                ], (kind, sigma, seed)


def kernel_cases(domain, scene, exemplar) -> tuple[bool, bool]:
    """Whether some test candidate's nearest positive and nearest negative
    are exactly as far, and whether some candidate is rejected by a
    negative after the first one the classifier visits: the sorted
    negatives are walked up from the first whose first coordinate is at
    least the candidate's, or down from the last if there is none."""
    tie = late = False
    ex_scene, labels = exemplar
    labeled = enumerate_candidates(ex_scene, domain)
    for predicate, (_, test) in enumerate_candidates(scene, domain).items():
        positives, negatives = [], []
        for args, feature in zip(*labeled[predicate]):
            truth = GroundAtom(predicate, args) in labels
            (positives if truth else negatives).append(feature)
        if not test or not positives or not negatives:
            continue
        negatives.sort()
        for x in test:
            d_pos = min(naive_distance2(x, f) for f in positives)
            d_neg = [naive_distance2(x, f) for f in negatives]
            first = min(bisect_left([f[0] for f in negatives], x[0]), len(d_neg) - 1)
            tie |= d_pos == min(d_neg)
            late |= d_neg[first] > d_pos >= min(d_neg)
    return tie, late


def test_classification_cases_draw_ties_and_late_rejections():
    # The differential test above runs 150 examples; exact ties and
    # candidates that only a later negative rejects must each turn up in at
    # least 10 of them.
    cases = []

    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        deadline=None,
    )
    @given(classification_cases())
    def collect(case):
        cases.append(kernel_cases(*case))

    collect()
    assert len(cases) == 150
    assert min(sum(drawn) for drawn in zip(*cases)) >= 10



# ---------------------------------------------------------------------------
# The pruned 1-NN search against brute force
# ---------------------------------------------------------------------------

# A coarse dyadic grid: features repeat, first coordinates coincide, and
# differences, squares and mirror images are exact, so distances tie
# exactly.  Both signed zeros are on it.
GRID = (-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def nn_cases(draw):
    """Test features and the two sides of an exemplar, unsorted.

    Side features come from a shared pool (duplicates on one side and
    across sides), fresh from the grid, or from a test feature with only
    its first coordinate changed (a distance that is the first term
    alone).  A negative may mirror a test feature's nearest positive
    through it, exactly as far away."""
    n = draw(st.sampled_from((4, 6)))
    feature = st.tuples(*[st.sampled_from(GRID)] * n)
    tests = draw(st.lists(feature, min_size=1, max_size=5))
    pool = draw(st.lists(feature, min_size=1, max_size=4))
    shifted = st.tuples(st.sampled_from(GRID), st.sampled_from(tests)).map(
        lambda pair: (pair[0], *pair[1][1:])
    )
    side = st.lists(feature | st.sampled_from(pool) | shifted, min_size=1, max_size=8)
    positives, negatives = draw(side), draw(side)
    if draw(st.booleans()):
        t = draw(st.sampled_from(tests))
        p = min(positives, key=lambda f: naive_distance2(t, f))
        negatives.append(tuple(2 * a - b for a, b in zip(t, p)))
    return tests, positives, negatives


def nn_kinds(tests, positives, negatives) -> set[str]:
    """Which of the cases the pruned search must get right a draw holds."""
    seen = set()
    firsts = {f[0] for f in positives} & {f[0] for f in negatives}
    if len(set(positives)) < len(positives) or len(set(negatives)) < len(negatives):
        seen.add("duplicate on a side")
    if set(positives) & set(negatives):
        seen.add("duplicate across sides")
    if any(p[0] == q[0] and p != q for p in positives for q in negatives):
        seen.add("equal first coordinates")
    zeros = [f[0] for f in (*tests, *positives, *negatives) if f[0] == 0]
    if {math.copysign(1.0, z) for z in zeros} == {1.0, -1.0}:
        seen.add("-0.0 against 0.0")
    for t in tests:
        d_pos = min(naive_distance2(t, f) for f in positives)
        near = [f for f in negatives if naive_distance2(t, f) == d_pos]
        if near:
            seen.add("negative as near as the nearest positive")
        if any((t[0] - f[0]) ** 2 == d_pos for f in near):
            seen.add("tie at the first coordinate's gap")
    seen.add(f"{len(tests[0])}-dim")
    return seen


@settings(max_examples=300, deadline=None)
@given(nn_cases())
# The tying negative sits exactly at the stop gap: a walk that stopped
# at g * g == d_pos would keep the candidate.
@example(([(0.0, 0.0, 0.0, 0.0)], [(0.5, 0.0, 0.0, 0.0)], [(-0.5, 0.0, 0.0, 0.0)]))
# The nearest positive and the only near negative lie below the test
# feature's first coordinate, the far ones above.
@example(([(0.0,) * 6], [(-0.25,) + (0.0,) * 5, (1.0,) * 6], [(-0.5,) + (0.0,) * 5, (1.0,) * 6]))
def test_pruned_classify_is_the_brute_force_1nn(case):
    tests, positives, negatives = case
    kept = classify(tuple(tests), tuple(sorted(positives)), tuple(sorted(negatives)), "p")
    assert kept == tuple(i for i, x in enumerate(tests) if naive_1nn(x, positives, negatives))


@settings(max_examples=300, deadline=None)
@given(nn_cases(), st.data())
def test_classify_is_monotone_in_each_side(case, data):
    # Adding a positive feature never drops a kept candidate, and adding a
    # negative never adds one.  Each side stays sorted, as compile_exemplar
    # leaves it; the added feature may repeat one already there or a test
    # feature.
    tests, positives, negatives = case
    grid = st.tuples(*[st.sampled_from(GRID)] * len(tests[0]))
    extra = data.draw(grid | st.sampled_from(tests + positives + negatives), label="extra")

    def kept(pos, neg) -> set[int]:
        return set(classify(tuple(tests), tuple(sorted(pos)), tuple(sorted(neg)), "p"))

    before = kept(positives, negatives)
    assert before <= kept(positives + [extra], negatives)
    assert kept(positives, negatives + [extra]) <= before


def test_nn_cases_draw_every_tie():
    # Each kind of tie and coincidence turns up in at least 10 of the 300
    # examples the property above runs.
    counts: dict[str, int] = {}

    @settings(
        max_examples=300,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        deadline=None,
    )
    @given(nn_cases())
    def record(case):
        for kind in nn_kinds(*case):
            counts[kind] = counts.get(kind, 0) + 1

    record()
    assert set(counts) == {
        "duplicate on a side", "duplicate across sides", "equal first coordinates",
        "-0.0 against 0.0", "negative as near as the nearest positive",
        "tie at the first coordinate's gap", "4-dim", "6-dim",
    }
    assert min(counts.values()) >= 10, counts


@settings(max_examples=50, deadline=None)
@given(classification_cases())
def test_compiled_exemplar_sides_are_sorted(case):
    domain, _, exemplar = case
    for positives, negatives in compile_exemplar(*exemplar, domain).labeled.values():
        assert list(positives) == sorted(positives)
        assert list(negatives) == sorted(negatives)


# ---------------------------------------------------------------------------
# The exemplar label check: candidate membership, else every label
# ---------------------------------------------------------------------------

_LABEL_SCENE = _scene(_block("exa", 10, 40), _block("exb", 10, 10), _block("exc", 50, 10))
_ON_AB = GroundAtom("on", ("exa", "exb"))


@pytest.mark.parametrize(
    "scene, domain, labels, message",
    [
        # The first faulty label in sorted order is named.
        (_LABEL_SCENE, BLOCKS,
         {_ON_AB, GroundAtom("on", ("exc", "ghost")), GroundAtom("on", ("exb", "zz"))},
         "malformed exemplar atom (on exb zz): unknown object 'zz'"),
        # A reflexive label is type-valid but no candidate: no fault.
        (_LABEL_SCENE, BLOCKS, {_ON_AB, GroundAtom("on", ("exa", "exa"))}, None),
        # A predicate without candidates: one block has no ordered pair.
        (_scene(_block("exa", 10, 40)), BLOCKS, {GroundAtom("on", ("exa", "exa"))}, None),
        # No gripper, so carry has no candidates, and the label is ill-typed.
        (_scene(SceneObject("veg", "vegetable", Box(0, 0, 10, 10))), KITCHEN,
         {GroundAtom("sliced", ("veg",)), GroundAtom("carry", ("veg", "veg"))},
         "malformed exemplar atom (carry veg veg): "
         "'veg' has type 'vegetable', 'carry' requires 'gripper'"),
        (_LABEL_SCENE, BLOCKS, {_ON_AB, GroundAtom("on", ("exa", "ghost"))},
         "malformed exemplar atom (on exa ghost): unknown object 'ghost'"),
        (_LABEL_SCENE, BLOCKS, {_ON_AB, GroundAtom("on", ("exa", "exb", "exc"))},
         "malformed exemplar atom (on exa exb exc): 'on' takes 2 args, got 3"),
        # Non-observed predicates are looked for first, among all labels.
        (_LABEL_SCENE, BLOCKS,
         {_ON_AB, GroundAtom("on", ("exa", "ghost")), GroundAtom("zz", ("exa",))},
         "exemplar labels non-observed predicate 'zz'"),
        (_LABEL_SCENE, BLOCKS, set(), None),
    ],
    ids=[
        "first-faulty-sorted", "reflexive", "no-candidates-valid", "no-candidates-faulty",
        "unknown-object", "wrong-arity", "non-observed-first", "no-labels",
    ],
)
def test_exemplar_label_fault_falls_back_to_every_label(scene, domain, labels, message):
    labels = frozenset(labels)
    model = compile_exemplar(scene, labels, domain)
    assert model.fault == _exemplar_fault(scene, labels, domain) == message
    if message is None:
        candidates = frozenset(a for a in labels if len(set(a.args)) == len(a.args))
        assert model == compile_exemplar(scene, candidates, domain)
    else:
        assert model.labeled == {}


@st.composite
def labeled_exemplars(draw):
    """A drawn exemplar with extra labels, some of them faulty."""
    domain, _, (ex_scene, labels) = draw(classification_cases())
    names = [o.name for o in ex_scene.objects] + ["ghost"]
    predicates = [sig.name for sig in domain.predicates] + ["unknown"]
    extra = st.builds(
        GroundAtom,
        st.sampled_from(predicates),
        st.lists(st.sampled_from(names), min_size=0, max_size=3).map(tuple),
    )
    return domain, ex_scene, labels | draw(st.frozensets(extra, max_size=3))


@settings(max_examples=150, deadline=None)
@given(labeled_exemplars())
def test_exemplar_fault_is_the_check_of_every_label(case):
    domain, scene, labels = case
    assert compile_exemplar(scene, labels, domain).fault == _exemplar_fault(scene, labels, domain)


# ---------------------------------------------------------------------------
# Relations over generated scenes
# ---------------------------------------------------------------------------


def _scaled(obs: SceneObservation, factor: float) -> SceneObservation:
    def scale(dets):
        return tuple(
            Detection(
                d.query,
                Box(d.box.x_min * factor, d.box.y_min * factor,
                    d.box.x_max * factor, d.box.y_max * factor),
                d.score, d.suggested_type, d.referent_name,
            )
            for d in dets
        )

    return SceneObservation(
        obs.image_width * factor, obs.image_height * factor,
        scale(obs.class_detections), scale(obs.phrase_detections),
    )


def _graph_atoms(domain, obs, ex_obs, labels):
    model = compile_exemplar(merge_detections(ex_obs, domain), labels, domain)
    try:
        return classify_scene(merge_detections(obs, domain), domain, model).atoms
    except ExemplarError as exc:
        return str(exc)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(DOMAIN_KINDS),
    st.sampled_from((0.0, 0.2, 0.6)),
    st.integers(0, 10**6),
    st.integers(-8, 8),
)
def test_scaling_by_a_power_of_two_leaves_the_graph_unchanged(kind, sigma, seed, k):
    # IoU and both features are ratios of coordinates, and scaling by 2^k
    # is exact while nothing overflows or goes subnormal.
    domain = shipped_domain(kind)
    problem = generate(GenConfig(kind=kind, sigma=sigma, seed=seed))
    labels = problem.exemplar_labels
    factor = math.ldexp(1.0, k)
    assert _graph_atoms(
        domain, _scaled(problem.scene, factor), _scaled(problem.exemplar_obs, factor), labels
    ) == _graph_atoms(domain, problem.scene, problem.exemplar_obs, labels)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((0.0, 0.2, 0.6)), st.integers(0, 10**6))
def test_renaming_referents_renames_the_graph_only(sigma, seed):
    # Names play no part in merging or classifying, so a consistent
    # renaming of the test scene's phrase referents, to names that clash
    # with no other object, renames the graph's objects and atoms and
    # changes nothing else.  Only cooking scenes have phrases.
    domain = shipped_domain("cooking")
    problem = generate(GenConfig(kind="cooking", sigma=sigma, seed=seed))
    obs = problem.scene
    referents = {d.referent_name for d in obs.phrase_detections} - {None}
    assert referents
    fresh = {name: f"renamed{index}x" for index, name in enumerate(sorted(referents))}
    renamed = replace(
        obs,
        phrase_detections=tuple(
            replace(d, referent_name=fresh.get(d.referent_name)) for d in obs.phrase_detections
        ),
    )
    model = compile_exemplar(
        merge_detections(problem.exemplar_obs, domain), problem.exemplar_labels, domain
    )
    before = merge_detections(obs, domain)
    after = merge_detections(renamed, domain)
    assert after.objects == tuple(
        replace(o, name=fresh.get(o.name, o.name)) for o in before.objects
    )
    assert not {o.name for o in before.objects} & set(fresh.values())
    try:
        atoms = classify_scene(before, domain, model).atoms
    except ExemplarError as exc:
        with pytest.raises(ExemplarError, match=re.escape(str(exc))):
            classify_scene(after, domain, model)
        return
    assert classify_scene(after, domain, model).atoms == {
        GroundAtom(a.predicate, tuple(fresh.get(x, x) for x in a.args)) for a in atoms
    }

# Unit-range floats with the edge values drawn on purpose: signed zeros,
# the smallest subnormal and the largest subnormal.
UNIT_FLOATS = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((4, 6)).flatmap(
        lambda n: st.tuples(*[st.tuples(*[UNIT_FLOATS] * n)] * 2)
    )
)
# Squares where glibc 2.36's pow rounds x ** 2 one ulp away from the
# correctly rounded product x * x.
@example(((0.0397, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)))
@example(((0.0, 0.0, 0.0, 0.0, 0.0, 0.2551), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)))
def test_unrolled_distance_is_the_left_to_right_sum(pair):
    a, b = pair
    assert _DISTANCE2[len(a)](a, b).hex() == naive_distance2(a, b).hex()


def test_squares_are_correctly_rounded_products():
    # The two examples above: glibc 2.36's pow gives 0.0015760899999999998
    # and 0.06507600999999999, one ulp below the products.
    cases = (((0.0397,) + (0.0,) * 3, 0.00157609), ((0.0,) * 5 + (0.2551,), 0.06507601))
    for a, square in cases:
        zero = (0.0,) * len(a)
        assert _DISTANCE2[len(a)](a, zero) == naive_distance2(a, zero) == square


# ---------------------------------------------------------------------------
# The template writers against json.dumps
# ---------------------------------------------------------------------------

# Quotes, backslashes, control characters, non-ASCII characters, one
# outside the Basic Multilingual Plane and a lone surrogate all need escaping.
writer_names = st.text(
    alphabet=st.sampled_from('a_"\\\x00\x1f\x7f\n\t \xe9\u2028\U0001f600\ud800'), max_size=6
)
writer_numbers = (
    st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False)
    | st.sampled_from([0.0, -0.0, 0.1, 1e16, 1e-7, math.inf, -math.inf])
)


@st.composite
def writer_boxes(draw, numbers=writer_numbers):
    # Two distinct values per axis, so the box is never degenerate.
    pairs = st.lists(numbers, min_size=2, max_size=2, unique=True).map(sorted)
    (x0, x1), (y0, y1) = draw(pairs), draw(pairs)
    return Box(x0, y0, x1, y1)


writer_atoms = st.frozensets(
    st.builds(
        GroundAtom, writer_names, st.lists(writer_names, min_size=1, max_size=2).map(tuple)
    ),
    max_size=3,
)
writer_graphs = st.builds(
    SceneGraph,
    st.lists(st.builds(SceneObject, writer_names, writer_names, writer_boxes()), max_size=3)
    .map(tuple),
    writer_atoms,
)

# Observations are checked against their canvas, so their numbers are
# finite, non-negative and at most 1000, and the canvas is 1000 square.
canvas_numbers = (
    st.integers(0, 1000) | st.floats(0, 1000) | st.sampled_from([0.0, 0.1, 999.9])
)
writer_detections = st.builds(
    Detection,
    writer_names,
    writer_boxes(canvas_numbers),
    st.sampled_from([0, 1, 0.0, 1.0]) | st.floats(0, 1),
    st.none() | writer_names,
    st.none() | writer_names,
)
writer_observations = st.builds(
    SceneObservation,
    st.sampled_from([1000, 1000.0]),
    st.sampled_from([1000, 1000.0]),
    st.lists(writer_detections, max_size=3).map(tuple),
    st.lists(writer_detections, max_size=3).map(tuple),
)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def graph_doc(graph: SceneGraph) -> dict:
    edges = sorted((a.args[0], a.predicate, a.args[-1]) for a in graph.atoms)
    return {
        "vertices": [
            {"name": v.name, "type": v.type, "box": list(astuple(v.box))}
            for v in graph.vertices
        ],
        "edges": [{"subject": s, "predicate": p, "object": o} for s, p, o in edges],
    }


def detection_doc(det: Detection) -> dict:
    doc = {"query": det.query, "box": list(astuple(det.box)), "score": det.score}
    if det.suggested_type is not None:
        doc["suggested_type"] = det.suggested_type
    if det.referent_name is not None:
        doc["referent_name"] = det.referent_name
    return doc


def observation_doc(obs: SceneObservation) -> dict:
    return {
        "image_width": obs.image_width,
        "image_height": obs.image_height,
        "class_detections": [detection_doc(d) for d in obs.class_detections],
        "phrase_detections": [detection_doc(d) for d in obs.phrase_detections],
    }


@settings(max_examples=100, deadline=None)
@given(writer_graphs, writer_observations, writer_atoms)
def test_writers_equal_json_dumps(graph, obs, atoms):
    # The writers' dict forms, as json.dumps wrote them before the templates.
    assert graph.to_json() == dumps(graph_doc(graph))
    assert obs.to_json() == dumps(observation_doc(obs))
    doc = observation_doc(obs)
    doc["true_atoms"] = sorted([a.predicate, *a.args] for a in atoms)
    assert exemplar_to_json(obs, atoms) == dumps(doc)


def test_writer_strategies_draw_the_edge_cases():
    # Each case the writers must spell like json turns up within as many
    # examples as the property above runs.
    seen = set()

    @settings(
        max_examples=100,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        deadline=None,
    )
    @given(writer_graphs, writer_observations)
    def record(graph, obs):
        text = graph.to_json() + obs.to_json()
        seen.update(
            key
            for key, hit in (
                ("no vertices", not graph.vertices),
                ("no edges", not graph.atoms),
                ("no detections", not obs.class_detections),
                ("infinity", "Infinity" in text),
                ("int", any(type(v) is int for o in graph.vertices for v in astuple(o.box))),
                ("escape", "\\u" in text),
                ("quote", '\\"' in text),
                ("backslash", "\\\\" in text),
                ("with names", '"referent_name"' in text and '"suggested_type"' in text),
                ("without names", any(
                    d.referent_name is None and d.suggested_type is None
                    for d in obs.class_detections + obs.phrase_detections
                )),
            )
            if hit
        )

    record()
    assert seen == {
        "no vertices", "no edges", "no detections", "infinity", "int", "escape",
        "quote", "backslash", "with names", "without names",
    }


# Strings and booleans where numbers belong, and a number for the query: a
# scene or exemplar file like this used to load as a 10x1 canvas.
LOOSE_SCENE = {
    "image_width": "10",
    "image_height": True,
    "class_detections": [{"query": 7, "box": ["0", False, "1e0", True], "score": "1"}],
}


def test_exemplar_with_strings_and_booleans_for_numbers_is_rejected():
    text = json.dumps({**LOOSE_SCENE, "true_atoms": []})
    message = "^bad scene JSON: image_width must be a number, got '10'$"
    with pytest.raises(SceneError, match=message):
        exemplar_from_json(text, BLOCKS)
    detection = {**LOOSE_SCENE["class_detections"][0], "box": [0, 0, 1, 1], "score": 1}
    doc = {"image_width": 10, "image_height": 10, "class_detections": [detection]}
    text = json.dumps({**doc, "true_atoms": []})
    message = "^bad detection entry .*: query must be a string, got 7$"
    with pytest.raises(SceneError, match=message):
        exemplar_from_json(text, BLOCKS)


def test_exemplar_with_an_integer_too_long_to_read_is_a_scene_error():
    text = '{"image_width": ' + "1" * 5000 + ', "image_height": 10, "true_atoms": []}'
    with pytest.raises(SceneError, match="^bad (exemplar|scene) JSON: "):
        exemplar_from_json(text, BLOCKS)
