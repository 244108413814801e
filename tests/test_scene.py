"""Boxes, IoU, detection merging, naming, spatial features."""

import json
import math
import random
import re
from dataclasses import astuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from naive_ref import naive_iou, naive_merge
from sceneground.bench import DOMAIN_KINDS, GenConfig, generate, shipped_domain
from sceneground.graph import enumerate_candidates, unary_feature
from sceneground.pddl import parse_domain
from sceneground.scene import (
    MATCH_THRESHOLD,
    Box,
    Detection,
    Scene,
    SceneError,
    SceneObject,
    SceneObservation,
    _det_from_dict,
    assign_names,
    merge_detections,
    observation_from_json,
)

TOY_DOMAIN = parse_domain(
    """
    (define (domain toy)
      (:types block - object vegetable - object tool - object)
      (:predicates (on ?a - block ?b - block)))
    """
)


def test_iou_oracle_values():
    # The reference IoU the merge is checked against, worked by hand:
    # overlap 2x1 = 2, union 4 + 4 - 2 = 6.
    assert naive_iou(Box(0, 0, 2, 2), Box(0, 1, 2, 3)) == pytest.approx(1 / 3)
    # Spec'd pair: inter 50, union 150.
    assert naive_iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(1 / 3)
    assert naive_iou(Box(0, 0, 2, 2), Box(0, 0, 2, 2)) == 1.0
    assert naive_iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0
    # Shared edge only: zero-area intersection.
    assert naive_iou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0


def _random_box(rng):
    x0, y0 = rng.uniform(0, 50), rng.uniform(0, 50)
    return Box(x0, y0, x0 + rng.uniform(0.1, 30), y0 + rng.uniform(0.1, 30))


def test_iou_is_symmetric_and_bounded():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_box(rng)
        b = _random_box(rng)
        v = naive_iou(a, b)
        assert v == naive_iou(b, a)
        assert 0.0 <= v <= 1.0 + 1e-12


def test_degenerate_box_rejected():
    with pytest.raises(SceneError):
        Box(5, 0, 1, 1)
    with pytest.raises(SceneError):
        Box(0, 0, 1, 0)
    with pytest.raises(SceneError):
        Box(0, 0, 0, 0)


def _binary_features(a: Box, b: Box, width, height):
    """The features of the candidates on(a, b) and on(b, a) that
    ``enumerate_candidates`` gives a scene of two blocks with boxes a and b."""
    blocks = (SceneObject("a", "block", a), SceneObject("b", "block", b))
    features = dict(zip(*enumerate_candidates(Scene(width, height, blocks), TOY_DOMAIN)["on"]))
    assert len(features) == 2
    return features["a", "b"], features["b", "a"]


def test_binary_feature_oracle():
    a = Box(0, 0, 10, 10)
    b = Box(10, 0, 20, 10)
    fab, fba = _binary_features(a, b, 100, 100)
    assert fab == pytest.approx((-0.1, 0.0, -0.1, 0.0))
    assert fba == pytest.approx((0.1, 0.0, 0.1, 0.0))
    assert _binary_features(a, a, 100, 100) == ((0.0, 0.0, 0.0, 0.0),) * 2
    # x differences are normalized by the width, y differences by the height.
    assert _binary_features(Box(0, 0, 10, 10), Box(8, 6, 16, 16), 80, 60)[0] == (
        pytest.approx((-0.1, -0.1, -0.075, -0.1))
    )


def test_binary_feature_antisymmetric():
    rng = random.Random(11)
    for _ in range(100):
        a, b = _random_box(rng), _random_box(rng)
        fab, fba = _binary_features(a, b, 80, 60)
        assert fab == pytest.approx(tuple(-v for v in fba))


def test_binary_feature_translation_invariant():
    a = Box(3, 4, 9, 11)
    b = Box(20, 5, 28, 14)
    before = _binary_features(a, b, 64, 48)[0]
    after = _binary_features(a.shifted(7, -2), b.shifted(7, -2), 64, 48)[0]
    assert after == pytest.approx(before)


def test_unary_feature_oracle():
    assert unary_feature(Box(0, 0, 1, 1), 1, 1) == pytest.approx((0, 1, 1, 1, 1, 0))
    # Flat wide box: c = (0, 0, 1, 0.5).
    assert unary_feature(Box(0, 0, 10, 5), 10, 10) == pytest.approx(
        (0.0, 1.0, 0.5, 1.0, 0.5, -0.5)
    )


def test_unary_feature_proportional_diagonal_shift_is_invariant():
    box = Box(5, 5, 15, 20)
    w, h = 100, 50
    before = unary_feature(box, w, h)
    # dx/w == dy/h moves every normalized coordinate by the same amount.
    after = unary_feature(box.shifted(10, 5), w, h)
    assert after == pytest.approx(before)


def test_unary_feature_horizontal_shift_changes_mixed_terms():
    box = Box(5, 5, 15, 20)
    before = unary_feature(box, 100, 100)
    after = unary_feature(box.shifted(10, 0), 100, 100)
    # Same-axis differences (shape) hold; mixed-axis terms move by dx/w.
    assert after[1] == pytest.approx(before[1])  # x_max - x_min
    assert after[0] - before[0] == pytest.approx(-0.1)  # y_min/h - x_min/w
    assert after[3] - before[3] == pytest.approx(0.1)  # x_max/w - y_min/h


def test_unary_feature_widening_grows_width_component():
    base = 10.0
    widths = [5, 10, 20, 40]
    values = [unary_feature(Box(0, 0, w, base), 100, 100)[1] for w in widths]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 100, allow_nan=False),
    st.floats(0.5, 40, allow_nan=False),
    st.floats(0.5, 40, allow_nan=False),
)
def test_unary_feature_components_are_consistent(x, y, w, h):
    # The six differences are projections of one coordinate vector, so
    # chained sums must agree: (c2-c1) + (c3-c2) == (c3-c1) and so on.
    f = unary_feature(Box(x, y, x + w, y + h), 200, 200)
    assert f[0] + f[3] == pytest.approx(f[1])
    assert f[1] + f[5] == pytest.approx(f[2])
    assert f[3] + f[5] == pytest.approx(f[4])


def _class(label, x, y, w=10.0, h=10.0):
    return Detection(label, Box(x, y, x + w, y + h), suggested_type=label)


def _obs(class_dets, phrase_dets=(), w=100.0, h=100.0):
    return SceneObservation(w, h, tuple(class_dets), tuple(phrase_dets))


def test_merge_names_in_raster_order():
    obs = _obs(
        [_class("block", 30, 50), _class("block", 10, 10), _class("block", 40, 10)]
    )
    scene = merge_detections(obs, TOY_DOMAIN)
    assert [(o.name, o.box.x_min, o.box.y_min) for o in scene.objects] == [
        ("block1", 10, 10),
        ("block2", 40, 10),
        ("block3", 30, 50),
    ]


def test_merge_is_input_order_independent():
    dets = [_class("block", 30, 50), _class("vegetable", 10, 10), _class("block", 40, 10)]
    rng = random.Random(3)
    scenes = set()
    for _ in range(10):
        shuffled = dets[:]
        rng.shuffle(shuffled)
        scenes.add(merge_detections(_obs(shuffled), TOY_DOMAIN))
    assert len(scenes) == 1


def test_phrase_renames_best_overlap():
    obs = _obs(
        [_class("vegetable", 10, 10), _class("vegetable", 40, 10)],
        [Detection("the cucumber", Box(39, 9, 51, 21), referent_name="cucumber")],
    )
    scene = merge_detections(obs, TOY_DOMAIN)
    assert sorted(o.name for o in scene.objects) == ["cucumber", "vegetable1"]
    cucumber = next(o for o in scene.objects if o.name == "cucumber")
    assert cucumber.box.x_min == 40
    assert cucumber.type == "vegetable"


def test_phrase_below_threshold_creates_new_object():
    obs = _obs(
        [_class("vegetable", 10, 10)],
        [
            Detection(
                "a knife",
                Box(60, 60, 80, 80),
                suggested_type="tool",
                referent_name="knife",
            )
        ],
    )
    scene = merge_detections(obs, TOY_DOMAIN)
    assert scene.typed_objects() == (("vegetable1", "vegetable"), ("knife", "tool"))


def test_phrase_without_suggestion_defaults_to_root_type():
    obs = _obs([_class("block", 10, 10)], [Detection("something", Box(60, 60, 65, 65))])
    scene = merge_detections(obs, TOY_DOMAIN)
    assert ("object1", "object") in scene.typed_objects()


def test_match_threshold_is_inclusive():
    # IoU of these two boxes is exactly 0.5.
    obs = _obs(
        [_class("block", 0, 0)],
        [Detection("it", Box(0, 0, 10, 5), referent_name="it")],
    )
    assert naive_iou(obs.class_detections[0].box, obs.phrase_detections[0].box) == 0.5
    scene = merge_detections(obs, TOY_DOMAIN)
    assert [o.name for o in scene.objects] == ["it"]


def test_empty_scene_rejected():
    with pytest.raises(SceneError) as err:
        merge_detections(_obs([]), TOY_DOMAIN)
    assert "empty scene" in str(err.value)


def test_unknown_class_type_rejected():
    with pytest.raises(SceneError):
        merge_detections(_obs([_class("spaceship", 0, 0)]), TOY_DOMAIN)


def test_duplicate_referents_rejected():
    obs = _obs(
        [_class("block", 0, 0), _class("block", 40, 40)],
        [
            Detection("a", Box(0, 0, 10, 10), referent_name="same"),
            Detection("b", Box(40, 40, 50, 50), referent_name="same"),
        ],
    )
    with pytest.raises(SceneError):
        merge_detections(obs, TOY_DOMAIN)


def test_bad_referent_name_rejected():
    # A lone "-" would serialize as the type separator of :objects.
    for name in ("Bad Name", "-"):
        obs = _obs(
            [_class("block", 0, 0)],
            [Detection("x", Box(0, 0, 5, 5), referent_name=name)],
        )
        with pytest.raises(SceneError, match=re.escape(f"bad referent name {name!r}")):
            merge_detections(obs, TOY_DOMAIN)


def test_object_count_accounting():
    # |objects| = |class detections| + |unmatched phrases|.
    obs = _obs(
        [_class("block", 0, 0), _class("block", 30, 0)],
        [
            Detection("p1", Box(0, 0, 10, 10), referent_name="left"),
            Detection("p2", Box(60, 60, 70, 70), referent_name="far"),
        ],
    )
    scene = merge_detections(obs, TOY_DOMAIN)
    assert len(scene.objects) == 3


def test_assign_names_permutation_invariant():
    entries = [
        ("block", Box(10, 10, 20, 20), None),
        ("block", Box(50, 10, 60, 20), None),
        ("disk", Box(10, 40, 20, 50), None),
    ]
    baseline = assign_names(entries)
    rng = random.Random(5)
    for _ in range(8):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert assign_names(shuffled) == baseline
    assert [o.name for o in baseline] == ["block1", "block2", "disk1"]


def test_assign_names_forced_name_skips_index():
    entries = [
        ("container", Box(10, 10, 20, 20), "white_bowl"),
        ("container", Box(50, 10, 60, 20), None),
    ]
    named = assign_names(entries)
    assert [o.name for o in named] == ["white_bowl", "container1"]


def test_scene_json_round_trip():
    obs = _obs(
        [_class("block", 0, 0)],
        [
            Detection(
                "the thing",
                Box(30, 30, 40, 40),
                score=0.75,
                suggested_type="tool",
                referent_name="thing",
            )
        ],
    )
    again = observation_from_json(obs.to_json())
    assert again == obs


def test_scene_json_rejects_garbage():
    with pytest.raises(SceneError):
        observation_from_json("{not json")
    with pytest.raises(SceneError):
        observation_from_json("[1, 2, 3]")
    with pytest.raises(SceneError):
        observation_from_json('{"image_width": 10}')
    with pytest.raises(SceneError):
        observation_from_json(
            '{"image_width": 10, "image_height": 10,'
            ' "class_detections": [{"query": "b", "box": [0, 0, 99, 5]}]}'
        )


# Strings and booleans where numbers belong, and a number for the query: a
# scene like the first used to load as a 10x1 canvas with the box (0, 0, 1,
# 1) and the query "7".  Each later one breaks one field of a valid scene.
GOOD_DETECTION = {"query": "block", "box": [0, 0, 1.5, 1], "score": 1}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"image_width": "10", "image_height": True,
          "class_detections": [{"query": 7, "box": ["0", False, "1e0", True], "score": "1"}]},
         "bad scene JSON: image_width must be a number, got '10'"),
        ({"image_width": 10, "image_height": True},
         "bad scene JSON: image_height must be a number, got True"),
        ({"image_width": 10, "image_height": 10,
          "class_detections": [{**GOOD_DETECTION, "query": 7}]},
         "query must be a string, got 7"),
        ({"image_width": 10, "image_height": 10,
          "phrase_detections": [{**GOOD_DETECTION, "box": [0, False, 1, 1]}]},
         "a box coordinate must be a number, got False"),
        ({"image_width": 10, "image_height": 10,
          "class_detections": [{**GOOD_DETECTION, "box": [0, 0, "1e0", 1]}]},
         "a box coordinate must be a number, got '1e0'"),
        ({"image_width": 10, "image_height": 10,
          "class_detections": [{**GOOD_DETECTION, "score": "1"}]},
         "score must be a number, got '1'"),
        ({"image_width": 10, "image_height": 10,
          "class_detections": [{**GOOD_DETECTION, "score": True}]},
         "score must be a number, got True"),
        # An integer too large for a float is a bad entry, not an OverflowError.
        ({"image_width": 10**400, "image_height": 10},
         "bad scene JSON: int too large to convert to float"),
    ],
    ids=[
        "strings-and-booleans", "bool-canvas", "int-query", "bool-coordinate",
        "string-coordinate", "string-score", "bool-score", "huge-int",
    ],
)
def test_scene_json_rejects_strings_and_booleans_for_numbers(doc, message):
    with pytest.raises(SceneError) as err:
        observation_from_json(json.dumps(doc))
    text = str(err.value)
    assert text.startswith("bad scene JSON: ") or text.startswith("bad detection entry ")
    assert text.endswith(message)


def test_scene_json_with_an_integer_too_long_to_read_is_a_scene_error():
    # Past Python's digit limit json.loads raises a plain ValueError; a
    # Python without the limit reads the int, and it overflows a float.
    text = '{"image_width": ' + "1" * 5000 + ', "image_height": 10}'
    with pytest.raises(SceneError, match="^bad scene JSON: "):
        observation_from_json(text)


def test_scene_json_reads_ints_and_floats_as_floats():
    obs = observation_from_json(json.dumps(
        {"image_width": 10, "image_height": 10.0, "class_detections": [GOOD_DETECTION]}
    ))
    assert (obs.image_width, obs.image_height) == (10.0, 10.0)
    det = obs.class_detections[0]
    assert (det.box, det.score) == (Box(0.0, 0.0, 1.5, 1.0), 1.0)
    assert all(type(v) is float for v in (*astuple(det.box), det.score, obs.image_width))


def test_detection_score_validated():
    with pytest.raises(SceneError):
        Detection("x", Box(0, 0, 1, 1), score=1.5)


@pytest.mark.parametrize("size", [(0, 10), (10, -1), (math.nan, 10), (10, math.inf)])
def test_canvas_must_be_positive_and_finite(size):
    with pytest.raises(SceneError, match="bad canvas"):
        SceneObservation(*size, (Detection("b", Box(0, 0, 1, 1)),))
    with pytest.raises(SceneError, match="bad canvas"):
        Scene(*size)


def test_scene_lookup_and_typed_objects():
    scene = Scene(
        100,
        100,
        (
            SceneObject("disk1", "disk", Box(0, 0, 10, 10)),
            SceneObject("peg1", "peg", Box(20, 0, 30, 10)),
        ),
    )
    assert scene.typed_objects() == (("disk1", "disk"), ("peg1", "peg"))


def test_feature_values_are_finite():
    f = unary_feature(Box(0, 0, 1280, 960), 1280, 960)
    assert all(math.isfinite(v) for v in f)


# ---------------------------------------------------------------------------
# The merge against the naive reference, and its invariances
# ---------------------------------------------------------------------------


def _merged_rows(obs, domain):
    return [(o.name, o.type, o.box) for o in merge_detections(obs, domain).objects]


@pytest.mark.parametrize("sigma", [0.0, 0.2, 0.6])
@pytest.mark.parametrize("kind", DOMAIN_KINDS)
def test_merge_agrees_with_naive_reference_on_generated_scenes(kind, sigma):
    domain = shipped_domain(kind)
    for seed in range(12):
        problem = generate(GenConfig(kind=kind, sigma=sigma, seed=900 + seed))
        for obs in (problem.scene, problem.exemplar_obs):
            assert _merged_rows(obs, domain) == naive_merge(obs), (kind, sigma, seed)


def _phrase(query, box, referent=None, typ=None):
    return Detection(query, box, suggested_type=typ, referent_name=referent)


MERGE_EDGE_CASES = {
    # The phrase shares only an edge with the class box: ix == 0.
    "touching": _obs(
        [_class("block", 0, 0)], [_phrase("p", Box(10, 0, 20, 10), "p", "block")]
    ),
    # Identical class boxes of two types, and a phrase on both: the first
    # in raster order (a stable sort keeps input order) is claimed.
    "identical": _obs(
        [_class("vegetable", 20, 20), _class("block", 20, 20)],
        [_phrase("it", Box(20, 20, 30, 30), "it")],
    ),
    # Overlap exactly at the threshold claims the box.
    "iou-one-half": _obs(
        [_class("block", 0, 0)], [_phrase("it", Box(0, 0, 10, 5), "it")]
    ),
    # Just under the threshold makes a new object of the root type.
    "below-one-half": _obs(
        [_class("block", 0, 0)], [_phrase("it", Box(0, 0, 10, 4.99), "it")]
    ),
    # Signed zeros in corners and in the overlap arithmetic.
    "negative-zero": _obs(
        [Detection("block", Box(-0.0, -0.0, 10, 10), suggested_type="block")],
        [_phrase("z", Box(0.0, -0.0, 10, 10), "z"), _phrase("w", Box(-0.0, 0.0, 5, 5))],
    ),
    # A phrase that matches nothing becomes an object a later phrase can
    # claim.
    "phrase-claims-phrase": _obs(
        [_class("block", 60, 60)],
        [_phrase("a", Box(0, 0, 10, 10), typ="tool"), _phrase("b", Box(0, 0, 10, 10), "b")],
    ),
    # Two phrases on one box: the later referent wins.
    "double-claim": _obs(
        [_class("vegetable", 10, 10)],
        [_phrase("the cucumber", Box(10, 10, 20, 20), "cucumber"),
         _phrase("the tomato", Box(11, 10, 20, 20), "tomato")],
    ),
}


@pytest.mark.parametrize("name", sorted(MERGE_EDGE_CASES))
def test_merge_agrees_with_naive_reference_on_edge_cases(name):
    obs = MERGE_EDGE_CASES[name]
    rows = _merged_rows(obs, TOY_DOMAIN)
    assert rows == naive_merge(obs)
    # The rows hold the detections' own boxes, signed zeros included.
    boxes = {b.box for b in (*obs.class_detections, *obs.phrase_detections)}
    assert all(box in boxes for _, _, box in rows)


def test_merge_edge_cases_resolve_as_documented():
    names = {
        name: [row[0] for row in _merged_rows(obs, TOY_DOMAIN)]
        for name, obs in MERGE_EDGE_CASES.items()
    }
    assert names == {
        "touching": ["block1", "p"],
        "identical": ["it", "block1"],
        "iou-one-half": ["it"],
        "below-one-half": ["it", "block1"],
        "negative-zero": ["object1", "z"],
        "phrase-claims-phrase": ["b", "block1"],
        "double-claim": ["tomato"],
    }


@st.composite
def generated_observations(draw):
    kind = draw(st.sampled_from(DOMAIN_KINDS))
    sigma = draw(st.sampled_from((0.0, 0.2, 0.6)))
    problem = generate(GenConfig(kind=kind, sigma=sigma, seed=draw(st.integers(0, 10**6))))
    return shipped_domain(kind), draw(st.sampled_from((problem.scene, problem.exemplar_obs)))


@settings(max_examples=40, deadline=None)
@given(generated_observations(), st.randoms(use_true_random=False))
def test_merge_ignores_class_detection_order(case, rng):
    domain, obs = case
    shuffled = list(obs.class_detections)
    rng.shuffle(shuffled)
    again = SceneObservation(
        obs.image_width, obs.image_height, tuple(shuffled), obs.phrase_detections
    )
    assert merge_detections(again, domain) == merge_detections(obs, domain)


def _claims_are_one_to_one(obs) -> bool:
    """Whether no two phrases share a best class box at IoU >= the match
    threshold, and no two phrase boxes overlap that much: then no object
    is claimed twice, whatever the phrase order."""
    claimed = set()
    for det in obs.phrase_detections:
        overlaps = [naive_iou(det.box, c.box) for c in obs.class_detections]
        best = max(overlaps, default=0.0)
        if best >= MATCH_THRESHOLD:
            index = overlaps.index(best)
            if index in claimed:
                return False
            claimed.add(index)
    phrases = obs.phrase_detections
    return all(
        naive_iou(a.box, b.box) < MATCH_THRESHOLD
        for i, a in enumerate(phrases)
        for b in phrases[i + 1:]
    )


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((0.0, 0.2, 0.6)),
    st.integers(0, 10**6),
    st.randoms(use_true_random=False),
)
def test_merge_ignores_phrase_order_when_claims_are_one_to_one(sigma, seed, rng):
    # Only cooking scenes have phrases.
    domain = shipped_domain("cooking")
    obs = generate(GenConfig(kind="cooking", sigma=sigma, seed=seed)).scene
    assume(_claims_are_one_to_one(obs))
    shuffled = list(obs.phrase_detections)
    rng.shuffle(shuffled)
    again = SceneObservation(
        obs.image_width, obs.image_height, obs.class_detections, tuple(shuffled)
    )
    assert merge_detections(again, domain) == merge_detections(obs, domain)


@pytest.mark.xfail(strict=True, reason="of two phrases that claim one object, the later names it")
def test_merge_ignores_phrase_order_on_a_double_claim():
    cucumber = _phrase("the cucumber", Box(101, 100, 140, 141), "cucumber", "vegetable")
    tomato = _phrase("the tomato", Box(100, 101, 141, 140), "tomato", "vegetable")
    vegetable = _class("vegetable", 100, 100, 40, 40)
    first, second = (
        merge_detections(_obs([vegetable], phrases, 200, 200), TOY_DOMAIN)
        for phrases in ((cucumber, tomato), (tomato, cucumber))
    )
    assert first == second


# ---------------------------------------------------------------------------
# Detection entries: the message of every rejection
# ---------------------------------------------------------------------------


def _arity_message(*coords) -> str:
    """What the interpreter says when ``Box`` gets the wrong number of
    corners; its wording is the interpreter's, not the loader's."""
    with pytest.raises(TypeError) as err:
        Box(*coords)
    return str(err.value)


DETECTION = {"query": "block", "box": [0, 0, 1.5, 1], "score": 1}


@pytest.mark.parametrize(
    "raw, message",
    [
        ({**DETECTION, "box": [0, 0, 1]}, _arity_message(0.0, 0.0, 1.0)),
        ({**DETECTION, "box": [0, 0, 1, 1, 2]}, _arity_message(0.0, 0.0, 1.0, 1.0, 2.0)),
        ({**DETECTION, "box": [0, "0", 1, 1]}, "a box coordinate must be a number, got '0'"),
        ({**DETECTION, "box": [0, 0, None, 1]}, "a box coordinate must be a number, got None"),
        ({**DETECTION, "box": [0, 0, True, 1]}, "a box coordinate must be a number, got True"),
        ({**DETECTION, "box": 5}, "'int' object is not iterable"),
        ({**DETECTION, "query": 7}, "query must be a string, got 7"),
        ({**DETECTION, "suggested_type": 3}, "suggested_type must be a string or null, got 3"),
        ({**DETECTION, "referent_name": ["x"]},
         "referent_name must be a string or null, got ['x']"),
        # Both names are checked before the query, suggested_type first.
        ({**DETECTION, "query": 4, "suggested_type": 3, "referent_name": 5},
         "suggested_type must be a string or null, got 3"),
        ({**DETECTION, "query": 4, "referent_name": 5},
         "referent_name must be a string or null, got 5"),
        ({"query": "b", "score": 1}, "'box'"),
        ({"box": [0, 0, 1, 1]}, "'query'"),
        ({**DETECTION, "score": "1"}, "score must be a number, got '1'"),
        ({**DETECTION, "box": [0, 0, 10**400, 1]}, "int too large to convert to float"),
    ],
    ids=[
        "three-corners", "five-corners", "string-coordinate", "null-coordinate",
        "bool-coordinate", "number-box", "int-query", "int-type", "list-referent",
        "type-before-referent", "referent-before-query", "no-box", "no-query",
        "string-score", "huge-coordinate",
    ],
)
def test_detection_entry_messages(raw, message):
    with pytest.raises(SceneError) as err:
        _det_from_dict(raw)
    assert str(err.value) == f"bad detection entry {raw!r}: {message}"


@pytest.mark.parametrize(
    "raw, message",
    [
        ({**DETECTION, "score": 1.5}, "score 1.5 outside [0, 1]"),
        ({**DETECTION, "score": -0.1}, "score -0.1 outside [0, 1]"),
        ({**DETECTION, "box": [1, 0, 0, 1]},
         "degenerate box Box(x_min=1.0, y_min=0.0, x_max=0.0, y_max=1.0)"),
    ],
    ids=["score-above-one", "score-below-zero", "degenerate-box"],
)
def test_detection_entry_scene_errors_pass_through(raw, message):
    with pytest.raises(SceneError) as err:
        _det_from_dict(raw)
    assert str(err.value) == message
