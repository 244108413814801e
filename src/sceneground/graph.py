"""Domain-conditioned scene graphs from a single labeled exemplar.

The pipeline stage after detection merging: enumerate the type-valid
candidate triplets a domain's observed predicates allow, score each
against the exemplar's labeled candidates by nearest neighbor in
spatial-feature space, and keep the true-classified ones as ground atoms:
the scene graph's edges and the problem's init.  The problem around them
is assembled by ``metrics.ground``.  Both spatial features, normalized by
the canvas size, are computed here (``enumerate_candidates``), as two
parallel columns per predicate, atom arguments and features: ``classify``
returns the kept indices, and only those become ``GroundAtom`` values.

An exemplar has two forms: an observation plus the atoms that hold in it,
as its file (``exemplar_to_json``) and the generator keep it, and the
``ExemplarModel`` that ``compile_exemplar`` builds once from the merged
observation and those labels: the label fault, if any, and each
predicate's positive and negative features, each side sorted.
``exemplar_from_json`` turns a file into a model, ``metrics.ground`` keeps
one per distinct exemplar file for a suite, and ``classify_scene`` reads
only the model.  The sorted sides let ``classify`` search each side
outward from a test feature's first coordinate and stop early, with the
same answer as a full scan.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

from sceneground.pddl.model import Domain, GroundAtom, atom_faults
from sceneground.scene import (
    MATCH_THRESHOLD,
    Box,
    Scene,
    SceneError,
    SceneObject,
    SceneObservation,
    box_json,
    json_items,
    json_string,
    merge_detections,
    observation_from_json,
)


class ExemplarError(ValueError):
    """The one-shot exemplar cannot teach the classifier.

    Raised when its labels do not fit the domain, or when, for some
    predicate present in the test scene's candidates, the exemplar has no
    candidates at all, or all of them share one label.
    """


Features = tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ExemplarModel:
    """An exemplar compiled for the 1-NN pass: all ``classify_scene`` reads.

    ``fault`` is why the labels cannot teach this domain (``classify_scene``
    raises it), else None.  ``labeled`` maps each observed predicate to the
    features of its positive and of its negative exemplar candidates, each
    side sorted (by first coordinate, as tuples sort); it is empty when
    there is a fault.
    """

    fault: str | None
    labeled: dict[str, tuple[Features, Features]]


@dataclass(frozen=True)
class SceneGraph:
    """Vertices are the scene objects; edges are the true-classified atoms.

    A unary atom is an edge from its argument to itself.
    """

    vertices: tuple[SceneObject, ...]
    atoms: frozenset[GroundAtom]

    def to_json(self) -> str:
        """The scene-graph file: each edge's subject, predicate and object,
        sorted, and each vertex's name, type and box."""
        edges = [
            _EDGE_JSON % (json_string(o), json_string(p), json_string(s))
            for s, p, o in sorted((a.args[0], a.predicate, a.args[-1]) for a in self.atoms)
        ]
        vertices = [
            _VERTEX_JSON % (box_json(v.box), json_string(v.name), json_string(v.type))
            for v in self.vertices
        ]
        return (
            f'{{\n  "edges": {json_items(edges)},\n  "vertices": {json_items(vertices)}\n}}\n'
        )


_EDGE_JSON = '    {\n      "object": %s,\n      "predicate": %s,\n      "subject": %s\n    }'
_VERTEX_JSON = '    {\n%s,\n      "name": %s,\n      "type": %s\n    }'


def unary_feature(box: Box, width: float, height: float) -> tuple[float, ...]:
    """Ordered pairwise differences of the normalized box coordinates.

    With c = (x_min/w, y_min/h, x_max/w, y_max/h) the feature is
    (c2-c1, c3-c1, c4-c1, c3-c2, c4-c2, c4-c3), which captures the box's
    shape and the mixed-axis offsets but not its position along the
    proportional diagonal.
    """
    c = (box.x_min / width, box.y_min / height, box.x_max / width, box.y_max / height)
    return (
        c[1] - c[0],
        c[2] - c[0],
        c[3] - c[0],
        c[2] - c[1],
        c[3] - c[1],
        c[3] - c[2],
    )


def enumerate_candidates(
    scene: Scene, domain: Domain
) -> dict[str, tuple[tuple[tuple[str, ...], ...], Features]]:
    """All type-valid candidates per observed predicate, in scene order, as
    two parallel columns: each candidate's atom arguments and its feature.

    Binary predicates get every ordered pair of distinct, subtype-compatible
    objects; unary ones get every compatible object, alone.  A binary
    feature is the subject's box corners less the object's, x by the
    canvas width and y by its height (``unary_feature`` for unary ones).
    """
    out = {}
    objects, width, height = scene.objects, scene.width, scene.height
    fits = domain.hierarchy.fitting(obj.type for obj in objects)
    rows = [(o.name, o.box.x_min, o.box.y_min, o.box.x_max, o.box.y_max) for o in objects]
    for sig in domain.observed:
        if sig.arity == 1:
            pool = [objects[i] for i in fits.get(sig.params[0][1], ())]
            out[sig.name] = (
                tuple([(obj.name,) for obj in pool]),
                tuple([unary_feature(obj.box, width, height) for obj in pool]),
            )
            continue
        subjects, others = [[rows[i] for i in fits.get(want, ())] for _, want in sig.params]
        args, features = [], []
        for subj_name, x0, y0, x1, y1 in subjects:
            for obj_name, bx0, by0, bx1, by1 in others:
                if obj_name != subj_name:
                    args.append((subj_name, obj_name))
                    features.append(
                        (
                            (x0 - bx0) / width,
                            (y0 - by0) / height,
                            (x1 - bx1) / width,
                            (y1 - by1) / height,
                        )
                    )
        out[sig.name] = (tuple(args), tuple(features))
    return out


def _distance2_binary(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        (d0 := a0 - b0) * d0
        + (d1 := a1 - b1) * d1
        + (d2 := a2 - b2) * d2
        + (d3 := a3 - b3) * d3
    )


def _distance2_unary(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    return (
        (d0 := a0 - b0) * d0
        + (d1 := a1 - b1) * d1
        + (d2 := a2 - b2) * d2
        + (d3 := a3 - b3) * d3
        + (d4 := a4 - b4) * d4
        + (d5 := a5 - b5) * d5
    )


# Squared Euclidean distance by feature length: the left-to-right float sum
# of d_i * d_i (d_i = a_i - b_i).  A product, unlike the C library's pow
# behind ``** 2``, is correctly rounded, so every platform sums the same.
_DISTANCE2 = {4: _distance2_binary, 6: _distance2_unary}


def _exemplar_fault(scene: Scene, labels: frozenset[GroundAtom], domain: Domain) -> str | None:
    observed = {sig.name for sig in domain.observed}
    # Sorted, so the fault names the same atom under every hash seed.
    atoms = sorted(labels)
    for atom in atoms:
        if atom.predicate not in observed:
            return f"exemplar labels non-observed predicate {atom.predicate!r}"
    types = dict(scene.typed_objects())
    for atom in atoms:
        for _, message in atom_faults(atom, domain, types):
            return f"malformed exemplar atom {atom}: {message}"
    return None


def compile_exemplar(scene: Scene, labels: frozenset[GroundAtom], domain: Domain) -> ExemplarModel:
    """Validate the labels of the merged exemplar scene and split each
    predicate's exemplar candidates into positive and negative features,
    each side sorted.  A fault is kept, not raised, so that it surfaces
    where the exemplar is used, after the test scene has merged.

    A label that is some candidate's atom names an observed predicate, has
    its arity, and names scene objects of fitting types, so it has no
    fault.  The labels are checked one by one only when some label is no
    candidate's atom."""
    labeled = {}
    matched = 0
    for predicate, (args, features) in enumerate_candidates(scene, domain).items():
        positives, negatives = [], []
        for arg, feature in zip(args, features):
            # A ground atom is a tuple, so the plain key finds it.
            if (predicate, arg) in labels:
                matched += 1
                positives.append(feature)
            else:
                negatives.append(feature)
        positives.sort()
        negatives.sort()
        labeled[predicate] = (tuple(positives), tuple(negatives))
    if matched != len(labels):
        fault = _exemplar_fault(scene, labels, domain)
        if fault is not None:
            return ExemplarModel(fault, {})
    return ExemplarModel(None, labeled)


def classify(
    features: Features, positives: Features, negatives: Features, predicate: str
) -> tuple[int, ...]:
    """Label each test feature of ``predicate`` by its nearest exemplar one.

    ``positives`` and ``negatives`` are the features of the exemplar's
    candidates of the same predicate, each sorted, as ``compile_exemplar``
    leaves them.  The squared distance is the left-to-right float sum of
    ``d_i * d_i`` for ``d_i = a_i - b_i``.  A test feature is kept when
    its nearest positive is strictly nearer than every negative, so an
    exact tie resolves to false.

    Each side is searched outward from the test feature's place among the
    sorted first coordinates, and a direction stops once the squared gap
    ``g * g`` of first coordinates exceeds the distance that matters: the
    nearest positive so far, or on the negatives the nearest positive.
    The search is exact: ``g * g`` is the first term of the distance's
    sum, adding non-negative terms never lowers a float sum, and the stop
    test is strict (projection pruning, Friedman, Baskett & Shustek 1975).
    Returns the indices of the true-labeled test features, ascending.
    """
    if not features:
        return ()
    if not positives or not negatives:
        raise ExemplarError(
            f"exemplar is uninformative for {predicate!r}: "
            f"{len(positives)} positive / {len(negatives)} negative candidates"
        )
    distance2 = _DISTANCE2[len(positives[0])]
    pos_keys = [f[0] for f in positives]
    neg_keys = [f[0] for f in negatives]
    n_pos, n_neg = len(positives), len(negatives)
    kept = []
    for index, x in enumerate(features):
        x0 = x[0]
        # The nearest positive, up then down from x0's place.
        d_pos = math.inf
        start = j = bisect_left(pos_keys, x0)
        while j < n_pos:
            g = x0 - pos_keys[j]
            if g * g > d_pos:
                break
            d = distance2(x, positives[j])
            if d < d_pos:
                d_pos = d
            j += 1
        j = start - 1
        while j >= 0:
            g = x0 - pos_keys[j]
            if g * g > d_pos:
                break
            d = distance2(x, positives[j])
            if d < d_pos:
                d_pos = d
            j -= 1
        # Any negative at least as near, up then down.
        near = False
        start = j = bisect_left(neg_keys, x0)
        while not near and j < n_neg:
            g = x0 - neg_keys[j]
            if g * g > d_pos:
                break
            near = distance2(x, negatives[j]) <= d_pos
            j += 1
        j = start - 1
        while not near and j >= 0:
            g = x0 - neg_keys[j]
            if g * g > d_pos:
                break
            near = distance2(x, negatives[j]) <= d_pos
            j -= 1
        if not near:
            kept.append(index)
    return tuple(kept)


def graph_to_init(graph: SceneGraph) -> frozenset[GroundAtom]:
    """The init atoms a scene graph stands for: its edges."""
    return graph.atoms


def classify_scene(scene: Scene, domain: Domain, exemplar: ExemplarModel) -> SceneGraph:
    """Enumerate the scene's candidates once, then classify each
    predicate's candidates against the compiled exemplar."""
    if exemplar.fault is not None:
        raise ExemplarError(exemplar.fault)
    atoms = set()
    for predicate, (args, features) in enumerate_candidates(scene, domain).items():
        if features:
            for index in classify(features, *exemplar.labeled[predicate], predicate):
                atoms.add(GroundAtom(predicate, args[index]))
    return SceneGraph(scene.objects, frozenset(atoms))


def exemplar_to_json(exemplar_obs: SceneObservation, true_atoms) -> str:
    """Exemplar file: the scene observation JSON plus its true atoms.
    ``true_atoms`` sorts after every observation key, so the text is the
    observation's less its closing ``\\n}\\n``, then the atoms."""
    rows = sorted([a.predicate, *a.args] for a in true_atoms)
    atoms = ["    [\n      " + ",\n      ".join(map(json_string, r)) + "\n    ]" for r in rows]
    return f'{exemplar_obs.to_json()[:-3]},\n  "true_atoms": {json_items(atoms)}\n}}\n'


def exemplar_from_json(
    text: str | bytes, domain: Domain, threshold: float = MATCH_THRESHOLD
) -> ExemplarModel:
    """Load and compile an exemplar file; names come from merging its
    observation.  A file that cannot be read as an exemplar raises
    ``SceneError``; labels that do not fit the domain are kept as the
    model's fault."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, big int, deep nesting
        raise SceneError(f"bad exemplar JSON: {exc}") from None
    if not isinstance(raw, dict) or "true_atoms" not in raw:
        raise SceneError("exemplar JSON must be an object with true_atoms")
    rows = raw["true_atoms"]
    obs = observation_from_json(raw)
    scene = merge_detections(obs, domain, threshold)
    if not isinstance(rows, list):
        raise SceneError(f"bad true_atoms: expected a list, not {type(rows).__name__}")
    atoms = set()
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise SceneError(f"bad true_atoms entry {i}: expected a non-empty list")
        if not all(isinstance(part, str) for part in row):
            raise SceneError(f"bad true_atoms entry {i}: parts must be strings")
        atoms.add(GroundAtom(row[0], tuple(row[1:])))
    return compile_exemplar(scene, frozenset(atoms), domain)
