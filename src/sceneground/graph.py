"""Domain-conditioned scene graphs from a single labeled exemplar.

The pipeline stage after detection merging: enumerate the type-valid
candidate triplets a domain's observed predicates allow, score each
against the exemplar's labeled candidates by nearest neighbor in
spatial-feature space, and rewrite the surviving edges as init atoms.
The problem around them is assembled by ``metrics.ground``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from sceneground.pddl.model import (
    Domain,
    GroundAtom,
    check_plannable,
)
from sceneground.scene import (
    MATCH_THRESHOLD,
    Box,
    Scene,
    SceneError,
    SceneObject,
    SceneObservation,
    binary_feature,
    merge_detections,
    observation_from_json,
    unary_feature,
)


class ExemplarError(ValueError):
    """The one-shot exemplar cannot teach the classifier.

    Raised when, for some predicate present in the test scene's candidates,
    the exemplar has no candidates at all, or all of them share one label.
    """


@dataclass(frozen=True)
class Exemplar:
    """A labeled sibling scene: its objects plus the atoms that truly hold."""

    scene: Scene
    true_atoms: frozenset[GroundAtom]


@dataclass(frozen=True)
class CandidateTriplet:
    """One type-valid (subject, predicate, object) hypothesis with its feature.

    Unary predicates use subject == object and the 6-dim shape feature;
    binary ones use distinct objects and the 4-dim difference feature.
    """

    subject: SceneObject
    predicate: str
    object: SceneObject
    feature: tuple[float, ...]

    @property
    def args(self) -> tuple[str, ...]:
        if self.subject.name == self.object.name:
            return (self.subject.name,)
        return (self.subject.name, self.object.name)

    def atom(self) -> GroundAtom:
        return GroundAtom(self.predicate, self.args)


@dataclass(frozen=True)
class SceneGraph:
    """Vertices are the scene objects; edges are the true-classified triplets."""

    vertices: tuple[SceneObject, ...]
    edges: frozenset[tuple[str, str, str]]  # (subject, predicate, object) names

    def as_dict(self) -> dict:
        return {
            "vertices": [
                {"name": v.name, "type": v.type, "box": v.box.as_list()}
                for v in self.vertices
            ],
            "edges": [
                {"subject": s, "predicate": p, "object": o}
                for s, p, o in sorted(self.edges)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def enumerate_candidates(
    scene: Scene, domain: Domain
) -> dict[str, tuple[CandidateTriplet, ...]]:
    """All type-valid candidates per observed predicate, in scene order.

    Binary predicates get every ordered pair of distinct, subtype-compatible
    objects; unary ones get every compatible object paired with itself.
    """
    out: dict[str, tuple[CandidateTriplet, ...]] = {}
    hierarchy = domain.hierarchy
    for sig in domain.observed:
        cands: list[CandidateTriplet] = []
        if sig.arity == 1:
            want = sig.params[0][1]
            for obj in scene.objects:
                if hierarchy.is_subtype(obj.type, want):
                    feature = unary_feature(obj.box, scene.width, scene.height)
                    cands.append(CandidateTriplet(obj, sig.name, obj, feature))
        else:
            want_s, want_o = sig.params[0][1], sig.params[1][1]
            for subj in scene.objects:
                if not hierarchy.is_subtype(subj.type, want_s):
                    continue
                for obj in scene.objects:
                    if obj.name == subj.name:
                        continue
                    if not hierarchy.is_subtype(obj.type, want_o):
                        continue
                    feature = binary_feature(
                        subj.box, obj.box, scene.width, scene.height
                    )
                    cands.append(CandidateTriplet(subj, sig.name, obj, feature))
        out[sig.name] = tuple(cands)
    return out


def _distance2(a: tuple[float, ...], b: tuple[float, ...]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _validate_exemplar(exemplar: Exemplar, domain: Domain) -> None:
    observed = {sig.name for sig in domain.observed}
    for atom in exemplar.true_atoms:
        if atom.predicate not in observed:
            raise ExemplarError(
                f"exemplar labels non-observed predicate {atom.predicate!r}"
            )
    violations = check_plannable(
        exemplar.true_atoms, domain, exemplar.scene.typed_objects()
    )
    if violations:
        first = violations[0]
        raise ExemplarError(f"malformed exemplar atom {first.atom}: {first.message}")


def classify(
    test: tuple[CandidateTriplet, ...] | list[CandidateTriplet],
    labeled: tuple[CandidateTriplet, ...],
    true_atoms: frozenset[GroundAtom],
) -> tuple[CandidateTriplet, ...]:
    """Label each test candidate by its nearest exemplar candidate.

    ``labeled`` holds the exemplar's candidates of the same predicate; those
    in ``true_atoms`` are positive.  Distances are Euclidean in feature
    space.  A tie at exactly equal distance between a positive and a
    negative exemplar candidate resolves to false.  Returns the true-labeled
    candidates in their input order.
    """
    if not test:
        return ()
    positives = [c.feature for c in labeled if c.atom() in true_atoms]
    negatives = [c.feature for c in labeled if c.atom() not in true_atoms]
    if not positives or not negatives:
        raise ExemplarError(
            f"exemplar is uninformative for {test[0].predicate!r}: "
            f"{len(positives)} positive / {len(negatives)} negative candidates"
        )
    kept = []
    for cand in test:
        d_pos = min(_distance2(cand.feature, f) for f in positives)
        d_neg = min(_distance2(cand.feature, f) for f in negatives)
        if d_pos < d_neg:
            kept.append(cand)
    return tuple(kept)


def build_graph(
    objects: tuple[SceneObject, ...],
    classified: list[CandidateTriplet] | tuple[CandidateTriplet, ...],
) -> SceneGraph:
    """Collect true-classified candidates into a graph over the objects."""
    edges = frozenset(
        (c.subject.name, c.predicate, c.object.name) for c in classified
    )
    return SceneGraph(tuple(objects), edges)


def graph_to_init(graph: SceneGraph) -> frozenset[GroundAtom]:
    """Rewrite edges as ground atoms; self-edges become unary atoms."""
    atoms = set()
    for subject, predicate, obj in graph.edges:
        if subject == obj:
            atoms.add(GroundAtom(predicate, (subject,)))
        else:
            atoms.add(GroundAtom(predicate, (subject, obj)))
    return frozenset(atoms)


def classify_scene(scene: Scene, domain: Domain, exemplar: Exemplar) -> SceneGraph:
    """Enumerate the scene's and the exemplar's candidates once each, then
    classify each predicate's candidates."""
    _validate_exemplar(exemplar, domain)
    labeled = enumerate_candidates(exemplar.scene, domain)
    kept: list[CandidateTriplet] = []
    for predicate, cands in enumerate_candidates(scene, domain).items():
        if not cands:
            continue
        kept.extend(classify(cands, labeled[predicate], exemplar.true_atoms))
    return build_graph(scene.objects, kept)


def exemplar_to_json(exemplar_obs: SceneObservation, true_atoms) -> str:
    """Exemplar file: the scene observation JSON plus its true atoms."""
    doc = exemplar_obs.as_dict()
    doc["true_atoms"] = sorted([a.predicate, *a.args] for a in true_atoms)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def exemplar_from_json(
    text: str | bytes | dict, domain: Domain, threshold: float = MATCH_THRESHOLD
) -> Exemplar:
    """Load an exemplar file; names come from merging its observation."""
    if not isinstance(text, dict):
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SceneError(f"bad exemplar JSON: {exc}") from None
    else:
        raw = text
    if not isinstance(raw, dict) or "true_atoms" not in raw:
        raise SceneError("exemplar JSON must be an object with true_atoms")
    rows = raw["true_atoms"]
    obs = observation_from_json({k: v for k, v in raw.items() if k != "true_atoms"})
    scene = merge_detections(obs, domain, threshold)
    atoms = set()
    try:
        for row in rows:
            predicate, *args = (str(part) for part in row)
            atoms.add(GroundAtom(predicate, tuple(args)))
    except (TypeError, ValueError) as exc:
        raise SceneError(f"bad true_atoms entry: {exc}") from None
    return Exemplar(scene, frozenset(atoms))
