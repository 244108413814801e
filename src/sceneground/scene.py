"""Scene observations: boxes, detection merging, naming.

A scene observation is what a detector hands us: class-query boxes (one per
hypothesized object, labeled with a domain type) and phrase-query boxes
("the cucumber") that can pin a name onto one of them.  Merging fuses both
streams into uniquely named, typed scene objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as json_string

from sceneground.pddl.model import ROOT_TYPE, Domain, valid_name

MATCH_THRESHOLD = 0.5


class SceneError(ValueError):
    """Raised for malformed boxes, names, or detection streams."""


# The scene, exemplar and scene-graph files have fixed shapes, so they are
# written straight from templates: the same bytes as ``json.dumps(doc,
# indent=2, sort_keys=True) + "\n"`` of their dicts, whose indenting
# encoder runs in pure Python.  Strings go through ``json_string``, json's
# own ASCII escaper.  Each list sits at the second level of its document,
# its items indented by four.


def json_number(x: float) -> str:
    """``x`` as ``json.dumps`` spells it."""
    if not isinstance(x, float):
        return int.__repr__(x)
    if x in (math.inf, -math.inf):  # a Box, canvas or score is never NaN
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def json_items(items: list[str]) -> str:
    """A second-level list of ``items``, each already written and indented."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


_INF, _repr = math.inf, float.__repr__
_BOX_JSON = '      "box": [\n        %s,\n        %s,\n        %s,\n        %s\n      ]'


def box_json(box: "Box") -> str:
    """The ``"box"`` entry of a third-level object."""
    x0, y0, x1, y1 = corners = (box.x_min, box.y_min, box.x_max, box.y_max)
    # Finite float corners are written as json_number writes them, without
    # its checks; x_min < x_max and y_min < y_max, so these bounds make all
    # four finite.  A box with an int or infinite corner goes through it.
    finite = -_INF < x0 and -_INF < y0 and x1 < _INF and y1 < _INF
    if finite and type(x0) is type(y0) is type(x1) is type(y1) is float:
        return _BOX_JSON % (_repr(x0), _repr(y0), _repr(x1), _repr(y1))
    return _BOX_JSON % tuple(map(json_number, corners))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in pixel coordinates, corners (x_min, y_min), (x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise SceneError(f"degenerate box {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def shifted(self, dx: float, dy: float) -> "Box":
        return Box(self.x_min + dx, self.y_min + dy, self.x_max + dx, self.y_max + dy)


@dataclass(frozen=True)
class Detection:
    """One detector hit.

    For class queries, ``query`` is the type name being searched and
    ``suggested_type`` repeats it.  For phrase queries, ``query`` is the
    phrase, ``referent_name`` is the object name the phrase introduces, and
    ``suggested_type`` types the object if no class box matches.
    """

    query: str
    box: Box
    score: float = 1.0
    suggested_type: str | None = None
    referent_name: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise SceneError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class SceneObservation:
    """Raw detector output for one image: canvas size plus both query streams."""

    image_width: float
    image_height: float
    class_detections: tuple[Detection, ...] = ()
    phrase_detections: tuple[Detection, ...] = ()

    def __post_init__(self):
        if not (0 < self.image_width < math.inf and 0 < self.image_height < math.inf):
            raise SceneError(f"bad canvas {self.image_width}x{self.image_height}")
        for det in (*self.class_detections, *self.phrase_detections):
            b = det.box
            if b.x_min < 0 or b.y_min < 0 or b.x_max > self.image_width or b.y_max > self.image_height:
                raise SceneError(f"box {b} outside {self.image_width}x{self.image_height} canvas")

    def to_json(self) -> str:
        """The scene file: the canvas size and both detection lists, each
        detection with its box, query and score and its suggested type and
        referent name unless None."""
        classes = json_items([_det_json(d) for d in self.class_detections])
        phrases = json_items([_det_json(d) for d in self.phrase_detections])
        return (
            f'{{\n  "class_detections": {classes},'
            f'\n  "image_height": {json_number(self.image_height)},'
            f'\n  "image_width": {json_number(self.image_width)},'
            f'\n  "phrase_detections": {phrases}\n}}\n'
        )


def _det_json(det: Detection) -> str:
    text = "    {\n" + box_json(det.box) + ',\n      "query": ' + json_string(det.query)
    if det.referent_name is not None:
        text += ',\n      "referent_name": ' + json_string(det.referent_name)
    text += ',\n      "score": ' + json_number(det.score)
    if det.suggested_type is not None:
        text += ',\n      "suggested_type": ' + json_string(det.suggested_type)
    return text + "\n    }"


def _number(value, what: str) -> float:
    """A JSON number as a float; a string or a boolean is not one."""
    if type(value) is float:
        return value
    if type(value) is not int:  # a bool's type is bool, not int
        raise TypeError(f"{what} must be a number, got {value!r}")
    return float(value)


def _det_from_dict(raw: dict) -> Detection:
    try:
        box = Box(
            *[v if type(v) is float else _number(v, "a box coordinate") for v in raw["box"]]
        )
        suggested_type = raw.get("suggested_type")
        referent_name = raw.get("referent_name")
        if suggested_type is not None and not isinstance(suggested_type, str):
            raise TypeError(f"suggested_type must be a string or null, got {suggested_type!r}")
        if referent_name is not None and not isinstance(referent_name, str):
            raise TypeError(f"referent_name must be a string or null, got {referent_name!r}")
        query = raw["query"]
        if not isinstance(query, str):
            raise TypeError(f"query must be a string, got {query!r}")
        score = _number(raw.get("score", 1.0), "score")
        return Detection(query, box, score, suggested_type, referent_name)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SceneError):
            raise
        raise SceneError(f"bad detection entry {raw!r}: {exc}") from None


def observation_from_json(text: str | bytes | dict) -> SceneObservation:
    if not isinstance(text, dict):
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, big int, deep nesting
            raise SceneError(f"bad scene JSON: {exc}") from None
    else:
        raw = text
    if not isinstance(raw, dict):
        raise SceneError("scene JSON must be an object")
    try:
        return SceneObservation(
            image_width=_number(raw["image_width"], "image_width"),
            image_height=_number(raw["image_height"], "image_height"),
            class_detections=tuple(map(_det_from_dict, raw.get("class_detections", []))),
            phrase_detections=tuple(map(_det_from_dict, raw.get("phrase_detections", []))),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, SceneError):
            raise
        raise SceneError(f"bad scene JSON: {exc}") from None


@dataclass(frozen=True)
class SceneObject:
    name: str
    type: str
    box: Box


@dataclass(frozen=True)
class Scene:
    """Named, typed objects on a canvas, in raster order (top-left first)."""

    width: float
    height: float
    objects: tuple[SceneObject, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise SceneError(f"bad canvas {self.width}x{self.height}")
        seen = set()
        for obj in self.objects:
            if obj.name in seen:
                raise SceneError(f"duplicate object name {obj.name!r}")
            seen.add(obj.name)

    def typed_objects(self) -> tuple[tuple[str, str], ...]:
        return tuple((obj.name, obj.type) for obj in self.objects)


def _raster_key(box: Box) -> tuple[float, float, float, float]:
    return (box.y_min, box.x_min, box.y_max, box.x_max)


def assign_names(entries) -> tuple[SceneObject, ...]:
    """Name (type, box, forced_name or None) entries in raster order.

    Entries are sorted by (y_min, x_min); unnamed ones become
    ``<type><index>`` with per-type 1-based indices.  Forced (phrase-derived)
    names win and do not consume an index.  The result is independent of the
    input order.  Names are not checked for clashes here: ``Scene`` refuses
    a duplicate.
    """
    rows = sorted(entries, key=lambda r: _raster_key(r[1]))
    counters: dict[str, int] = {}
    objects = []
    for typ, box, forced in rows:
        if forced is None:
            counters[typ] = counters.get(typ, 0) + 1
            name = f"{typ}{counters[typ]}"
        else:
            name = forced
        objects.append(SceneObject(name, typ, box))
    return tuple(objects)


def merge_detections(
    obs: SceneObservation,
    domain: Domain,
    threshold: float = MATCH_THRESHOLD,
) -> Scene:
    """Fuse class and phrase detections into one named scene.

    Phrase by phrase, each claims the object so far it overlaps most by
    IoU, provided the IoU is positive and reaches ``threshold``.  The
    objects so far are the class detections in raster order, then earlier
    phrases' new objects; of equal IoUs the first wins.  The claimed
    object is renamed to the phrase's referent, so of two phrases that
    claim one object the later names it.  A phrase that matches nothing
    becomes a new object of its suggested type (the root type when none
    is given).
    """
    if not obs.class_detections and not obs.phrase_detections:
        raise SceneError("empty scene: no detections at all")
    # Each entry is [type, box, name or None]; corners[i] holds entry i's
    # box corners and area, read once for every phrase's IoU.
    entries: list[list] = []
    corners: list[tuple[float, ...]] = []
    for det in sorted(obs.class_detections, key=lambda d: _raster_key(d.box)):
        typ = det.suggested_type or det.query
        if not domain.hierarchy.contains(typ):
            raise SceneError(f"class detection type {typ!r} not in domain")
        entries.append([typ, det.box, None])
        corners.append(_corners(det.box))
    for det in obs.phrase_detections:
        name = det.referent_name
        if name is not None and not valid_name(name):
            raise SceneError(f"bad referent name {name!r} for phrase {det.query!r}")
        phrase = _corners(det.box)
        ax0, ay0, ax1, ay1, a_area = phrase
        best = None
        best_iou = 0.0
        for entry, (bx0, by0, bx1, by1, b_area) in zip(entries, corners):
            # The phrase's IoU with the entry's box, min and max inlined:
            # min(a, b) is b only if b < a, max(a, b) is b only if b > a.
            ix = (bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)
            if ix <= 0:
                continue
            iy = (by1 if by1 < ay1 else ay1) - (by0 if by0 > ay0 else ay0)
            if iy <= 0:
                continue
            inter = ix * iy
            overlap = inter / (a_area + b_area - inter)
            if overlap > best_iou:
                best = entry
                best_iou = overlap
        if best is not None and best_iou >= threshold:
            if name is not None:
                best[2] = name
        else:
            typ = det.suggested_type or ROOT_TYPE
            if typ != ROOT_TYPE and not domain.hierarchy.contains(typ):
                raise SceneError(f"suggested type {typ!r} not in domain")
            entries.append([typ, det.box, name])
            corners.append(phrase)
    return Scene(obs.image_width, obs.image_height, assign_names(entries))


def _corners(box: Box) -> tuple[float, float, float, float, float]:
    """A box's corners and its area, ``(x_max - x_min) * (y_max - y_min)``."""
    x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max, box.y_max
    return x0, y0, x1, y1, (x1 - x0) * (y1 - y0)

