"""Seeded synthetic scenes with ground-truth problems for three domains.

Every generator lays out its scenes on a fixed 1280x960 canvas (constants
are canvas fractions) and merges each once (_merged); atoms and goals use
the names merging gives.  Blocksworld and hanoi place boxes from their
true atoms; cooking reads its true atoms off the boxes it placed
(derive_cooking_atoms).  A solvable goal is picked and the optimal plan
length filled from an exhaustive search oracle.

Exemplar policy per domain, driven by what the box features can carry:

* blocksworld: a fixed independent five-block scene (stacks of 3 and 2).
  Its only observed predicate rides on box differences, which are
  translation invariant, so one small labeled scene covers every layout.
* hanoi: a translation of the problem's own scene.  Disk/peg features
  encode which peg column a box sits in, so no small independent scene
  can cover all peg combinations; a congruent sibling transfers exactly,
  and merging gives its boxes the same names, so the scene's atoms label it.
* cooking: a fixed independent scene that places a sliced and an
  unsliced vegetable copy at every slot a vegetable can occupy.  Unary
  features leak absolute position, so the exemplar enumerates the
  (shape, slot) grid once and covers every test configuration.

Detector noise (perturb) jitters each scene box coordinate by a Gaussian
whose scale is sigma times the box's mean side length; ground truth and
the exemplar stay clean.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from collections.abc import Iterable
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from sceneground.bench import DOMAIN_KINDS, domain_text, shipped_domain
from sceneground.goals import format_goal
from sceneground.graph import exemplar_to_json
from sceneground.pddl import serialize_problem
from sceneground.pddl.model import Domain, GroundAtom, GroundLiteral, Problem
from sceneground.planner import GroundTask, SearchConfig, solve, suite
from sceneground.scene import (
    Box,
    Detection,
    Scene,
    SceneObservation,
    merge_detections,
)

CANVAS_W = 1280.0
CANVAS_H = 960.0


class BenchError(ValueError):
    """Unsupported generator parameters or an impossible layout."""


@dataclass(frozen=True)
class GenConfig:
    kind: str
    n: int = 5  # blocksworld block count
    d: int = 4  # hanoi disk count
    g: int = 3  # hanoi peg count
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise BenchError(f"unknown domain kind {self.kind!r}")
        if not 2 <= self.n <= 6:
            raise BenchError("blocksworld needs 2 to 6 blocks")
        if not 1 <= self.d <= 6:
            raise BenchError("hanoi needs 1 to 6 disks")
        if not 2 <= self.g <= 6:
            raise BenchError("hanoi needs 2 to 6 pegs")
        if self.kind == "hanoi" and self.d >= 2 and self.g == 2:
            raise BenchError("two pegs cannot host a transfer of more than one disk")
        if self.kind == "hanoi" and self.g >= 4 and self.d > 4:
            raise BenchError("wide peg layouts keep the exact oracle tractable up to 4 disks")
        if not 0 <= self.sigma < math.inf:
            raise BenchError("sigma must be nonnegative and finite")


@dataclass(frozen=True)
class Meta:
    seed: int
    sigma: float
    optimal_length: int


@dataclass(frozen=True)
class GeneratedProblem:
    kind: str
    scene: SceneObservation
    exemplar_obs: SceneObservation
    exemplar_labels: frozenset[GroundAtom]
    instruction: str
    truth: Problem
    meta: Meta


def _box(x_min: float, y_min: float, x_max: float, y_max: float) -> Box:
    return Box(float(x_min), float(y_min), float(x_max), float(y_max))


def _centered(cx: float, cy: float, w: float, h: float) -> Box:
    return _box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def _merged(
    domain: Domain, detections: Iterable[Detection], phrases: Iterable[Detection] = ()
) -> tuple[SceneObservation, Scene, dict[Box, str]]:
    """The detections on the canvas as an observation, its merged scene,
    and each merged object's box mapped to its name."""
    obs = SceneObservation(int(CANVAS_W), int(CANVAS_H), tuple(detections), tuple(phrases))
    scene = merge_detections(obs, domain)
    return obs, scene, {obj.box: obj.name for obj in scene.objects}


def _optimal_length(domain: Domain, truth: Problem) -> int:
    """The length of an optimal plan for the truth, which must be solvable."""
    result = solve(domain, truth, SearchConfig(mode="optimal"))
    assert result.status == "solved" and result.plan is not None
    return len(result.plan)


# ---------------------------------------------------------------------------
# Blocksworld
# ---------------------------------------------------------------------------

BLOCK_W = 0.10 * CANVAS_W
BLOCK_H = 0.10 * CANVAS_H
BLOCK_VGAP = 0.05 * BLOCK_H  # stacked blocks: gap below 10% of block height
SLOT_PITCH = 0.18 * CANVAS_W  # stacks: horizontal gap is 80% of block width
SLOT_X0 = 0.05 * CANVAS_W
BLOCK_BASE_Y = 0.92 * CANVAS_H
MAX_SLOTS = 5  # more horizontal slots would break the separation rule
MAX_STACK = 6  # a taller tower would leave the canvas


def _block_box(slot: int, level: int) -> Box:
    x_min = SLOT_X0 + slot * SLOT_PITCH
    y_max = BLOCK_BASE_Y - level * (BLOCK_H + BLOCK_VGAP)
    return _box(x_min, y_max - BLOCK_H, x_min + BLOCK_W, y_max)


def _random_stacks(rng: random.Random, names: list[str]) -> list[list[str]]:
    """Random assignment of names to ordered stacks, bottom first."""
    order = list(names)
    rng.shuffle(order)
    stacks: list[list[str]] = []
    for name in order:
        open_stacks = [s for s in stacks if len(s) < MAX_STACK]
        can_open = len(stacks) < MAX_SLOTS
        if open_stacks and (not can_open or rng.random() < 0.55):
            rng.choice(open_stacks).append(name)
        else:
            stacks.append([name])
    return stacks


def _tall_stacks(rng: random.Random, names: list[str]) -> list[list[str]]:
    """One or two stacks only; tall goals need the longest plans."""
    order = list(names)
    rng.shuffle(order)
    if len(order) > MAX_STACK or (len(order) > 1 and rng.random() < 0.5):
        cut = rng.randrange(1, len(order))
        return [order[:cut], order[cut:]]
    return [order]


def _stack_atoms(stacks: list[list[str]]) -> frozenset[GroundAtom]:
    atoms = set()
    for stack in stacks:
        for lower, upper in zip(stack, stack[1:]):
            atoms.add(GroundAtom("on", (upper, lower)))
    return frozenset(atoms)


def _blocks_scene(
    domain: Domain, stacks: list[list[str]]
) -> tuple[SceneObservation, Scene, frozenset[GroundAtom]]:
    """The stacks as an observation, its merged scene, and the stacks'
    ``on`` atoms under the names merging gives the blocks."""
    boxes: dict[str, Box] = {}
    for slot, stack in enumerate(stacks):
        for level, name in enumerate(stack):
            boxes[name] = _block_box(slot, level)
    obs, scene, names = _merged(
        domain, (Detection("block", boxes[n]) for n in sorted(boxes))
    )
    merged = [[names[boxes[n]] for n in stack] for stack in stacks]
    return obs, scene, _stack_atoms(merged)


def _blocks_distance_map(domain: Domain, problem_objects, init):
    """Breadth-first distances from init over the whole reachable space,
    keyed by each base state's atoms (the task's bit sets, decoded)."""
    problem = Problem("distances", domain.name, problem_objects, init, ())
    task = GroundTask(domain, problem)
    dist = {task.init[0]: 0}
    queue = deque([task.init])
    while queue:
        state = queue.popleft()
        for _, base in task.successors(state):
            if base not in dist:
                dist[base] = dist[state[0]] + 1
                queue.append((base, task.closure(base)))
    return {task.decode(base): d for base, d in dist.items()}


def _blocks_exemplar(domain: Domain) -> tuple[SceneObservation, frozenset[GroundAtom]]:
    """The fixed independent exemplar: one 3-stack and one 2-stack."""
    obs, _, atoms = _blocks_scene(domain, [["e1", "e2", "e3"], ["e4", "e5"]])
    return obs, atoms


def gen_blocksworld(n: int, seed: int) -> GeneratedProblem:
    """Random stacks of n blocks; the goal is a different configuration.

    Candidate goal configurations (a mix of arbitrary and one-or-two-stack
    layouts) are scored by exact distance from the initial state; the
    longest one within ten moves wins, which keeps five-block suites in
    the single-digit optimum band.
    """
    GenConfig("blocksworld", n=n)  # checks the bounds
    domain = shipped_domain("blocksworld")
    rng = random.Random(f"blocksworld-{n}-{seed}")

    internal = [f"b{i}" for i in range(1, n + 1)]
    init_stacks = _random_stacks(rng, internal)
    obs, scene, init_atoms = _blocks_scene(domain, init_stacks)
    objects = scene.typed_objects()
    names = sorted(name for name, _ in objects)
    dist = _blocks_distance_map(domain, objects, init_atoms)

    candidates: list[tuple[frozenset[GroundAtom], int]] = []
    seen_configs = set()
    for attempt in range(40):
        sampler = _tall_stacks if attempt % 2 else _random_stacks
        goal_atoms = _stack_atoms(sampler(rng, names))
        if not goal_atoms or goal_atoms == init_atoms or goal_atoms in seen_configs:
            continue
        seen_configs.add(goal_atoms)
        length = min(
            (d for base, d in dist.items() if goal_atoms <= base), default=None
        )
        if length is not None and length > 0:
            candidates.append((goal_atoms, length))
        if len(candidates) >= 16:
            break
    if not candidates:
        raise BenchError("no reachable distinct goal configuration found")
    in_band = [c for c in candidates if c[1] <= 10] or candidates
    goal_atoms, optimal = max(in_band, key=lambda c: c[1])

    ordered = sorted(goal_atoms)
    goal = tuple(GroundLiteral(a, False) for a in ordered)
    truth = Problem(f"blocks-{n}-{seed}", domain.name, objects, init_atoms, goal)
    instruction = "restack the blocks so that " + " and ".join(
        f"{a.args[0]} rests on {a.args[1]}" for a in ordered
    )
    exemplar_obs, exemplar_labels = _blocks_exemplar(domain)
    return GeneratedProblem(
        "blocksworld",
        obs,
        exemplar_obs,
        exemplar_labels,
        instruction,
        truth,
        Meta(seed, 0.0, optimal),
    )


# ---------------------------------------------------------------------------
# Hanoi
# ---------------------------------------------------------------------------

DISK_H = 0.05 * CANVAS_H
DISK_VGAP = 4.0
PEG_PAD_H = 20.0
PEG_TOP_Y = 0.93 * CANVAS_H
EXEMPLAR_SHIFT = 0.015  # same fraction of width and height: congruent sibling


def _peg_center(p: int, g: int) -> float:
    return (p + 1) * CANVAS_W / (g + 1)


def _disk_width(rank: int, d: int, g: int) -> float:
    pitch = CANVAS_W / (g + 1)
    spread = (rank - 1) / max(d - 1, 1)
    return pitch * (0.35 + 0.45 * spread)


def _peg_box(p: int, g: int) -> Box:
    pitch = CANVAS_W / (g + 1)
    return _centered(_peg_center(p, g), PEG_TOP_Y + PEG_PAD_H / 2, 0.3 * pitch, PEG_PAD_H)


def _disk_box(rank: int, level: int, peg: int, d: int, g: int) -> Box:
    y_max = PEG_TOP_Y - level * (DISK_H + DISK_VGAP)
    width = _disk_width(rank, d, g)
    return _box(
        _peg_center(peg, g) - width / 2,
        y_max - DISK_H,
        _peg_center(peg, g) + width / 2,
        y_max,
    )


def gen_hanoi(d: int, g: int, seed: int) -> GeneratedProblem:
    """A full tower on a random peg; the goal rebuilds it on another peg.

    The exemplar is the same scene translated diagonally (proportionally
    in x and y), so every labeled pair feature matches its test twin
    exactly while the boxes differ.
    """
    GenConfig("hanoi", d=d, g=g)  # checks the bounds
    domain = shipped_domain("hanoi")
    rng = random.Random(f"hanoi-{d}-{g}-{seed}")
    start_peg = rng.randrange(g)
    goal_peg = rng.choice([p for p in range(g) if p != start_peg])

    disk_boxes = {}  # rank -> Box; rank 1 is the smallest disk
    for level in range(d):
        rank = d - level
        disk_boxes[rank] = _disk_box(rank, level, start_peg, d, g)
    peg_boxes = {p: _peg_box(p, g) for p in range(g)}

    detections = tuple(
        Detection("disk", disk_boxes[rank]) for rank in sorted(disk_boxes)
    ) + tuple(Detection("peg", peg_boxes[p]) for p in range(g))
    obs, scene, names = _merged(domain, detections)
    disk = {rank: names[box] for rank, box in disk_boxes.items()}
    peg = {p: names[box] for p, box in peg_boxes.items()}

    init = set()
    for small in range(1, d + 1):
        for big in range(small + 1, d + 1):
            init.add(GroundAtom("smaller", (disk[small], disk[big])))
        init.add(GroundAtom("onpeg", (disk[small], peg[start_peg])))
    for upper in range(1, d):
        init.add(GroundAtom("on", (disk[upper], disk[upper + 1])))

    goal = tuple(
        GroundLiteral(GroundAtom("onpeg", (disk[rank], peg[goal_peg])), False)
        for rank in range(1, d + 1)
    )
    truth = Problem(
        f"hanoi-{d}-{g}-{seed}", domain.name, scene.typed_objects(), frozenset(init), goal
    )
    instruction = (
        f"move the whole tower from {peg[start_peg]} to {peg[goal_peg]}"
    )

    dx = EXEMPLAR_SHIFT * CANVAS_W
    dy = EXEMPLAR_SHIFT * CANVAS_H
    # Uniform shifts preserve raster order, so merging the exemplar gives
    # its boxes the scene's names and the init labels it.
    shifted = tuple(Detection(det.query, det.box.shifted(dx, dy)) for det in detections)
    exemplar_obs = replace(obs, class_detections=shifted)
    return GeneratedProblem(
        "hanoi",
        obs,
        exemplar_obs,
        truth.init,
        instruction,
        truth,
        Meta(seed, 0.0, _optimal_length(domain, truth)),
    )


def gen_hanoi_preset(seed: int) -> GeneratedProblem:
    """The evaluation preset: three pegs, four to six disks."""
    rng = random.Random(f"hanoi-preset-{seed}")
    return gen_hanoi(rng.choice((4, 5, 6)), 3, seed)


# ---------------------------------------------------------------------------
# Cooking
# ---------------------------------------------------------------------------

BOARD_BOX = _box(0.30 * CANVAS_W, 0.56 * CANVAS_H, 0.56 * CANVAS_W, 0.76 * CANVAS_H)
WHITE_BOWL_BOX = _box(0.62 * CANVAS_W, 0.58 * CANVAS_H, 0.74 * CANVAS_W, 0.72 * CANVAS_H)
RED_BOWL_BOX = _box(0.78 * CANVAS_W, 0.58 * CANVAS_H, 0.90 * CANVAS_W, 0.72 * CANVAS_H)
G1_BOX = _box(0.14 * CANVAS_W, 0.10 * CANVAS_H, 0.26 * CANVAS_W, 0.26 * CANVAS_H)
G2_BOX = _box(0.52 * CANVAS_W, 0.10 * CANVAS_H, 0.64 * CANVAS_W, 0.26 * CANVAS_H)

VEG_W, VEG_H = 90.0, 70.0  # aspect 0.78: clearly unsliced
SLICED_W, SLICED_H = 120.0, 30.0  # aspect 0.25: clearly sliced
KNIFE_W, KNIFE_H = 110.0, 28.0
SLICED_ASPECT = 0.45  # derive rule: height/width below this means sliced


def _center(box: Box) -> tuple[float, float]:
    return (box.x_min + box.x_max) / 2, (box.y_min + box.y_max) / 2


_VEG_SLOTS = {
    "board_a": (0.36 * CANVAS_W, 0.66 * CANVAS_H),
    "board_b": (0.47 * CANVAS_W, 0.70 * CANVAS_H),
    "white_bowl": _center(WHITE_BOWL_BOX),
    "red_bowl": _center(RED_BOWL_BOX),
    "g1": _center(G1_BOX),
    "g2": _center(G2_BOX),
}
_KNIFE_BOXES = {  # on the board, or held by the first gripper
    "board": _centered(0.40 * CANVAS_W, 0.60 * CANVAS_H, KNIFE_W, KNIFE_H),
    "g1": _centered(*_center(G1_BOX), KNIFE_W, KNIFE_H),
}
_KITCHEN = (  # the fixtures every kitchen scene shows
    Detection("gripper", G1_BOX),
    Detection("gripper", G2_BOX),
    Detection("board", BOARD_BOX),
    Detection("container", WHITE_BOWL_BOX),
    Detection("container", RED_BOWL_BOX),
)


def _veg_box(slot: str, sliced: bool) -> Box:
    cx, cy = _VEG_SLOTS[slot]
    if sliced:
        return _centered(cx, cy, SLICED_W, SLICED_H)
    return _centered(cx, cy, VEG_W, VEG_H)


def _cooking_exemplar(domain: Domain) -> tuple[SceneObservation, frozenset[GroundAtom]]:
    """Fixed coverage scene: both vegetable shapes at every vegetable slot.

    Extra tool copies sit on the board and inside a gripper so carried
    tools have a labeled twin too.  Labels come from derive_cooking_atoms,
    keeping the exemplar and the geometry rules in lockstep.
    """
    detections = [
        *_KITCHEN,
        *(Detection("tool", box) for box in _KNIFE_BOXES.values()),
    ]
    for slot in _VEG_SLOTS:
        detections.append(Detection("vegetable", _veg_box(slot, False)))
        detections.append(Detection("vegetable", _veg_box(slot, True)))
    obs, scene, _ = _merged(domain, detections)
    return obs, derive_cooking_atoms(scene)


def gen_cooking(seed: int) -> GeneratedProblem:
    """The two-gripper kitchen: slice one vegetable, land it in a bowl.

    Eight objects on fixed slots.  The non-target vegetable is always
    sliced (the unary predicate needs one positive in every scene) and at
    least one gripper starts out carrying something.
    """
    domain = shipped_domain("cooking")
    rng = random.Random(f"cooking-{seed}")
    target = rng.choice(("cucumber", "tomato"))
    other = "tomato" if target == "cucumber" else "cucumber"
    bowl = rng.choice(("white_bowl", "red_bowl"))
    other_bowl = "white_bowl" if bowl == "red_bowl" else "red_bowl"
    knife_at, target_at = rng.choice(
        (("board", "g2"), ("g1", "board_a"), ("g1", other_bowl), ("g1", "g2"))
    )
    other_at = "board_b" if target_at == other_bowl else other_bowl

    knife_box = _KNIFE_BOXES[knife_at]
    veg_boxes = {
        target: _veg_box(target_at, False),
        other: _veg_box(other_at, True),
    }

    def phrase(name: str, box: Box, typ: str) -> Detection:
        return Detection(
            f"the {name.replace('_', ' ')}",
            box,
            suggested_type=typ,
            referent_name=name,
        )

    class_detections = (
        *_KITCHEN,
        Detection("tool", knife_box),
        Detection("vegetable", veg_boxes["cucumber"]),
        Detection("vegetable", veg_boxes["tomato"]),
    )
    phrase_detections = (
        phrase("knife", knife_box, "tool"),
        phrase("cucumber", veg_boxes["cucumber"], "vegetable"),
        phrase("tomato", veg_boxes["tomato"], "vegetable"),
        phrase("white_bowl", WHITE_BOWL_BOX, "container"),
        phrase("red_bowl", RED_BOWL_BOX, "container"),
    )
    obs, scene, _ = _merged(domain, class_detections, phrase_detections)
    init = derive_cooking_atoms(scene)

    goal = (
        GroundLiteral(GroundAtom("sliced", (target,)), False),
        GroundLiteral(GroundAtom("in", (target, bowl)), False),
    )
    truth = Problem(
        f"cooking-{seed}", domain.name, scene.typed_objects(), init, goal
    )
    instruction = (
        f"slice the {target} and put it in the {bowl.replace('_', ' ')}"
    )
    exemplar_obs, exemplar_labels = _cooking_exemplar(domain)
    return GeneratedProblem(
        "cooking",
        obs,
        exemplar_obs,
        exemplar_labels,
        instruction,
        truth,
        Meta(seed, 0.0, _optimal_length(domain, truth)),
    )


# ---------------------------------------------------------------------------
# Geometry-to-atoms rules (cooking ground truth)
# ---------------------------------------------------------------------------


def _contains(outer: Box, inner: Box) -> bool:
    return (
        outer.x_min < inner.x_min
        and outer.y_min < inner.y_min
        and inner.x_max < outer.x_max
        and inner.y_max < outer.y_max
    )


def _overlaps(a: Box, b: Box) -> bool:
    return (
        a.x_min < b.x_max
        and b.x_min < a.x_max
        and a.y_min < b.y_max
        and b.y_min < a.y_max
    )


def derive_cooking_atoms(scene: Scene) -> frozenset[GroundAtom]:
    """carry: strict containment by a gripper; at: location overlap;
    sliced: flat aspect ratio."""
    hierarchy = shipped_domain("cooking").hierarchy
    atoms = set()
    grippers = [o for o in scene.objects if o.type == "gripper"]
    carriables = [
        o for o in scene.objects if hierarchy.is_subtype(o.type, "carriable")
    ]
    locations = [
        o for o in scene.objects if hierarchy.is_subtype(o.type, "location")
    ]
    for g in grippers:
        for o in carriables:
            if _contains(g.box, o.box):
                atoms.add(GroundAtom("carry", (g.name, o.name)))
    for o in carriables:
        for loc in locations:
            if _overlaps(o.box, loc.box):
                atoms.add(GroundAtom("at", (o.name, loc.name)))
    for o in carriables:
        if o.type == "vegetable" and o.box.height / o.box.width < SLICED_ASPECT:
            atoms.add(GroundAtom("sliced", (o.name,)))
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# Detector noise
# ---------------------------------------------------------------------------


def _jitter_box(box: Box, sigma: float, rng: random.Random) -> Box:
    scale = sigma * (box.width + box.height) / 2
    x_min = box.x_min + rng.gauss(0.0, scale)
    y_min = box.y_min + rng.gauss(0.0, scale)
    x_max = box.x_max + rng.gauss(0.0, scale)
    y_max = box.y_max + rng.gauss(0.0, scale)
    x_min = min(max(x_min, 0.0), CANVAS_W - 2.0)
    y_min = min(max(y_min, 0.0), CANVAS_H - 2.0)
    x_max = min(max(x_max, x_min + 1.0), CANVAS_W)
    y_max = min(max(y_max, y_min + 1.0), CANVAS_H)
    return _box(x_min, y_min, x_max, y_max)


def perturb(problem: GeneratedProblem, sigma: float, seed: int) -> GeneratedProblem:
    """Jitter the test scene boxes; truth and exemplar stay clean.

    Each coordinate moves by a zero-mean Gaussian scaled by sigma times
    that box's mean side length, then the box is clamped back to a valid
    in-canvas shape.  sigma=0 is the identity.
    """
    if not 0 <= sigma < math.inf:
        raise BenchError("sigma must be nonnegative and finite")
    if sigma == 0:
        return problem
    rng = random.Random(f"perturb-{seed}")
    scene = problem.scene

    def jittered(detections):
        return tuple(
            replace(det, box=_jitter_box(det.box, sigma, rng))
            for det in detections
        )

    noisy = SceneObservation(
        scene.image_width,
        scene.image_height,
        jittered(scene.class_detections),
        jittered(scene.phrase_detections),
    )
    return replace(
        problem, scene=noisy, meta=replace(problem.meta, sigma=sigma)
    )


# ---------------------------------------------------------------------------
# Dispatch and suite writing
# ---------------------------------------------------------------------------


def generate(cfg: GenConfig) -> GeneratedProblem:
    if cfg.kind == "blocksworld":
        problem = gen_blocksworld(cfg.n, cfg.seed)
    elif cfg.kind == "hanoi":
        problem = gen_hanoi(cfg.d, cfg.g, cfg.seed)
    else:
        problem = gen_cooking(cfg.seed)
    return perturb(problem, cfg.sigma, cfg.seed)


def write_suite(cfg: GenConfig, count: int, out_dir) -> Path:
    """Generate `count` problems (seeds cfg.seed, cfg.seed+1, ...) on disk.

    Layout: domain.pddl, manifest.json, problems/NNN/{scene.json,
    exemplar.json, truth.pddl, instruction.txt}.  Returns the manifest
    path.  Reruns with equal arguments produce byte-identical trees.

    The problems are generated in one ``planner.suite`` on the shipped
    domain.  The merged objects of one kind and size are the same in every
    problem, so their solves share one object table and its memos.
    """
    if count < 1:
        raise BenchError("count must be at least 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "domain.pddl").write_text(domain_text(cfg.kind), encoding="utf-8")
    with suite(shipped_domain(cfg.kind)):
        problems = [generate(replace(cfg, seed=cfg.seed + i)) for i in range(count)]
    rows = []
    for index, problem in enumerate(problems):
        folder = out / "problems" / f"{index:03d}"
        folder.mkdir(parents=True, exist_ok=True)
        (folder / "scene.json").write_text(problem.scene.to_json(), encoding="utf-8")
        (folder / "exemplar.json").write_text(
            exemplar_to_json(problem.exemplar_obs, problem.exemplar_labels),
            encoding="utf-8",
        )
        (folder / "truth.pddl").write_text(
            serialize_problem(problem.truth), encoding="utf-8"
        )
        (folder / "instruction.txt").write_text(
            problem.instruction + "\n", encoding="utf-8"
        )
        rel = f"problems/{index:03d}"
        rows.append(
            {
                "scene": f"{rel}/scene.json",
                "exemplar": f"{rel}/exemplar.json",
                "goal_structured": format_goal(problem.truth.goal),
                "ground_truth_problem": f"{rel}/truth.pddl",
                "meta": asdict(problem.meta),
            }
        )
    manifest = out / "manifest.json"
    manifest.write_text(
        json.dumps({"domain_file": "domain.pddl", "problems": rows}, indent=2,
                   sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    return manifest
