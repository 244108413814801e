"""Layout rules that re-derive a generated scene's true atoms from its boxes.

The generators place boxes from the symbolic state; these rules go the
other way, from named boxes back to atoms, so a test can check that the
geometry carries the truth.  Cooking's rules stay in the generator
(``derive_cooking_atoms``), because its truth is built from them.
"""

from __future__ import annotations

from sceneground.bench import BenchError
from sceneground.bench.generate import (
    BLOCK_H,
    BLOCK_W,
    DISK_H,
    _center,
    derive_cooking_atoms,
)
from sceneground.pddl.model import GroundAtom
from sceneground.scene import Scene

# Guaranteed feature-space gap between true and false candidates in any
# noiseless generated scene (measured minima are 0.148 / 0.078 / 0.067).
SEPARATION_MARGIN = {
    "blocksworld": 0.10,
    "hanoi": 0.05,
    "cooking": 0.05,
}


def derive_blocks_atoms(scene: Scene) -> frozenset[GroundAtom]:
    """on(a, b): a sits directly on b (aligned, small downward gap)."""
    atoms = set()
    blocks = [o for o in scene.objects if o.type == "block"]
    for a in blocks:
        for b in blocks:
            if a.name == b.name:
                continue
            aligned = abs(_center(a.box)[0] - _center(b.box)[0]) < 0.5 * BLOCK_W
            gap = b.box.y_min - a.box.y_max
            if aligned and 0 <= gap < 0.1 * BLOCK_H:
                atoms.add(GroundAtom("on", (a.name, b.name)))
    return frozenset(atoms)


def derive_hanoi_atoms(scene: Scene) -> frozenset[GroundAtom]:
    """smaller from widths, onpeg from pad alignment, on from adjacency."""
    disks = [o for o in scene.objects if o.type == "disk"]
    pegs = [o for o in scene.objects if o.type == "peg"]
    atoms = set()
    for a in disks:
        for b in disks:
            if a.name != b.name and a.box.width < b.box.width:
                atoms.add(GroundAtom("smaller", (a.name, b.name)))
    column = {}
    for d in disks:
        cx = _center(d.box)[0]
        for p in pegs:
            if p.box.x_min <= cx <= p.box.x_max:
                atoms.add(GroundAtom("onpeg", (d.name, p.name)))
                column[d.name] = p.name
    for a in disks:
        for b in disks:
            if a.name == b.name or column.get(a.name) != column.get(b.name):
                continue
            gap = b.box.y_min - a.box.y_max
            if 0 <= gap < 0.25 * DISK_H:
                atoms.add(GroundAtom("on", (a.name, b.name)))
    return frozenset(atoms)


def derive_atoms(kind: str, scene: Scene) -> frozenset[GroundAtom]:
    """Re-derive the true atoms from named boxes with the layout rules."""
    if kind == "blocksworld":
        return derive_blocks_atoms(scene)
    if kind == "hanoi":
        return derive_hanoi_atoms(scene)
    if kind == "cooking":
        return derive_cooking_atoms(scene)
    raise BenchError(f"unknown domain kind {kind!r}")
