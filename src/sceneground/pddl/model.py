"""Model types for the typed STRIPS subset.

Everything here is an immutable value object.  Construction-time validation
is limited to local shape checks, plus the two that the tables built at
construction need: a ``TypeHierarchy`` has no type cycle, and a ``Domain``'s
rules are stratified.  Other cross-object invariants (types exist, variables
declared) are enforced by the parser.  The one exception is ``atom_faults``,
the check that a ground atom is a typed instance of a declared predicate:
problem atoms, exemplar labels and resolved goals all pass through it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

ROOT_TYPE = "object"
# Equality is a builtin usable in preconditions only; it is not part of the
# domain's predicate set and never appears in states.
EQUALITY = "="

_NAME_RE = re.compile(r"[a-z0-9_-]+")


def valid_name(name: str) -> bool:
    """True if ``name`` is a legal lowercase identifier: letters, digits,
    ``_`` and ``-`` in any order, except a lone ``-``, which a typed list
    reads as its type separator."""
    return name != "-" and bool(_NAME_RE.fullmatch(name))


class ModelError(ValueError):
    """Raised when a model object violates a structural invariant."""


# ---------------------------------------------------------------------------
# Types and predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeHierarchy:
    """Type names with single inheritance rooted at ``object``.

    ``parents`` maps each non-root type to its parent.  The root is implicit
    and always present.  Each type's ancestors, itself included, are tabled
    once at construction, so ``contains`` and ``is_subtype`` are lookups,
    and ``fitting`` files a list of objects under every type they fit.
    """

    parents: tuple[tuple[str, str], ...]
    _ancestors: dict[str, frozenset[str]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        table: dict[str, str] = {}
        for name, parent in self.parents:
            if not valid_name(name) or not valid_name(parent):
                raise ModelError(f"bad type name in ({name} - {parent})")
            if name == ROOT_TYPE:
                raise ModelError("the root type cannot be redeclared")
            if name in table:
                raise ModelError(f"duplicate type {name!r}")
            table[name] = parent
        ancestors = {ROOT_TYPE: frozenset((ROOT_TYPE,))}
        for name in table:
            # Walk up to a type already in the table; a cycle never gets
            # there.  An undeclared parent is not a type: it leads to the root.
            chain, cur = [], name
            while cur not in ancestors:
                if cur in chain:
                    raise ModelError(f"type cycle through {name!r}")
                chain.append(cur)
                cur = table[cur] if table[cur] in table else ROOT_TYPE
            for typ in reversed(chain):
                ancestors[typ] = ancestors[cur] | {typ}
                cur = typ
        object.__setattr__(self, "_ancestors", ancestors)

    def contains(self, name: str) -> bool:
        return name in self._ancestors

    def is_subtype(self, name: str, ancestor: str) -> bool:
        """True if ``name`` equals ``ancestor`` or descends from it."""
        return ancestor in self._ancestors.get(name, ())

    def fitting(self, types: Iterable[str]) -> dict[str, list[int]]:
        """Each type to the positions in ``types`` of the entries that are
        it or descend from it, ascending.  An undeclared entry fits no
        type, and an undeclared type has no key."""
        table: dict[str, list[int]] = {typ: [] for typ in self._ancestors}
        for position, typ in enumerate(types):
            for ancestor in self._ancestors.get(typ, ()):
                table[ancestor].append(position)
        return table

    def all_types(self) -> tuple[str, ...]:
        return (ROOT_TYPE,) + tuple(n for n, _ in self.parents)


@dataclass(frozen=True)
class PredicateSignature:
    """A predicate name with typed parameters and an observed/derived kind.

    Observed predicates are those a perception layer can assert directly;
    they are the only ones allowed in initial states and action effects.
    Derived predicates are defined by rules and recomputed from the observed
    base.  Observed predicates have arity 1 or 2.
    """

    name: str
    params: tuple[tuple[str, str], ...]  # (variable, type)
    kind: str  # "observed" | "derived"

    def __post_init__(self) -> None:
        if self.kind not in ("observed", "derived"):
            raise ModelError(f"bad predicate kind {self.kind!r}")
        if not valid_name(self.name):
            raise ModelError(f"bad predicate name {self.name!r}")
        if self.kind == "observed" and len(self.params) not in (1, 2):
            raise ModelError(
                f"observed predicate {self.name!r} must have arity 1 or 2, "
                f"got {len(self.params)}"
            )
        seen = set()
        for var, _ in self.params:
            if var in seen:
                raise ModelError(f"duplicate parameter {var!r} in {self.name!r}")
            seen.add(var)

    @property
    def arity(self) -> int:
        return len(self.params)


# ---------------------------------------------------------------------------
# Lifted formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A predicate applied to variables (``?x``-prefixed) or object names."""

    predicate: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Literal:
    """An atom with polarity, used in preconditions."""

    atom: Atom
    negated: bool = False


@dataclass(frozen=True)
class ActionSchema:
    """A STRIPS action: typed parameters, literal preconditions, add/delete.

    Effects may reference only observed predicates; the equality builtin may
    appear only in the precondition.
    """

    name: str
    params: tuple[tuple[str, str], ...]
    precondition: tuple[Literal, ...]
    add: tuple[Atom, ...]
    delete: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not valid_name(self.name):
            raise ModelError(f"bad action name {self.name!r}")


@dataclass(frozen=True)
class DerivedRule:
    """``head <- body`` where body is a conjunction of positive atoms.

    Body variables not bound by the head are implicitly existentially
    quantified.  Head variables must all occur in the body (range
    restriction), so rule evaluation only ever binds them to existing atoms.
    """

    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if not self.body:
            raise ModelError(f"rule for {self.head.predicate!r} has an empty body")
        head_vars = {a for a in self.head.args if a.startswith("?")}
        body_vars = {a for atom in self.body for a in atom.args if a.startswith("?")}
        missing = head_vars - body_vars
        if missing:
            raise ModelError(
                f"rule for {self.head.predicate!r} has unbound head "
                f"variables {sorted(missing)}"
            )


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A parsed domain: hierarchy, predicate signatures, actions, rules.

    ``layer`` tables each rule head predicate's layer once, when the domain
    is built: one above the highest layer of a head predicate its rules
    read, other predicates being layer 0.  A dependency cycle among head
    predicates (a rule reading its own head included) has no layers and
    raises ``ModelError``; the walk runs over sorted names, so the cycle
    it names never follows the iteration order of a set.  ``_fits`` tables
    the types that fit each predicate parameter, for ``atom_faults``.
    What a suite compiles for the domain lives in the tables of a
    ``planner.suite`` on it, while the suite is open.
    """

    name: str
    hierarchy: TypeHierarchy
    predicates: tuple[PredicateSignature, ...]
    actions: tuple[ActionSchema, ...]
    derived: tuple[DerivedRule, ...]
    _by_name: dict[str, PredicateSignature] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )
    layer: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )
    _fits: dict[str, tuple[frozenset[str], ...]] = field(
        init=False, repr=False, compare=False, hash=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_name", {p.name: p for p in self.predicates}
        )
        ancestors = self.hierarchy._ancestors.items()
        for p in self.predicates:
            fits = [frozenset(typ for typ, ups in ancestors if want in ups) for _, want in p.params]
            self._fits[p.name] = tuple(fits)
        reads: dict[str, set[str]] = {}
        for rule in self.derived:
            reads.setdefault(rule.head.predicate, set()).update(a.predicate for a in rule.body)
        graph = {head: sorted(reads[head] & reads.keys()) for head in sorted(reads)}
        try:
            for head in TopologicalSorter(graph).static_order():
                self.layer[head] = 1 + max((self.layer[read] for read in graph[head]), default=0)
        except CycleError as exc:
            raise ModelError(
                "unstratified rules: cycle through " + " -> ".join(reversed(exc.args[1]))
            ) from None

    def predicate(self, name: str) -> PredicateSignature | None:
        return self._by_name.get(name)

    def action(self, name: str) -> ActionSchema | None:
        for a in self.actions:
            if a.name == name:
                return a
        return None

    @property
    def observed(self) -> tuple[PredicateSignature, ...]:
        return tuple(p for p in self.predicates if p.kind == "observed")


def relevant_rules(domain: Domain, goal) -> tuple[DerivedRule, ...]:
    """The rules whose head predicate is read, in declaration order.

    A predicate is read by an action precondition of either sign, by a
    literal of ``goal``, or by the body of a rule whose head is read.  The
    other rules cannot change whether an action applies or the goal holds
    (the relevance analysis of Fast Downward's translator, Helmert 2009).
    """
    read = {lit.atom.predicate for lit in goal}
    read.update(lit.atom.predicate for a in domain.actions for lit in a.precondition)
    size = 0
    while size != len(read):
        size = len(read)
        for rule in domain.derived:
            if rule.head.predicate in read:
                read.update(atom.predicate for atom in rule.body)
    return tuple(rule for rule in domain.derived if rule.head.predicate in read)


# ---------------------------------------------------------------------------
# Ground state, problems, plans
# ---------------------------------------------------------------------------


class GroundAtom(NamedTuple):
    """A predicate applied to object names.  Orderable for canonical output.

    A tuple: it hashes, compares and sorts as ``(predicate, args)``, so a
    plain ``(predicate, args)`` key also finds it in a dict or set.
    """

    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "(" + " ".join((self.predicate,) + self.args) + ")"


class GroundLiteral(NamedTuple):
    """A ground atom with polarity; a tuple like ``GroundAtom``."""

    atom: GroundAtom
    negated: bool = False

    def __str__(self) -> str:
        return f"(not {self.atom})" if self.negated else str(self.atom)


@dataclass(frozen=True)
class Problem:
    """A problem instance.  Objects are stored sorted by name (canonical),
    and no two share a name."""

    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init: frozenset[GroundAtom]
    goal: tuple[GroundLiteral, ...]

    def __post_init__(self) -> None:
        objects = tuple(sorted(self.objects, key=lambda o: o[0]))
        for (name, _), (after, _) in zip(objects, objects[1:]):
            if name == after:
                raise ModelError(f"duplicate object {name!r}")
        object.__setattr__(self, "objects", objects)
        if not isinstance(self.init, frozenset):
            object.__setattr__(self, "init", frozenset(self.init))


@dataclass(frozen=True)
class PlanStep:
    action: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "(" + " ".join((self.action,) + self.args) + ")"


@dataclass(frozen=True)
class Plan:
    steps: tuple[PlanStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# Ground-atom check
# ---------------------------------------------------------------------------


def atom_faults(
    atom: GroundAtom, domain: Domain, types: Mapping[str, str]
) -> tuple[tuple[int, str], ...]:
    """Why ``atom`` is not a typed instance of a declared predicate over the
    objects ``types`` maps to their type names, as ``(position, message)``
    pairs: none for a typed instance.

    An unknown predicate or a wrong arity is one fault at position -1.
    Otherwise each argument that names no object, or an object whose type
    does not fit its parameter, is a fault at that argument's position, in
    argument order."""
    predicate, args = atom
    fits = domain._fits.get(predicate)
    if fits is None:
        return ((-1, f"unknown predicate {predicate!r}"),)
    if len(args) != len(fits):
        return ((-1, f"{predicate!r} takes {len(fits)} args, got {len(args)}"),)
    faults = ()
    for position, arg in enumerate(args):
        have = types.get(arg)
        if have not in fits[position]:
            want = domain._by_name[predicate].params[position][1]
            message = f"{arg!r} has type {have!r}, {predicate!r} requires {want!r}"
            faults += ((position, f"unknown object {arg!r}" if have is None else message),)
    return faults
