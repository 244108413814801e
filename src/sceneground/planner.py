"""Forward state-space search over the typed STRIPS subset.

Each ``solve`` call compiles its problem once into a ``GroundTask``.  The
part of that compile which depends only on the problem's objects and on the
rules its goal keeps, an ``ObjectTable``, is built once per such pair and
kept in the open ``suite``'s tables, so the problems of a suite that share
their objects share it; the task adds its goal, init and pruning to it.
The kept rule instances and their closure memos depend on the table and
the pruning only, and h_add's relaxation and memo on the table, the goal
and the pruning only, so they are kept in the table too, one per pruning
or per goal and pruning.
``ground_actions`` lists each schema's type-valid bindings as steps
(equality literals are resolved away there, dropping the bindings they rule
out), drawing each parameter's objects from one type table
(``TypeHierarchy.fitting``).  The task instantiates every step straight to
atom ids from one template per schema, which gives each precondition
literal, add and delete as a predicate and the binding positions of its
arguments, as Fast Downward's translator grounds into integer facts
(Helmert 2009); a ``GroundAtom`` is built only for each new distinct atom.
Derived rules become ground (head, body) id instances the same way, over
type-valid bindings from the same table.  Only the rules ``relevant_rules``
keeps are ground: those whose head a precondition, a goal literal or
another kept rule's body reads (the relevance analysis of Fast Downward's
translator, Helmert 2009).  No other derived atom can change which actions
apply or whether the goal holds, so a task state holds no atom of an
unread derived predicate.  The search and the heuristic both run on that
task, whose states are bit sets: a Python int with bit ``i`` set for each
atom ``i`` that holds, so an action's test and effect are a few whole-int
operations, and a state is its own hash key.

Derived predicates are recomputed after every state change by one pass
over the rule instances, as Fast Downward evaluates axioms layer by layer
(Helmert 2006).  An instance whose body is one atom that no instance
derives is not walked: such instances are joined into a map from the body
atom to the OR of their head bits, and the pass starts by ORing in the
heads of each set bit of the base that the map holds.  The map is exact on
any base, since such a body bit is final before anything is derived.  Each
derived predicate sits one layer above the highest derived predicate its
rules read, as ``Domain.layer`` tables once per domain; a domain admits
only stratified rules, so the layers exist.  The other instances are
grouped by head predicate and first head argument, and the groups are
ordered by the layer of their head, so each comes after every group that
makes one of its body atoms, and no member reads an atom of its own layer.
Each group sets the head bit of every member whose body bits are all set
when the pass reaches it, and memoizes that set of heads by the bits its
members read, so a state that agrees on them with one already closed costs
one dict lookup per group.  An instance that reads an atom no state can
hold (one not in init, added by no action and the head of no instance) is
dropped when the task is compiled, and nothing else is, so the closure is
exact on every base of init and action-add atoms; a memo entry depends
only on the bits its key holds, so it is exact on every base too.  The
closure is also typed: a rule derives a head only for bindings that fit
the head predicate's parameter types, as PDDL requires.  The applicable
steps are found the same way: the steps are grouped by schema and first
argument, and each group memoizes its applicable members by the bits their
preconditions read (Fast Downward likewise precompiles a successor
generator, Helmert 2006).  A lookup costs about as much as testing a few
members, so a group of fewer than ``MEMO_MIN_MEMBERS`` members keeps no
memo: each run of such groups is scanned member by member, in order.  Both
kinds of memo live in the object table, so they last as long as the open
suite, or as one solve outside any.  The lifted ``axiom_closure`` is the
plan validator's closure in ``metrics``, kept apart from the task so that
it judges independently.  It derives nothing up front: its view of a state
proves each atom it is asked about top-down, joining rule bodies against
the state's facts and answering derived body atoms as memoized subqueries
(query-subquery evaluation, Vieille 1986); a join that met unanswered
subqueries runs again once they are answered.  So a plan step costs only
the literals it reads.  It ignores head types and so may also prove
ill-typed atoms; no action precondition or typed goal reads one.

Both search modes run one best-first loop over a heap ordered by score,
then insertion.  "satisficing" scores a state by additive cost on the
delete relaxation, h_add (derived rules cost nothing; Bonet & Geffner
2001).  "optimal" scores every state 0, so the heap pops first in,
first out, and the loop is breadth-first search over unit-cost actions.
Every action costs 1, so every cost is a whole number, and h_add settles
atoms from a bucket queue keyed by cost (Dial 1969), one whole cost
level at a time as a bit set.  It watches only the goal-relevant actions
and rule instances, those a walk back from the positive goal atoms
through their achievers reaches (Nebel, Dimopoulos & Koehler 1997);
every achiever of a relevant atom is relevant, so its values are those
of h_add over the whole task.  What the producers that need one atom
make is joined per atom into two bit sets, made at the atom's cost (rule
instances) and at 1 more (actions), so a level grows by whole-int ORs;
only the other producers count their unmet needs.  h_add reads a state
only through its relevant and negative goal atoms, so each value is
memoized by those bits of the state, in a memo that every task with the
same object table, goal and pruning shares (Fast Downward likewise
caches heuristic values per state, Helmert 2006).  A search tests each new
child of a node for the goal before it scores any of them, so no
heuristic call goes to a sibling of the goal.  A returned plan is not
replayed here: the plan validator in ``metrics`` judges it wherever it
leaves the program.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from sceneground.pddl.model import (
    EQUALITY,
    ActionSchema,
    DerivedRule,
    Domain,
    GroundAtom,
    Plan,
    PlanStep,
    Problem,
    relevant_rules,
)

INFINITY = float("inf")


class PlannerError(ValueError):
    """Bad search configuration or an ill-formed planning input."""


@dataclass(frozen=True)
class SearchConfig:
    mode: str = "satisficing"
    node_limit: int = 1_000_000
    time_limit_s: float = 120.0

    def __post_init__(self):
        if self.mode not in ("optimal", "satisficing"):
            raise PlannerError(f"unknown mode {self.mode!r}")
        if self.node_limit <= 0 or not 0 < self.time_limit_s < INFINITY:
            raise PlannerError("limits must be positive and finite")


@dataclass(frozen=True)
class SolveResult:
    status: str  # solved | unsolvable | node-limit | time-limit
    plan: Plan | None
    expanded: int

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "plan_length": len(self.plan) if self.plan is not None else None,
            "expanded_nodes": self.expanded,
        }


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def ground_actions(
    domain: Domain, objects: tuple[tuple[str, str], ...]
) -> tuple[PlanStep, ...]:
    """All type-valid bindings of every schema, as steps, in deterministic
    order: schema by schema, each schema's bindings in product order, the
    first parameter varying slowest (``GroundTask.successors`` relies on
    this).

    Equality literals are evaluated against the binding right here: a
    binding that falsifies one is dropped.  No atom is built here; the
    task's ``ObjectTable`` instantiates the survivors from per-schema
    templates.
    """
    fits = domain.hierarchy.fitting(typ for _, typ in objects)
    pools = {typ: [objects[i][0] for i in fit] for typ, fit in fits.items()}
    out: list[PlanStep] = []
    for schema in domain.actions:
        variables = [v for v, _ in schema.params]
        combos = itertools.product(*(pools.get(want, ()) for _, want in schema.params))
        for lit in schema.precondition:
            if lit.atom.predicate == EQUALITY:
                left, right = map(variables.index, lit.atom.args)
                combos = [
                    c for c in combos if (c[left] == c[right]) != lit.negated
                ]
        out.extend(PlanStep(schema.name, combo) for combo in combos)
    return tuple(out)


def _picker(positions: tuple[int, ...]):
    """A function from a binding to its values at ``positions``, a tuple."""
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    if not positions:
        return lambda values: ()
    return itemgetter(*positions)


def _templates(atoms, variables: list[str]) -> tuple[tuple[str, Callable], ...]:
    """Each atom as ``(predicate, picker)``, the picker taking its arguments
    from a binding of ``variables``."""
    return tuple(
        (atom.predicate, _picker(tuple(map(variables.index, atom.args))))
        for atom in atoms
    )


def _action_templates(schema: ActionSchema):
    """The schema's positive and negative precondition atoms (equality
    left out), adds and deletes, as templates over its parameters."""
    variables = [v for v, _ in schema.params]
    pre = [lit for lit in schema.precondition if lit.atom.predicate != EQUALITY]
    return (
        _templates([lit.atom for lit in pre if not lit.negated], variables),
        _templates([lit.atom for lit in pre if lit.negated], variables),
        _templates(schema.add, variables),
        _templates(schema.delete, variables),
    )


def _rule_instances(
    rules: tuple[DerivedRule, ...],
    objects: tuple[tuple[str, str], ...],
    domain: Domain,
):
    """Per rule: its head template, its body templates, and every
    type-valid binding of its variables."""
    fits = domain.hierarchy.fitting(typ for _, typ in objects)
    for rule in rules:
        # Each variable must fit every predicate position it occupies, so
        # its pool is the intersection of those types' pools.
        pools: dict[str, set[int]] = {}
        for atom in (rule.head, *rule.body):
            sig = domain.predicate(atom.predicate)
            assert sig is not None
            for var, (_, want) in zip(atom.args, sig.params):
                fit = set(fits.get(want, ()))
                pools[var] = pools[var] & fit if var in pools else fit
        order = list(pools)
        (head,) = _templates((rule.head,), order)
        yield head, _templates(rule.body, order), itertools.product(
            *([objects[i][0] for i in sorted(pool)] for pool in pools.values())
        )


# ---------------------------------------------------------------------------
# Derived atoms on demand
# ---------------------------------------------------------------------------


def axiom_closure(
    facts: dict[str, set[tuple[str, ...]]], rules: tuple[DerivedRule, ...]
) -> ClosureView:
    """The closure of ``facts`` under ``rules``, as a view that proves each
    atom it is asked about (see ``ClosureView``).

    ``facts`` maps each predicate to the argument tuples of its atoms.  The
    view reads it without copying, so it answers for the state that
    ``facts`` holds until the next change to it.

    The view trusts what the parser checked: ``facts`` holds observed atoms
    only, every atom (fact, query, rule head or body atom) has its
    predicate's arity, and no rule head names a variable twice.  Input that
    breaks this contract gets unspecified answers.
    """
    return ClosureView(facts, rules)


class ClosureView:
    """``atom in view`` is true when the atom is a fact or some rule proves
    it from the facts, by query-subquery evaluation (Vieille 1986).

    A base atom is a lookup in ``facts``.  A derived atom is unified with
    each rule head of its predicate, and the rule body is joined left to
    right against the facts: a body atom's arguments are read from the
    binding, ``None`` where unbound; a fully bound base atom is looked up,
    any other is scanned, and each row binds its variables unless it
    contradicts the binding.  A derived body atom is a subquery with that
    pattern, whose answers are memoized once per view in ``answers``.  A
    join that meets unanswered subqueries scans on, collecting them all,
    and is simply run again once they are answered.  Queries run from an
    explicit stack, so a deep rule chain does not recurse on the
    interpreter stack.  The parser admits only acyclic rules; a query that
    comes to depend on itself raises ``PlannerError``.  Head types are not
    checked: a rule proves a head for every binding its body matches.
    """

    __slots__ = ("facts", "rules", "answers")

    def __init__(self, facts, rules) -> None:
        self.facts = facts
        self.rules: dict[str, list[DerivedRule]] = {}
        for rule in rules:
            self.rules.setdefault(rule.head.predicate, []).append(rule)
        self.answers: dict[tuple, set[tuple[str, ...]]] = {}

    def __contains__(self, atom) -> bool:
        predicate, args = atom
        if predicate in self.rules:
            return bool(self._query((predicate, args)))
        return args in self.facts.get(predicate, ())

    def _query(self, query) -> set[tuple[str, ...]]:
        """The answers to ``query`` and to every subquery it needs.  Depth
        first, the queries ``waiting`` for subqueries are exactly the
        ancestors of the one on top, so a subquery among them is a cycle."""
        answers = self.answers
        stack = [query]
        waiting = set()
        while stack:
            top = stack[-1]
            if top in answers:
                stack.pop()
                continue
            result = self._solve(*top)
            if isinstance(result, set):
                answers[top] = result
                waiting.discard(top)
                stack.pop()
                continue
            waiting.add(top)
            for sub in result:
                if sub in waiting:
                    raise PlannerError(f"recursive rules for {sub[0]!r}")
                stack.append(sub)
        return answers[query]

    def _solve(self, predicate: str, pattern: tuple):
        """The argument tuples of ``predicate`` that match ``pattern``, or
        the unanswered subqueries its joins met, as a list; when the pattern
        is fully bound, the first proof ends the search."""
        facts, rules, answers = self.facts, self.rules, self.answers
        complete = None not in pattern
        found = set()
        missing = []
        for rule in rules[predicate]:
            body = rule.body
            env = {
                var: value for var, value in zip(rule.head.args, pattern) if value is not None
            }
            pending = [(0, env)]
            while pending:
                depth, env = pending.pop()
                if depth == len(body):
                    if complete:
                        return {pattern}
                    found.add(tuple([env[var] for var in rule.head.args]))
                    continue
                atom = body[depth]
                args = tuple(map(env.get, atom.args))
                if atom.predicate in rules:
                    rows = answers.get((atom.predicate, args))
                    if rows is None:
                        missing.append((atom.predicate, args))
                        continue
                elif None in args:
                    rows = facts.get(atom.predicate, ())
                else:
                    if args in facts.get(atom.predicate, ()):
                        pending.append((depth + 1, env))
                    continue
                for values in rows:
                    trial = env.copy()
                    for var, value in zip(atom.args, values):
                        if trial.setdefault(var, value) != value:
                            break
                    else:
                        pending.append((depth + 1, trial))
        return missing or found


# ---------------------------------------------------------------------------
# The compiled task
# ---------------------------------------------------------------------------


def _mask(ids) -> int:
    """The bit set with bit ``i`` set for each id ``i`` in ``ids``."""
    mask = 0
    for atom in ids:
        mask |= 1 << atom
    return mask


def _bits(mask: int) -> list[int]:
    """The ids whose bits are set in ``mask``, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _watch_lists(size: int, needs, base, makes):
    """Per atom id below ``size``, the producers that need it, as
    ``(watch, zero, one, multi)``.  ``zero[atom]`` and ``one[atom]`` are
    the bit sets of what the producers whose only need is the atom make
    (``makes`` holds bit sets), at base cost 0 (rule instances) and 1
    (actions).  ``multi`` lists the producers that need more atoms, and
    ``watch[atom]`` the place in ``multi`` of each that needs the atom,
    once per occurrence, so a need named twice counts twice."""
    watch: list[list[int]] = [[] for _ in range(size)]
    zero = [0] * size
    one = [0] * size
    multi: list[int] = []
    for index, need in enumerate(needs):
        if len(need) == 1:
            by_cost = one if base[index] else zero
            by_cost[need[0]] |= makes[index]
        elif need:
            for atom in need:
                watch[atom].append(len(multi))
            multi.append(index)
    return tuple(map(tuple, watch)), tuple(zero), tuple(one), multi


def _interner(atoms: list[GroundAtom], ids: dict[GroundAtom, int]):
    """A function from ``(predicate, args)`` to the atom's id, appending
    the atom to ``atoms`` and ``ids`` if it has none yet; the
    ``GroundAtom`` is built only then."""

    def intern(predicate: str, args: tuple[str, ...]) -> int:
        index = ids.get((predicate, args))
        if index is None:
            atom = GroundAtom(predicate, args)
            index = ids[atom] = len(atoms)
            atoms.append(atom)
        return index

    return intern


_SUITE: ContextVar[tuple[Domain, dict] | None] = ContextVar("suite", default=None)


@contextmanager
def suite(domain: Domain) -> Iterator[dict]:
    """Open a suite on ``domain`` for the body and yield its tables, where
    ``GroundTask`` and ``metrics.ground`` keep what the suite compiles once.
    They go, and an enclosing suite is open again, when the body ends.
    ``metrics.evaluate_suite`` scores a manifest in one, and
    ``bench.write_suite`` generates a suite's problems in one; a compile
    outside any has tables of its own that die with it."""
    tables: dict = {}
    token = _SUITE.set((domain, tables))
    try:
        yield tables
    finally:
        _SUITE.reset(token)


def suite_tables(domain: Domain) -> dict:
    """The open suite's tables if it is on ``domain`` (by identity, as no
    key names the domain), else a fresh dict that dies with the caller."""
    open_suite = _SUITE.get()
    return open_suite[1] if open_suite is not None and open_suite[0] is domain else {}


class MemoGroup(NamedTuple):
    """A group of steps or rule instances whose answers on a state read
    only its bits in ``reads``, the OR of what the ``members`` read.
    ``memo`` maps ``full & reads`` to the group's answer on every state
    with those bits, so a state that agrees on them with one already
    answered costs one dict lookup.  A call adds at most one entry.  A
    group with ``memo`` None is a run of small groups, scanned member by
    member (see ``MEMO_MIN_MEMBERS``)."""

    reads: int
    members: tuple
    memo: dict | None


# The fewest members a group memoizes.  A lookup costs about as much as
# testing four members, and a miss adds the scan and the insertion: rule
# groups of 4 members with 99% of lookups hitting ran no faster than a
# scan, and step groups of 4 and 5 members hitting 56-72% ran 19-28%
# slower (blocksworld's distance search over 501 states), while hanoi's
# 6-member step groups hit 97% and its solves ran a third faster.
MEMO_MIN_MEMBERS = 6


def _memo_groups(keyed) -> tuple[MemoGroup, ...]:
    """The ``(key, reads, member)`` triples of ``keyed`` as one group per
    key, in the order the keys first appear, each holding its members in
    their order and the OR of their reads.  Each run of consecutive groups
    under ``MEMO_MIN_MEMBERS`` members becomes one group with no memo."""
    groups: dict = {}
    for key, reads, member in keyed:
        group = groups.get(key)
        if group is None:
            groups[key] = [reads, [member]]
        else:
            group[0] |= reads
            group[1].append(member)
    out: list[MemoGroup] = []
    for memoized, run in itertools.groupby(
        groups.values(), key=lambda group: len(group[1]) >= MEMO_MIN_MEMBERS
    ):
        if memoized:
            out += [MemoGroup(reads, tuple(members), {}) for reads, members in run]
        else:
            members = itertools.chain.from_iterable(members for _, members in run)
            out.append(MemoGroup(0, tuple(members), None))
    return tuple(out)


class ObjectTable(NamedTuple):
    """The part of a task that depends only on its objects and its kept
    rules, built once per such pair and kept in its domain's ``suite_tables``.

    ``atoms`` and ``ids`` hold the atoms interned so far: every action's,
    then every rule instance's.  ``actions``, ``compiled`` and ``masks``
    are the task's.  ``step_groups`` holds the steps as ``MemoGroup``s
    keyed by schema and first argument, in the order the keys first come
    in ``actions``; each member is ``(pos, neg, (index, keep, add))``, and
    ``memo`` maps ``full & reads`` to the ``(index, keep, add)`` tuples of
    the applicable members, in index order, shared with the members.
    Those memos read nothing but the table's masks, so every task of the
    table shares them.  Small groups are merged into runs with no memo
    (see ``MemoGroup``).
    ``rules`` holds every type-valid instance of the kept
    rules as ``(head, body, (body mask, head bit))``, ordered by the layer
    of the head predicate, and ``made`` is the bit set of every atom that an
    action adds or an instance has as head.  ``static`` is the bit set of
    the atoms some instance's body reads and nothing makes: a task's
    pruning reads its init only through them.  So ``kept`` maps a task's
    init ``static`` bits to the ``KeptRules`` every task with those bits
    keeps, its unit map and closure memos included.  A task copies
    ``atoms`` and ``ids`` before it interns its goal and init atoms.  Every
    memo here lives as long as the table: the open suite, or one solve
    outside any.

    ``relaxations`` holds h_add's ``Relaxation`` of every task compiled
    from the table that has scored a state, keyed by the task's positive
    and negative goal atom ids and its init's ``static`` bits.  That key
    fixes the relaxation and so every h_add value: every precondition and
    body atom has its table id in every task, the goal atoms are interned
    in goal order right after the table's atoms, and the instances a task
    drops follow from its ``static`` bits alone.  So the tasks of a suite
    that share the key share one relaxation and one memo.
    """

    atoms: tuple[GroundAtom, ...]
    ids: dict[GroundAtom, int]
    actions: tuple[PlanStep, ...]
    compiled: tuple[tuple[tuple[int, ...], ...], ...]
    masks: tuple[tuple[int, int, int, int], ...]
    step_groups: tuple[MemoGroup, ...]
    made: int
    static: int
    rules: tuple[tuple[int, tuple[int, ...], tuple[int, int]], ...]
    kept: dict[int, KeptRules]
    relaxations: dict[tuple[tuple[int, ...], tuple[int, ...], int], Relaxation]


def _object_table(
    domain: Domain, objects: tuple[tuple[str, str], ...], kept: tuple[DerivedRule, ...]
) -> ObjectTable:
    """Ground every action and every instance of the ``kept`` rules over
    ``objects``, interning the actions' atoms first."""
    atoms: list[GroundAtom] = []
    ids: dict[GroundAtom, int] = {}
    intern = _interner(atoms, ids)

    def ground(templates, binding) -> tuple[int, ...]:
        return tuple([intern(predicate, pick(binding)) for predicate, pick in templates])

    actions = ground_actions(domain, objects)
    templates = {schema.name: _action_templates(schema) for schema in domain.actions}
    compiled = tuple(
        tuple(ground(part, step.args) for part in templates[step.action]) for step in actions
    )
    masks = tuple(
        (_mask(pos), _mask(neg), ~_mask(delete), _mask(add))
        for pos, neg, add, delete in compiled
    )
    rules = [
        (intern(head, pick_head(combo)), ground(body, combo))
        for (head, pick_head), body, bindings in _rule_instances(
            sorted(kept, key=lambda rule: domain.layer[rule.head.predicate]),
            objects,
            domain,
        )
        for combo in bindings
    ]
    made = _mask(head for head, _ in rules)
    for _, _, _, add in masks:
        made |= add
    rules = tuple((head, body, (_mask(body), 1 << head)) for head, body in rules)
    read = 0
    for _, _, (body, _) in rules:
        read |= body
    step_groups = _memo_groups(
        ((step.action, step.args[:1]), pos | neg, (pos, neg, (index, keep, add)))
        for index, (step, (pos, neg, keep, add)) in enumerate(zip(actions, masks))
    )
    return ObjectTable(
        tuple(atoms), ids, actions, compiled, masks, step_groups, made, read & ~made, rules, {}, {}
    )


class KeptRules(NamedTuple):
    """The rule instances of an ``ObjectTable`` that a task keeps, in the
    table's layer order: ``head`` and ``body`` as ids.  The closure reads
    them in two parts.  ``unit_heads`` maps the id of each atom that is
    some kept instance's whole body, and no kept instance's head, to the OR
    of those instances' head bits; ``unit_bodies`` is the bit set of those
    ids.  ``groups`` holds every other instance as ``MemoGroup``s keyed by
    head predicate and first head argument, in the order the keys first
    come, each member ``(body, head)`` as bit sets and each memo mapping
    ``full & reads`` to the heads of the members whose body is set."""

    head: tuple[int, ...]
    body: tuple[tuple[int, ...], ...]
    unit_bodies: int
    unit_heads: dict[int, int]
    groups: tuple[MemoGroup, ...]


def _kept_rules(table: ObjectTable, static: int) -> KeptRules:
    """The instances of ``table`` kept by a task whose init holds the
    ``static`` bits of ``table.static``: those whose every body atom is
    among them or made by an action or an instance.  An atom some body
    reads is either made or in ``table.static``, so those bits decide.
    A kept instance whose body is one atom that no kept instance makes
    goes into ``unit_heads``; the rest into ``groups``."""
    possible = static | table.made
    rules = [(head, body, masks) for head, body, masks in table.rules if not masks[0] & ~possible]
    derived = _mask(head for head, _, _ in rules)
    units: dict[int, int] = {}
    grouped = []
    for head, body, masks in rules:
        if len(body) == 1 and not masks[0] & derived:
            units[body[0]] = units.get(body[0], 0) | masks[1]
        else:
            grouped.append((head, masks))
    atoms = table.atoms
    return KeptRules(
        tuple(head for head, _, _ in rules),
        tuple(body for _, body, _ in rules),
        _mask(units),
        units,
        _memo_groups(
            ((atoms[head].predicate, atoms[head].args[:1]), masks[0], masks)
            for head, masks in grouped
        ),
    )


class Relaxation(NamedTuple):
    """The goal-relevant actions and rule instances of a task, as h_add
    reads them.  ``producers`` holds their indices among the task's
    actions, then rule instances.  A producer needs some atoms (an
    action's positive precondition, an instance's body), costs 1 (an
    action) or 0 (an instance) more than their summed costs, and makes a
    bit set (an action's relevant adds, an instance's head).  What the
    producers that need one atom make is joined per atom and base cost
    into two bit sets: ``zero[atom]`` (rule instances, which make their
    heads at the atom's cost) and ``one[atom]`` (actions, which make their
    adds at 1 more).  The ``i``-th producer that needs more atoms needs
    ``size[i]``, costs ``base[i]`` more and makes ``makes[i]``, and
    ``watch[atom]`` lists its ``i`` once per occurrence of the atom.
    ``free`` is the bit set of what the actions that need nothing make,
    which costs 1 in every state; every rule instance has a body.
    ``atoms`` is the bit set of the relevant atoms, and ``reads`` adds the
    negative goal atoms to it: all that h_add reads of a state.  ``memo``
    maps ``full & reads`` to h_add's value; it is shared by every task of
    the ``ObjectTable`` entry that holds this relaxation."""

    atoms: int
    reads: int
    producers: tuple[int, ...]
    base: list[int]
    size: list[int]
    makes: list[int]
    watch: tuple[tuple[int, ...], ...]
    zero: tuple[int, ...]
    one: tuple[int, ...]
    free: int
    memo: dict[int, float]


class GroundTask:
    """One problem compiled to integers, built once per ``solve`` call.

    What depends only on the objects and the kept rules comes from an
    ``ObjectTable``, looked up in ``suite_tables(domain)`` and built on a
    miss: ``actions``, ``compiled`` and ``masks`` are the table's own, and
    ``atoms`` and ``ids`` start as copies of its atoms, after which the
    task interns its goal atoms and then its init atoms.  That is the
    order of a compile outside any suite, so no id, and so no plan,
    depends on which problem built the table.

    ``atoms[i]`` is the atom with id ``i``, and ``ids`` maps an atom, or a
    plain ``(predicate, args)`` key, back to its id.  A set of atoms is a
    bit set: a Python int with bit ``i`` set for each atom ``i`` in it,
    which ``decode`` turns back into atoms.  A task state is a pair
    ``(base, full)`` of bit sets: the observed atoms, and those plus every
    atom the rule instances derive from them.

    ``actions`` are the steps ``ground_actions`` returns, in its order.
    ``compiled[i]`` is step ``i`` as (positive precondition, negative
    precondition, add, delete) id tuples, instantiated from its schema's
    templates, and ``masks[i]`` is it as the bit sets ``(pos, neg, keep,
    add)``, ``keep`` being every atom but the deletes: the step applies
    when ``full & pos == pos and not full & neg``, and its next base is
    ``base & keep | add``.

    ``step_groups`` are the table's (see ``ObjectTable``), so a task may
    start with the applicable steps of states an earlier task of the suite
    stepped.

    A rule instance of the table whose body names an atom no state can
    hold, one that is not in init, not added by an action and not a rule
    instance's head, is dropped; the others are kept whole.  This step
    reads init only through its ``static`` bits, so the table keeps its
    result per those bits (``ObjectTable.kept``).  ``rule_head`` and
    ``rule_body`` give the kept instances as ids, ordered by the layer of
    the head predicate (``Domain.layer``), so every instance that makes an
    atom comes before every instance whose body reads it.
    ``unit_heads`` maps each atom that is the whole body of some kept
    instance, and no kept instance's head, to the OR of those instances'
    head bits, and ``unit_bodies`` is the bit set of those atoms.
    ``rule_groups`` holds the other instances as ``MemoGroup``s keyed by
    head predicate and first head argument, in the order the keys first
    come, which is layer order; each member is ``(body, head)`` as bit
    sets, and ``memo`` maps ``full & reads`` to the heads of the members
    whose body is set; small groups are merged into runs with no memo, as
    steps are.  The closure reads the map and every group; h_add reads
    only the goal-relevant instances, ``relaxed``, and keeps its values in
    ``relaxed.memo``.
    All of these are the table's, shared with every task that has the
    same pruning (and, for h_add, the same goal; see ``ObjectTable``), so
    a task may start with closures and values that an earlier task of the
    suite computed.
    """

    def __init__(self, domain: Domain, problem: Problem):
        kept = relevant_rules(domain, problem.goal)
        key = (problem.objects, kept)
        tables = suite_tables(domain)
        table = tables.get(key)
        if table is None:
            table = tables[key] = _object_table(domain, problem.objects, kept)
        self.actions, self.compiled, self.masks = table.actions, table.compiled, table.masks
        self.atoms: list[GroundAtom] = list(table.atoms)
        self.ids: dict[GroundAtom, int] = table.ids.copy()
        intern = _interner(self.atoms, self.ids)
        self.goal_pos = tuple(intern(*lit.atom) for lit in problem.goal if not lit.negated)
        self.goal_neg = tuple(intern(*lit.atom) for lit in problem.goal if lit.negated)
        self.goal = (_mask(self.goal_pos), _mask(self.goal_neg))
        base = _mask(intern(*atom) for atom in problem.init)

        static = base & table.static
        kept = table.kept.get(static)
        if kept is None:
            kept = table.kept[static] = _kept_rules(table, static)
        self.rule_head, self.rule_body, self.unit_bodies, self.unit_heads, self.rule_groups = kept
        self.step_groups = table.step_groups
        self.init = (base, self.closure(base))
        self._relaxations = table.relaxations
        self._relaxation_key = (self.goal_pos, self.goal_neg, static)

    @cached_property
    def relaxed(self) -> Relaxation:
        """h_add's tables, over the goal-relevant part of the task only.

        Looked up in the table's ``relaxations`` on the first h_add call
        and built on a miss, so a search that runs no h_add never pays for
        it, and a task whose goal and pruning an earlier task of the open
        suite had reuses that task's relaxation and memo.
        """
        relaxed = self._relaxations.get(self._relaxation_key)
        if relaxed is None:
            relaxed = self._relaxations[self._relaxation_key] = self._relax()
        return relaxed

    def _relax(self) -> Relaxation:
        """``relaxed``, built afresh.

        Walking back from the positive goal atoms: an action that adds a
        relevant atom is relevant, and so are its positive preconditions; a
        rule instance whose head is relevant is relevant, and so are its
        body atoms (Nebel, Dimopoulos & Koehler 1997).  Negative
        preconditions and negative goal literals cost nothing in the
        relaxation, so they make nothing relevant.  Every achiever of a
        relevant atom is relevant, so each goal atom costs what it would
        over the whole task.  Only relevant atoms are watched, so the watch
        lists end at the highest relevant id, which the goal fixes.
        """
        # Producers: the actions, then the rule instances.
        needs = [pos for pos, _, _, _ in self.compiled]
        needs += self.rule_body
        makes = [add for _, _, add, _ in self.compiled]
        makes += [(head,) for head in self.rule_head]
        producers: list[list[int]] = [[] for _ in self.atoms]
        for index, made in enumerate(makes):
            for atom in made:
                producers[atom].append(index)
        atoms = set(self.goal_pos)
        queue = list(atoms)
        kept: set[int] = set()
        while queue:
            for index in producers[queue.pop()]:
                if index not in kept:
                    kept.add(index)
                    fresh = set(needs[index]) - atoms
                    atoms |= fresh
                    queue.extend(fresh)
        order = sorted(kept)
        actions = len(self.compiled)
        kept_needs = [needs[i] for i in order]
        relevant = _mask(atoms)
        kept_makes = [_mask(makes[i]) & relevant for i in order]
        base = [int(i < actions) for i in order]
        watch, zero, one, multi = _watch_lists(relevant.bit_length(), kept_needs, base, kept_makes)
        free = 0
        for need, made in zip(kept_needs, kept_makes):
            if not need:
                free |= made
        return Relaxation(
            relevant,
            relevant | self.goal[1],
            tuple(order),
            [base[i] for i in multi],
            [len(kept_needs[i]) for i in multi],
            [kept_makes[i] for i in multi],
            watch,
            zero,
            one,
            free,
            {},
        )

    def decode(self, mask: int) -> frozenset[GroundAtom]:
        """The atoms of the bit set ``mask``."""
        return frozenset(self.atoms[i] for i in _bits(mask))

    def closure(self, base: int) -> int:
        """The base plus every atom derivable from it.

        First ORs in ``unit_heads[atom]`` for each set bit of ``base &
        unit_bodies``, then walks ``rule_groups`` in order: each group sets
        the heads of its members whose body bits are all set, memoized in
        the group by ``full & reads`` (a run of small groups, with no memo,
        tests each member as the pass reaches it).  The map is exact on any
        base: no kept instance makes one of its body atoms, so each such
        bit is final before anything runs, and its heads are set before
        any group that reads them.  One pass over the groups is enough
        because of the layer order: a group's members share a head
        predicate and so a layer, no member reads an atom of its own layer,
        and each group comes after every group that makes one of its body
        atoms.  So when a group is reached, every bit its members read is
        final, and a memo entry, which depends on those bits alone, is
        exact on any base.  A dropped instance reads an atom no state
        holds, so the closure is exact for any base of init and action-add
        atoms.
        """
        full = base
        hits = base & self.unit_bodies
        if hits:
            heads = self.unit_heads
            while hits:
                low = hits & -hits
                full |= heads[low.bit_length() - 1]
                hits ^= low
        for reads, members, memo in self.rule_groups:
            if memo is None:
                for body, head in members:
                    if full & body == body:
                        full |= head
                continue
            key = full & reads
            heads = memo.get(key)
            if heads is None:
                heads = 0
                for body, head in members:
                    if key & body == body:
                        heads |= head
                memo[key] = heads
            full |= heads
        return full

    def successors(self, state) -> list[tuple[int, int]]:
        """(action index, next base) for each applicable action, in index
        order.

        Walks ``step_groups`` in order; each group's applicable members
        are memoized in the group by ``full & reads``, which holds every
        bit its members' tests read, so an entry is exact on any state (a
        run of small groups, with no memo, tests each member).
        ``ground_actions`` lists each schema's bindings with the first
        parameter varying slowest, so each group is one run of indices
        and the groups come in index order: the list is the one a scan of
        ``masks`` gives, in the same order, so the search breaks ties on
        grounded-action order as ``solve`` says.
        """
        base, full = state
        out = []
        for reads, members, memo in self.step_groups:
            if memo is None:
                for pos, neg, (index, keep, add) in members:
                    if full & pos == pos and not full & neg:
                        out.append((index, base & keep | add))
                continue
            key = full & reads
            applicable = memo.get(key)
            if applicable is None:
                applicable = memo[key] = tuple(
                    [step for pos, neg, step in members if key & pos == pos and not key & neg]
                )
            for index, keep, add in applicable:
                out.append((index, base & keep | add))
        return out

    def satisfied(self, full: int) -> bool:
        pos, neg = self.goal
        return full & pos == pos and not full & neg

    def h_add(self, full: int) -> float:
        """Additive cost of the goal under the delete relaxation.

        It reads only the bits of ``full`` in ``relaxed.reads``, so its
        values are memoized in ``relaxed.memo`` by those bits; a state that
        differs from one already scored only in atoms the relaxation never
        reads costs a dict lookup.
        """
        relaxed = self.relaxed
        key = full & relaxed.reads
        memo = relaxed.memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = self._h_add(key)
        return value

    def _h_add(self, full: int) -> float:
        """h_add, computed afresh.

        An action costs 1 plus the summed costs of its positive
        preconditions (negative ones are free in the relaxation); a rule
        instance costs the summed costs of its body.  The atoms of the
        state cost 0.  So every cost is a whole number, and atoms are
        settled cheapest first, one whole cost level at a time, from
        buckets keyed by cost (Dial 1969), each level a bit set: the
        state's relevant atoms settle at level 0, ``relaxed.free`` waits at
        level 1, and the next level is the smallest cost waiting, however
        far up that is.  A level grows by rounds: the ``zero`` heads of
        the atoms it settled last round, and the makes of every producer
        whose needs that round completed at the level's cost, join it
        unless already settled; their ``one`` makes wait at the next
        level.  Only the producers that need more than one atom count
        their unmet needs and sum their costs, through ``watch``.
        Only the goal-relevant actions and rule instances (``relaxed``) are
        watched, and only relevant atoms get a cost; the goal atoms cost
        what they would over the whole task.  This stops once every
        positive goal atom is settled.  The value is the summed cost of the
        positive goal literals, an atom named twice counting twice, plus 1
        for each negative goal literal whose atom holds, so it is zero
        exactly on goal states.
        """
        violated = sum(full >> atom & 1 for atom in self.goal_neg)
        relaxed = self.relaxed
        fresh = full & relaxed.atoms
        pending = self.goal[0] & ~fresh
        if not pending:
            return float(violated)
        zero, one, watch, makes = relaxed.zero, relaxed.one, relaxed.watch, relaxed.makes
        unmet = relaxed.size.copy()
        total = relaxed.base.copy()
        buckets = {1: relaxed.free} if relaxed.free else {}
        settled = cost = level = later = 0
        while True:
            if fresh:
                # ``fresh`` holds the atoms that cost ``level`` and are
                # settled now; ``later`` gathers what they make at level + 1.
                settled |= fresh
                hit = fresh & pending
                if hit:
                    # Once per literal: a goal may name an atom twice.
                    cost += level * sum([hit >> atom & 1 for atom in self.goal_pos])
                    pending ^= hit
                    if not pending:
                        return float(violated + cost)
                made = 0
                while fresh:
                    low = fresh & -fresh
                    atom = low.bit_length() - 1
                    fresh ^= low
                    made |= zero[atom]
                    later |= one[atom]
                    for index in watch[atom]:
                        total[index] += level
                        unmet[index] -= 1
                        if not unmet[index]:
                            price = total[index]
                            if price == level:
                                made |= makes[index]
                            else:
                                buckets[price] = buckets.get(price, 0) | makes[index]
                fresh = made & ~settled
                continue
            if later:
                buckets[level + 1] = buckets.get(level + 1, 0) | later
                later = 0
            if not buckets:
                return INFINITY
            level = min(buckets)
            fresh = buckets.pop(level) & ~settled


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------


def make_heuristic(task: GroundTask):
    """h_add, satisficing mode's score of a state's full bit set."""
    return task.h_add


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def solve(
    domain: Domain, problem: Problem, cfg: SearchConfig = SearchConfig()
) -> SolveResult:
    """Search for a plan from problem.init to problem.goal.

    One best-first loop serves both modes.  Satisficing mode is greedy
    best-first under h_add.  Optimal mode scores every state 0, so
    the insertion counter alone orders the heap, first in, first out, and
    the loop is breadth-first (shortest plan under unit costs).  Ties break
    on insertion order, and so on grounded-action order, so equal inputs
    give equal plans.  The plan is the one the search path spells out;
    callers that hand it on check it with ``metrics.validate_plan``.
    """
    start = time.perf_counter()
    task = GroundTask(domain, problem)
    init = task.init

    if task.satisfied(init[1]):
        return SolveResult("solved", Plan(()), 0)

    if cfg.mode == "optimal":
        heuristic = lambda full: 0.0
    else:
        # Looked up by name: perfbench wraps make_heuristic to count its calls.
        heuristic = make_heuristic(task)

    # The closed set: each reached base maps to its parent base and the
    # index of the action between them, the root to None.
    parents: dict[int, tuple[int, int] | None] = {init[0]: None}
    expanded = 0
    counter = itertools.count()
    frontier: list[tuple[float, int, tuple]] = [(0.0, next(counter), init)]
    while frontier:
        if expanded >= cfg.node_limit:
            return SolveResult("node-limit", None, expanded)
        if time.perf_counter() - start > cfg.time_limit_s:
            return SolveResult("time-limit", None, expanded)
        state = heappop(frontier)[2]
        expanded += 1
        # Every new child is goal-tested before any is scored, so no
        # heuristic call goes to a sibling of a goal.
        children = []
        for index, base in task.successors(state):
            if base in parents:
                continue
            parents[base] = (state[0], index)
            full = task.closure(base)
            if task.satisfied(full):
                return SolveResult("solved", _reconstruct(task, parents, base), expanded)
            children.append((base, full))
        for child in children:
            h = heuristic(child[1])
            if h < INFINITY:
                heappush(frontier, (h, next(counter), child))
    return SolveResult("unsolvable", None, expanded)


def _reconstruct(task: GroundTask, parents, node) -> Plan:
    steps = []
    while parents[node] is not None:
        node, index = parents[node]
        steps.append(task.actions[index])
    steps.reverse()
    return Plan(tuple(steps))
