"""Forward state-space search over the typed STRIPS subset.

``solve`` compiles its problem once into a ``GroundTask``, whose states
are bit sets, and runs one best-first loop over it.  Each mechanism is
described where it is implemented:

- what a suite compiles once: ``suite`` and ``suite_tables``;
- grounding to atom ids from per-schema templates: ``ground_actions``,
  ``_rule_instances`` and ``_object_table``, kept as an ``ObjectTable``;
- the rule instances a task's init keeps, and the unit map: ``_kept_rules``
  and ``KeptRules``, which also own h_add's relaxations;
- memo groups and their size gate: ``MemoGroup``, ``MEMO_MIN_MEMBERS``
  and ``_memo_groups``;
- the derived-predicate closure and the successor order:
  ``GroundTask.closure`` and ``GroundTask.successors``;
- h_add: goal relevance in ``GroundTask._relax``, its memo in
  ``GroundTask.h_add`` and its cost levels in ``GroundTask._h_add``;
- the search loop: ``solve``;
- the lifted closure the plan validator in ``metrics`` judges with, kept
  apart from the task: ``axiom_closure`` and ``ClosureView``.
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
    """How ``solve`` searches: its mode, a positive int node limit and a
    positive, finite time limit in seconds."""

    mode: str = "satisficing"
    node_limit: int = 1_000_000
    time_limit_s: float = 120.0

    def __post_init__(self):
        if self.mode not in ("optimal", "satisficing"):
            raise PlannerError(f"unknown mode {self.mode!r}")
        nodes = self.node_limit
        if type(nodes) is not int or nodes <= 0 or not 0 < self.time_limit_s < INFINITY:
            raise PlannerError("limits must be positive and finite")


@dataclass(frozen=True)
class SolveResult:
    """What ``solve`` found, and how many nodes it expanded."""

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
    """All type-valid bindings of every schema, as steps: schema by schema,
    each schema's bindings in product order, the first parameter varying
    slowest.  A binding that falsifies an equality literal is dropped, so
    no compiled step reads one."""
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
    """Per rule: its head template, its body templates, and every binding
    of its variables that fits the type of each predicate position they
    occupy, the head's included, so a rule derives only well-typed heads,
    as PDDL requires."""
    fits = domain.hierarchy.fitting(typ for _, typ in objects)
    for rule in rules:
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
    """``ids`` as a bit set: a Python int with bit ``i`` set for each id
    ``i`` in ``ids``, so a set test or union is one whole-int operation."""
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


def _producer_tables(size: int, needs, base, makes) -> tuple:
    """A ``Relaxation``'s fields ``base`` to ``free``, over the atom ids
    below ``size``, for the producers with ``needs``, ``base`` costs and
    ``makes``."""
    watch: list[list[int]] = [[] for _ in range(size)]
    zero = [0] * size
    one = [0] * size
    multi: list[int] = []
    free = 0
    for index, need in enumerate(needs):
        if len(need) == 1:
            by_cost = one if base[index] else zero
            by_cost[need[0]] |= makes[index]
        elif need:
            for atom in need:
                watch[atom].append(len(multi))
            multi.append(index)
        else:
            free |= makes[index]
    return (
        [base[i] for i in multi],
        [len(needs[i]) for i in multi],
        [makes[i] for i in multi],
        tuple(map(tuple, watch)),
        tuple(zero),
        tuple(one),
        free,
    )


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
    """Steps or rule instances whose answer on a state reads only its bits
    in ``reads``, the OR of what the ``members`` read.  ``memo`` maps
    ``full & reads`` to that answer, so an entry is exact on every state
    and a state that agrees on those bits with one already answered costs
    one dict lookup; a call adds at most one entry.  ``memo`` is None for
    a run of small groups, which is scanned member by member."""

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
    """What a task compiles from its objects and the rules that
    ``relevant_rules`` keeps for its goal, built once per such pair and
    kept in ``suite_tables``.

    ``atoms[i]`` is the atom with id ``i``, every action's and then every
    rule instance's, and ``ids`` maps an atom, or a plain ``(predicate,
    args)`` key, back to its id.  ``actions`` are ``ground_actions``' steps,
    ``compiled[i]`` is step ``i`` as (positive precondition, negative
    precondition, add, delete) id tuples, and ``masks[i]`` is it as the bit
    sets ``(pos, neg, keep, add)``, ``keep`` being every atom but the
    deletes.  ``step_groups`` holds the steps as ``MemoGroup``s keyed by
    schema and first argument, each member ``(pos, neg, (index, keep,
    add))``.  ``rules`` holds every instance of the kept rules as ``(head,
    body, (body mask, head bit))``, ordered by the ``Domain.layer`` of the
    head predicate.  ``made`` is the bit set of every atom that an action
    adds or an instance has as head, and ``static`` that of the atoms some
    body reads and nothing makes.  ``kept`` maps a task's ``init & static``
    to its ``KeptRules``.  The table's memos live as long as it does.
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


def _object_table(
    domain: Domain, objects: tuple[tuple[str, str], ...], kept: tuple[DerivedRule, ...]
) -> ObjectTable:
    """Ground every action and every instance of the ``kept`` rules over
    ``objects``.  Each is instantiated straight to atom ids from its
    schema's or rule's templates, as Fast Downward's translator grounds
    into integer facts (Helmert 2009); the actions' atoms are interned
    first, and a ``GroundAtom`` is built only for each new atom."""
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
        tuple(atoms), ids, actions, compiled, masks, step_groups, made, read & ~made, rules, {}
    )


class KeptRules(NamedTuple):
    """The rule instances of an ``ObjectTable`` that the tasks with one
    ``init & table.static`` keep, in the table's layer order, with what
    the closure and h_add build from them.  ``head`` and ``body`` are the
    instances as ids.  ``unit_heads`` maps each atom that is some kept
    instance's whole body, and no kept instance's head, to the OR of those
    instances' head bits, and ``unit_bodies`` is the bit set of those
    atoms.  ``groups`` holds the other instances as ``MemoGroup``s keyed by
    head predicate and first head argument, each member ``(body, head)``
    as bit sets.  ``relaxations`` maps a task's positive and negative goal
    ids to its h_add ``Relaxation``: a relaxation reads nothing of a task
    but those ids, the table's actions and these instances, so the tasks
    that share them share it and its memo."""

    head: tuple[int, ...]
    body: tuple[tuple[int, ...], ...]
    unit_bodies: int
    unit_heads: dict[int, int]
    groups: tuple[MemoGroup, ...]
    relaxations: dict[tuple[tuple[int, ...], tuple[int, ...]], Relaxation]


def _kept_rules(table: ObjectTable, static: int) -> KeptRules:
    """The ``KeptRules`` of a task whose init holds the ``static`` bits of
    ``table.static``.  An atom some body reads is made or in
    ``table.static``, so an instance that reads an atom neither made nor
    among ``static`` can never fire, and it is dropped; the rest are kept
    whole, so the closure stays exact on every base of init and
    action-add atoms."""
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
        {},
    )


class Relaxation(NamedTuple):
    """A task's goal-relevant actions and rule instances, as h_add reads
    them.  ``producers`` holds their indices among the task's actions,
    then rule instances.  A producer needs some atoms (an action's positive
    precondition, an instance's body), costs ``base`` more than they do (1
    for an action, 0 for an instance) and makes a bit set (an action's
    relevant adds, an instance's head).  What the producers that need only
    ``atom`` make is joined into ``zero[atom]`` (instances) and
    ``one[atom]`` (actions).  The ``i``-th producer that needs more atoms
    needs ``size[i]``, costs ``base[i]`` more and makes ``makes[i]``, and
    ``watch[atom]`` lists its ``i`` once per occurrence of ``atom``.
    ``free`` is what the actions that need nothing make.  ``atoms`` is the
    bit set of the relevant atoms, ``reads`` adds the negative goal atoms
    to it, and ``memo`` maps ``full & reads`` to h_add's value."""

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

    The task takes ``actions``, ``compiled``, ``masks`` and ``step_groups``
    from the ``ObjectTable`` of its objects and kept rules, and
    ``rule_head``, ``rule_body``, ``unit_bodies``, ``unit_heads`` and
    ``rule_groups`` from that table's ``KeptRules`` for its init, building
    either on a miss.  It copies the table's ``atoms`` and ``ids``, then
    interns its goal atoms and then its init atoms: the order of a compile
    outside any suite, so no id, and so no plan, depends on which problem
    built the table.  ``goal_pos`` and ``goal_neg`` are the goal literals'
    atom ids and ``goal`` their bit sets.  A state, such as ``init``, is a
    pair ``(base, full)`` of bit sets: the observed atoms, and those plus
    every atom the kept rules derive from them.
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
        self.rule_head, self.rule_body, self.unit_bodies, self.unit_heads = kept[:4]
        self.rule_groups, self._relaxations = kept[4:]
        self.step_groups = table.step_groups
        self.init = (base, self.closure(base))

    @cached_property
    def relaxed(self) -> Relaxation:
        """h_add's ``Relaxation``, looked up in the kept rules'
        ``relaxations`` on the first h_add call and built on a miss, so a
        search that runs no h_add never builds one."""
        key = (self.goal_pos, self.goal_neg)
        relaxed = self._relaxations.get(key)
        if relaxed is None:
            relaxed = self._relaxations[key] = self._relax()
        return relaxed

    def _relax(self) -> Relaxation:
        """``relaxed``, built afresh by walking back from the positive goal
        atoms: an action that adds a relevant atom is relevant, and so are
        its positive preconditions; a rule instance whose head is relevant
        is relevant, and so are its body atoms
        (Nebel, Dimopoulos & Koehler 1997).  Negative preconditions and
        goal literals cost nothing in the relaxation, so they make nothing
        relevant.  Every achiever of a relevant atom is relevant, so each
        goal atom costs what it would over the whole task."""
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
        kept_needs = [needs[i] for i in order]
        relevant = _mask(atoms)
        kept_makes = [_mask(makes[i]) & relevant for i in order]
        base = [int(i < len(self.compiled)) for i in order]
        tables = _producer_tables(relevant.bit_length(), kept_needs, base, kept_makes)
        return Relaxation(relevant, relevant | self.goal[1], tuple(order), *tables, {})

    def decode(self, mask: int) -> frozenset[GroundAtom]:
        """The atoms of the bit set ``mask``."""
        return frozenset(self.atoms[i] for i in _bits(mask))

    def closure(self, base: int) -> int:
        """``base`` plus every atom the kept rules derive from it, in one
        pass, as Fast Downward evaluates axioms layer by layer
        (Helmert 2006).

        First each set bit of ``base & unit_bodies`` ORs in its
        ``unit_heads``: no kept instance makes such a body atom, so its bit
        is final before anything is derived.  Then each of ``rule_groups``
        in turn sets the heads of its members whose body bits are all set.
        A group's members share a head predicate and so a ``Domain.layer``,
        none reads an atom of its own layer, and the groups come in layer
        order, so every bit a group reads is final when the pass reaches
        it, and one pass is enough.
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
        """(action index, next base) for each applicable step of ``state``,
        in index order, from ``step_groups``, as Fast Downward precompiles
        a successor generator (Helmert 2006).  A step applies when ``full &
        pos == pos and not full & neg``, and its next base is ``base & keep
        | add``.  ``ground_actions`` varies each schema's first parameter
        slowest, so each group is one run of indices and the groups come
        in index order: the list, and so the search's ties, are those a
        scan of ``masks`` gives."""
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
        """Whether the goal holds in the full bit set ``full``."""
        pos, neg = self.goal
        return full & pos == pos and not full & neg

    def h_add(self, full: int) -> float:
        """The additive cost of the goal under the delete relaxation, h_add
        (Bonet & Geffner 2001); rule instances cost nothing.  It reads
        only ``full``'s bits in ``relaxed.reads``, so it is memoized in
        ``relaxed.memo`` by those bits, as Fast Downward caches heuristic
        values per state (Helmert 2006)."""
        relaxed = self.relaxed
        key = full & relaxed.reads
        memo = relaxed.memo
        value = memo.get(key)
        if value is None:
            value = memo[key] = self._h_add(key)
        return value

    def _h_add(self, full: int) -> float:
        """h_add, computed afresh.

        Every cost is a whole number, so atoms are settled cheapest first,
        one whole cost level at a time, from buckets keyed by cost
        (Dial 1969), each level a bit set: the state's relevant atoms at
        level 0, ``relaxed.free`` waiting at level 1, and each next level
        the smallest cost waiting.  A level grows by rounds: the ``zero``
        makes of the atoms it settled last round, and the makes of each
        watched producer whose needs that round completed at the level's
        cost, join it unless already settled; their ``one`` makes wait at
        the next level.  It stops once every positive goal atom is settled.
        The value sums the positive goal literals' costs, an atom named
        twice counting twice, plus 1 per negative goal literal whose atom
        holds, so it is zero exactly on goal states.
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
    """Search for a plan from ``problem.init`` to ``problem.goal``.

    One best-first loop over a heap ordered by score, then insertion,
    serves both modes.  Satisficing mode scores a state by h_add, so it is
    greedy best-first search; optimal mode scores every state 0, so the
    heap pops first in, first out, and the loop is breadth-first search
    (shortest plans under unit costs).  Ties break on insertion order, and
    so on grounded-action order, so equal inputs give equal plans.  Every
    new child of a node is goal-tested before any is scored, so no
    heuristic call goes to a sibling of a goal.  The plan is not replayed
    here: callers that hand it on check it with ``metrics.validate_plan``.
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
