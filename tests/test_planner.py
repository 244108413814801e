"""Grounding, derived-predicate closure, and search.

Frozen oracle values: tower-transfer optima 2^d - 1 (7, 15, 31), labeled
stacking configurations 1, 3, 13, 73, 501 for n = 1..5, and grounding
counts worked out by hand from the schema signatures.
"""

from __future__ import annotations

import contextvars
import gc
import itertools
import random
import tracemalloc
from collections import deque
from unittest import mock
from dataclasses import replace
from heapq import heappop, heappush
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import sceneground.metrics as metrics
import sceneground.planner as planner
from naive_ref import (
    _ground_steps,
    _typed_rule_instances,
    naive_apply,
    naive_bfs,
    naive_closure,
    naive_ground_action,
    naive_h_add,
    naive_read_predicates,
    naive_relaxed_steps,
    naive_run,
    naive_unread,
    well_typed,
)
from sceneground.bench import GenConfig, domain_text, write_suite
from sceneground.bench.generate import gen_blocksworld, gen_cooking
from sceneground.graph import enumerate_candidates
from sceneground.metrics import validate_plan
from sceneground.pddl import parse_domain, parse_problem
from sceneground.pddl.model import (
    Atom,
    DerivedRule,
    Domain,
    GroundAtom,
    GroundLiteral,
    Plan,
    PlanStep,
    Problem,
    TypeHierarchy,
    relevant_rules,
)
from sceneground.planner import (
    GroundTask,
    PlannerError,
    SearchConfig,
    axiom_closure,
    ground_actions,
    make_heuristic,
    solve,
    suite,
    suite_tables,
)
from sceneground.scene import merge_detections

BLOCKS = parse_domain(domain_text("blocksworld"))
HANOI = parse_domain(domain_text("hanoi"))
COOKING = parse_domain(domain_text("cooking"))

PEGS = ("p1", "p2", "p3")


def hanoi_problem(disks: int, start: str = "p1", target: str = "p3") -> Problem:
    """Full tower on one peg; goal puts every disk on the target peg."""
    names = [f"d{i}" for i in range(1, disks + 1)]  # d1 is the smallest
    objects = tuple((d, "disk") for d in names) + tuple((p, "peg") for p in PEGS)
    init = set()
    for i, small in enumerate(names):
        for big in names[i + 1 :]:
            init.add(GroundAtom("smaller", (small, big)))
        init.add(GroundAtom("onpeg", (small, start)))
    for upper, lower in zip(names, names[1:]):
        init.add(GroundAtom("on", (upper, lower)))
    goal = tuple(
        GroundLiteral(GroundAtom("onpeg", (d, target)), False) for d in names
    )
    return Problem("tower", "hanoi", objects, frozenset(init), goal)


def blocks_problem(n: int, init_on=(), goal=()) -> Problem:
    objects = tuple((f"b{i}", "block") for i in range(1, n + 1))
    init = frozenset(GroundAtom("on", pair) for pair in init_on)
    return Problem("stacks", "blocksworld", objects, init, tuple(goal))


def positive(predicate: str, *args: str) -> GroundLiteral:
    return GroundLiteral(GroundAtom(predicate, args), False)


def negative(predicate: str, *args: str) -> GroundLiteral:
    return GroundLiteral(GroundAtom(predicate, args), True)


def reachable(task: GroundTask, limit: float = float("inf")) -> list:
    """Task states reachable from init, breadth first, at most ``limit``."""
    states = [task.init]
    seen = {task.init[0]}
    for state in states:
        for _, base in task.successors(state):
            if base not in seen and len(states) < limit:
                seen.add(base)
                states.append((base, task.closure(base)))
    return states


def action_index(task: GroundTask, name: str, *args: str) -> int:
    return task.actions.index(PlanStep(name, args))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def test_hanoi_three_disks_grounds_to_18_actions():
    problem = hanoi_problem(3)
    grounded = ground_actions(HANOI, problem.objects)
    assert len(grounded) == 18  # 3 disks x 3 from-pegs x 3 to-pegs, minus from == to


def test_grounding_resolves_equality_away():
    task = GroundTask(HANOI, hanoi_problem(2))
    for action, (pos, neg, _, _) in zip(task.actions, task.masks):
        assert all(atom.predicate != "=" for atom in task.decode(pos | neg))
        _, from_peg, to_peg = action.args
        assert from_peg != to_peg


def test_blocksworld_grounding_count_by_hand():
    # unstack twins: 3*3 each (no equality literal, b == from stays but is
    # inert); stack twins: 3*3 - 3 each, killed by the equality literal.
    grounded = ground_actions(BLOCKS, blocks_problem(3).objects)
    per_schema = {}
    for action in grounded:
        per_schema[action.action] = per_schema.get(action.action, 0) + 1
    assert per_schema == {
        "unstack-from-base": 9,
        "unstack-from-tower": 9,
        "stack-on-base": 6,
        "stack-on-tower": 6,
    }


def brute_force_ground(domain, objects):
    """Independent enumeration: typed pools, then the equality filter."""
    found = set()
    for schema in domain.actions:
        pools = [
            [n for n, t in objects if domain.hierarchy.is_subtype(t, want)]
            for _, want in schema.params
        ]
        names = [v for v, _ in schema.params]
        for combo in itertools.product(*pools):
            env = dict(zip(names, combo))
            keep = True
            for lit in schema.precondition:
                if lit.atom.predicate == "=":
                    same = env[lit.atom.args[0]] == env[lit.atom.args[1]]
                    if same == lit.negated:
                        keep = False
            if keep:
                found.add((schema.name, combo))
    return found


@pytest.mark.parametrize(
    "domain,objects",
    [
        (BLOCKS, blocks_problem(4).objects),
        (HANOI, hanoi_problem(3).objects),
        (
            COOKING,
            (
                ("gripper1", "gripper"),
                ("gripper2", "gripper"),
                ("cucumber", "vegetable"),
                ("knife", "tool"),
                ("board1", "board"),
                ("bowl1", "container"),
            ),
        ),
    ],
    ids=["blocksworld", "hanoi", "cooking"],
)
def test_grounding_matches_brute_force(domain, objects):
    grounded = {(a.action, a.args) for a in ground_actions(domain, objects)}
    assert grounded == brute_force_ground(domain, objects)


def test_grounding_order_is_deterministic():
    objects = hanoi_problem(3).objects
    first = ground_actions(HANOI, objects)
    second = ground_actions(HANOI, objects)
    assert first == second


# ---------------------------------------------------------------------------
# Derived-predicate closure
# ---------------------------------------------------------------------------


def facts_of(atoms) -> dict[str, set[tuple[str, ...]]]:
    """The atoms as ``axiom_closure`` reads them: argument tuples per
    predicate."""
    facts: dict[str, set[tuple[str, ...]]] = {}
    for atom in atoms:
        facts.setdefault(atom.predicate, set()).add(atom.args)
    return facts


def closure_of(atoms, domain: Domain):
    return axiom_closure(facts_of(atoms), domain.derived)


def ground_atoms(domain: Domain, kind: str, constants) -> list[GroundAtom]:
    """Every atom of the domain's predicates of this kind over the
    constants, types ignored."""
    return [
        GroundAtom(sig.name, args)
        for sig in domain.predicates
        if sig.kind == kind
        for args in itertools.product(constants, repeat=sig.arity)
    ]


def test_closure_on_blocks_stack():
    base = {GroundAtom("on", ("b1", "b2")), GroundAtom("on", ("b2", "b3"))}
    view = closure_of(base, BLOCKS)
    held = {a for a in ground_atoms(BLOCKS, "derived", ("b1", "b2", "b3")) if a in view}
    assert held == {
        GroundAtom("covered", ("b2",)),
        GroundAtom("covered", ("b3",)),
        GroundAtom("supported", ("b1",)),
        GroundAtom("supported", ("b2",)),
        GroundAtom("elevated", ("b1",)),
        GroundAtom("buried", ("b2",)),
        GroundAtom("stacked-over", ("b1", "b3")),
    }


def test_closure_of_empty_base_is_empty():
    view = closure_of(frozenset(), BLOCKS)
    assert not any(a in view for a in ground_atoms(BLOCKS, "derived", ("b1", "b2")))


def test_task_closure_respects_head_types():
    # Cooking truth init with the cucumber on the board: the rule
    # in(?o - carriable, ?c - container) <- at(?o, ?c) must not derive
    # in(cucumber, board1), because a board is not a container.
    problem = gen_cooking(0).truth
    assert GroundAtom("at", ("cucumber", "board1")) in problem.init
    task = GroundTask(COOKING, problem)
    derived = task.decode(task.init[1]) - problem.init
    assert GroundAtom("in", ("cucumber", "board1")) not in derived
    assert GroundAtom("in", ("tomato", "white_bowl")) in derived
    view = closure_of(problem.init, COOKING)
    names = [name for name, _ in problem.objects]
    lifted = [a for a in ground_atoms(COOKING, "derived", names) if a in view]
    assert derived == {a for a in lifted if well_typed(a, COOKING, problem.objects)}


BLOCK_NAMES = ("b1", "b2", "b3", "b4")


@st.composite
def on_atom_sets(draw):
    pairs = st.tuples(st.sampled_from(BLOCK_NAMES), st.sampled_from(BLOCK_NAMES))
    atoms = draw(st.frozensets(pairs, max_size=8))
    return frozenset(GroundAtom("on", pair) for pair in atoms)


@settings(max_examples=60, deadline=None)
@given(on_atom_sets(), on_atom_sets())
def test_closure_is_monotone_in_the_base(small, extra):
    # Positive rules only, so a larger base never loses derived atoms.
    smaller, larger = closure_of(small, BLOCKS), closure_of(small | extra, BLOCKS)
    for atom in ground_atoms(BLOCKS, "derived", BLOCK_NAMES):
        assert atom not in smaller or atom in larger


@settings(max_examples=40, deadline=None)
@given(on_atom_sets())
def test_closure_derives_only_derived_predicates(base):
    view = closure_of(base, BLOCKS)
    for atom in ground_atoms(BLOCKS, "observed", BLOCK_NAMES):
        assert (atom in view) == (atom in base)


CLOSURE_CASES = [
    (domain, [(sig.name, sig.arity) for sig in domain.observed])
    for domain in (BLOCKS, HANOI, COOKING)
]
CLOSURE_NAMES = ("o1", "o2", "o3", "o4")


@st.composite
def closure_cases(draw):
    domain, predicates = draw(st.sampled_from(CLOSURE_CASES))
    names = st.sampled_from(CLOSURE_NAMES)
    atom = st.sampled_from(predicates).flatmap(
        lambda sig: st.tuples(st.just(sig[0]), st.tuples(*[names] * sig[1]))
    )
    atoms = draw(st.frozensets(atom, max_size=10))
    return domain, frozenset(GroundAtom(name, args) for name, args in atoms)


@settings(max_examples=100, deadline=None)
@given(closure_cases())
def test_closure_agrees_with_naive_reference(case):
    domain, base = case
    reference = naive_closure(base, domain)
    view = closure_of(base, domain)
    for atom in ground_atoms(domain, "derived", CLOSURE_NAMES):
        assert (atom in view) == (atom in reference)


def test_closure_refuses_a_recursive_derivation():
    # The parser refuses recursive rules.  A hand-built rule set still
    # answers a query that never comes to depend on itself, and refuses
    # one that does: p(o1, o3) asks p(o2, o3), which asks p(o1, o3).
    rules = (
        DerivedRule(Atom("p", ("?a", "?b")), (Atom("e", ("?a", "?b")),)),
        DerivedRule(
            Atom("p", ("?a", "?b")), (Atom("e", ("?a", "?m")), Atom("p", ("?m", "?b")))
        ),
    )
    view = axiom_closure({"e": {("o1", "o2"), ("o2", "o1")}}, rules)
    assert ("p", ("o1", "o2")) in view
    with pytest.raises(PlannerError, match="recursive rules for 'p'"):
        ("p", ("o1", "o3")) in view


def test_fan_out_query_runs_its_join_at_most_twice(monkeypatch):
    # p(a) reads r(y) for each of 500 q(a, y) rows.  One pass over the rows
    # collects all 500 subqueries and a second run joins their answers; a
    # join that stopped at its first unanswered subquery would run 501 times.
    rules = (
        DerivedRule(Atom("p", ("?x",)), (Atom("q", ("?x", "?y")), Atom("r", ("?y",)))),
        DerivedRule(Atom("r", ("?y",)), (Atom("s", ("?y",)),)),
    )
    names = [f"y{i}" for i in range(500)]
    base = {GroundAtom("q", ("a", y)) for y in names}
    base |= {GroundAtom("q", ("b", y)) for y in names[:100]}
    base |= {GroundAtom("s", (y,)) for y in names[100::7]}
    runs = []
    solve_once = planner.ClosureView._solve

    def counted(view, predicate, pattern):
        runs.append((predicate, pattern))
        return solve_once(view, predicate, pattern)

    monkeypatch.setattr(planner.ClosureView, "_solve", counted)
    view = axiom_closure(facts_of(base), rules)
    assert ("p", ("a",)) in view
    assert runs.count(("p", ("a",))) <= 2
    reference = naive_closure(base, SimpleNamespace(derived=rules))
    for name in ("a", "b", *names):
        for atom in (GroundAtom("p", (name,)), GroundAtom("r", (name,))):
            assert (atom in view) == (atom in reference)


def test_validator_proves_only_the_derived_atoms_a_step_reads(monkeypatch):
    # A hanoi move reads two blocked atoms and the goal reads only onpeg,
    # so replaying the 63-step 6-disk plan answers two blocked queries per
    # step and none for the goal.  A full closure of a state would derive
    # every blocked atom that holds in it.
    views = []

    def capture(facts, rules):
        views.append(axiom_closure(facts, rules))
        return views[-1]

    monkeypatch.setattr(metrics, "axiom_closure", capture)
    problem = hanoi_problem(6)
    plan = solve(HANOI, problem, SearchConfig(mode="optimal")).plan
    assert len(plan) == 63
    assert validate_plan(HANOI, problem.init, problem.goal, plan).ok
    assert [len(view.answers) for view in views] == [2] * 63 + [0]
    assert {query[0] for view in views for query in view.answers} == {"blocked"}


def test_task_drops_the_rule_instances_that_read_never_true_atoms():
    # Nothing reads hanoi's above, so 6-disk hanoi grounds only its 108
    # blocked instances, with 216 body atoms.  Its 15 smaller atoms are in
    # init and no action adds the other 21 ordered pairs, so 45 remain,
    # each reading its smaller and its onpeg atom.  Blocksworld's actions
    # read only covered and supported (50 instances), and (on ?b ?b) never
    # holds: 40 remain.
    task = GroundTask(HANOI, hanoi_problem(6))
    assert len(task.rule_head) == 45
    bodies = [body for group in task.rule_groups for body, _ in group.members]
    assert len(bodies) == 45 and sum(body.bit_count() for body in bodies) == 90
    assert len(GroundTask(BLOCKS, blocks_problem(5)).rule_head) == 40


# (big ?x) holds exactly when (s ?x) does, and no action writes s.
BIG = parse_domain(
    "(define (domain big) (:requirements :strips :typing :derived-predicates)"
    " (:types thing) (:predicates (s ?x - thing) (m ?x - thing) (big ?x - thing))"
    " (:derived (big ?x) (s ?x))"
    " (:action go :parameters (?x - thing) :precondition (big ?x) :effect (m ?x)))"
)


def test_task_closure_is_exact_on_a_base_that_lacks_a_static_atom():
    # Every state reachable from init holds (s a) and so (big a); the
    # closure must not take that for granted on a base without (s a).
    s, m, big = (GroundAtom(p, ("a",)) for p in ("s", "m", "big"))
    problem = Problem("big", "big", (("a", "thing"),), frozenset({s}), (positive("m", "a"),))
    task = GroundTask(BIG, problem)
    assert task.decode(task.init[1]) == {s, big}
    assert task.decode(task.closure(1 << task.ids[m])) == {m}
    assert task.decode(task.closure(1 << task.ids[m] | 1 << task.ids[s])) == {s, m, big}


def layered_domain(depth: int, jump: int) -> Domain:
    """Nullary rules d{depth} <- ... <- d1 <- d0 <- (s ?x), declared top
    first, so that every rule's body is made by rules declared after it;
    d{jump} also holds when some (t ?x) does.  Actions add s and t, and
    ``wipe``, which reads d{depth}, deletes them."""
    preds = " ".join(f"(d{i})" for i in range(depth + 1))
    rules = [f"(:derived (d{i}) (d{i - 1}))" for i in range(depth, 0, -1)]
    rules += [f"(:derived (d{jump}) (t ?x))", "(:derived (d0) (s ?x))"]
    actions = [
        f"(:action set-{p} :parameters (?x - {typ}) :precondition (not ({p} ?x))"
        f" :effect ({p} ?x))"
        for p, typ in (("s", "spot"), ("t", "thing"))
    ]
    actions.append(
        f"(:action wipe :parameters (?x - spot ?y - thing) :precondition (d{depth})"
        " :effect (and (not (s ?x)) (not (t ?y))))"
    )
    return parse_domain(
        "(define (domain layered) (:requirements :strips :typing :derived-predicates)"
        f" (:types spot thing) (:predicates (s ?x - spot) (t ?x - thing) {preds})"
        f" {' '.join(rules)} {' '.join(actions)})"
    )


@pytest.mark.parametrize(
    "depth, jump, objects",
    [
        # Every layer fires: the chain from (s p) is 40 rules long.
        (40, 20, (("p", "spot"), ("a", "thing"))),
        # No spot, so d0 never holds and only the 6 layers from d1495 up
        # fire; the pass still orders 1500 layers, which a recursive walk
        # of the rule graph could not do under the default recursion limit.
        (1500, 1495, (("a", "thing"),)),
    ],
    ids=["reversed", "deep"],
)
def test_task_closure_follows_the_layers_not_the_declaration_order(depth, jump, objects):
    # A pass in declaration order would derive only the heads of the rules
    # that read base atoms; the layer order derives every layer in one.
    domain = layered_domain(depth, jump)
    problem = Problem("layered", "layered", objects, frozenset(), (negative(f"d{depth}"),))
    task = GroundTask(domain, problem)
    states = reachable(task)
    assert len(states) == 2 ** len(objects)
    for base, full in states:
        assert task.decode(full) == naive_closure(task.decode(base), domain)
    # Only the empty state derives nothing.
    top = GroundAtom(f"d{depth}", ())
    assert sum(top in task.decode(full) for _, full in states) == len(states) - 1


def test_h_add_reads_only_the_goal_relevant_actions_and_rule_instances():
    # The cooking truth's goal is (sliced cucumber) (in cucumber red_bowl):
    # nothing that moves or slices the tomato reaches it (14 of the 40
    # actions), and of the 18 rule instances only the one deriving
    # (in cucumber red_bowl) from (at cucumber red_bowl) does.  Every hanoi
    # move adds an onpeg atom that a goal atom's achievers read, and blocked
    # is read only by negative preconditions, which cost nothing in the
    # relaxation.
    # The actions come first among the producers, then the rule instances.
    task = GroundTask(COOKING, gen_cooking(0).truth)
    assert (relevant_actions(task), len(task.compiled)) == (26, 40)
    assert (len(task.relaxed.producers) - 26, len(task.rule_head)) == (1, 18)
    hanoi = GroundTask(HANOI, hanoi_problem(6))
    assert relevant_actions(hanoi) == len(hanoi.compiled) == 36
    assert (len(hanoi.relaxed.producers) - 36, len(hanoi.rule_head)) == (0, 45)


def relevant_actions(task) -> int:
    """How many of the task's actions its relaxation keeps."""
    return sum(index < len(task.compiled) for index in task.relaxed.producers)


@pytest.mark.parametrize(
    "domain,goal,heads",
    [
        (HANOI, hanoi_problem(3).goal, ["blocked"]),
        (BLOCKS, (), ["covered", "supported"]),
        (BLOCKS, (positive("buried", "b1"),), ["covered", "supported", "buried"]),
        # With no action, only buried's body reads covered and supported.
        (
            replace(BLOCKS, actions=()),
            (positive("buried", "b1"),),
            ["covered", "supported", "buried"],
        ),
        (COOKING, (), ["gripping", "held"]),
        (
            COOKING,
            (negative("in", "tomato", "white_bowl"),),
            ["in", "gripping", "held"],
        ),
    ],
    ids=[
        "hanoi",
        "blocks-no-goal",
        "blocks-buried",
        "blocks-buried-no-actions",
        "cooking-no-goal",
        "cooking-in",
    ],
)
def test_relevant_rules_keep_what_is_read(domain, goal, heads):
    assert [rule.head.predicate for rule in relevant_rules(domain, goal)] == heads


# ---------------------------------------------------------------------------
# State transitions
# ---------------------------------------------------------------------------


def test_covered_block_cannot_move():
    problem = blocks_problem(3, init_on=[("b1", "b2"), ("b2", "b3")])
    task = GroundTask(BLOCKS, problem)
    moves = dict(task.successors(task.init))
    assert action_index(task, "unstack-from-tower", "b1", "b2") in moves
    assert action_index(task, "unstack-from-base", "b2", "b3") not in moves


def test_apply_action_refreshes_derived_atoms():
    problem = blocks_problem(2, init_on=[("b1", "b2")])
    task = GroundTask(BLOCKS, problem)
    assert GroundAtom("covered", ("b2",)) in task.decode(task.init[1])
    moves = dict(task.successors(task.init))
    after = moves[action_index(task, "unstack-from-base", "b1", "b2")]
    assert task.decode(after) == frozenset()
    assert task.decode(task.closure(after)) == frozenset()


def test_hanoi_reachable_states_number_three_to_the_d():
    # Any disk-to-peg assignment is legal (order on a peg is forced by
    # size), and every assignment is reachable from the start tower.
    assert len(reachable(GroundTask(HANOI, hanoi_problem(3)))) == 27


@pytest.mark.parametrize("n,count", [(2, 3), (3, 13), (4, 73), (5, 501)])
def test_blocksworld_reachable_configuration_counts(n, count):
    # Orderings of n labeled blocks into towers: 1, 3, 13, 73, 501, ...
    assert len(reachable(GroundTask(BLOCKS, blocks_problem(n)))) == count


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("disks,optimum", [(1, 1), (2, 3), (3, 7), (4, 15), (5, 31)])
def test_tower_transfer_optimal_lengths(disks, optimum):
    result = solve(HANOI, hanoi_problem(disks), SearchConfig(mode="optimal"))
    assert result.status == "solved"
    assert len(result.plan) == optimum


def test_goal_satisfied_at_init_gives_empty_plan():
    problem = hanoi_problem(2, start="p3", target="p3")
    result = solve(HANOI, problem, SearchConfig(mode="optimal"))
    assert result.status == "solved"
    assert result.plan == Plan(())
    assert result.expanded == 0


def test_disk_on_two_pegs_is_unsolvable():
    base = hanoi_problem(1)
    problem = Problem(
        base.name,
        base.domain_name,
        base.objects,
        base.init,
        (positive("onpeg", "d1", "p1"), positive("onpeg", "d1", "p2")),
    )
    result = solve(HANOI, problem, SearchConfig(mode="optimal"))
    assert result.status == "unsolvable"
    assert result.plan is None
    assert result.expanded == 3  # the whole 3-state space


def test_node_limit_reported():
    result = solve(
        HANOI, hanoi_problem(4), SearchConfig(mode="optimal", node_limit=5)
    )
    assert result.status == "node-limit"
    assert result.plan is None
    assert result.expanded == 5


def test_time_limit_reported():
    result = solve(
        HANOI, hanoi_problem(6), SearchConfig(mode="optimal", time_limit_s=1e-6)
    )
    assert result.status == "time-limit"
    assert result.plan is None


def test_derived_goal_literals_are_supported():
    problem = blocks_problem(
        3,
        init_on=[("b1", "b2")],
        goal=[positive("elevated", "b3")],
    )
    result = solve(BLOCKS, problem, SearchConfig(mode="optimal"))
    assert result.status == "solved"
    assert len(result.plan) == 1  # b3 straight onto the existing stack


def test_satisficing_plans_replay_cleanly():
    problem = blocks_problem(
        4,
        init_on=[("b1", "b2"), ("b2", "b3")],
        goal=[positive("on", "b3", "b4"), positive("on", "b2", "b1")],
    )
    result = solve(BLOCKS, problem, SearchConfig(mode="satisficing"))
    assert result.status == "solved"
    ok, reason, step = naive_run(BLOCKS, problem.init, problem.goal, result.plan)
    assert (ok, reason, step) == (True, None, None)


def test_satisficing_hanoi_four_disks():
    problem = hanoi_problem(4)
    result = solve(HANOI, problem, SearchConfig(mode="satisficing"))
    assert result.status == "solved"
    assert len(result.plan) >= 15
    ok, _, _ = naive_run(HANOI, problem.init, problem.goal, result.plan)
    assert ok


def random_blocks_instance(rng: random.Random, n: int):
    """Random stacking of n blocks, and a goal reached by a random walk."""
    names = [f"b{i}" for i in range(1, n + 1)]
    rng.shuffle(names)
    init_on = []
    tower = [names[0]]
    for name in names[1:]:
        if rng.random() < 0.6:
            init_on.append((name, tower[-1]))
            tower.append(name)
        else:
            tower = [name]
    problem = blocks_problem(n, init_on=init_on)
    task = GroundTask(BLOCKS, problem)
    base = task.init[0]
    for _ in range(rng.randint(2, 6)):
        options = [nxt for _, nxt in task.successors((base, task.closure(base)))]
        if not options:
            break
        base = rng.choice(options)
    goal = tuple(
        GroundLiteral(atom, False)
        for atom in sorted(task.decode(base))
        if atom.predicate == "on"
    )
    if not goal:
        goal = (negative("supported", "b1"), negative("covered", "b1"))
    return Problem("walked", "blocksworld", problem.objects, problem.init, goal)


@pytest.mark.parametrize("seed", range(8))
def test_optimal_length_matches_naive_reference(seed):
    problem = random_blocks_instance(random.Random(seed), 4)
    result = solve(BLOCKS, problem, SearchConfig(mode="optimal"))
    assert result.status == "solved"
    assert len(result.plan) == naive_bfs(BLOCKS, problem)


def breadth_first(domain: Domain, problem: Problem):
    """Plain breadth-first search over the task with a deque, goal-testing
    each new child as ``solve`` does.  Returns the plan and the
    expansions."""
    task = GroundTask(domain, problem)
    if task.satisfied(task.init[1]):
        return Plan(()), 0
    parents = {task.init[0]: None}
    queue = deque([task.init])
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        for index, base in task.successors(state):
            if base in parents:
                continue
            parents[base] = (state[0], index)
            full = task.closure(base)
            if task.satisfied(full):
                return planner._reconstruct(task, parents, base), expanded
            queue.append((base, full))
    raise AssertionError("no plan")


@pytest.mark.parametrize(
    "domain, problem",
    [
        *(pytest.param(HANOI, hanoi_problem(d), id=f"hanoi-{d}") for d in (3, 4, 5)),
        *(
            pytest.param(BLOCKS, random_blocks_instance(random.Random(seed), 4), id=f"blocks-{seed}")
            for seed in range(8)
        ),
    ],
)
def test_optimal_mode_expands_as_breadth_first_search(domain, problem):
    result = solve(domain, problem, SearchConfig(mode="optimal"))
    assert (result.plan, result.expanded) == breadth_first(domain, problem)


def test_grounding_and_candidates_read_the_type_table(monkeypatch):
    generated = gen_cooking(0)
    objects = generated.truth.objects
    scene = merge_detections(generated.exemplar_obs, COOKING)

    def enumerated():
        rules = planner._rule_instances(COOKING.derived, objects, COOKING)
        return (
            ground_actions(COOKING, objects),
            [([p for p, _ in body], list(bindings)) for _, body, bindings in rules],
            enumerate_candidates(scene, COOKING),
        )

    before = enumerated()
    assert before[0] and before[2] and any(bindings for _, bindings in before[1])

    def refuse(*args):
        raise AssertionError("is_subtype called")

    monkeypatch.setattr(TypeHierarchy, "is_subtype", refuse)
    assert enumerated() == before


def test_identical_inputs_give_identical_plans():
    problem = hanoi_problem(3)
    for cfg in (SearchConfig(mode="optimal"), SearchConfig(mode="satisficing")):
        first = solve(HANOI, problem, cfg)
        second = solve(HANOI, problem, cfg)
        assert first.plan.steps == second.plan.steps
        assert first.expanded == second.expanded


def test_solve_grounds_once_per_object_set_and_rule_set(monkeypatch):
    calls = []
    original = planner.ground_actions

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(planner, "ground_actions", counting)
    three = hanoi_problem(3)
    with suite(HANOI) as tables:
        assert solve(HANOI, three, SearchConfig(mode="optimal")).status == "solved"
        assert len(calls) == 1
        # The same objects with another init and goal reuse the table.
        moved = hanoi_problem(3, start="p2", target="p1")
        assert moved.objects == three.objects and moved.init != three.init
        assert solve(HANOI, moved, SearchConfig(mode="satisficing")).status == "solved"
        assert len(calls) == 1
        # One more object is another object set.
        assert solve(HANOI, hanoi_problem(4), SearchConfig(mode="optimal")).status == "solved"
        assert len(calls) == 2
        # A goal that reads above keeps above's rule as well as blocked's.
        above = replace(three, goal=(positive("above", "d1", "d2"),))
        assert solve(HANOI, above, SearchConfig(mode="optimal")).status == "solved"
        assert len(calls) == 3
    assert sorted(
        (len(objects), [rule.head.predicate for rule in kept]) for objects, kept in tables
    ) == [(6, ["blocked"]), (6, ["blocked", "above"]), (7, ["blocked"])]
    # Outside a suite every solve grounds afresh.
    solve(HANOI, three, SearchConfig(mode="optimal"))
    solve(HANOI, three, SearchConfig(mode="optimal"))
    assert len(calls) == 5


def memo_groups() -> int:
    """How many memo groups are alive, in tables and tasks alike."""
    return sum(isinstance(item, planner.MemoGroup) for item in gc.get_objects())


def test_solves_outside_a_suite_retain_nothing():
    # 300 problems on one domain, each over its own four block names: the
    # tables each solve compiles die with it, and so do the step and
    # closure memos they hold.  Kept, the tables would come to about 15 MB.
    assert not hasattr(BLOCKS, "tables")

    def four_blocks(index: int) -> Problem:
        a, b, c, d = (f"p{index}b{i}" for i in range(4))
        objects = tuple((name, "block") for name in (a, b, c, d))
        init = frozenset({GroundAtom("on", (b, a))})
        return Problem("stacks", "blocksworld", objects, init, (positive("on", a, b),))

    problems = [four_blocks(index) for index in range(300)]
    solve(BLOCKS, problems[0])
    gc.collect()
    alive = memo_groups()
    task = GroundTask(BLOCKS, problems[0])
    assert memo_groups() == alive + len(task.step_groups) + len(task.rule_groups)
    del task
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for problem in problems:
            assert solve(BLOCKS, problem).status == "solved"
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert memo_groups() == alive


def test_another_domain_in_a_suite_grounds_its_own_table():
    # Two domains with one name, the same predicates and no rules: in the
    # first finish needs lit, in the second it needs nothing.  The problem
    # has the same objects and keeps the same (no) rules on both, so the
    # table key is the same; only the suite's domain tells them apart.
    text = (
        "(define (domain lamps) (:requirements :strips :typing)"
        " (:types thing) (:predicates (lit ?x - thing) (done ?x - thing))"
        " (:action light :parameters (?x - thing) :effect (lit ?x))"
        " (:action finish :parameters (?x - thing) {} :effect (done ?x)))"
    )
    gated = parse_domain(text.format(":precondition (lit ?x)"))
    direct = parse_domain(text.format(""))
    problem = Problem("lamps", "lamps", (("a", "thing"),), frozenset(), (positive("done", "a"),))
    alone = solve(direct, problem)
    assert len(alone.plan) == 1 and len(solve(gated, problem).plan) == 2
    with suite(gated) as tables:
        assert len(solve(gated, problem).plan) == 2
        assert len(tables) == 1
        assert suite_tables(direct) is not tables
        inside = solve(direct, problem)
        assert (inside.status, inside.plan, inside.expanded) == (
            alone.status,
            alone.plan,
            alone.expanded,
        )
        assert len(tables) == 1


def test_a_nested_suite_restores_the_outer_one():
    with suite(HANOI) as outer:
        assert suite_tables(HANOI) is outer
        with suite(HANOI) as inner:
            assert inner is not outer and suite_tables(HANOI) is inner
            with suite(BLOCKS) as other:
                assert suite_tables(BLOCKS) is other
                hidden = suite_tables(HANOI)
                assert hidden is not inner and hidden is not outer
            assert suite_tables(HANOI) is inner
        assert suite_tables(HANOI) is outer
        with pytest.raises(PlannerError):
            with suite(HANOI):
                raise PlannerError("raised in the body")
        assert suite_tables(HANOI) is outer
    # Closed: each call gets a dict of its own.
    assert suite_tables(HANOI) is not suite_tables(HANOI)


def score_every_child(domain: Domain, problem: Problem):
    """Greedy best-first search under h_add that scores each child as it
    is generated, ``solve``'s tie-breaking otherwise.  Returns the plan,
    the expansions, the heuristic calls, and how many of those went to
    siblings generated before the goal."""
    task = GroundTask(domain, problem)
    parents = {task.init[0]: None}
    heap, counter = [(0.0, 0, task.init)], itertools.count(1)
    expanded = calls = 0
    while heap:
        state = heappop(heap)[2]
        expanded += 1
        before = calls
        for index, base in task.successors(state):
            if base in parents:
                continue
            parents[base] = (state[0], index)
            full = task.closure(base)
            if task.satisfied(full):
                plan = planner._reconstruct(task, parents, base)
                return plan, expanded, calls, calls - before
            calls += 1
            h = task.h_add(full)
            if h < float("inf"):
                heappush(heap, (h, next(counter), (base, full)))
    raise AssertionError("no plan")


def test_solve_scores_no_sibling_of_a_goal(monkeypatch):
    # On 3-disk hanoi the goal is not the first new child of the last node
    # expanded: scoring children as they come spends one call on a sibling
    # of the goal, which solve skips, and finds the same plan.
    scored = []
    original = planner.make_heuristic

    def counting(task):
        heuristic = original(task)

        def score(full):
            scored.append(full)
            return heuristic(full)

        return score

    monkeypatch.setattr(planner, "make_heuristic", counting)
    problem = hanoi_problem(3)
    result = solve(HANOI, problem, SearchConfig(mode="satisficing"))
    plan, expanded, calls, siblings = score_every_child(HANOI, problem)
    assert (result.plan, result.expanded) == (plan, expanded)
    assert siblings == 1
    assert len(scored) == calls - siblings


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------


def test_additive_cost_zero_exactly_on_goal_states():
    problem = blocks_problem(3, goal=[positive("on", "b1", "b2")])
    task = GroundTask(BLOCKS, problem)
    h = make_heuristic(task)
    states = reachable(task)
    assert len(states) == 13
    for _, full in states:
        atoms = task.decode(full)
        satisfied = all((lit.atom in atoms) != lit.negated for lit in problem.goal)
        assert (h(full) == 0.0) == satisfied


@pytest.mark.parametrize(
    "domain, problem",
    [(COOKING, gen_cooking(0).truth), (BLOCKS, gen_blocksworld(5, 0).truth)],
    ids=["cooking", "blocksworld"],
)
def test_h_add_memo_holds_fresh_values(monkeypatch, domain, problem):
    # Over a whole greedy search, each state's memoized value equals the
    # value computed afresh and the Bellman-Ford h_add, and the memo holds
    # exactly one entry per distinct part of a state that h_add reads.
    tasks, scored = [], []
    original = planner.make_heuristic

    def recording(task):
        tasks.append(task)
        heuristic = original(task)

        def score(full):
            scored.append(full)
            return heuristic(full)

        return score

    monkeypatch.setattr(planner, "make_heuristic", recording)
    assert solve(domain, problem, SearchConfig(mode="satisficing")).status == "solved"
    (task,) = tasks
    reads = task.relaxed.reads
    assert task.relaxed.memo.keys() == {full & reads for full in scored}
    checked = set()
    for full in scored:
        key = full & reads
        assert task.relaxed.memo[key] == task._h_add(full)
        if key not in checked:
            checked.add(key)
            assert task.relaxed.memo[key] == naive_h_add(domain, problem, task.decode(full))


def test_tasks_do_not_share_a_memo():
    problem = gen_cooking(0).truth
    flipped = replace(
        problem, goal=tuple(GroundLiteral(lit.atom, not lit.negated) for lit in problem.goal)
    )
    with suite(COOKING):
        first, second = GroundTask(COOKING, problem), GroundTask(COOKING, flipped)
    assert first.h_add(first.init[1]) == naive_h_add(COOKING, problem, problem.init)
    assert len(first.relaxed.memo) == 1 and not second.relaxed.memo
    assert second.h_add(second.init[1]) == naive_h_add(COOKING, flipped, problem.init)
    assert first.h_add(first.init[1]) != second.h_add(second.init[1])
    assert len(first.relaxed.memo) == len(second.relaxed.memo) == 1


def test_tasks_with_one_goal_and_pruning_share_a_relaxation():
    # Moved from p1 to p2, the tower keeps its objects, its goal and its
    # smaller atoms, the only init atoms that blocked's pruning reads: the
    # two tasks share one relaxation and one memo.
    three, moved = hanoi_problem(3), hanoi_problem(3, start="p2")
    with suite(HANOI) as tables:
        first, second = GroundTask(HANOI, three), GroundTask(HANOI, moved)
        assert first.init != second.init
        assert first.h_add(first.init[1]) == naive_h_add(HANOI, three, three.init) == 3.0
        assert second.relaxed is first.relaxed
        assert len(second.relaxed.memo) == 1
        assert second.h_add(second.init[1]) == naive_h_add(HANOI, moved, moved.init)
        assert len(first.relaxed.memo) == 2
        # Another goal is another relaxation of the same kept rules, and
        # another static atom that a rule body reads is another kept rules
        # entry of the same object table, with a relaxation of its own.
        other_goal = GroundTask(HANOI, hanoi_problem(3, target="p2"))
        smaller = three.init - {GroundAtom("smaller", ("d1", "d3"))}
        other_static = GroundTask(HANOI, replace(three, init=smaller))
        for task in (other_goal, other_static):
            assert task.relaxed is not first.relaxed and not task.relaxed.memo
    ((_, table),) = tables.items()
    assert sum(len(kept.relaxations) for kept in table.kept.values()) == 3
    shared, own = (table.kept[task.init[0] & table.static] for task in (first, other_static))
    assert shared is not own and len(shared.relaxations) == 2
    for task in (first, other_goal):
        assert shared.relaxations[task.goal_pos, task.goal_neg] is task.relaxed
    ((_, only),) = own.relaxations.items()
    assert only is other_static.relaxed


def test_a_task_with_other_static_atoms_keeps_its_own_rule_instances():
    # ready's body reads the static atom open and the made atom lit, so
    # the instances a task keeps follow its open atoms.  The first task
    # drops ready(a), whose open(a) it lacks, and cannot reach its goal;
    # the second, with the same objects and goal, must not score with the
    # first's relaxation.
    gated = parse_domain(
        "(define (domain gated) (:requirements :strips :typing :derived-predicates)"
        " (:types thing) (:predicates (open ?x - thing) (lit ?x - thing)"
        " (ready ?x - thing) (done ?x - thing))"
        " (:derived (ready ?x - thing) (and (lit ?x) (open ?x)))"
        " (:action light :parameters (?x - thing) :effect (lit ?x))"
        " (:action finish :parameters (?x - thing) :precondition (ready ?x)"
        " :effect (done ?x)))"
    )
    closed = Problem(
        "gated",
        "gated",
        (("a", "thing"), ("b", "thing")),
        frozenset({GroundAtom("open", ("b",))}),
        (positive("done", "a"),),
    )
    opened = replace(closed, init=frozenset({GroundAtom("open", ("a",))}))
    with suite(gated) as tables:
        first = GroundTask(gated, closed)
        assert first.h_add(first.init[1]) == float("inf")
        second = GroundTask(gated, opened)
        assert second.h_add(second.init[1]) == naive_h_add(gated, opened, opened.init) == 2.0
        assert len(solve(gated, opened).plan) == 2
    assert len(tables) == 1


def init_score(problem: Problem) -> float:
    task = GroundTask(BLOCKS, problem)
    return make_heuristic(task)(task.init[1])


def test_additive_cost_counts_violated_negative_goals():
    problem = blocks_problem(
        2,
        init_on=[("b1", "b2")],
        goal=[negative("on", "b1", "b2"), negative("covered", "b2")],
    )
    assert init_score(problem) == 2.0


def test_unreachable_goal_scores_infinite():
    problem = blocks_problem(2, goal=[positive("on", "b1", "b1")])
    assert init_score(problem) == float("inf")


def twice(*literals: GroundLiteral) -> tuple[GroundLiteral, ...]:
    return literals + literals


COOKING_3 = gen_cooking(3).truth
HANOI_3 = hanoi_problem(3)


@pytest.mark.parametrize(
    "domain,problem,h_init,plan",
    [
        # (sliced cucumber) costs 3 and is named three times, (in cucumber
        # red_bowl) costs 1, and two literals forbid that gripper2 holds
        # the cucumber, as it does in init: 9 + 1 + 2.
        (
            COOKING,
            replace(
                COOKING_3,
                goal=COOKING_3.goal
                + twice(positive("sliced", "cucumber"), negative("carry", "gripper2", "cucumber")),
            ),
            12.0,
            [
                "place gripper2 cucumber board1",
                "pick gripper1 knife board1",
                "slice gripper1 knife cucumber board1",
                "place gripper1 knife board1",
                "pick gripper1 cucumber board1",
                "place gripper1 cucumber red_bowl",
            ],
        ),
        (
            BLOCKS,
            blocks_problem(
                4,
                [("b1", "b2"), ("b2", "b3")],
                twice(positive("on", "b3", "b1"), negative("covered", "b2")),
            ),
            4.0,
            ["unstack-from-tower b1 b2", "unstack-from-base b2 b3", "stack-on-base b3 b1"],
        ),
        (
            HANOI,
            replace(
                HANOI_3,
                goal=HANOI_3.goal
                + twice(positive("onpeg", "d1", "p3"), negative("onpeg", "d3", "p1")),
            ),
            7.0,
            [
                "move d1 p1 p2",
                "move d2 p1 p3",
                "move d1 p2 p3",
                "move d3 p1 p2",
                "move d1 p3 p1",
                "move d2 p3 p2",
                "move d1 p1 p3",
                "move d2 p2 p1",
                "move d1 p3 p1",
                "move d3 p2 p3",
                "move d1 p1 p2",
                "move d2 p1 p3",
                "move d1 p2 p3",
            ],
        ),
    ],
    ids=["cooking", "blocksworld", "hanoi"],
)
def test_repeated_goal_literals_keep_their_weight(domain, problem, h_init, plan):
    # h_add sums a positive goal atom's cost once per literal naming it, and
    # counts a violated negative literal once per literal too, as the
    # Bellman-Ford h_add does.  The plans are those the search found before
    # h_add settled whole cost levels as bit sets.
    task = GroundTask(domain, problem)
    assert task.h_add(task.init[1]) == naive_h_add(domain, problem, problem.init) == h_init
    relaxed = naive_relaxed_steps(domain, problem.objects)
    for base, full in reachable(task, limit=150):
        assert task.h_add(full) == naive_h_add(domain, problem, task.decode(base), relaxed)
    result = solve(domain, problem)
    assert [" ".join((step.action, *step.args)) for step in result.plan.steps] == plan


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "fastest"},
        {"node_limit": 0},
        {"node_limit": float("nan")},
        {"node_limit": float("inf")},
        {"node_limit": 2.5},
        {"node_limit": True},
        {"time_limit_s": 0.0},
        {"time_limit_s": float("nan")},
        {"time_limit_s": float("inf")},
    ],
)
def test_search_config_rejects_bad_values(kwargs):
    with pytest.raises(PlannerError):
        SearchConfig(**kwargs)


def test_result_dict_shape():
    result = solve(HANOI, hanoi_problem(2), SearchConfig(mode="optimal"))
    payload = result.as_dict()
    assert sorted(payload) == ["expanded_nodes", "plan_length", "status"]
    assert payload["status"] == "solved"
    assert payload["plan_length"] == 3


# ---------------------------------------------------------------------------
# Compiled task against the naive reference
# ---------------------------------------------------------------------------


def random_hanoi_instance(rng: random.Random, disks: int) -> Problem:
    """Random legal placement (any disk-to-peg map is one) and goal map."""
    names = [f"d{i}" for i in range(1, disks + 1)]
    objects = tuple((d, "disk") for d in names) + tuple((p, "peg") for p in PEGS)
    init = set()
    for i, small in enumerate(names):
        for big in names[i + 1 :]:
            init.add(GroundAtom("smaller", (small, big)))
    placed: dict[str, list[str]] = {p: [] for p in PEGS}
    for disk in reversed(names):  # largest first, so each lands on a bigger one
        peg = rng.choice(PEGS)
        if placed[peg]:
            init.add(GroundAtom("on", (disk, placed[peg][-1])))
        placed[peg].append(disk)
        init.add(GroundAtom("onpeg", (disk, peg)))
    goal = tuple(positive("onpeg", d, rng.choice(PEGS)) for d in names)
    return Problem("placed", "hanoi", objects, frozenset(init), goal)


def differential_cases():
    cases = [
        pytest.param(
            BLOCKS, random_blocks_instance(random.Random(seed), 4), id=f"blocks-{seed}"
        )
        for seed in range(3)
    ]
    cases += [
        pytest.param(
            HANOI, random_hanoi_instance(random.Random(seed), disks), id=f"hanoi-{seed}"
        )
        for seed, disks in ((0, 2), (1, 3), (2, 3))
    ]
    cases += [
        pytest.param(COOKING, gen_cooking(seed).truth, id=f"cooking-{seed}")
        for seed in (0, 1)
    ]
    # A rule whose body can name one atom twice (?b = ?c): the instance
    # must still fire, and h_add must count that atom's cost twice.
    twin = parse_domain(
        domain_text("blocksworld")
        .replace("(covered ?b - block)", "(covered ?b - block)\n    (twin ?a - block)", 1)
        .replace(
            "(:derived (covered",
            "(:derived (twin ?a - block) (and (on ?a ?b) (on ?a ?c)))\n  (:derived (covered",
        )
    )
    walked = random_blocks_instance(random.Random(3), 4)
    goal = walked.goal + (positive("twin", "b1"), positive("twin", "b2"))
    cases.append(
        pytest.param(
            twin,
            Problem("twin", "blocksworld", walked.objects, walked.init, goal),
            id="blocks-repeated-body-atom",
        )
    )
    return cases


@pytest.mark.parametrize("domain,problem", differential_cases())
def test_task_agrees_with_naive_reference(domain, problem):
    # Over reachable states (breadth-first, capped): the task's closure is
    # the naive closure restricted to well-typed atoms, less exactly the
    # atoms of derived predicates that nothing reads, and the bucket-queue
    # h_add equals Bellman-Ford h_add, for the problem's goal and for the
    # goal with every literal negated.
    task = GroundTask(domain, problem)
    flipped = Problem(
        problem.name,
        problem.domain_name,
        problem.objects,
        problem.init,
        tuple(GroundLiteral(lit.atom, not lit.negated) for lit in problem.goal),
    )
    flipped_h = make_heuristic(GroundTask(domain, flipped))
    relaxed = naive_relaxed_steps(domain, problem.objects)
    states = reachable(task, limit=120)
    assert len(states) > 1
    for base, full in states:
        atoms = task.decode(base)
        expected = {
            a
            for a in naive_closure(atoms, domain)
            if well_typed(a, domain, problem.objects)
        }
        unread = naive_unread(domain, problem.goal, expected)
        assert task.decode(full) == expected - unread
        assert task.h_add(full) == naive_h_add(domain, problem, atoms, relaxed)
        assert flipped_h(full) == naive_h_add(domain, flipped, atoms, relaxed)


@st.composite
def small_typed_tasks(draw):
    """A random small typed domain, parsed from PDDL text, and a problem.

    No action writes the observed predicate s, and init holds at least one
    of its atoms, so rule bodies can read static atoms, atoms that are
    never true, or static atoms only (see ``folding_cases``); half the
    time a rule for f, read by the goal, draws all three.  Derived
    predicates can be unread, or read only through another rule's body:
    half the time h, which only d0's body reads, and a negative goal
    literal over d0 (see ``relevance_cases`` and ``goal_relevance_cases``).
    Half the time an action with a positive precondition adds atoms of w,
    which nothing reads, so h_add leaves it out (``goal_relevance_cases``).

    Each rule-head parameter takes the most specific type among the body
    positions its variable occupies, so every binding the untyped naive
    closure finds for a state of well-typed atoms is itself well typed.
    A rule's body reads only predicates drawn before it, but the rules are
    declared in a drawn order, so a rule often comes before one that makes
    its body atoms.
    """
    parent = {"t0": "object"}
    if draw(st.booleans()):
        parent["t1"] = draw(st.sampled_from(["object", "t0"]))
    types = sorted(parent)

    def fits(have, want):
        return have == want or parent.get(have) == want

    signatures = {
        f"p{i}": draw(st.lists(st.sampled_from(types), min_size=1, max_size=2))
        for i in range(draw(st.integers(2, 3)))
    }
    written = sorted(signatures)
    # No action writes s: its init atoms are static and the rest never true.
    signatures["s"] = draw(st.lists(st.sampled_from(types), min_size=1, max_size=2))
    rules = []
    # Half the time a rule for h comes first, and d0's body reads it.  No
    # precondition or goal names h, so h is unread or read only through d0.
    # The d rules number zero to three otherwise, one to three after h.
    names = [] if draw(st.booleans()) else ["h", "d0"]
    names += [f"d{i}" for i in range(len(names) // 2, draw(st.integers(0, 3)))]
    for name in names:
        body, positions = [], {}
        predicates = draw(
            st.lists(st.sampled_from(sorted(signatures)), min_size=1, max_size=2)
        )
        if name == "d0" and "h" in signatures:
            predicates.insert(0, "h")
        for predicate in predicates:
            variables = st.sampled_from(["?x", "?y", "?z"])
            args = [draw(variables) for _ in signatures[predicate]]
            for var, want in zip(args, signatures[predicate]):
                positions.setdefault(var, []).append(want)
            body.append(f"({predicate} {' '.join(args)})")
        head = {}
        for var, wants in sorted(positions.items()):
            tightest = [t for t in wants if all(fits(t, w) for w in wants)]
            if tightest:
                head[var] = tightest[0]
        if not head:
            continue  # every variable sits in positions of unrelated types
        head_vars = draw(
            st.lists(st.sampled_from(sorted(head)), min_size=1, max_size=2, unique=True)
        )
        signatures[name] = [head[var] for var in head_vars]
        params = " ".join(f"{var} - {head[var]}" for var in head_vars)
        rules.append(f"(:derived ({name} {params}) (and {' '.join(body)}))")
    # Half the time a rule for f reads s alone, and the goal names an f atom.
    # f's instances over init's s atoms read static atoms only, and those
    # over the s atoms init lacks read atoms that are never true.
    if not draw(st.booleans()):
        variables = ["?x", "?y"][: len(signatures["s"])]
        params = " ".join(f"{var} - {t}" for var, t in zip(variables, signatures["s"]))
        signatures["f"] = signatures["s"]
        rules.append(f"(:derived (f {params}) (s {' '.join(variables)}))")
    rules = draw(st.permutations(rules))

    def literal(predicates, params, negated=None):
        """A literal over ``params`` (variable -> type) that type-checks, or
        None; its sign is drawn unless ``negated`` is given."""
        options = [
            p
            for p in predicates
            if all(any(fits(t, w) for t in params.values()) for w in signatures[p])
        ]
        if not options:
            return None
        predicate = draw(st.sampled_from(options))
        args = [
            draw(st.sampled_from([v for v, t in params.items() if fits(t, w)]))
            for w in signatures[predicate]
        ]
        atom = f"({predicate} {' '.join(args)})"
        if negated is None:
            negated = draw(st.booleans())
        return f"(not {atom})" if negated else atom

    actions = []
    for i in range(draw(st.integers(1, 2))):
        # An add over the parameters, which follow its predicate so that it
        # fits, and perhaps a delete: move-like actions give deeper spaces.
        first = draw(st.sampled_from(written))
        params = {f"?{'ab'[k]}": t for k, t in enumerate(signatures[first])}
        effects = [f"({first} {' '.join(params)})"]
        if draw(st.booleans()):
            effects.append(literal(written, params, negated=True))
        readable = sorted(set(signatures) - {"h"})
        pre = [literal(readable, params) for _ in range(draw(st.integers(0, 2)))]
        if len(params) == 2:
            pre.append(draw(st.sampled_from([None, "(= ?a ?b)", "(not (= ?a ?b))"])))
        pre = " ".join(p for p in pre if p is not None)
        actions.append(
            f"(:action a{i} :parameters ({' '.join(f'{v} - {t}' for v, t in params.items())})"
            + (f" :precondition (and {pre})" if pre else "")
            + f" :effect (and {' '.join(effects)}))"
        )
    # Half the time an action adds atoms of w when an atom of a written
    # predicate holds.  No precondition, rule body or goal reads w.
    if draw(st.booleans()):
        first = draw(st.sampled_from(written))
        signatures["w"] = signatures[first]
        params = " ".join(f"?{'ab'[k]}" for k in range(len(signatures[first])))
        typed = " ".join(f"?{'ab'[k]} - {t}" for k, t in enumerate(signatures[first]))
        actions.append(
            f"(:action aw :parameters ({typed}) :precondition ({first} {params})"
            f" :effect (w {params}))"
        )
    declared = " ".join(
        f"({name} {' '.join(f'?v{k} - {t}' for k, t in enumerate(params))})"
        for name, params in signatures.items()
    )
    text = (
        "(define (domain small)"
        " (:requirements :strips :typing :negative-preconditions"
        " :derived-predicates :equality)"
        f" (:types {' '.join(f'{t} - {p}' for t, p in parent.items())})"
        f" (:predicates {declared}) {' '.join(actions + rules)})"
    )
    domain = parse_domain(text)

    # One object of each type, and three or four objects in all.
    extra = st.lists(st.sampled_from(types), min_size=3 - len(types), max_size=4 - len(types))
    kinds = types + draw(extra)
    objects = tuple((f"o{k}", t) for k, t in enumerate(kinds))
    atoms = [
        GroundAtom(sig.name, combo)
        for sig in domain.predicates
        for combo in itertools.product([name for name, _ in objects], repeat=sig.arity)
    ]
    atoms = [a for a in atoms if well_typed(a, domain, objects)]
    base = [a for a in atoms if a.predicate in written]
    static = [a for a in atoms if a.predicate == "s"]
    init = frozenset(draw(st.sets(st.sampled_from(base))) if base else ())
    # With f, init lacks an s atom whenever s has two.
    most = len(static) - 1 if "f" in signatures and len(static) > 1 else None
    init |= draw(st.sets(st.sampled_from(static), min_size=1, max_size=most))
    # The goal holds after a short random walk and names every atom the walk
    # changed (or one or two others if it changed none); half the time its
    # first literal flips.
    walked = init
    steps = _ground_steps(domain, objects)
    for _ in range(draw(st.integers(2, 6))):
        moves = [naive_apply(domain, walked, step) for step in steps]
        moves = [nxt for reason, nxt in moves if reason == "ok"]
        if not moves:
            break
        walked = draw(st.sampled_from(moves))
    reached = naive_closure(walked, domain)
    named = sorted(reached ^ naive_closure(init, domain))
    named = [atom for atom in named if atom.predicate not in ("h", "w")]
    shown = [atom for atom in atoms if atom.predicate not in ("h", "w")]
    if not named and shown:
        named = draw(st.lists(st.sampled_from(shown), min_size=1, max_size=2))
    goal = [GroundLiteral(atom, atom not in reached) for atom in named]
    if goal and draw(st.booleans()):
        goal[0] = GroundLiteral(goal[0].atom, not goal[0].negated)
    if "f" in signatures:
        atom = draw(st.sampled_from([atom for atom in atoms if atom.predicate == "f"]))
        goal.append(GroundLiteral(atom, atom not in reached))
    # When d0 reads h, the goal says that a d0 atom, one the walk leaves
    # false if there is one, does not hold.  h is then read only through
    # d0's body, and h_add, which reads positive goal literals only, leaves
    # every d0 instance out.
    if "h" in signatures and "d0" in signatures:
        d0 = [atom for atom in atoms if atom.predicate == "d0"]
        atom = draw(st.sampled_from([atom for atom in d0 if atom not in reached] or d0))
        goal.append(GroundLiteral(atom, True))
    # A quarter of the time the goal also asks for an s atom init lacks:
    # nothing makes it true, so h_add is infinite on every state.
    absent = sorted(set(static) - init)
    if absent and draw(st.integers(0, 3)) == 0:
        goal.append(GroundLiteral(draw(st.sampled_from(absent)), False))
    return domain, Problem("small", "small", objects, init, tuple(goal))


def flipped_goals(problem: Problem) -> list[Problem]:
    """The problem, then one copy per goal literal with that literal's sign
    flipped."""
    goal = problem.goal
    flips = [
        (*goal[:i], GroundLiteral(lit.atom, not lit.negated), *goal[i + 1 :])
        for i, lit in enumerate(goal)
    ]
    return [problem] + [replace(problem, goal=flipped) for flipped in flips]


def assert_closes_as_naive(task: GroundTask, domain: Domain, problem: Problem, atoms) -> None:
    """The task closes the base ``atoms`` to the naive closure's well-typed
    atoms, less the atoms of the derived predicates nothing reads."""
    expected = {
        a for a in naive_closure(atoms, domain) if well_typed(a, domain, problem.objects)
    }
    expected -= naive_unread(domain, problem.goal, expected)
    assert task.decode(task.closure(sum({1 << task.ids[atom] for atom in atoms}))) == expected


@settings(max_examples=50, deadline=None)
@given(small_typed_tasks(), st.data())
def test_task_closure_is_exact_on_any_base_of_init_and_added_atoms(case, data):
    # Reachable or not, a base of init and action-add atoms closes to the
    # naive closure's well-typed atoms, less the atoms of the derived
    # predicates nothing reads.
    domain, problem = case
    task = GroundTask(domain, problem)
    observed = problem.init.union(*(task.decode(add) for _, _, _, add in task.masks))
    atoms = data.draw(st.frozensets(st.sampled_from(sorted(observed))))
    assert_closes_as_naive(task, domain, problem, atoms)


@st.composite
def mixed_rule_tasks(draw):
    """A random domain whose closure meets the three kinds of kept rule
    instance: one-atom bodies over observed atoms (``unit_heads``), and
    one-atom bodies over derived atoms and two-atom bodies (both in
    ``rule_groups``).

    The observed predicates p0 and p1 are set and cleared by actions, so
    every atom of them is a base atom and nothing is pruned.  The rules
    come in a drawn order, the first reading an observed atom, then at
    least one reading one derived atom and one reading two atoms of
    different predicates; each body reads only predicates drawn before it,
    and each head keeps a drawn subset of its body's variables.  The goal
    names an atom of every derived predicate, so every rule is kept.
    """
    arity = {"p0": draw(st.integers(1, 2)), "p1": draw(st.integers(1, 2))}
    observed = sorted(arity)
    kinds = ["unit", "derived-unit", "pair"]
    kinds[1:] = draw(st.permutations(kinds[1:]))
    kinds += draw(st.lists(st.sampled_from(["unit", "derived-unit", "pair"]), max_size=3))
    rules = []
    for index, kind in enumerate(kinds):
        derived = sorted(set(arity) - set(observed))
        if kind == "unit":
            predicates = [draw(st.sampled_from(observed))]
        elif kind == "derived-unit":
            predicates = [draw(st.sampled_from(derived))]
        else:
            predicates = draw(
                st.lists(st.sampled_from(sorted(arity)), min_size=2, max_size=2, unique=True)
            )
        variable = st.sampled_from(["?x", "?y", "?z"])
        body = [
            (predicate, [draw(variable) for _ in range(arity[predicate])])
            for predicate in predicates
        ]
        variables = sorted({var for _, args in body for var in args})
        head = []
        if variables:
            head = draw(st.lists(st.sampled_from(variables), max_size=2, unique=True))
        name = f"d{index}"
        arity[name] = len(head)
        atoms = " ".join(f"({predicate} {' '.join(args)})" for predicate, args in body)
        rules.append(f"(:derived ({name} {' '.join(f'{v} - thing' for v in head)}) (and {atoms}))")
    declared = " ".join(
        f"({name} {' '.join(f'?v{k} - thing' for k in range(n))})" for name, n in arity.items()
    )
    actions = [
        f"(:action {verb}-{p} :parameters ({' '.join(f'?v{k} - thing' for k in range(arity[p]))})"
        f" :effect {effect})"
        for p in observed
        for verb, effect in (
            ("set", f"({p} {' '.join(f'?v{k}' for k in range(arity[p]))})"),
            ("clear", f"(not ({p} {' '.join(f'?v{k}' for k in range(arity[p]))}))"),
        )
    ]
    domain = parse_domain(
        "(define (domain mixed) (:requirements :strips :typing :derived-predicates)"
        f" (:types thing) (:predicates {declared}) {' '.join(actions + rules)})"
    )
    names = [f"o{k}" for k in range(draw(st.integers(2, 3)))]
    objects = tuple((name, "thing") for name in names)
    atoms = {
        name: [GroundAtom(name, combo) for combo in itertools.product(names, repeat=n)]
        for name, n in arity.items()
    }
    init = draw(st.frozensets(st.sampled_from(atoms["p0"] + atoms["p1"])))
    goal = tuple(
        GroundLiteral(draw(st.sampled_from(atoms[name])), draw(st.booleans()))
        for name in arity
        if name not in observed
    )
    return domain, Problem("mixed", "mixed", objects, init, goal)


def closure_kinds(task: GroundTask) -> tuple[bool, bool, bool]:
    """Whether the task's closure holds one-atom instances over observed
    atoms (in ``unit_heads``), one-atom instances over derived atoms (in
    the groups) and instances of more than one atom."""
    derived = sum({1 << head for head in task.rule_head})
    grouped = [body for group in task.rule_groups for body, _ in group.members]
    return (
        bool(task.unit_heads),
        any(body.bit_count() == 1 and body & derived for body in grouped),
        any(len(body) > 1 for body in task.rule_body),
    )


@settings(max_examples=50, deadline=None)
@given(mixed_rule_tasks(), st.data(), st.sampled_from([1, 2, planner.MEMO_MIN_MEMBERS]))
def test_unit_heads_and_memo_groups_close_as_naive_on_any_base(case, data, minimum):
    # The three kinds of instance meet in one closure: the unit heads are
    # set first, and groups then read them, other derived atoms and base
    # atoms.  Bases are drawn at random and may repeat, so later ones meet
    # memo entries earlier ones made; the minimum group size is drawn too,
    # down to memoizing every group.
    domain, problem = case
    with mock.patch.object(planner, "MEMO_MIN_MEMBERS", minimum):
        task = GroundTask(domain, problem)
        assert closure_kinds(task) == (True, True, True)
        observed = sorted(problem.init.union(*(task.decode(add) for _, _, _, add in task.masks)))
        for atoms in data.draw(
            st.lists(st.frozensets(st.sampled_from(observed)), min_size=1, max_size=8)
        ):
            assert_closes_as_naive(task, domain, problem, atoms)


# (a ?x) holds when (p ?x) does: an instance in the unit map.  (b ?x) holds
# when (a ?x) does, one atom over a derived atom, or when (q ?x ?x) does, a
# unit instance whose head predicate also heads a group.  (c ?x) reads two
# atoms, one of them derived, and (d ?x) reads c alone, a layer higher.
TWO_LAYER = parse_domain(
    "(define (domain layers) (:requirements :strips :typing :derived-predicates)"
    " (:types thing)"
    " (:predicates (p ?x - thing) (q ?x - thing ?y - thing)"
    " (a ?x - thing) (b ?x - thing) (c ?x - thing) (d ?x - thing))"
    " (:derived (d ?x) (c ?x))"
    " (:derived (c ?x) (and (q ?x ?y) (b ?y)))"
    " (:derived (b ?x) (a ?x))"
    " (:derived (b ?x) (q ?x ?x))"
    " (:derived (a ?x) (p ?x))"
    " (:action set-p :parameters (?x - thing) :effect (p ?x))"
    " (:action set-q :parameters (?x - thing ?y - thing) :effect (q ?x ?y)))"
)


@pytest.mark.parametrize(
    "domain,problem,kinds",
    [
        (
            TWO_LAYER,
            Problem(
                "layers",
                "layers",
                (("o1", "thing"), ("o2", "thing")),
                frozenset(),
                (positive("d", "o1"),),
            ),
            (True, True, True),
        ),
        (
            BLOCKS,
            blocks_problem(
                3,
                [("b1", "b2")],
                (
                    positive("elevated", "b1"),
                    positive("buried", "b2"),
                    positive("stacked-over", "b1", "b3"),
                ),
            ),
            # No blocksworld rule reads one derived atom alone.
            (True, False, True),
        ),
    ],
    ids=["two-layer", "blocksworld"],
)
def test_unit_heads_and_memo_groups_close_as_naive_on_every_base(domain, problem, kinds):
    # Every base of the observed atoms the actions add.  Blocksworld's
    # covered and supported are unit instances; elevated reads an on and a
    # supported atom, buried two derived atoms, stacked-over two on atoms.
    task = GroundTask(domain, problem)
    assert closure_kinds(task) == kinds
    observed = sorted(frozenset().union(*(task.decode(add) for _, _, _, add in task.masks)))
    for size in range(len(observed) + 1):
        for atoms in itertools.combinations(observed, size):
            assert_closes_as_naive(task, domain, problem, frozenset(atoms))


def h_add_of(task: GroundTask, atoms) -> float:
    """The task's h_add on the reachable base ``atoms``, interned by the task
    itself: tasks with different goals may number atoms differently."""
    return task.h_add(task.closure(sum({1 << task.ids[atom] for atom in atoms})))


@settings(max_examples=50, deadline=None)
@given(small_typed_tasks())
def test_task_agrees_with_naive_reference_on_random_domains(case):
    # On reachable states (breadth-first, capped): the closure equals the
    # naive closure less exactly the atoms of derived predicates that
    # nothing reads, the successor sets equal the naive interpreter's, h_add
    # equals the Bellman-Ford h_add for the goal and for the goal with each
    # literal flipped, and when the whole space fits under the cap, the
    # optimal plan length equals the naive breadth-first one.
    domain, problem = case
    task = GroundTask(domain, problem)
    posed = [(GroundTask(domain, p), p) for p in flipped_goals(problem)]
    steps = _ground_steps(domain, problem.objects)
    relaxed = naive_relaxed_steps(domain, problem.objects)
    closures: dict = {}
    states = reachable(task, limit=150)
    for base, full in states:
        atoms = task.decode(base)
        # naive_apply reads the closure of ``atoms`` from ``closures``.
        reference = closures[atoms] = naive_closure(atoms, domain)
        unread = naive_unread(domain, problem.goal, reference)
        assert task.decode(full) == reference - unread
        expected = set()
        for step in steps:
            reason, nxt = naive_apply(domain, atoms, step, closures)
            if reason == "ok":
                expected.add(nxt)
        assert {task.decode(nxt) for _, nxt in task.successors((base, full))} == expected
        for judged, goal_problem in posed:
            assert h_add_of(judged, atoms) == naive_h_add(domain, goal_problem, atoms, relaxed)
    if len(states) < 150:
        result = solve(domain, problem, SearchConfig(mode="optimal"))
        length = None if result.plan is None else len(result.plan)
        assert length == naive_bfs(domain, problem)


def assert_compiled_as_substituted(domain: Domain, problem: Problem) -> None:
    """Every compiled action, decoded, is its schema substituted by the
    naive reference: each delete is checked, not only those some reachable
    state exposes."""
    task = GroundTask(domain, problem)
    assert len(task.compiled) == len(task.actions)
    for step, (pos, neg, add, delete), masks in zip(task.actions, task.compiled, task.masks):
        decoded = (
            [task.atoms[i] for i in pos],
            [task.atoms[i] for i in neg],
            task.decode(masks[3]),
            task.decode(~masks[2]),
        )
        assert decoded == naive_ground_action(domain, step), step
        # The masks and the id tuples h_add's relaxation reads agree.
        for ids, mask in zip((pos, neg, add, delete), (*masks[:2], masks[3], ~masks[2])):
            assert frozenset(task.atoms[i] for i in ids) == task.decode(mask)


# A derived predicate of arity 0, read by a negative precondition.
FLAG = parse_domain(
    "(define (domain flag) (:requirements :strips :typing :derived-predicates)"
    " (:types thing) (:predicates (made ?x - thing) (any))"
    " (:derived (any) (made ?x))"
    " (:action make :parameters (?x - thing) :precondition (not (any))"
    " :effect (made ?x)))"
)


@pytest.mark.parametrize(
    "domain,problem",
    [
        (BLOCKS, blocks_problem(4)),
        (HANOI, hanoi_problem(4)),
        (COOKING, gen_cooking(0).truth),
        (
            FLAG,
            Problem(
                "flag",
                "flag",
                (("a", "thing"), ("b", "thing")),
                frozenset(),
                (positive("any"),),
            ),
        ),
    ],
    ids=["blocksworld", "hanoi", "cooking", "nullary"],
)
def test_compiled_actions_match_naive_substitution(domain, problem):
    assert_compiled_as_substituted(domain, problem)


@settings(max_examples=50, deadline=None)
@given(small_typed_tasks())
def test_compiled_actions_match_naive_substitution_on_random_domains(case):
    assert_compiled_as_substituted(*case)


# The fields of a task compiled from a domain's object table.
TASK_FIELDS = (
    "atoms",
    "ids",
    "actions",
    "compiled",
    "masks",
    "rule_head",
    "rule_body",
    "unit_bodies",
    "unit_heads",
    "goal",
    "init",
)
# The task's memo groups, compared without their memos: a shared table's
# memos hold what earlier problems of the suite stepped and closed.
GROUP_FIELDS = ("step_groups", "rule_groups")


def group_layout(groups) -> list:
    """Each memo group's reads and members, without its memo."""
    return [(group.reads, group.members) for group in groups]


def typed_atoms(domain: Domain, objects) -> list[GroundAtom]:
    """Every well-typed atom over ``objects``, predicate by predicate."""
    names = [name for name, _ in objects]
    atoms = [
        GroundAtom(sig.name, combo)
        for sig in domain.predicates
        for combo in itertools.product(names, repeat=sig.arity)
    ]
    return [atom for atom in atoms if well_typed(atom, domain, objects)]


def outside_any_suite(function, *args):
    """``function(*args)`` with no suite open, so it compiles afresh."""
    return contextvars.Context().run(function, *args)


def assert_warm_compiles_as_cold(domain: Domain, problem: Problem) -> None:
    """``problem`` compiles and solves in the open suite on ``domain``,
    whose tables other problems may have filled, as outside any suite; and
    its task keeps exactly the typed instances of its read rules whose body
    atoms init, an action's adds or an instance's head can make true."""
    assert suite_tables(domain) is suite_tables(domain), "no suite is open on the domain"
    warm, cold = GroundTask(domain, problem), outside_any_suite(GroundTask, domain, problem)
    for name in TASK_FIELDS:
        assert getattr(warm, name) == getattr(cold, name), name
    for name in GROUP_FIELDS:
        assert group_layout(getattr(warm, name)) == group_layout(getattr(cold, name)), name
    read = naive_read_predicates(domain, problem.goal)
    instances = [
        (head, tuple(body))
        for body, head in _typed_rule_instances(domain, problem.objects)
        if head.predicate in read
    ]
    possible = problem.init.union(
        *(warm.decode(add) for _, _, _, add in warm.masks), (head for head, _ in instances)
    )
    kept = [
        (warm.atoms[head], tuple(warm.atoms[atom] for atom in body))
        for head, body in zip(warm.rule_head, warm.rule_body)
    ]
    assert sorted(kept) == sorted(i for i in instances if possible.issuperset(i[1]))
    for mode in ("optimal", "satisficing"):
        # A node limit the search reaches long before the time limit, so a
        # search stops on a count, never on the clock, and ``expanded``
        # compares exactly.  The generated suites' searches stay far below it.
        cfg = SearchConfig(mode=mode, node_limit=10_000)
        first = solve(domain, problem, cfg)
        second = outside_any_suite(solve, domain, problem, cfg)
        assert (first.status, first.plan, first.expanded) == (
            second.status,
            second.plan,
            second.expanded,
        )


@settings(max_examples=50, deadline=None)
@given(small_typed_tasks(), st.data())
def test_a_shared_table_compiles_as_a_fresh_one_on_random_domains(case, data):
    # Problem A fills the domain's table for its objects; problem B has the
    # same objects and a drawn init and goal, so its goal may keep other
    # rules and its init may name atoms A's never did.
    domain, first = case
    atoms = typed_atoms(domain, first.objects)
    observed = [atom for atom in atoms if domain.predicate(atom.predicate).kind == "observed"]
    init = data.draw(st.frozensets(st.sampled_from(observed)))
    literals = st.builds(GroundLiteral, st.sampled_from(atoms), st.booleans())
    goal = tuple(data.draw(st.lists(literals, max_size=3)))
    with suite(domain):
        GroundTask(domain, first)
        assert_warm_compiles_as_cold(domain, replace(first, init=init, goal=goal))


def scanned_successors(task: GroundTask, state) -> list[tuple[int, int]]:
    """The task's successors by a plain scan of ``masks``, in index order."""
    base, full = state
    return [
        (index, base & keep | add)
        for index, (pos, neg, keep, add) in enumerate(task.masks)
        if full & pos == pos and not full & neg
    ]


def scanned_closure(task: GroundTask, base: int) -> int:
    """The task's closure by one plain pass over its kept instances, which
    come in layer order."""
    full = base
    for head, body in zip(task.rule_head, task.rule_body):
        if all(full >> atom & 1 for atom in body):
            full |= 1 << head
    return full


@settings(max_examples=30, deadline=None)
@given(
    small_typed_tasks(),
    st.data(),
    st.booleans(),
    st.sampled_from([1, 2, planner.MEMO_MIN_MEMBERS]),
)
def test_memoized_steps_and_closure_equal_a_plain_scan_on_any_base(
    case, data, warmed, minimum
):
    # On drawn bases of init and action-add atoms, reachable or not and
    # possibly repeated, so later bases meet memo entries earlier ones
    # made.  Warmed, another problem over the same objects and goal, and so
    # the same table, first steps and closes its own states in the suite;
    # its init may share the problem's pruning, and so its closure memos.
    # The small random domains seldom make a group of the real minimum
    # size, so the minimum is drawn too, down to memoizing every group.
    domain, problem = case
    with mock.patch.object(planner, "MEMO_MIN_MEMBERS", minimum), suite(domain) as tables:
        if warmed:
            observed = [
                atom
                for atom in typed_atoms(domain, problem.objects)
                if domain.predicate(atom.predicate).kind == "observed"
            ]
            init = data.draw(st.frozensets(st.sampled_from(observed)))
            reachable(GroundTask(domain, replace(problem, init=init)), limit=50)
        task = GroundTask(domain, problem)
        assert len(tables) == 1
        made = problem.init.union(*(task.decode(add) for _, _, _, add in task.masks))
        for atoms in data.draw(
            st.lists(st.frozensets(st.sampled_from(sorted(made))), min_size=1, max_size=8)
        ):
            base = sum({1 << task.ids[atom] for atom in atoms})
            full = task.closure(base)
            assert full == scanned_closure(task, base)
            steps = task.successors((base, full))
            assert steps == scanned_successors(task, (base, full))
            indices = [index for index, _ in steps]
            assert indices == sorted(set(indices))


def memo_entries(groups) -> int:
    return sum(len(group.memo) for group in groups if group.memo is not None)


# One-parameter schemas around a two-parameter one: with six objects, a
# run of 1-member step groups, six 6-member groups, and another run.
RUNS = parse_domain(
    "(define (domain runs) (:requirements :strips :typing)"
    " (:types thing) (:predicates (p ?x - thing) (q ?x ?y - thing))"
    " (:action a :parameters (?x - thing) :effect (p ?x))"
    " (:action b :parameters (?x - thing ?y - thing) :effect (q ?x ?y))"
    " (:action c :parameters (?x - thing) :precondition (p ?x) :effect (not (p ?x))))"
)


def test_groups_under_the_minimum_are_scanned_as_one_run():
    # 6-disk hanoi: one 6-member step group per disk; one blocked group per
    # disk but the smallest, whose members are its 3 pegs times the smaller
    # disks, so the first has 3.  Blocksworld over 5 blocks: an unstack
    # group has 5 members and a stack group 4 (no block stacks on itself),
    # so all 90 steps are one scanned run.
    assert planner.MEMO_MIN_MEMBERS == 6
    hanoi = GroundTask(HANOI, hanoi_problem(6))
    assert [(len(g.members), g.memo is None) for g in hanoi.step_groups] == [(6, False)] * 6
    assert [(len(g.members), g.memo is None) for g in hanoi.rule_groups] == [
        (3, True),
        (6, False),
        (9, False),
        (12, False),
        (15, False),
    ]
    blocks = GroundTask(BLOCKS, blocks_problem(5))
    (run,) = blocks.step_groups
    assert run.memo is None and [member[2][0] for member in run.members] == list(range(90))
    # Small groups on both sides of memoized ones make two runs, so the
    # groups still list every step in index order.
    objects = tuple((f"o{i}", "thing") for i in range(6))
    problem = Problem("runs", "runs", objects, frozenset(), (positive("q", "o0", "o1"),))
    task = GroundTask(RUNS, problem)
    assert [(len(g.members), g.memo is None) for g in task.step_groups] == [
        (6, True),
        *[(6, False)] * 6,
        (6, True),
    ]
    assert [m[2][0] for g in task.step_groups for m in g.members] == list(range(48))


def test_a_repeated_solve_adds_no_memo_entry():
    # The second solve steps and closes exactly the states the first did,
    # so every group lookup hits an entry the first left in the shared
    # table: the step memos, and the closure memos of its one pruning.
    problem = hanoi_problem(6)
    cfg = SearchConfig(mode="optimal")
    with suite(HANOI) as tables:
        first = solve(HANOI, problem, cfg)
        (table,) = tables.values()
        (kept,) = table.kept.values()
        filled = memo_entries(table.step_groups), memo_entries(kept.groups)
        second = solve(HANOI, problem, cfg)
        assert (memo_entries(table.step_groups), memo_entries(kept.groups)) == filled
        assert min(filled) > 0
    assert (len(first.plan), first.expanded) == (63, second.expanded)
    assert first.plan == second.plan


@pytest.mark.parametrize(
    "domain,problem,mode",
    [
        (HANOI, hanoi_problem(5), "optimal"),
        (
            BLOCKS,
            blocks_problem(7, [("b1", "b2"), ("b2", "b3")], [positive("on", "b3", "b1")]),
            "satisficing",
        ),
        (COOKING, gen_cooking(0).truth, "satisficing"),
    ],
    ids=["hanoi", "blocksworld", "cooking"],
)
def test_memo_groups_hold_at_most_one_entry_per_call(monkeypatch, domain, problem, mode):
    # Each lookup that misses adds one entry, so no group's memo outgrows
    # the number of calls that read it.  Each case has memoized step groups
    # (6 to 9 members).
    calls = {"successors": 0, "closure": 0}
    tasks: list[GroundTask] = []
    for name in calls:

        def counted(self, arg, method=getattr(GroundTask, name), name=name):
            calls[name] += 1
            if self not in tasks:
                tasks.append(self)
            return method(self, arg)

        monkeypatch.setattr(GroundTask, name, counted)
    assert solve(domain, problem, SearchConfig(mode=mode)).status == "solved"
    (task,) = tasks
    assert any(group.memo for group in task.step_groups)
    for name, groups in (("successors", task.step_groups), ("closure", task.rule_groups)):
        memos = [group.memo for group in groups if group.memo is not None]
        assert all(len(memo) <= calls[name] for memo in memos), name


@pytest.mark.parametrize(
    "cfg,count",
    [
        (GenConfig("hanoi", d=3, sigma=0.2, seed=11), 4),
        (GenConfig("blocksworld", n=4, sigma=0.2, seed=11), 4),
        (GenConfig("cooking", sigma=0.2, seed=11), 12),
    ],
    ids=["hanoi", "blocksworld", "cooking"],
)
def test_a_shared_table_compiles_as_a_fresh_one_on_generated_suites(tmp_path, cfg, count):
    # The truth and the grounded problem of every entry, in suite order, on
    # one domain: a problem meets the tables of the problems before it, and
    # the relaxations and memos they filled, some of which it shares.
    domain, entries = metrics.load_manifest(write_suite(cfg, count, tmp_path))
    problems = []
    shared = 0
    relaxations = set()
    with suite(domain) as tables:
        for entry in entries:
            problems.append(parse_problem(metrics.read_text(entry.ground_truth_problem), domain))
            grounded = metrics.ground(domain, entry, metrics.PipelineConfig()).problem
            if grounded is not None:
                problems.append(grounded)
        for index, problem in enumerate(problems):
            shared += any(
                other.objects == problem.objects
                and (other.init, other.goal) != (problem.init, problem.goal)
                for other in problems[:index]
            )
            assert_scores_as_naive(domain, problem)
            assert_warm_compiles_as_cold(domain, problem)
            relaxations.add(id(GroundTask(domain, problem).relaxed))
    assert shared >= 2 and len(tables) < len(problems)
    assert len(relaxations) < len(problems)


def assert_scores_as_naive(domain: Domain, problem: Problem) -> None:
    """``problem``'s h_add in the open suite on ``domain``, whose
    relaxations and memos other problems may have filled, equals the
    Bellman-Ford h_add on every reachable state (breadth-first, capped)."""
    task = GroundTask(domain, problem)
    relaxed = naive_relaxed_steps(domain, problem.objects)
    for base, full in reachable(task, limit=150):
        assert task.h_add(full) == naive_h_add(domain, problem, task.decode(base), relaxed)


@settings(max_examples=50, deadline=None)
@given(small_typed_tasks(), st.data())
def test_a_shared_relaxation_scores_as_a_fresh_one_on_random_domains(case, data):
    # Problem A scores every reachable state and is solved, which fills its
    # relaxation and memo.  Problem B has A's objects, A's goal half the
    # time and one with a literal flipped otherwise, and A's init, A's init
    # with other static s atoms, or a drawn init: B shares A's relaxation
    # exactly when it has A's goal and the s atoms that A's rules read.
    domain, first = case
    observed = [
        atom
        for atom in typed_atoms(domain, first.objects)
        if domain.predicate(atom.predicate).kind == "observed"
    ]
    static = {atom for atom in observed if atom.predicate == "s"}
    init = data.draw(
        st.one_of(
            st.just(first.init),
            st.frozensets(st.sampled_from(sorted(static))).map(
                lambda atoms: first.init - static | atoms
            ),
            st.frozensets(st.sampled_from(observed)),
        ),
        label="init",
    )
    goals = flipped_goals(first)
    if len(goals) > 1 and data.draw(st.booleans(), label="flip"):
        goals = goals[1:]
    second = replace(data.draw(st.sampled_from(goals), label="goal"), init=init)
    with suite(domain):
        assert_scores_as_naive(domain, first)
        solve(domain, first, SearchConfig(node_limit=10_000))
        assert_scores_as_naive(domain, second)
        assert_warm_compiles_as_cold(domain, second)


@settings(max_examples=50, deadline=None)
@given(small_typed_tasks(), st.data())
def test_validator_agrees_with_naive_reference_on_random_domains(case, data):
    # Random plans: applicable steps, any grounded step, steps naming no
    # action or the wrong number of arguments.  The validator closes each
    # state under the rules something reads and the naive interpreter under
    # all of them; their verdicts agree for the goal and for the goal with
    # each literal flipped.
    domain, problem = case
    steps = _ground_steps(domain, problem.objects)
    plan, atoms = [], problem.init
    for _ in range(data.draw(st.integers(0, 5))):
        kind = data.draw(st.sampled_from(["legal", "legal", "any", "unknown", "arity"]))
        doable = [s for s in steps if naive_apply(domain, atoms, s)[0] == "ok"]
        if kind == "legal" and doable:
            step = data.draw(st.sampled_from(doable))
        elif kind == "unknown":
            step = PlanStep("teleport", ())
        else:
            step = data.draw(st.sampled_from(steps))
            if kind == "arity":
                step = PlanStep(step.action, step.args[:-1])
        plan.append(step)
        reason, after = naive_apply(domain, atoms, step)
        if reason == "ok":
            atoms = after
    for posed in flipped_goals(problem):
        verdict = validate_plan(domain, posed.init, posed.goal, Plan(tuple(plan)))
        expected = naive_run(domain, posed.init, posed.goal, Plan(tuple(plan)))
        assert (verdict.ok, verdict.reason, verdict.step) == expected


# q(?x) asks d(?x, ?y) with ?y unbound, and the nullary p asks d(?u, ?v)
# with nothing bound; d is derived from r, so each is a subquery whose
# answers are the matching r rows.
UNBOUND = parse_domain(
    "(define (domain unbound) (:types thing)"
    " (:predicates (r ?a - thing ?b - thing) (d ?a - thing ?b - thing)"
    " (q ?x - thing) (p))"
    " (:derived (q ?x) (d ?x ?y))"
    " (:derived (d ?a ?b) (r ?a ?b))"
    " (:derived (p) (d ?u ?v))"
    " (:action link :parameters (?a - thing ?b - thing) :effect (r ?a ?b))"
    " (:action use :parameters (?x - thing) :precondition (q ?x)"
    " :effect (not (r ?x ?x))))"
)


@pytest.mark.parametrize(
    "init, goal, plan, expected",
    [
        ({("a", "b")}, positive("q", "a"), [], (True, None, None)),
        ({("b", "a")}, positive("q", "a"), [], (False, "goal-unsatisfied", None)),
        (set(), positive("q", "a"), [PlanStep("link", ("a", "b"))], (True, None, None)),
        ({("a", "b")}, None, [PlanStep("use", ("a",))], (True, None, None)),
        ({("b", "a")}, None, [PlanStep("use", ("a",))],
         (False, "precondition-unsatisfied", 0)),
        ({("b", "a")}, positive("p"), [], (True, None, None)),
        (set(), positive("p"), [], (False, "goal-unsatisfied", None)),
    ],
    ids=[
        "q-row-present",
        "q-row-absent",
        "q-row-added",
        "precondition-row-present",
        "precondition-row-absent",
        "nullary-row-present",
        "nullary-row-absent",
    ],
)
def test_validator_answers_subqueries_with_unbound_arguments(
    monkeypatch, init, goal, plan, expected
):
    views = []

    def capture(facts, rules):
        views.append(axiom_closure(facts, rules))
        return views[-1]

    monkeypatch.setattr(metrics, "axiom_closure", capture)
    init = frozenset(GroundAtom("r", args) for args in init)
    goal = () if goal is None else (goal,)
    plan = Plan(tuple(plan))
    verdict = validate_plan(UNBOUND, init, goal, plan)
    assert (verdict.ok, verdict.reason, verdict.step) == expected
    assert naive_run(UNBOUND, init, goal, plan) == expected
    # The d subquery had an unbound argument, and its answers are the r rows
    # that match it.
    subqueries = [
        (pattern, rows)
        for view in views
        for (predicate, pattern), rows in view.answers.items()
        if predicate == "d"
    ]
    assert subqueries and all(None in pattern for pattern, _ in subqueries)
    assert any(rows for _, rows in subqueries) == expected[0]
    if goal:
        flipped = (GroundLiteral(goal[0].atom, True),)
        verdict = validate_plan(UNBOUND, init, flipped, plan)
        assert (verdict.ok, verdict.reason, verdict.step) == naive_run(
            UNBOUND, init, flipped, plan
        )


def folding_cases(domain, problem) -> tuple[bool, bool, bool]:
    """Whether some rule instance's body reads a static atom, whether one
    reads an atom that is never true, and whether one reads static atoms
    only (so its head holds in every reachable state).  Only the rules of
    read predicates count: the task grounds no other."""
    task = GroundTask(domain, problem)
    adds = [task.decode(add) for _, _, _, add in task.masks]
    deletes = [task.decode(~keep) for _, _, keep, _ in task.masks]
    read = naive_read_predicates(domain, problem.goal)
    instances = [
        (head, body)
        for body, head in _typed_rule_instances(domain, problem.objects)
        if head.predicate in read
    ]
    static = problem.init.difference(*deletes)
    never = {atom for _, body in instances for atom in body}.difference(
        problem.init, *adds, (head for head, _ in instances)
    )
    return (
        any(static.intersection(body) for _, body in instances),
        any(never.intersection(body) for _, body in instances),
        any(static.issuperset(body) for _, body in instances),
    )


def drawn_counts(cases) -> list[int]:
    """Over 50 derandomized draws of ``small_typed_tasks``, how many draws
    ``cases`` finds each of its cases in."""
    drawn = []

    @settings(
        max_examples=50,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        deadline=None,
    )
    @given(small_typed_tasks())
    def collect(case):
        drawn.append(cases(*case))

    collect()
    assert len(drawn) == 50
    return [sum(column) for column in zip(*drawn)]


def test_random_domains_draw_every_folding_case():
    # The differential tests run 50 examples; rule bodies that read static
    # atoms, never-true atoms (which the task prunes) and static atoms only
    # (heads that hold in every reachable state but not on every base) must
    # each turn up in at least a fifth of them.
    assert min(drawn_counts(folding_cases)) >= 10


def heuristic_cases(domain, problem) -> tuple[bool, bool]:
    """Whether some grounded action has no positive precondition (its adds
    cost 1 in every state), and whether the naive h_add is infinite on some
    reachable state for the goal or a goal with one literal flipped."""
    task = GroundTask(domain, problem)
    free = any(not pos for pos, _, _, _ in task.compiled)
    relaxed = naive_relaxed_steps(domain, problem.objects)
    infinite = any(
        naive_h_add(domain, posed, task.decode(base), relaxed) == float("inf")
        for base, _ in reachable(task, limit=150)
        for posed in flipped_goals(problem)
    )
    return free, infinite


def test_random_domains_draw_every_heuristic_case():
    # The differential test's h_add comparison must meet actions whose adds
    # cost 1 in every state and goals that cannot be reached, each in at
    # least a fifth of its 50 examples.
    assert min(drawn_counts(heuristic_cases)) >= 10


def relevance_cases(domain, problem) -> tuple[bool, bool]:
    """Whether some derived predicate is unread, and whether one is read
    only through the body of another rule."""
    read = naive_read_predicates(domain, problem.goal)
    named = {lit.atom.predicate for lit in problem.goal}
    named.update(lit.atom.predicate for a in domain.actions for lit in a.precondition)
    heads = {rule.head.predicate for rule in domain.derived}
    return bool(heads - read), bool(heads & read - named)


def test_random_domains_draw_every_relevance_case():
    # The task and the validator drop the rules of unread predicates and
    # keep those read through another rule: the differential tests must
    # meet each case in at least a fifth of their examples.
    assert min(drawn_counts(relevance_cases)) >= 10


def goal_relevance_cases(domain, problem) -> tuple[bool, bool]:
    """Whether h_add leaves out an action that has a positive
    precondition, and whether it leaves out a rule instance the closure
    reads."""
    task = GroundTask(domain, problem)
    producers = task.relaxed.producers
    actions = len(task.compiled)
    # The actions come first among the producers, then the rule instances.
    kept = sum(1 for index in producers if index < actions and task.compiled[index][0])
    return (
        kept < sum(1 for pos, _, _, _ in task.compiled if pos),
        sum(index >= actions for index in producers) < len(task.rule_head),
    )


def test_random_domains_draw_every_goal_relevance_case():
    # h_add reads only the goal-relevant actions and rule instances, and
    # the differential test's h_add comparison must meet each kind of
    # pruning in at least a fifth of its 50 examples.
    assert min(drawn_counts(goal_relevance_cases)) >= 10


def test_h_add_jumps_to_far_apart_costs():
    # Layer i takes two l{i-1} atoms, so each l{i} atom costs 1 + 2 * (the
    # cost of an l{i-1} atom) = 2^i - 1.  The goal's cost is 2^40 - 1: only
    # a queue that goes straight to the next cost waiting gets there.
    layers = 40
    predicates = " ".join(f"(l{i} ?x - thing)" for i in range(layers + 1))
    actions = " ".join(
        f"(:action make{i} :parameters (?x - thing ?y - thing)"
        f" :precondition (and (l{i - 1} ?x) (l{i - 1} ?y) (not (= ?x ?y)))"
        f" :effect (and (l{i} ?x) (l{i} ?y)))"
        for i in range(1, layers + 1)
    )
    domain = parse_domain(
        "(define (domain chain) (:requirements :strips :typing :equality)"
        f" (:types thing) (:predicates {predicates}) {actions})"
    )
    problem = Problem(
        "chain",
        "chain",
        (("a", "thing"), ("b", "thing")),
        frozenset({GroundAtom("l0", ("a",)), GroundAtom("l0", ("b",))}),
        (positive(f"l{layers}", "a"),),
    )
    task = GroundTask(domain, problem)
    assert task.h_add(task.init[1]) == float(2**layers - 1)
