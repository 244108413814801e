"""Grounding, derived-predicate closure, and search.

Frozen oracle values: tower-transfer optima 2^d - 1 (7, 15, 31), labeled
stacking configurations 1, 3, 13, 73, 501 for n = 1..5, and grounding
counts worked out by hand from the schema signatures.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sceneground.planner as planner
from naive_ref import naive_bfs, naive_closure, naive_h_add, naive_run, well_typed
from sceneground.bench import domain_text
from sceneground.bench.generate import gen_cooking
from sceneground.pddl import parse_domain
from sceneground.pddl.model import (
    Atom,
    DerivedRule,
    GroundAtom,
    GroundLiteral,
    Plan,
    PlanStep,
    Problem,
)
from sceneground.planner import (
    GroundTask,
    PlannerError,
    SearchConfig,
    _check_plan,
    apply_action,
    applicable,
    axiom_closure,
    ground_actions,
    make_heuristic,
    make_state,
    solve,
)

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


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def test_hanoi_three_disks_grounds_to_18_actions():
    problem = hanoi_problem(3)
    grounded = ground_actions(HANOI, problem.objects)
    assert len(grounded) == 18  # 3 disks x 3 from-pegs x 3 to-pegs, minus from == to


def test_grounding_resolves_equality_away():
    problem = hanoi_problem(2)
    for action in ground_actions(HANOI, problem.objects):
        assert all(lit.atom.predicate != "=" for lit in action.precondition)
        _, from_peg, to_peg = action.args
        assert from_peg != to_peg


def test_blocksworld_grounding_count_by_hand():
    # unstack twins: 3*3 each (no equality literal, b == from stays but is
    # inert); stack twins: 3*3 - 3 each, killed by the equality literal.
    grounded = ground_actions(BLOCKS, blocks_problem(3).objects)
    per_schema = {}
    for action in grounded:
        per_schema[action.name] = per_schema.get(action.name, 0) + 1
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
    grounded = {(a.name, a.args) for a in ground_actions(domain, objects)}
    assert grounded == brute_force_ground(domain, objects)


def test_grounding_order_is_deterministic():
    objects = hanoi_problem(3).objects
    first = ground_actions(HANOI, objects)
    second = ground_actions(HANOI, objects)
    assert first == second


# ---------------------------------------------------------------------------
# Derived-predicate closure
# ---------------------------------------------------------------------------


def test_closure_supports_recursive_rules():
    # The parser refuses recursive files, but the fixpoint engine itself
    # must handle them: transitive reachability over a chain.
    above_step = DerivedRule(
        Atom("above", ("?x", "?z")),
        (Atom("on", ("?x", "?y")), Atom("above", ("?y", "?z"))),
    )
    above_base = DerivedRule(Atom("above", ("?x", "?y")), (Atom("on", ("?x", "?y")),))
    base = {GroundAtom("on", ("a", "b")), GroundAtom("on", ("b", "c"))}
    derived = axiom_closure(base, (above_step, above_base))
    assert derived == {
        GroundAtom("above", ("a", "b")),
        GroundAtom("above", ("b", "c")),
        GroundAtom("above", ("a", "c")),
    }


def test_closure_on_blocks_stack():
    base = {GroundAtom("on", ("b1", "b2")), GroundAtom("on", ("b2", "b3"))}
    derived = axiom_closure(base, BLOCKS.derived)
    assert derived == {
        GroundAtom("covered", ("b2",)),
        GroundAtom("covered", ("b3",)),
        GroundAtom("supported", ("b1",)),
        GroundAtom("supported", ("b2",)),
        GroundAtom("elevated", ("b1",)),
        GroundAtom("buried", ("b2",)),
        GroundAtom("stacked-over", ("b1", "b3")),
    }


def test_closure_of_empty_base_is_empty():
    assert axiom_closure(frozenset(), BLOCKS.derived) == frozenset()


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
    lifted = axiom_closure(problem.init, COOKING.derived)
    assert derived == {a for a in lifted if well_typed(a, COOKING, problem.objects)}


@st.composite
def on_atom_sets(draw):
    names = ("b1", "b2", "b3", "b4")
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    atoms = draw(st.frozensets(pairs, max_size=8))
    return frozenset(GroundAtom("on", pair) for pair in atoms)


@settings(max_examples=60, deadline=None)
@given(on_atom_sets(), on_atom_sets())
def test_closure_is_monotone_in_the_base(small, extra):
    # Positive rules only, so a larger base never loses derived atoms.
    assert axiom_closure(small, BLOCKS.derived) <= axiom_closure(
        small | extra, BLOCKS.derived
    )


@settings(max_examples=40, deadline=None)
@given(on_atom_sets())
def test_closure_derives_only_derived_predicates(base):
    derived = axiom_closure(base, BLOCKS.derived)
    names = {sig.name for sig in BLOCKS.derived_predicates}
    assert all(atom.predicate in names for atom in derived)
    assert not derived & base


# ---------------------------------------------------------------------------
# State transitions
# ---------------------------------------------------------------------------


def test_covered_block_cannot_move():
    problem = blocks_problem(3, init_on=[("b1", "b2"), ("b2", "b3")])
    state = make_state(problem.init, BLOCKS)
    actions = {(a.name, a.args): a for a in ground_actions(BLOCKS, problem.objects)}
    assert applicable(state, actions[("unstack-from-tower", ("b1", "b2"))])
    assert not applicable(state, actions[("unstack-from-base", ("b2", "b3"))])


def test_apply_action_refreshes_derived_atoms():
    problem = blocks_problem(2, init_on=[("b1", "b2")])
    state = make_state(problem.init, BLOCKS)
    assert GroundAtom("covered", ("b2",)) in state.derived
    actions = {(a.name, a.args): a for a in ground_actions(BLOCKS, problem.objects)}
    after = apply_action(state, actions[("unstack-from-base", ("b1", "b2"))], BLOCKS)
    assert after.base == frozenset()
    assert after.derived == frozenset()


def test_hanoi_reachable_states_number_three_to_the_d():
    # Any disk-to-peg assignment is legal (order on a peg is forced by
    # size), and every assignment is reachable from the start tower.
    problem = hanoi_problem(3)
    actions = ground_actions(HANOI, problem.objects)
    seen = {make_state(problem.init, HANOI).base}
    stack = [make_state(problem.init, HANOI)]
    while stack:
        state = stack.pop()
        for action in actions:
            if not applicable(state, action):
                continue
            nxt = apply_action(state, action, HANOI)
            if nxt.base not in seen:
                seen.add(nxt.base)
                stack.append(nxt)
    assert len(seen) == 27


@pytest.mark.parametrize("n,count", [(2, 3), (3, 13), (4, 73), (5, 501)])
def test_blocksworld_reachable_configuration_counts(n, count):
    # Orderings of n labeled blocks into towers: 1, 3, 13, 73, 501, ...
    problem = blocks_problem(n)
    actions = ground_actions(BLOCKS, problem.objects)
    seen = {make_state(problem.init, BLOCKS).base}
    stack = [make_state(problem.init, BLOCKS)]
    while stack:
        state = stack.pop()
        for action in actions:
            if not applicable(state, action):
                continue
            nxt = apply_action(state, action, BLOCKS)
            if nxt.base not in seen:
                seen.add(nxt.base)
                stack.append(nxt)
    assert len(seen) == count


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


@pytest.mark.parametrize("heuristic", ["additive-cost", "goal-count", "blind"])
def test_satisficing_plans_replay_cleanly(heuristic):
    problem = blocks_problem(
        4,
        init_on=[("b1", "b2"), ("b2", "b3")],
        goal=[positive("on", "b3", "b4"), positive("on", "b2", "b1")],
    )
    cfg = SearchConfig(mode="satisficing", heuristic=heuristic)
    result = solve(BLOCKS, problem, cfg)
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
    actions = ground_actions(BLOCKS, problem.objects)
    state = make_state(problem.init, BLOCKS)
    for _ in range(rng.randint(2, 6)):
        options = [a for a in actions if applicable(state, a)]
        if not options:
            break
        state = apply_action(state, rng.choice(options), BLOCKS)
    goal = tuple(
        GroundLiteral(atom, False)
        for atom in sorted(state.base)
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


def test_identical_inputs_give_identical_plans():
    problem = hanoi_problem(3)
    for cfg in (SearchConfig(mode="optimal"), SearchConfig(mode="satisficing")):
        first = solve(HANOI, problem, cfg)
        second = solve(HANOI, problem, cfg)
        assert first.plan.steps == second.plan.steps
        assert first.expanded == second.expanded


@pytest.mark.parametrize("mode", ["optimal", "satisficing"])
def test_solve_grounds_once(monkeypatch, mode):
    calls = []
    original = planner.ground_actions

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(planner, "ground_actions", counting)
    result = solve(HANOI, hanoi_problem(3), SearchConfig(mode=mode))
    assert result.status == "solved"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Heuristics
# ---------------------------------------------------------------------------


def test_additive_cost_zero_exactly_on_goal_states():
    problem = blocks_problem(3, goal=[positive("on", "b1", "b2")])
    h = make_heuristic(BLOCKS, problem, "additive-cost")
    actions = ground_actions(BLOCKS, problem.objects)
    seen = {}
    stack = [make_state(problem.init, BLOCKS)]
    while stack:
        state = stack.pop()
        if state.base in seen:
            continue
        seen[state.base] = state
        for action in actions:
            if applicable(state, action):
                stack.append(apply_action(state, action, BLOCKS))
    assert len(seen) == 13
    for state in seen.values():
        satisfied = state.satisfies(problem.goal)
        assert (h(state) == 0.0) == satisfied


def test_additive_cost_counts_violated_negative_goals():
    problem = blocks_problem(
        2,
        init_on=[("b1", "b2")],
        goal=[negative("on", "b1", "b2"), negative("covered", "b2")],
    )
    h = make_heuristic(BLOCKS, problem, "additive-cost")
    assert h(make_state(problem.init, BLOCKS)) == 2.0


def test_goal_count_heuristic_counts_unsatisfied_literals():
    problem = blocks_problem(
        3,
        init_on=[("b1", "b2")],
        goal=[positive("on", "b1", "b2"), positive("on", "b2", "b3")],
    )
    h = make_heuristic(BLOCKS, problem, "goal-count")
    assert h(make_state(problem.init, BLOCKS)) == 1.0


def test_unreachable_goal_scores_infinite():
    problem = blocks_problem(2, goal=[positive("on", "b1", "b1")])
    h = make_heuristic(BLOCKS, problem, "additive-cost")
    assert h(make_state(problem.init, BLOCKS)) == float("inf")


# ---------------------------------------------------------------------------
# Configuration and results
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "fastest"},
        {"heuristic": "manhattan"},
        {"node_limit": 0},
        {"time_limit_s": 0.0},
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


def test_internal_replay_guard_catches_bad_plans():
    problem = hanoi_problem(2)
    bogus = Plan((PlanStep("move", ("d2", "p1", "p3")),))  # d1 blocks d2
    with pytest.raises(PlannerError):
        _check_plan(GroundTask(HANOI, problem), bogus)
    short = Plan((PlanStep("move", ("d1", "p1", "p2")),))  # valid, goal unmet
    with pytest.raises(PlannerError, match="misses the goal"):
        _check_plan(GroundTask(HANOI, problem), short)


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
    # Over reachable states (breadth-first, capped): the counter closure is
    # the naive closure restricted to well-typed atoms, and the Dijkstra
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
    flipped_h = make_heuristic(
        domain, flipped, "additive-cost", GroundTask(domain, flipped)
    )
    states = [task.init]
    seen = {task.init[0]}
    for state in states:
        for _, base in task.successors(state):
            if base not in seen and len(states) < 120:
                seen.add(base)
                states.append((base, task.closure(base)))
    assert len(states) > 1
    for base, full in states:
        atoms = task.decode(base)
        expected = {
            a
            for a in naive_closure(atoms, domain)
            if well_typed(a, domain, problem.objects)
        }
        assert task.decode(full) == expected
        assert task.h_add(full) == naive_h_add(domain, problem, atoms)
        assert flipped_h(full) == naive_h_add(domain, flipped, atoms)
