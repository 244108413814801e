"""Reference interpreter used to cross-check the planner and the validator.

Deliberately naive: generate-and-test grounding, closure by repeated full
re-derivation, h_add by Bellman-Ford sweeps, breadth-first search with no
ordering tricks.  It imports
only the model types, never the planner or metrics modules, so agreement
between the implementations is meaningful evidence rather than an echo.
"""

from __future__ import annotations

import itertools
from collections import deque

from sceneground.pddl.model import (
    EQUALITY,
    Domain,
    GroundAtom,
    Plan,
    PlanStep,
    Problem,
)


def _subst(atom, env):
    return GroundAtom(atom.predicate, tuple(env[a] for a in atom.args))


def naive_closure(atoms, domain: Domain) -> frozenset[GroundAtom]:
    """Base plus derived atoms, by exhaustive re-derivation to a fixpoint.

    Variables range over every constant mentioned anywhere in the current
    atom set; the body-membership test discards ill-typed combinations
    because ill-typed atoms can never be present.
    """
    known = set(atoms)
    while True:
        constants = sorted({name for atom in known for name in atom.args})
        fresh = set()
        for rule in domain.derived:
            variables = []
            for atom in (rule.head, *rule.body):
                for var in atom.args:
                    if var not in variables:
                        variables.append(var)
            for combo in itertools.product(constants, repeat=len(variables)):
                env = dict(zip(variables, combo))
                if all(_subst(b, env) in known for b in rule.body):
                    fresh.add(_subst(rule.head, env))
        fresh -= known
        if not fresh:
            return frozenset(known)
        known |= fresh


def naive_apply(domain: Domain, atoms: frozenset, step: PlanStep, closures=None):
    """One plan step against a base atom set.

    Returns ("ok", next_atoms), ("unknown-action", None) for a missing
    schema or an arity mismatch, or ("precondition-unsatisfied", None).
    A dict may be passed as closures to memoize fixpoints across calls.
    """
    schema = domain.action(step.action)
    if schema is None or len(schema.params) != len(step.args):
        return "unknown-action", None
    env = {var: value for (var, _), value in zip(schema.params, step.args)}
    if closures is None:
        full = naive_closure(atoms, domain)
    else:
        if atoms not in closures:
            closures[atoms] = naive_closure(atoms, domain)
        full = closures[atoms]
    for lit in schema.precondition:
        if lit.atom.predicate == EQUALITY:
            left, right = (env[a] for a in lit.atom.args)
            holds = left == right
        else:
            holds = _subst(lit.atom, env) in full
        if holds == lit.negated:
            return "precondition-unsatisfied", None
    delete = {_subst(a, env) for a in schema.delete}
    add = {_subst(a, env) for a in schema.add}
    return "ok", frozenset((set(atoms) - delete) | add)


def naive_run(domain: Domain, init, goal, plan: Plan):
    """Replay a plan.  Returns (ok, reason, failing step index)."""
    atoms = frozenset(init)
    for index, step in enumerate(plan.steps):
        reason, atoms = naive_apply(domain, atoms, step)
        if reason != "ok":
            return False, reason, index
    full = naive_closure(atoms, domain)
    for lit in goal:
        if (lit.atom in full) == lit.negated:
            return False, "goal-unsatisfied", None
    return True, None, None


def _ground_steps(domain: Domain, objects):
    steps = []
    for schema in domain.actions:
        pools = []
        for _, want in schema.params:
            pools.append(
                [n for n, t in objects if domain.hierarchy.is_subtype(t, want)]
            )
        for combo in itertools.product(*pools):
            steps.append(PlanStep(schema.name, combo))
    return steps


def naive_bfs(domain: Domain, problem: Problem, state_limit: int = 10**5):
    """Optimal plan length by uninformed search, or None when unsolvable.

    Raises RuntimeError if the reachable space exceeds state_limit; pick
    smaller instances instead of raising the limit.
    """
    steps = _ground_steps(domain, problem.objects)
    closures: dict[frozenset, frozenset] = {}

    def satisfied(atoms):
        if atoms not in closures:
            closures[atoms] = naive_closure(atoms, domain)
        reached = closures[atoms]
        return all((lit.atom in reached) != lit.negated for lit in problem.goal)

    start = frozenset(problem.init)
    if satisfied(start):
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        atoms, depth = queue.popleft()
        for step in steps:
            reason, nxt = naive_apply(domain, atoms, step, closures)
            if reason != "ok" or nxt in seen:
                continue
            if satisfied(nxt):
                return depth + 1
            seen.add(nxt)
            if len(seen) > state_limit:
                raise RuntimeError("state limit exceeded")
            queue.append((nxt, depth + 1))
    return None


def well_typed(atom: GroundAtom, domain: Domain, objects) -> bool:
    """True if every argument's object type fits its predicate position."""
    types = dict(objects)
    sig = domain.predicate(atom.predicate)
    return all(
        arg in types and domain.hierarchy.is_subtype(types[arg], want)
        for arg, (_, want) in zip(atom.args, sig.params)
    )


def _relaxed_actions(domain: Domain, objects):
    """(positive preconditions, adds) of each typed grounding whose
    equality literals hold."""
    out = []
    for step in _ground_steps(domain, objects):
        schema = domain.action(step.action)
        env = {var: value for (var, _), value in zip(schema.params, step.args)}
        pre = []
        feasible = True
        for lit in schema.precondition:
            if lit.atom.predicate == EQUALITY:
                left, right = (env[a] for a in lit.atom.args)
                feasible = feasible and (left == right) != lit.negated
            elif not lit.negated:
                pre.append(_subst(lit.atom, env))
        if feasible:
            out.append((pre, [_subst(a, env) for a in schema.add]))
    return out


def _typed_rule_instances(domain: Domain, objects):
    """(body, head) of each rule binding that makes every atom well typed."""
    names = [name for name, _ in objects]
    out = []
    for rule in domain.derived:
        variables = []
        for atom in (rule.head, *rule.body):
            for var in atom.args:
                if var not in variables:
                    variables.append(var)
        for combo in itertools.product(names, repeat=len(variables)):
            env = dict(zip(variables, combo))
            head = _subst(rule.head, env)
            body = [_subst(b, env) for b in rule.body]
            if all(well_typed(a, domain, objects) for a in (head, *body)):
                out.append((body, head))
    return out


def naive_h_add(domain: Domain, problem: Problem, atoms) -> float:
    """Additive delete-relaxation cost of problem.goal from base atoms.

    Bellman-Ford sweeps until no cost drops.  Base atoms cost 0; an action
    costs 1 plus the summed costs of its positive preconditions; a typed
    rule instance costs the summed costs of its body.  The value sums the
    positive goal atoms' costs and adds 1 per negative goal literal whose
    atom costs 0 (holds in the state).
    """
    steps = [(pre, add, 1.0) for pre, add in _relaxed_actions(domain, problem.objects)]
    steps += [
        (body, [head], 0.0)
        for body, head in _typed_rule_instances(domain, problem.objects)
    ]
    cost = {atom: 0.0 for atom in atoms}
    changed = True
    while changed:
        changed = False
        for pre, add, own in steps:
            if not all(atom in cost for atom in pre):
                continue
            total = own + sum(cost[atom] for atom in pre)
            for atom in add:
                if total < cost.get(atom, float("inf")):
                    cost[atom] = total
                    changed = True
    h = 0.0
    for lit in problem.goal:
        if lit.negated:
            h += cost.get(lit.atom) == 0.0
        elif lit.atom not in cost:
            return float("inf")
        else:
            h += cost[lit.atom]
    return h
