"""Canonical serialization.

``serialize_problem`` emits a normal form: objects sorted by name, init
atoms sorted, goal literals in declared order, and the literal ``(:init )``
when the initial state is empty.  Serializing, parsing, and serializing
again is the identity on the text, and parsing the output reproduces the
value (problems compare equal; domains keep declaration order).
"""

from __future__ import annotations

from sceneground.pddl.model import (
    ActionSchema,
    Atom,
    DerivedRule,
    Domain,
    GroundAtom,
    GroundLiteral,
    Literal,
    Plan,
    Problem,
)


def _atom(atom: Atom | GroundAtom) -> str:
    return "(" + " ".join((atom.predicate, *atom.args)) + ")"


def _literal(lit: Literal | GroundLiteral) -> str:
    inner = _atom(lit.atom)
    return f"(not {inner})" if lit.negated else inner


def _params(params: tuple[tuple[str, str], ...]) -> str:
    return " ".join(f"{v} - {t}" for v, t in params)


def _action(schema: ActionSchema) -> list[str]:
    lines = [f"  (:action {schema.name}"]
    lines.append(f"    :parameters ({_params(schema.params)})")
    if schema.precondition:
        pre = " ".join(_literal(lit) for lit in schema.precondition)
        lines.append(f"    :precondition (and {pre})")
    effects = [_atom(a) for a in schema.add]
    effects.extend(f"(not {_atom(a)})" for a in schema.delete)
    lines.append(f"    :effect (and {' '.join(effects)}))")
    return lines


def _rule(rule: DerivedRule, domain: Domain) -> list[str]:
    sig = domain.predicate(rule.head.predicate)
    assert sig is not None
    head_params = tuple(zip(rule.head.args, (t for _, t in sig.params)))
    body = " ".join(_atom(a) for a in rule.body)
    return [
        f"  (:derived ({rule.head.predicate} {_params(head_params)})",
        f"    (and {body}))",
    ]


def serialize_domain(domain: Domain) -> str:
    """Render a domain in declaration order."""
    lines = [f"(define (domain {domain.name})"]
    if domain.hierarchy.parents:
        decls = " ".join(f"{n} - {p}" for n, p in domain.hierarchy.parents)
        lines.append(f"  (:types {decls})")
    lines.append("  (:predicates")
    for sig in domain.predicates:
        sep = " " if sig.params else ""
        lines.append(f"    ({sig.name}{sep}{_params(sig.params)})")
    lines[-1] += ")"
    for schema in domain.actions:
        lines.extend(_action(schema))
    for rule in domain.derived:
        lines.extend(_rule(rule, domain))
    lines.append(")")
    return "\n".join(lines) + "\n"


def serialize_problem(problem: Problem) -> str:
    """Render a problem in the canonical normal form."""
    lines = [
        f"(define (problem {problem.name})",
        f"  (:domain {problem.domain_name})",
        "  (:objects",
    ]
    for name, typ in problem.objects:  # already sorted by name
        lines.append(f"    {name} - {typ}")
    lines[-1] += ")"
    if problem.init:
        lines.append("  (:init")
        for atom in sorted(problem.init):
            lines.append(f"    {atom}")
        lines[-1] += ")"
    else:
        lines.append("  (:init )")
    goal = " ".join(_literal(lit) for lit in problem.goal)
    lines.append(f"  (:goal (and {goal})))")
    return "\n".join(lines) + "\n"


def serialize_plan(plan: Plan) -> str:
    """One ``(action arg ...)`` step per line."""
    return "".join(f"{step}\n" for step in plan.steps)
