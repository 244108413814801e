"""Typed STRIPS subset: model types, parser, and canonical serializer.

The subset covers typed hierarchies, observed and derived predicates
(derived = defined by stratified positive rules, never touched by effects),
negative preconditions, an equality builtin in preconditions, and
conjunctive goals with optional negation.  See docs/pddl-grammar.md for the
grammar.
"""

from sceneground.pddl.model import (
    EQUALITY,
    ROOT_TYPE,
    ActionSchema,
    Atom,
    DerivedRule,
    Domain,
    GroundAtom,
    GroundLiteral,
    Literal,
    Plan,
    PlanStep,
    PredicateSignature,
    Problem,
    TypeHierarchy,
    atom_faults,
)
from sceneground.pddl.parser import PddlError, parse_domain, parse_plan, parse_problem
from sceneground.pddl.writer import serialize_domain, serialize_plan, serialize_problem

__all__ = [
    "EQUALITY",
    "ROOT_TYPE",
    "ActionSchema",
    "Atom",
    "DerivedRule",
    "Domain",
    "GroundAtom",
    "GroundLiteral",
    "Literal",
    "PddlError",
    "Plan",
    "PlanStep",
    "PredicateSignature",
    "Problem",
    "TypeHierarchy",
    "atom_faults",
    "parse_domain",
    "parse_plan",
    "parse_problem",
    "serialize_domain",
    "serialize_plan",
    "serialize_problem",
]
