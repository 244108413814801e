"""Parser, writer, and model tests for the typed STRIPS subset."""

import itertools
import pickle
import random
import re

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from naive_ref import naive_atom_error, naive_is_subtype, naive_type_chain
from sceneground.bench import domain_text
from sceneground.pddl import (
    Domain,
    GroundAtom,
    GroundLiteral,
    PddlError,
    Plan,
    PlanStep,
    Problem,
    TypeHierarchy,
    atom_faults,
    parse_domain,
    parse_plan,
    parse_problem,
    serialize_domain,
    serialize_plan,
    serialize_problem,
)
from sceneground.pddl import parser
from sceneground.pddl.model import ROOT_TYPE, ModelError, PredicateSignature

DOMAIN_TEXT = """
(define (domain toy)
  (:requirements :strips :typing :negative-preconditions :derived-predicates)
  (:types block - object)
  (:predicates
    (on ?a - block ?b - block)
    (covered ?b - block)
    (supported ?b - block))
  (:action move-to-table
    :parameters (?b - block ?from - block)
    :precondition (and (on ?b ?from) (not (covered ?b)))
    :effect (and (not (on ?b ?from))))
  (:action move-from-table
    :parameters (?b - block ?to - block)
    :precondition (and (not (supported ?b)) (not (covered ?b))
                       (not (covered ?to)) (not (= ?b ?to)))
    :effect (and (on ?b ?to)))
  (:derived (covered ?b - block) (on ?a ?b))
  (:derived (supported ?b - block) (on ?b ?a)))
"""

PROBLEM_TEXT = """
(define (problem toy-1)
  (:domain toy)
  (:objects b3 b1 b2 - block)
  (:init (on b1 b2))
  (:goal (and (on b2 b1) (not (on b1 b2)))))
"""


@pytest.fixture
def toy_domain():
    return parse_domain(DOMAIN_TEXT)


def test_parse_domain_basics(toy_domain):
    assert toy_domain.name == "toy"
    assert [s.name for s in toy_domain.predicates] == ["on", "covered", "supported"]
    assert {s.name: s.kind for s in toy_domain.predicates} == {
        "on": "observed",
        "covered": "derived",
        "supported": "derived",
    }
    assert [a.name for a in toy_domain.actions] == ["move-to-table", "move-from-table"]
    move = toy_domain.action("move-from-table")
    assert move.params == (("?b", "block"), ("?to", "block"))
    preds = [(lit.atom.predicate, lit.negated) for lit in move.precondition]
    assert ("=", True) in preds


def test_parse_is_case_insensitive(toy_domain):
    text = PROBLEM_TEXT.replace("b1", "B1").replace("(:init", "(:INIT")
    assert parse_problem(text, toy_domain) == parse_problem(PROBLEM_TEXT, toy_domain)


def test_comments_are_stripped(toy_domain):
    text = PROBLEM_TEXT.replace("(:init", "; a comment (with parens\n  (:init")
    assert parse_problem(text, toy_domain) == parse_problem(PROBLEM_TEXT, toy_domain)


def test_objects_are_sorted_by_name(toy_domain):
    problem = parse_problem(PROBLEM_TEXT, toy_domain)
    assert problem.objects == (("b1", "block"), ("b2", "block"), ("b3", "block"))


def test_untyped_objects_default_to_root():
    domain = parse_domain("(define (domain d) (:predicates (p ?a)))")
    problem = parse_problem(
        "(define (problem q) (:domain d) (:objects x) (:init ) (:goal (and (p x))))",
        domain,
    )
    assert problem.objects == (("x", "object"),)


def test_problem_round_trip_value_identity(toy_domain):
    problem = parse_problem(PROBLEM_TEXT, toy_domain)
    text = serialize_problem(problem)
    again = parse_problem(text, toy_domain)
    assert again == problem
    assert serialize_problem(again) == text


def test_domain_round_trip_value_identity(toy_domain):
    text = serialize_domain(toy_domain)
    again = parse_domain(text)
    assert again == toy_domain
    assert serialize_domain(again) == text


def test_empty_init_serializes_to_literal_form(toy_domain):
    problem = Problem("e", "toy", (("b1", "block"),), frozenset(), ())
    text = serialize_problem(problem)
    assert "(:init )" in text
    assert parse_problem(text, toy_domain) == problem


def test_init_atoms_serialize_sorted(toy_domain):
    init = frozenset(
        {GroundAtom("on", ("b3", "b2")), GroundAtom("on", ("b1", "b3"))}
    )
    problem = Problem(
        "s", "toy",
        (("b1", "block"), ("b2", "block"), ("b3", "block")),
        init,
        (GroundLiteral(GroundAtom("on", ("b2", "b1")), False),),
    )
    text = serialize_problem(problem)
    assert text.index("(on b1 b3)") < text.index("(on b3 b2)")


def test_goal_keeps_declared_order(toy_domain):
    problem = parse_problem(PROBLEM_TEXT, toy_domain)
    assert [str(lit) for lit in problem.goal] == ["(on b2 b1)", "(not (on b1 b2))"]
    text = serialize_problem(problem)
    assert text.index("(on b2 b1)") < text.index("(not (on b1 b2))")


def test_goal_may_use_derived_predicates(toy_domain):
    text = PROBLEM_TEXT.replace("(and (on b2 b1) (not (on b1 b2)))", "(covered b1)")
    problem = parse_problem(text, toy_domain)
    assert problem.goal == (GroundLiteral(GroundAtom("covered", ("b1",)), False),)


def test_error_carries_position():
    with pytest.raises(PddlError) as err:
        parse_domain("(define (domain d)\n  (:predicates (p ?a ?b ?c)))")
    assert err.value.line == 2
    assert err.value.col > 0


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(define (domain d) (:predicates (p ?a)) (:derived (p ?a) (p ?a)))",
         "unstratified"),
        ("(define (domain d) (:predicates (p ?a) (q ?a))"
         " (:derived (p ?a) (q ?a)) (:derived (q ?a) (p ?a)))",
         "unstratified"),
        ("(define (domain d) (:predicates (p ?a ?b ?c)))", "arity 1 or 2"),
        ("(define (domain d) (:predicates (p ?a) (p ?a)))", "duplicate predicate"),
        ("(define (domain d) (:types t - t))", "cycle"),
        ("(define (domain d) (:types object - thing))", "redeclare"),
        ("(define (domain d) (:predicates (p ?a - nope)))", "unknown type"),
        ("(define (domain d) (:predicates (p ?a))"
         " (:action a :parameters (?x) :effect (q ?x)))", "unknown predicate"),
        ("(define (domain d) (:predicates (p ?a))"
         " (:action a :parameters (?x) :effect (p ?y)))", "not a parameter"),
        ("(define (domain d) (:predicates (p ?a) (q ?a))"
         " (:action a :parameters (?x) :effect (q ?x))"
         " (:derived (q ?a) (p ?a)))", "derived"),
        ("(define (domain d) (:predicates (p ?a))"
         " (:action a :parameters (?x ?y) :precondition (p ?x)"
         " :effect (and (= ?x ?y))))", "effects"),
        ("(define (domain d) (:predicates (p ?a))"
         " (:derived (q ?a) (p ?a)))", "not declared"),
        ("(define (domain d) (:predicates (p ?a) (q ?a))"
         " (:derived (q ?a) (not (p ?a))))", "negation"),
        ("(define (domain d) (:predicates (p ?a) (q ?a))\n"
         " (:derived (q ?a) (and)))", "rule for 'q' has an empty body at 2:13"),
        ("(define (domain d) (:predicates (p ?a)) (:functions (f ?a)))",
         "unsupported section"),
        ("(define (domain d) (:predicates (= ?a ?b)))", "builtin"),
        # A rule head may not narrow its predicate's declared type.
        ("(define (domain d) (:types sub - object) (:predicates (p ?x) (q ?x))\n"
         " (:derived (p ?x - sub) (q ?x)))",
         "head variable ?x has type 'sub', 'p' declares 'object' at 2:15"),
        ("(define (domain d) (:predicates (p ?x) (q ?x))\n"
         " (:derived (p ?x - nope) (q ?x)))",
         "head variable ?x has type 'nope', 'p' declares 'object' at 2:15"),
        ("(define (domain d) (:predicates (p ?a))", "unbalanced"),
        # Each action keyword appears at most once.
        ("(define (domain d) (:predicates (p ?a) (q ?a))\n"
         " (:action a :parameters (?x) :effect (p ?x) :effect (q ?x)))",
         "duplicate :effect in action at 2:45"),
        ("(define (domain d) (:predicates (p ?a) (q ?a))\n"
         " (:action a :precondition (p ?x) :parameters (?x)\n"
         "  :precondition (q ?x) :effect (p ?x)))",
         "duplicate :precondition in action at 3:3"),
        ("(define (domain d) (:predicates (p ?a))\n"
         " (:action a :parameters (?x) :parameters (?y) :effect (p ?y)))",
         "duplicate :parameters in action at 2:30"),
    ],
)
def test_domain_errors(text, fragment):
    with pytest.raises(PddlError) as err:
        parse_domain(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda t: t.replace("(on b1 b2)", "(covered b1)", 1), "derived"),
        (lambda t: t.replace("(on b1 b2)", "(on b1 b9)"), "unknown object"),
        (lambda t: t.replace("(on b1 b2)", "(on b1)"), "takes 2 args"),
        (lambda t: t.replace("(on b1 b2)", "(off b1 b2)"), "unknown predicate"),
        (lambda t: t.replace("(:domain toy)", "(:domain other)"), "domain"),
        (lambda t: t.replace("b3 b1", "b1 b1"), "duplicate object"),
        (lambda t: t.replace("(:init (on b1 b2))", "(:init (not (on b1 b2)))"),
         "negation"),
    ],
)
def test_problem_errors(toy_domain, mutation, fragment):
    with pytest.raises(PddlError) as err:
        parse_problem(mutation(PROBLEM_TEXT), toy_domain)
    assert fragment in str(err.value)


def test_init_type_error_reported_before_derivedness():
    # A fact can be wrong in two ways at once; the type mismatch is the one
    # that should surface.
    domain = parse_domain(
        "(define (domain d) (:types box - object item - object)"
        " (:predicates (at ?o - item ?b - box) (in ?o - item ?b - box))"
        " (:derived (in ?o - item ?b - box) (at ?o ?b)))"
    )
    text = (
        "(define (problem q) (:domain d)"
        " (:objects o1 - item k1 - item)"
        " (:init (in o1 k1)) (:goal (and (at o1 k1))))"
    )
    with pytest.raises(PddlError) as err:
        parse_problem(text, domain)
    assert "requires" in str(err.value)


def test_equality_rejected_outside_preconditions(toy_domain):
    text = PROBLEM_TEXT.replace("(on b1 b2)", "(= b1 b2)")
    with pytest.raises(PddlError):
        parse_problem(text, toy_domain)


def test_missing_goal_rejected(toy_domain):
    text = "(define (problem q) (:domain toy) (:objects b1 - block) (:init ))"
    with pytest.raises(PddlError) as err:
        parse_problem(text, toy_domain)
    assert "goal" in str(err.value)


def test_parse_plan_round_trip():
    text = "(move-to-table b1 b2)\n; comment\n\n(move-from-table b2 b1)\n"
    plan = parse_plan(text)
    assert plan.steps == (
        PlanStep("move-to-table", ("b1", "b2")),
        PlanStep("move-from-table", ("b2", "b1")),
    )
    assert parse_plan(serialize_plan(plan)) == plan


@pytest.mark.parametrize(
    "bad, fragment, col",
    [
        ("   (move-to-table b1 B?2)", "bad argument 'b?2'", 22),
        ("   (move-to-table b1 b2))", "unbalanced ')'", 25),
    ],
)
def test_parse_plan_reports_the_line_and_column_of_the_raw_text(bad, fragment, col):
    text = "(move-to-table b1 b2)\n; a comment\n(move-to-table b2 b1)\n" + bad
    with pytest.raises(PddlError) as err:
        parse_plan(text)
    assert fragment in err.value.message
    assert (err.value.line, err.value.col) == (4, col)


# One minimal input per raise site of the parser (helpers reached from
# several callers get one input per caller whose rewrite could move them),
# with the message, line and column it reports; line 0 means the error
# carries no position, which only an error about the whole input does.  An
# error at an empty form reports its '('.  Problems are read against the toy
# domain.
TABLE_DOMAIN = "(define (domain d)\n(:predicates (p ?a) (q ?a) (r ?a ?b))\n"
TABLE_ACTION = TABLE_DOMAIN + "(:action a :parameters (?x ?y)\n"
PARSE_ERRORS = [
    ('domain', '(define (domain d))\n  )',
     "unbalanced ')'", 2, 3),
    ('domain', '(define (domain d)\n  (:predicates (p ?a))',
     "unbalanced '('", 1, 1),
    ('domain', '',
     'expected exactly one (define ...) form in domain', 0, 0),
    ('domain', '(define (domain d))\n(define (domain e))',
     'expected exactly one (define ...) form in domain', 0, 0),
    ('domain', 'define',
     'expected (define ...)', 1, 1),
    ('domain', '()',
     'expected (define ...)', 1, 1),
    ('domain', '\n ((define) (domain d))',
     'expected define, got a list', 2, 4),
    ('domain', '(domain d)',
     'expected (define ...)', 1, 2),
    ('domain', '(define)',
     'missing (domain NAME)', 0, 0),
    ('domain', '(define\n domain d)',
     'expected (domain NAME)', 2, 2),
    ('domain', '(define\n (domain))',
     'expected (domain NAME)', 2, 3),
    ('domain', '(define\n (problem d))',
     'expected (domain NAME)', 2, 3),
    ('domain', '(define ())',
     'expected (domain NAME)', 1, 9),
    ('domain', '(define\n ((domain) d))',
     'expected domain, got a list', 2, 4),
    ('domain', '(define (domain d!))',
     "bad domain name 'd!'", 1, 17),
    ('domain', '(define (domain (d)))',
     'expected domain name, got a list', 1, 18),
    ('domain', '(define (domain d)\n :requirements)',
     'expected a domain section', 2, 2),
    ('domain', '(define (domain d)\n ((:types)))',
     'expected a section keyword, got a list', 2, 4),
    ('domain', '(define (domain d)\n (() :types))',
     'expected a section keyword, got a list', 2, 3),
    ('domain', '(define (domain d)\n (:functions (f ?a)))',
     "unsupported section ':functions'", 2, 3),
    ('domain', '(define (domain d)\n (:types - t))',
     "dangling '-' in typed list", 2, 10),
    ('domain', '(define (domain d)\n (:types t -))',
     "missing type after '-'", 2, 12),
    ('domain', '(define (domain d)\n (:types t - t!))',
     "bad type name 't!'", 2, 14),
    ('domain', '(define (domain d)\n (:types t (u)))',
     'expected type name, got a list', 2, 13),
    ('domain', '(define (domain d)\n (:types t - object object))',
     "cannot redeclare type 'object'", 2, 21),
    ('domain', '(define (domain d)\n (:types t - u u - t))',
     "type cycle through 't'", 0, 0),
    ('domain', '(define (domain d)\n (:types t - u t - object))',
     "duplicate type 't'", 0, 0),
    ('domain', '(define (domain d)\n (:predicates p))',
     'expected a predicate declaration', 2, 15),
    ('domain', '(define (domain d)\n (:predicates ()))',
     'empty predicate declaration', 2, 15),
    ('domain', '(define (domain d)\n (:predicates ((p) ?a)))',
     'expected predicate name, got a list', 2, 17),
    ('domain', '(define (domain d)\n (:predicates (= ?a ?b)))',
     "'=' is builtin and cannot be declared", 2, 16),
    ('domain', '(define (domain d)\n (:predicates (not ?x)))',
     "'not' is a connective and cannot be declared", 2, 16),
    ('domain', '(define (domain d)\n (:predicates (and ?x ?y)))',
     "'and' is a connective and cannot be declared", 2, 16),
    ('domain', '(define (domain d)\n (:predicates (p! ?a)))',
     "bad predicate name 'p!'", 2, 16),
    ('domain', '(define (domain d)\n (:predicates (p a)))',
     "expected a ?variable, got 'a'", 2, 18),
    ('domain', '(define (domain d)\n (:predicates (p (?a))))',
     'expected parameter, got a list', 2, 19),
    ('domain', '(define (domain d)\n (:predicates (p ?a)\n (p ?b)))',
     "duplicate predicate 'p'", 3, 3),
    ('domain', '(define (domain d)\n (:predicates (p ?a - t)))',
     "unknown type 't'", 2, 18),
    ('domain', '(define (domain d)\n (:predicates (p ?a ?b ?c)))',
     "observed predicate 'p' must have arity 1 or 2, got 3", 2, 16),
    ('domain', '(define (domain d)\n (:predicates (p ?a ?a)))',
     "duplicate parameter '?a' in 'p'", 2, 16),
    ('domain', TABLE_DOMAIN + '(:derived (p ?a)))',
     '(:derived HEAD BODY) takes two forms', 3, 2),
    ('domain', TABLE_DOMAIN + '(:derived p (q ?a)))',
     'expected a rule head', 3, 11),
    ('domain', TABLE_DOMAIN + '(:derived () (q ?a)))',
     'empty rule head', 3, 11),
    ('domain', TABLE_DOMAIN + '(:derived ((p) ?a) (q ?a)))',
     'expected predicate name, got a list', 3, 13),
    ('domain', TABLE_DOMAIN + '(:derived (p! ?a) (q ?a)))',
     "bad predicate name 'p!'", 3, 12),
    ('domain', TABLE_DOMAIN + '(:derived (s ?a) (q ?a)))',
     "derived predicate 's' is not declared in (:predicates ...)", 0, 0),
    ('domain', TABLE_DOMAIN + '(:action))',
     '(:action ...) missing a name', 3, 2),
    ('domain', TABLE_DOMAIN + '(:action a! :parameters () :effect (p ?x)))',
     "bad action name 'a!'", 3, 10),
    ('domain', TABLE_DOMAIN + '(:action (a) :parameters () :effect (p ?x)))',
     'expected action name, got a list', 3, 11),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x) :effect (p ?x))\n(:action a :parameters (?x) :effect (p ?x)))',
     "duplicate action 'a'", 4, 10),
    ('domain', TABLE_DOMAIN + '(:action a (:parameters (?x)) :effect (p ?x)))',
     'expected an action keyword, got a list', 3, 13),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x) :vars (?y) :effect (p ?x)))',
     "unexpected ':vars' in action", 3, 29),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x)\n :effect))',
     ':effect missing its form', 4, 2),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x)))',
     "action 'a' needs :parameters and :effect", 3, 10),
    ('domain', TABLE_DOMAIN + '(:action a :effect (p ?x)))',
     "action 'a' needs :parameters and :effect", 3, 10),
    ('domain', TABLE_DOMAIN + '(:action a :parameters ?x :effect (p ?x)))',
     'expected a parameter list', 3, 24),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x ?x) :effect (p ?x)))',
     "duplicate parameter '?x'", 3, 28),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x - t) :effect (p ?x)))',
     "unknown type 't'", 3, 25),
    ('domain', TABLE_DOMAIN + '(:action a :parameters (?x - ) :effect (p ?x)))',
     "missing type after '-'", 3, 28),
    ('domain', TABLE_ACTION + ' :precondition p :effect (p ?x)))',
     'expected a formula', 4, 16),
    ('domain', TABLE_ACTION + ' :precondition (and p) :effect (p ?x)))',
     'expected a literal', 4, 21),
    ('domain', TABLE_ACTION + ' :precondition (and ()) :effect (p ?x)))',
     'empty formula', 4, 21),
    ('domain', TABLE_ACTION + ' :precondition (not (p ?x) (q ?x)) :effect (p ?x)))',
     '(not ...) takes one formula', 4, 17),
    ('domain', TABLE_ACTION + ' :precondition (not p) :effect (p ?x)))',
     'expected a negated atom', 4, 21),
    ('domain', TABLE_ACTION + ' :precondition (not ()) :effect (p ?x)))',
     'empty negated formula', 4, 17),
    ('domain', TABLE_ACTION + ' :precondition (not ((p) ?x)) :effect (p ?x)))',
     'expected predicate name, got a list', 4, 23),
    ('domain', TABLE_ACTION + ' :precondition ((p) ?x) :effect (p ?x)))',
     'expected predicate name, got a list', 4, 18),
    ('domain', TABLE_ACTION + ' :precondition (p! ?x) :effect (p ?x)))',
     "bad predicate name 'p!'", 4, 17),
    ('domain', TABLE_ACTION + ' :precondition (p (?x)) :effect (p ?x)))',
     'expected an argument, got a list', 4, 20),
    ('domain', TABLE_ACTION + ' :precondition (= ?x) :effect (p ?x)))',
     "'=' takes two arguments", 4, 17),
    ('domain', TABLE_ACTION + ' :precondition (= ?x b) :effect (p ?x)))',
     "'=' arguments must be variables, got 'b'", 4, 22),
    ('domain', TABLE_ACTION + ' :precondition (= ?x ?z) :effect (p ?x)))',
     "variable '?z' is not declared", 4, 22),
    ('domain', TABLE_ACTION + ' :precondition (s ?x) :effect (p ?x)))',
     "unknown predicate 's' in precondition", 4, 17),
    ('domain', TABLE_ACTION + ' :precondition (p ?x ?y) :effect (p ?x)))',
     "'p' takes 1 args, got 2", 4, 17),
    ('domain', TABLE_ACTION + ' :precondition (p b) :effect (p ?x)))',
     "constants are not supported; got 'b'", 4, 19),
    ('domain', TABLE_ACTION + ' :precondition (p ?z) :effect (p ?x)))',
     "variable '?z' is not a parameter", 4, 19),
    ('domain', '(define (domain d) (:types t u)\n(:predicates (p ?a - t))\n(:action a :parameters (?x - u) :effect (p ?x)))',
     "?x has type 'u', 'p' requires 't'", 3, 44),
    ('domain', TABLE_ACTION + ' :effect (= ?x ?y)))',
     "'=' cannot appear in effects", 4, 11),
    ('domain', TABLE_ACTION + ' :effect (s ?x)))',
     "unknown predicate 's' in effect", 4, 11),
    ('domain', TABLE_ACTION + ' :effect (p ?z)))',
     "variable '?z' is not a parameter", 4, 13),
    ('domain', TABLE_ACTION + ' :effect (and (p ?x) (not (p ?z)))))',
     "variable '?z' is not a parameter", 4, 30),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (p ?a))\n(:action a :parameters (?x) :effect (q ?x)))',
     "effect on derived predicate 'q'", 4, 38),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a ?b) (p ?a)))',
     "rule head for 'q' has 2 args, signature says 1", 3, 12),
    ('domain', TABLE_DOMAIN + '(:derived (r ?a ?a) (r ?a ?a)))',
     "duplicate head variable '?a'", 3, 17),
    ('domain', '(define (domain d) (:types t)\n(:predicates (p ?a) (q ?a))\n(:derived (q ?a - t) (p ?a)))',
     "head variable ?a has type 't', 'q' declares 'object'", 3, 14),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (not (p ?a))))',
     'negation is not allowed in rule bodies', 3, 24),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (= ?a ?a)))',
     "'=' is not allowed in rule bodies", 3, 19),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (s ?a)))',
     "unknown predicate 's' in rule body", 3, 19),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (p b)))',
     "constants are not supported; got 'b'", 3, 21),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (and)))',
     "rule for 'q' has an empty body", 3, 12),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (p ?b)))',
     "rule for 'q' has unbound head variables ['?a']", 3, 12),
    ('domain', TABLE_DOMAIN + '(:derived (q ?a) (p ?a))\n(:derived (p ?a) (q ?a)))',
     'unstratified rules: cycle through p -> q -> p', 0, 0),
    # Reached through a, which is not on the cycle and is not named.
    ('domain', '(define (domain d) (:predicates (a ?x) (b ?x) (c ?x))\n(:derived (a ?x) (b ?x))'
     ' (:derived (b ?x) (c ?x)) (:derived (c ?x) (b ?x)))',
     'unstratified rules: cycle through b -> c -> b', 0, 0),
    ('problem', '',
     'expected exactly one (define ...) form in problem', 0, 0),
    ('problem', '(define (domain toy))',
     'expected (problem NAME)', 1, 10),
    ('problem', '(define)',
     'missing (problem NAME)', 0, 0),
    ('problem', '(define\n problem q)',
     'expected (problem NAME)', 2, 2),
    ('problem', '(define\n (problem))',
     'expected (problem NAME)', 2, 3),
    ('problem', '(define\n ((problem) q))',
     'expected problem, got a list', 2, 4),
    ('problem', '(define (problem q!))',
     "bad problem name 'q!'", 1, 18),
    ('problem', '(define (problem q)\n :domain)',
     'expected a problem section', 2, 2),
    ('problem', '(define (problem q)\n ((:domain) toy))',
     'expected a section keyword, got a list', 2, 4),
    ('problem', '(define (problem q)\n (:domain toy) (:requirements :strips))',
     "unsupported section ':requirements'", 2, 17),
    ('problem', '(define (problem q)\n (:domain toy extra))',
     '(:domain NAME) takes one name', 2, 3),
    ('problem', '(define (problem q)\n (:domain toy!))',
     "bad domain name 'toy!'", 2, 11),
    ('problem', '(define (problem q)\n (:objects b1 b1 - block))',
     "duplicate object 'b1'", 2, 15),
    ('problem', '(define (problem q)\n (:objects b1 - cube))',
     "unknown type 'cube'", 2, 12),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (not (on b1 b2))))',
     'negation is not allowed in :init', 2, 15),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (= b1 b2)))',
     "'=' cannot appear in problems", 2, 10),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (off b1 b2)))',
     "unknown predicate 'off'", 2, 10),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (on b1)))',
     "'on' takes 2 args, got 1", 2, 10),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (on b1 b9)))',
     "unknown object 'b9'", 2, 16),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (on b1 ?x)))',
     "variables are not allowed here: '?x'", 2, 16),
    ('problem', '(define (problem q) (:objects b1 b2 - block t - object)\n (:init (on b1 t)))',
     "'t' has type 'object', 'on' requires 'block'", 2, 16),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:init (covered b1)))',
     "derived predicate 'covered' cannot appear in :init", 2, 10),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:goal))',
     '(:goal FORMULA) takes one formula', 2, 3),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:goal (on b1 b2) (on b2 b1)))',
     '(:goal FORMULA) takes one formula', 2, 3),
    ('problem', '(define (problem q) (:objects b1 b2 - block)\n (:goal (not (on b1 b9))))',
     "unknown object 'b9'", 2, 21),
    ('problem', '(define (problem q)\n (:objects b1 () - block))',
     'expected object name, got a list', 2, 15),
    ('problem', '(define (problem q) (:domain other)\n (:domain toy) (:goal (and)))',
     "duplicate section ':domain'", 2, 3),
    ('problem', '(define (problem q) (:domain toy) (:objects b1 - block)\n (:objects b2 - block) (:goal (and)))',
     "duplicate section ':objects'", 2, 3),
    ('problem', '(define (problem q) (:domain toy) (:objects b1 b2 - block) (:init)\n (:init (on b1 b2)) (:goal (and)))',
     "duplicate section ':init'", 2, 3),
    ('problem', '(define (problem q) (:domain toy) (:goal (and))\n (:goal (and)))',
     "duplicate section ':goal'", 2, 3),
    ('problem', '(define (problem q) (:objects b1 b2 - block) (:init) (:goal (and)))',
     'missing (:domain NAME)', 0, 0),
    ('problem', '(define (problem q) (:domain other) (:goal (and)))',
     "problem is for domain 'other', got 'toy'", 0, 0),
    ('problem', '(define (problem q) (:domain toy) (:init))',
     'missing (:goal ...)', 0, 0),
    ('plan', '(a b)\n(a b) (c)',
     'expected one (action args...) form', 2, 1),
    ('plan', '(a b)\n  a b',
     'expected one (action args...) form', 2, 3),
    ('plan', '(a b)\n  ()',
     'empty plan step', 2, 3),
    ('plan', '(a b)\n  (a! b)',
     "bad action name 'a!'", 2, 4),
    ('plan', '(a b)\n  ((a) b)',
     'expected action name, got a list', 2, 5),
    ('plan', '(a b)\n  (a b!)',
     "bad argument 'b!'", 2, 6),
    ('plan', '(a b)\n  (a (b))',
     'expected argument, got a list', 2, 7),
    ('plan', '(a b)\n  (a b () c)',
     'expected argument, got a list', 2, 8),
    ('plan', '(a b)\n  (a b',
     "unbalanced '('", 2, 3),
]


# An empty form is never a condition, effect or rule body (the empty
# conjunction is '(and)').  Each row is keyed by where its '()' sits, and the
# key names its test: the message alone repeats a row of the table above.
EMPTY_FORM_ERRORS = {
    ':precondition ()': ('domain', TABLE_ACTION + ' :precondition () :effect (p ?x)))',
                         'empty formula', 4, 16),
    ':effect ()': ('domain', TABLE_ACTION + ' :effect ()))',
                   'empty formula', 4, 10),
    'rule body ()': ('domain', TABLE_DOMAIN + '(:derived (q ?a) ()))',
                     'empty formula', 3, 18),
    '(:goal ())': ('problem', '(define (problem q) (:domain toy)\n (:goal ()))',
                   'empty formula', 2, 9),
}


@pytest.mark.parametrize(
    "kind, text, message, line, col",
    [*PARSE_ERRORS, *EMPTY_FORM_ERRORS.values()],
    ids=[f"{kind}-{message}" for kind, _, message, _, _ in PARSE_ERRORS]
    + [f"{row[0]}-{row[2]} at {where}" for where, row in EMPTY_FORM_ERRORS.items()],
)
def test_parse_errors_report_message_line_and_column(toy_domain, kind, text, message, line, col):
    parse = {
        "domain": parse_domain,
        "problem": lambda t: parse_problem(t, toy_domain),
        "plan": parse_plan,
    }[kind]
    with pytest.raises(PddlError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_atom_faults_flags(toy_domain):
    types = {"b1": "block", "t1": "object"}
    atoms = [
        GroundAtom("on", ("b1", "b1")),
        GroundAtom("off", ("b1", "b1")),
        GroundAtom("on", ("b1",)),
        GroundAtom("on", ("b1", "b9")),
        GroundAtom("on", ("b1", "t1")),
        GroundAtom("on", ("b9", "t1")),
    ]
    assert [list(atom_faults(atom, toy_domain, types)) for atom in atoms] == [
        [],
        [(-1, "unknown predicate 'off'")],
        [(-1, "'on' takes 2 args, got 1")],
        [(1, "unknown object 'b9'")],
        [(1, "'t1' has type 'object', 'on' requires 'block'")],
        # Every faulty argument, in order.
        [(0, "unknown object 'b9'"), (1, "'t1' has type 'object', 'on' requires 'block'")],
    ]


COOKING = parse_domain(domain_text("cooking"))
# One object of each cooking type.
COOKING_OBJECTS = tuple((f"{typ}1", typ) for typ in COOKING.hierarchy.all_types())
# An undeclared name, a variable and every object.
COOKING_ARGUMENTS = ["nobody", "?x", *(name for name, _ in COOKING_OBJECTS)]


@st.composite
def cooking_atoms(draw):
    """(predicate, args): a declared or unknown predicate, often with its
    arity, over arguments that often fit, or name no object, or are a
    variable."""
    predicate = draw(st.sampled_from([sig.name for sig in COOKING.predicates] + ["ghost"]))
    sig = COOKING.predicate(predicate)
    wants = [want for _, want in sig.params] if sig else []
    arity = draw(st.sampled_from([len(wants), 0, 1, 2, 3]))
    args = []
    for k in range(arity):
        fitting = [
            name
            for name, typ in COOKING_OBJECTS
            if k < len(wants) and naive_is_subtype(COOKING.hierarchy, typ, wants[k])
        ]
        anything = st.sampled_from(COOKING_ARGUMENTS)
        args.append(draw(st.sampled_from(fitting) | anything if fitting else anything))
    return predicate, args


@settings(max_examples=300, deadline=None)
@given(cooking_atoms(), st.sampled_from([":init", ":goal"]))
def test_problem_atoms_are_checked_as_the_naive_reference_does(atom, section):
    # The atom sits on line 3, in :init or :goal, and the other section on
    # line 4 is valid.  The parser's verdict, message, line and column are
    # the naive reference's.
    predicate, args = atom
    other = {":init": ":goal (sliced vegetable1)", ":goal": ":init"}[section]
    objects = " ".join(f"{name} - {typ}" for name, typ in COOKING_OBJECTS)
    text = (
        "(define (problem p) (:domain cooking)\n"
        f"(:objects {objects})\n"
        f"({section} ({' '.join([predicate, *args])}))\n"
        f"({other}))"
    )
    error = naive_atom_error(COOKING, COOKING_OBJECTS, predicate, args, section == ":init")
    if error is None:
        problem = parse_problem(text, COOKING)
        ground = GroundAtom(predicate, tuple(args))
        if section == ":init":
            assert problem.init == {ground}
        else:
            assert problem.goal == (GroundLiteral(ground),)
        return
    with pytest.raises(PddlError) as err:
        parse_problem(text, COOKING)
    # Token 0 starts at column 9, after "(:init (" or "(:goal ("; each later
    # token starts one space after the one before it.
    message, token = error
    col = 9 + sum(len(tok) + 1 for tok in [predicate, *args][:token])
    assert (err.value.message, err.value.line, err.value.col) == (message, 3, col)


SHIPPED = {kind: parse_domain(domain_text(kind)) for kind in ("blocksworld", "hanoi", "cooking")}
# Legal names that read like PDDL keywords, a type or a number.
KEYWORD_NAMES = ("not", "and", "define", "object", "-1")
NAMES = st.sampled_from(KEYWORD_NAMES) | st.text("ab19_-", min_size=1, max_size=3).filter(
    lambda name: name != "-"
)


@st.composite
def shipped_problems(draw):
    """A valid problem over a shipped domain: objects of any declared type,
    named keyword-like or not; init a subset of the typed observed atoms
    over them, often empty; goal literals of either sign over any
    predicate, derived ones included."""
    domain = draw(st.sampled_from(list(SHIPPED.values())))
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    objects = [(name, draw(st.sampled_from(domain.hierarchy.all_types()))) for name in names]

    def instances(signatures):
        return [
            GroundAtom(sig.name, args)
            for sig in signatures
            for args in itertools.product(
                *(
                    [name for name, typ in objects if domain.hierarchy.is_subtype(typ, want)]
                    for _, want in sig.params
                )
            )
        ]

    observed, every = instances(domain.observed), instances(domain.predicates)
    init = draw(st.lists(st.sampled_from(observed), unique=True)) if observed else []
    goal = (
        draw(st.lists(st.builds(GroundLiteral, st.sampled_from(every), st.booleans())))
        if every
        else []
    )
    return Problem(draw(NAMES), domain.name, tuple(objects), frozenset(init), tuple(goal))


@settings(max_examples=300, deadline=None)
@given(shipped_problems())
def test_problems_survive_the_text_round_trip(problem):
    domain = SHIPPED[problem.domain_name]
    text = serialize_problem(problem)
    again = parse_problem(text, domain)
    assert again == problem
    assert serialize_problem(again) == text


def test_type_hierarchy_subtyping():
    h = TypeHierarchy((("carriable", "object"), ("vegetable", "carriable")))
    assert h.is_subtype("vegetable", "object")
    assert h.is_subtype("vegetable", "carriable")
    assert not h.is_subtype("carriable", "vegetable")
    assert h.is_subtype("object", "object")


TYPE_POOL = ("a", "b", "c", "d", "e")
UNDECLARED = ("u", "w")


@st.composite
def type_forests(draw):
    """Parent pairs over a small name pool.  Most parents are the root, an
    undeclared name or an earlier type (a forest); one in four may also be
    the type itself or a later one, which can close a cycle."""
    names = draw(st.lists(st.sampled_from(TYPE_POOL), unique=True, max_size=5))
    parents = []
    for i, name in enumerate(names):
        pool = [ROOT_TYPE, *UNDECLARED, *names[:i]]
        if draw(st.integers(0, 3)) == 0:
            pool += names[i:]
        parents.append((name, draw(st.sampled_from(pool))))
    return tuple(parents)


@settings(max_examples=200, deadline=None)
@given(type_forests())
def test_hierarchy_agrees_with_naive_walk(parents):
    looping = [name for name, _ in parents if naive_type_chain(parents, name) is None]
    if looping:
        with pytest.raises(ModelError, match=re.escape(f"type cycle through {looping[0]!r}")):
            TypeHierarchy(parents)
        return
    h = TypeHierarchy(parents)
    declared = {ROOT_TYPE, *(name for name, _ in parents)}
    probes = (ROOT_TYPE, *TYPE_POOL, *UNDECLARED, "zz")
    for name in probes:
        assert h.contains(name) == (name in declared)
        for ancestor in probes:
            assert h.is_subtype(name, ancestor) == naive_is_subtype(h, name, ancestor)
    # The type table files each probe under every type it fits, in order.
    table = h.fitting(probes)
    assert set(table) == declared
    for ancestor in declared:
        assert table[ancestor] == [
            i for i, name in enumerate(probes) if naive_is_subtype(h, name, ancestor)
        ]


def test_signature_rejects_bad_observed_arity():
    params = (("?a", "object"), ("?b", "object"), ("?c", "object"))
    with pytest.raises(ModelError):
        PredicateSignature("p", params, "observed")
    # Derived predicates are not arity-limited.
    PredicateSignature("p", params, "derived")


def test_recursive_rule_rejected_even_when_guarded():
    # Transitivity is positive recursion; the subset keeps rule dependencies
    # acyclic.
    text = (
        "(define (domain d) (:predicates (on ?a ?b) (above ?a ?b))"
        " (:derived (above ?a ?b) (on ?a ?b))"
        " (:derived (above ?a ?b) (and (on ?a ?c) (above ?c ?b))))"
    )
    with pytest.raises(PddlError) as err:
        parse_domain(text)
    assert "unstratified" in str(err.value)


def chain_domain(length: int, cyclic: bool) -> str:
    """Rules p0 <- p1 <- ... <- p{length}; cyclic also closes p{length-1} <- p0."""
    preds = " ".join(f"(p{i} ?a)" for i in range(length + 1))
    rules = [f"(:derived (p{i} ?a) (p{i + 1} ?a))" for i in range(length - 1)]
    last = 0 if cyclic else length
    rules.append(f"(:derived (p{length - 1} ?a) (p{last} ?a))")
    return f"(define (domain chain) (:predicates {preds}) {' '.join(rules)})"


def test_deep_rule_chains_are_checked_without_recursion():
    domain = parse_domain(chain_domain(3000, cyclic=False))
    assert len(domain.derived) == 3000
    with pytest.raises(PddlError) as err:
        parse_domain(chain_domain(3000, cyclic=True))
    cycle = " -> ".join(f"p{i}" for i in (*range(3000), 0))
    assert str(err.value) == f"unstratified rules: cycle through {cycle}"


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_parser_is_total_on_text(text):
    for fn in (parse_domain, parse_plan):
        try:
            fn(text)
        except PddlError:
            pass


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=3000))
def test_deep_nesting_does_not_overflow(depth):
    text = "(" * depth + ")" * depth
    try:
        parse_domain(text)
    except PddlError:
        pass


def test_ground_atom_str():
    assert str(GroundAtom("on", ("b1", "b2"))) == "(on b1 b2)"
    assert str(GroundLiteral(GroundAtom("covered", ("b1",)), True)) == "(not (covered b1))"


def test_ground_atoms_and_literals_are_their_field_tuples():
    atom = GroundAtom("on", ("b1", "b2"))
    lit = GroundLiteral(atom, True)
    assert atom == ("on", ("b1", "b2"))
    assert hash(atom) == hash(("on", ("b1", "b2")))
    assert lit == (atom, True)
    assert hash(lit) == hash((atom, True))
    assert GroundLiteral(atom) == (atom, False)
    assert ("on", ("b1", "b2")) in {atom}
    assert {atom: 0}[("on", ("b1", "b2"))] == 0
    assert repr(atom) == "GroundAtom(predicate='on', args=('b1', 'b2'))"
    assert repr(lit) == (
        "GroundLiteral(atom=GroundAtom(predicate='on', args=('b1', 'b2')), negated=True)"
    )
    assert str(GroundLiteral(atom)) == "(on b1 b2)"
    for value in (atom, lit):
        again = pickle.loads(pickle.dumps(value))
        assert (type(again), again, repr(again)) == (type(value), value, repr(value))


def test_ground_atoms_sort_by_predicate_then_args():
    ordered = [
        GroundAtom("clear", ()),
        GroundAtom("clear", ("b1",)),
        GroundAtom("clear", ("b2",)),
        GroundAtom("on", ("b1",)),
        GroundAtom("on", ("b1", "b10")),
        GroundAtom("on", ("b1", "b2")),
        GroundAtom("on", ("b2", "b1")),
        GroundAtom("on-table", ("b1",)),
    ]
    for seed in range(5):
        shuffled = ordered.copy()
        random.Random(seed).shuffle(shuffled)
        assert sorted(shuffled) == ordered


def test_problem_rejects_a_duplicate_object_name():
    objects = (("b1", "block"), ("b2", "block"), ("b1", "table"))
    with pytest.raises(ModelError, match="duplicate object 'b1'"):
        Problem("p", "toy", objects, frozenset(), ())


def test_plan_len():
    plan = Plan((PlanStep("a", ()), PlanStep("b", ("x",))))
    assert len(plan) == 2
    assert serialize_plan(Plan(())) == ""


# ---------------------------------------------------------------------------
# Plain tokens first, positions only when a parse fails
# ---------------------------------------------------------------------------

# Parentheses, a comment start, a newline, characters str.splitlines breaks
# at but a domain line does not, and a capital that lowercases to two
# characters.
TOKEN_ALPHABET = st.sampled_from(list("(); a?-:\n\r\t\x0b\x0c\x1c\x85\u2028\u0130"))


@settings(max_examples=300, deadline=None)
@given(st.text(TOKEN_ALPHABET, max_size=40))
def test_plain_tokens_are_the_texts_of_the_positioned_tokens(text):
    text = text.lower()
    plain = parser._tokens(text)
    assert all(type(tok) is str for tok in plain)
    assert plain == parser._positioned(text.split("\n"))
    lines = text.splitlines()
    assert [parser._tokens(raw) for raw in lines] == [
        parser._positioned((raw,), line) for line, raw in enumerate(lines, 1)
    ]


def _form_end(toks: list[str], i: int) -> int:
    """The index after the form or token at ``i``."""
    depth = 0
    for j in range(i, len(toks)):
        depth += {"(": 1, ")": -1}.get(toks[j], 0)
        if depth <= 0:
            return j + 1
    return len(toks)


def mutate(toks: list[str], rng: random.Random) -> list[str]:
    """Drop, duplicate or swap a token or a form, or insert ``()``."""
    i = rng.randrange(len(toks))
    end = _form_end(toks, i) if rng.random() < 0.5 else i + 1
    part = toks[i:end]
    op = rng.choice(["drop", "duplicate", "swap", "insert ()"])
    if op == "drop":
        return toks[:i] + toks[end:]
    if op == "duplicate":
        return toks[:end] + part + toks[end:]
    if op == "insert ()":
        return toks[:i] + ["(", ")"] + toks[i:]
    after = _form_end(toks, end) if end < len(toks) else end
    return toks[:i] + toks[end:after] + part + toks[after:]


# Whitespace, a comment and CRLF line ends between tokens, and characters
# that end a plan line but not a domain or problem line.
SEPARATORS = [" ", " ", "\n", "\r\n", "\t", " ; (note) ;\n", "\n;\n", "\r", "\x85", "\u2028"]


@st.composite
def mutated_texts(draw, text: str) -> str:
    rng = draw(st.randoms(use_true_random=False))
    toks = parser._tokens(text)
    for _ in range(rng.randint(1, 3)):
        toks = mutate(toks, rng) or ["("]
    return "".join(tok + rng.choice(SEPARATORS) for tok in toks)


def outcome(parse, *args):
    try:
        return parse(*args)
    except PddlError as exc:
        return type(exc), exc.message, exc.line, exc.col


def positioned_lines(text: str) -> list[str]:
    return parser._positioned(text.lower().split("\n"))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([DOMAIN_TEXT, domain_text("hanoi"), domain_text("cooking")]).flatmap(
        mutated_texts
    )
)
def test_a_domain_error_is_the_positioned_parse_error(text):
    assert outcome(parse_domain, text) == outcome(parser._domain, positioned_lines(text))


@settings(max_examples=200, deadline=None)
@given(mutated_texts(PROBLEM_TEXT))
def test_a_problem_error_is_the_positioned_parse_error(text):
    domain = parse_domain(DOMAIN_TEXT)
    assert outcome(parse_problem, text, domain) == outcome(
        parser._problem, positioned_lines(text), domain
    )


PLAN_TEXT = "(move-to-table b1 b2)\n(move-from-table b2 b1)\n(move-to-table b2 b1)\n"


@settings(max_examples=200, deadline=None)
@given(mutated_texts(PLAN_TEXT))
def test_a_plan_error_is_the_positioned_parse_error(text):
    def positioned_parse():
        lines = enumerate(text.lower().splitlines(), 1)
        steps = (parser._step(parser._positioned((raw,), line)) for line, raw in lines)
        return Plan(tuple(step for step in steps if step is not None))

    assert outcome(parse_plan, text) == outcome(positioned_parse)


def test_mutated_texts_draw_errors_at_positions_and_valid_texts():
    kinds = set()

    @settings(
        max_examples=200,
        derandomize=True,
        database=None,
        phases=[Phase.generate],
        deadline=None,
    )
    @given(mutated_texts(DOMAIN_TEXT))
    def collect(text):
        result = outcome(parse_domain, text)
        if isinstance(result, Domain):
            kinds.add("valid")
        else:
            kinds.add("positioned" if result[2] else "no position")
        kinds.update(sep for sep in ("\r\n", ";") if sep in text)

    collect()
    assert kinds == {"valid", "positioned", "no position", "\r\n", ";"}


def test_a_column_counts_characters_of_the_lowercased_line():
    # "İ" lowercases to two characters, so ":bogus", at character 40 of
    # the raw line, is reported at column 41.
    text = "(define (domain d) (:requirements :İ) (:bogus))"
    assert text.index(":bogus") + 1 == 40
    with pytest.raises(PddlError) as err:
        parse_domain(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        "unsupported section ':bogus'", 1, 41
    )
