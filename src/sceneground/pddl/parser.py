"""Parser for the typed STRIPS subset.

Text is lowercased before tokenizing (identifiers are case-insensitive) and
``;`` comments run to end of line.  Nesting is handled with an explicit stack
so arbitrarily deep input cannot overflow the interpreter stack: any input,
including random bytes, either parses or raises :class:`PddlError` with a
line/column position.

Domains and problems share one reader of the ``(define (WHAT NAME) ...)``
form.  An error is raised at the first token of the form at fault; an empty
form has none, so its error has no position.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NamedTuple, NoReturn

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
    ModelError,
    Plan,
    PlanStep,
    PredicateSignature,
    Problem,
    TypeHierarchy,
    atom_faults,
    valid_name,
)


class PddlError(ValueError):
    """A parse or validation error with a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# Tokenizing and nesting
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[()]|[^\s();]+")


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


def _tokenize(lines, first: int = 1) -> list[_Tok]:
    """The tokens of each line, numbered from ``first``, a ``;`` comment cut
    off first.  No token spans a newline, and ``;`` cannot occur inside one,
    so the first ``;`` of a line starts its comment."""
    toks: list[_Tok] = []
    for line, chars in enumerate(lines, first):
        if ";" in chars:
            chars = chars[: chars.index(";")]
        toks.extend(_Tok(m.group(), line, m.start() + 1) for m in _TOKEN_RE.finditer(chars))
    return toks


# A node is either a _Tok or a list whose first element position we remember.
_Node = _Tok | list


def _nest(toks: list[_Tok]) -> list[_Node]:
    """Group tokens into nested lists with an explicit stack."""
    root: list[_Node] = []
    stack: list[list[_Node]] = [root]
    opens: list[_Tok] = []
    for tok in toks:
        if tok.text == "(":
            new: list[_Node] = []
            stack[-1].append(new)
            stack.append(new)
            opens.append(tok)
        elif tok.text == ")":
            if len(stack) == 1:
                raise PddlError("unbalanced ')'", tok.line, tok.col)
            stack.pop()
            opens.pop()
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        tok = opens[-1]
        raise PddlError("unbalanced '('", tok.line, tok.col)
    return root


def _fail(message: str, node: _Node) -> NoReturn:
    """Raise at the first token of ``node``; an empty list has no position."""
    while isinstance(node, list):
        if not node:
            raise PddlError(message)
        node = node[0]
    raise PddlError(message, node.line, node.col)


def _expect_tok(node: _Node, what: str) -> _Tok:
    if not isinstance(node, _Tok):
        _fail(f"expected {what}, got a list", node)
    return node


def _expect_list(node: _Node, what: str) -> list[_Node]:
    if not isinstance(node, list):
        raise PddlError(f"expected {what}", node.line, node.col)
    return node


def _decode(text: str | bytes, what: str) -> str:
    if isinstance(text, bytes):
        try:
            return text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PddlError(f"{what} is not valid UTF-8: {exc}") from None
    return text


_SECTION_KEYS = {
    "domain": (":requirements", ":types", ":predicates", ":action", ":derived"),
    "problem": (":domain", ":objects", ":init", ":goal"),
}


def _prepare(
    text: str | bytes, what: str
) -> tuple[str, Iterator[tuple[str, list[_Node]]]]:
    """NAME and the sections of the one ``(define (WHAT NAME) ...)`` form,
    each section checked when the caller reaches it."""
    forms = _nest(_tokenize(_decode(text, what).lower().split("\n")))
    if len(forms) != 1:
        raise PddlError(f"expected exactly one (define ...) form in {what}")
    form = _expect_list(forms[0], "(define ...)")
    if not form or _expect_tok(form[0], "define").text != "define":
        _fail("expected (define ...)", form)
    if len(form) == 1:
        raise PddlError(f"missing ({what} NAME)")
    head = _expect_list(form[1], f"({what} NAME)")
    if len(head) != 2 or _expect_tok(head[0], what).text != what:
        _fail(f"expected ({what} NAME)", head)
    return _name_tok(head[1], f"{what} name").text, _sections(form[2:], what)


def _sections(forms: list[_Node], what: str) -> Iterator[tuple[str, list[_Node]]]:
    """Each non-empty section's keyword and form; an unknown keyword raises."""
    for form in forms:
        lst = _expect_list(form, f"a {what} section")
        if lst:
            key = _expect_tok(lst[0], "a section keyword").text
            if key not in _SECTION_KEYS[what]:
                _fail(f"unsupported section {key!r}", lst)
            yield key, lst


def _name_tok(node: _Node, what: str) -> _Tok:
    tok = _expect_tok(node, what)
    if not valid_name(tok.text):
        raise PddlError(f"bad {what} {tok.text!r}", tok.line, tok.col)
    return tok


def _var_tok(node: _Node) -> _Tok:
    tok = _expect_tok(node, "variable")
    if not tok.text.startswith("?") or not valid_name(tok.text[1:]):
        raise PddlError(f"expected a ?variable, got {tok.text!r}", tok.line, tok.col)
    return tok


def _typed_list(
    nodes: list[_Node], what: str, variables: bool
) -> list[tuple[str, str, int, int]]:
    """Parse ``a b - t c - s d`` into (name, type, line, col) with default type."""
    out: list[tuple[str, str, int, int]] = []
    pending: list[_Tok] = []
    i = 0
    while i < len(nodes):
        tok = _expect_tok(nodes[i], what)
        if tok.text == "-":
            if not pending:
                raise PddlError("dangling '-' in typed list", tok.line, tok.col)
            if i + 1 >= len(nodes):
                raise PddlError("missing type after '-'", tok.line, tok.col)
            typ = _name_tok(nodes[i + 1], "type name")
            for p in pending:
                out.append((p.text, typ.text, p.line, p.col))
            pending = []
            i += 2
            continue
        if variables:
            tok = _var_tok(nodes[i])
        else:
            tok = _name_tok(nodes[i], what)
        pending.append(tok)
        i += 1
    for p in pending:
        out.append((p.text, ROOT_TYPE, p.line, p.col))
    return out


# ---------------------------------------------------------------------------
# Formula helpers
# ---------------------------------------------------------------------------


def _flatten_and(node: _Node) -> list[_Node]:
    """Return conjuncts of ``(and ...)``, or the single formula itself."""
    lst = _expect_list(node, "a formula")
    if lst and isinstance(lst[0], _Tok) and lst[0].text == "and":
        return lst[1:]
    if not lst:
        return []
    return [lst]


def _parse_literal(node: _Node) -> tuple[str, list[_Tok], bool, int, int]:
    """Parse ``(p a b)`` or ``(not (p a b))`` into (pred, args, negated, pos)."""
    lst = _expect_list(node, "a literal")
    if not lst:
        raise PddlError("empty formula")
    head = _expect_tok(lst[0], "predicate name")
    negated = False
    if head.text == "not":
        if len(lst) != 2:
            raise PddlError("(not ...) takes one formula", head.line, head.col)
        lst = _expect_list(lst[1], "a negated atom")
        if not lst:
            raise PddlError("empty negated formula", head.line, head.col)
        head = _expect_tok(lst[0], "predicate name")
        negated = True
    if head.text != EQUALITY and not valid_name(head.text):
        raise PddlError(f"bad predicate name {head.text!r}", head.line, head.col)
    args = [_expect_tok(a, "an argument") for a in lst[1:]]
    return head.text, args, negated, head.line, head.col


# ---------------------------------------------------------------------------
# Domain parsing
# ---------------------------------------------------------------------------


def parse_domain(text: str | bytes) -> Domain:
    """Parse a domain file, enforcing all domain invariants.

    Raises :class:`PddlError` on any malformed input: syntax, duplicate
    names, cyclic types, effects on derived predicates, unstratified
    (cyclic) rules, observed predicates of arity other than 1 or 2.
    """
    dom_name, sections = _prepare(text, "domain")

    type_decls: list[tuple[str, str, int, int]] = []
    pred_decls: list[tuple[str, list[tuple[str, str, int, int]], int, int]] = []
    action_nodes: list[list[_Node]] = []
    derived_nodes: list[list[_Node]] = []

    # :requirements are declarative hints; the subset is fixed anyway.
    for key, lst in sections:
        if key == ":types":
            type_decls.extend(_typed_list(lst[1:], "type name", variables=False))
        elif key == ":predicates":
            for p in lst[1:]:
                plist = _expect_list(p, "a predicate declaration")
                if not plist:
                    raise PddlError("empty predicate declaration")
                first = _expect_tok(plist[0], "predicate name")
                if first.text == EQUALITY:
                    raise PddlError(
                        "'=' is builtin and cannot be declared", first.line, first.col
                    )
                name = _name_tok(plist[0], "predicate name")
                params = _typed_list(plist[1:], "parameter", variables=True)
                pred_decls.append((name.text, params, name.line, name.col))
        elif key == ":action":
            action_nodes.append(lst)
        elif key == ":derived":
            derived_nodes.append(lst)

    # Types: parents referenced but not declared become children of the root.
    declared = {n for n, _, _, _ in type_decls}
    parents: list[tuple[str, str]] = []
    for name, parent, line, col in type_decls:
        if name == ROOT_TYPE:
            raise PddlError("cannot redeclare type 'object'", line, col)
        parents.append((name, parent))
    for _, parent, line, col in type_decls:
        if parent != ROOT_TYPE and parent not in declared:
            parents.append((parent, ROOT_TYPE))
            declared.add(parent)
    try:
        hierarchy = TypeHierarchy(tuple(dict.fromkeys(parents)))
    except ModelError as exc:
        raise PddlError(str(exc)) from None

    # Predicate kinds: heads of :derived rules are derived, the rest observed.
    # Each rule keeps its head name token, head parameter nodes and body.
    rule_forms: list[tuple[_Tok, list[_Node], _Node]] = []
    for lst in derived_nodes:
        if len(lst) != 3:
            _fail("(:derived HEAD BODY) takes two forms", lst)
        hd = _expect_list(lst[1], "a rule head")
        if not hd:
            raise PddlError("empty rule head")
        rule_forms.append((_name_tok(hd[0], "predicate name"), hd[1:], lst[2]))
    derived_names = {head_name.text for head_name, _, _ in rule_forms}

    sigs: dict[str, PredicateSignature] = {}
    for name, params, line, col in pred_decls:
        if name in sigs:
            raise PddlError(f"duplicate predicate {name!r}", line, col)
        for pname, ptyp, pline, pcol in params:
            if not hierarchy.contains(ptyp):
                raise PddlError(f"unknown type {ptyp!r}", pline, pcol)
        kind = "derived" if name in derived_names else "observed"
        try:
            sigs[name] = PredicateSignature(
                name, tuple((v, t) for v, t, _, _ in params), kind
            )
        except ModelError as exc:
            raise PddlError(str(exc), line, col) from None
    missing = derived_names - sigs.keys()
    if missing:
        raise PddlError(
            f"derived predicate {sorted(missing)[0]!r} is not declared in (:predicates ...)"
        )

    def check_atom_types(
        pred: str,
        args: list[_Tok],
        var_types: dict[str, str],
        line: int,
        col: int,
        where: str,
    ) -> Atom:
        if pred == EQUALITY:
            if len(args) != 2:
                raise PddlError("'=' takes two arguments", line, col)
            for a in args:
                if not a.text.startswith("?"):
                    raise PddlError(
                        f"'=' arguments must be variables, got {a.text!r}",
                        a.line,
                        a.col,
                    )
                if a.text not in var_types:
                    raise PddlError(
                        f"variable {a.text!r} is not declared", a.line, a.col
                    )
            return Atom(EQUALITY, tuple(a.text for a in args))
        sig = sigs.get(pred)
        if sig is None:
            raise PddlError(f"unknown predicate {pred!r} in {where}", line, col)
        if len(args) != sig.arity:
            raise PddlError(
                f"{pred!r} takes {sig.arity} args, got {len(args)}", line, col
            )
        for a, (_, want) in zip(args, sig.params):
            if not a.text.startswith("?"):
                raise PddlError(
                    f"constants are not supported; got {a.text!r}", a.line, a.col
                )
            have = var_types.get(a.text)
            if have is None:
                continue  # free rule variable; bound by matching facts
            if not hierarchy.is_subtype(have, want):
                raise PddlError(
                    f"{a.text} has type {have!r}, {pred!r} requires {want!r}",
                    a.line,
                    a.col,
                )
        return Atom(pred, tuple(a.text for a in args))

    # Actions.
    actions: list[ActionSchema] = []
    action_names: set[str] = set()
    for lst in action_nodes:
        if len(lst) < 2:
            _fail("(:action ...) missing a name", lst)
        name_tok = _name_tok(lst[1], "action name")
        if name_tok.text in action_names:
            raise PddlError(
                f"duplicate action {name_tok.text!r}", name_tok.line, name_tok.col
            )
        action_names.add(name_tok.text)
        parts: dict[str, _Node] = {}
        for i in range(2, len(lst), 2):
            key = _expect_tok(lst[i], "an action keyword")
            if key.text not in (":parameters", ":precondition", ":effect"):
                raise PddlError(f"unexpected {key.text!r} in action", key.line, key.col)
            if i + 1 == len(lst):
                raise PddlError(f"{key.text} missing its form", key.line, key.col)
            if key.text in parts:
                raise PddlError(f"duplicate {key.text} in action", key.line, key.col)
            parts[key.text] = lst[i + 1]
        if ":parameters" not in parts or ":effect" not in parts:
            raise PddlError(
                f"action {name_tok.text!r} needs :parameters and :effect",
                name_tok.line,
                name_tok.col,
            )
        raw_params = _typed_list(
            _expect_list(parts[":parameters"], "a parameter list"),
            "parameter",
            variables=True,
        )
        var_types: dict[str, str] = {}
        for v, t, line, col in raw_params:
            if v in var_types:
                raise PddlError(f"duplicate parameter {v!r}", line, col)
            if not hierarchy.contains(t):
                raise PddlError(f"unknown type {t!r}", line, col)
            var_types[v] = t

        pre: list[Literal] = []
        if ":precondition" in parts:
            for c in _flatten_and(parts[":precondition"]):
                pred, args, negated, line, col = _parse_literal(c)
                atom = check_atom_types(pred, args, var_types, line, col, "precondition")
                for a in args:
                    if a.text not in var_types:
                        raise PddlError(
                            f"variable {a.text!r} is not a parameter", a.line, a.col
                        )
                pre.append(Literal(atom, negated))
        add: list[Atom] = []
        delete: list[Atom] = []
        for c in _flatten_and(parts[":effect"]):
            pred, args, negated, line, col = _parse_literal(c)
            if pred == EQUALITY:
                raise PddlError("'=' cannot appear in effects", line, col)
            atom = check_atom_types(pred, args, var_types, line, col, "effect")
            if sigs[pred].kind == "derived":
                raise PddlError(
                    f"effect on derived predicate {pred!r}", line, col
                )
            for a in args:
                if a.text not in var_types:
                    raise PddlError(
                        f"variable {a.text!r} is not a parameter", a.line, a.col
                    )
            (delete if negated else add).append(atom)
        actions.append(
            ActionSchema(
                name_tok.text,
                tuple((v, t) for v, t, _, _ in raw_params),
                tuple(pre),
                tuple(add),
                tuple(delete),
            )
        )

    # Derived rules.
    rules: list[DerivedRule] = []
    for head_name, head_nodes, body_node in rule_forms:
        sig = sigs[head_name.text]
        head_params = _typed_list(head_nodes, "parameter", variables=True)
        if len(head_params) != sig.arity:
            raise PddlError(
                f"rule head for {head_name.text!r} has {len(head_params)} "
                f"args, signature says {sig.arity}",
                head_name.line,
                head_name.col,
            )
        var_types = {}
        head_vars: list[str] = []
        for (v, t, line, col), (_, declared_t) in zip(head_params, sig.params):
            if v in var_types:
                raise PddlError(f"duplicate head variable {v!r}", line, col)
            # An untyped head variable takes the signature's type; a rule
            # head may not narrow or change it.
            if t not in (ROOT_TYPE, declared_t):
                raise PddlError(
                    f"head variable {v} has type {t!r}, {head_name.text!r} "
                    f"declares {declared_t!r}",
                    line,
                    col,
                )
            var_types[v] = declared_t
            head_vars.append(v)
        body: list[Atom] = []
        for c in _flatten_and(body_node):
            pred, args, negated, line, col = _parse_literal(c)
            if negated:
                raise PddlError(
                    "negation is not allowed in rule bodies", line, col
                )
            if pred == EQUALITY:
                raise PddlError("'=' is not allowed in rule bodies", line, col)
            body.append(
                check_atom_types(pred, args, var_types, line, col, "rule body")
            )
        try:
            rules.append(DerivedRule(Atom(head_name.text, tuple(head_vars)), tuple(body)))
        except ModelError as exc:
            raise PddlError(str(exc), head_name.line, head_name.col) from None

    # Stratification: the dependency graph over derived predicates must be
    # acyclic (self-dependency included).
    deps: dict[str, set[str]] = {n: set() for n in derived_names}
    for rule in rules:
        for atom in rule.body:
            if atom.predicate in derived_names:
                deps[rule.head.predicate].add(atom.predicate)
    # Depth-first in sorted order, on an explicit stack so that deep rule
    # chains cannot exhaust the recursion limit.  The bottom iterator holds
    # the roots; state is 1 while a predicate is on the path, 2 when done.
    state: dict[str, int] = {}
    path: list[str] = []
    stack = [iter(sorted(deps))]
    while stack:
        n = next(stack[-1], None)
        if n is None:
            stack.pop()
            if path:
                state[path.pop()] = 2
        elif state.get(n) == 1:
            raise PddlError("unstratified rules: cycle through " + " -> ".join([*path, n]))
        elif n not in state:
            state[n] = 1
            path.append(n)
            stack.append(iter(sorted(deps[n])))

    return Domain(dom_name, hierarchy, tuple(sigs.values()), tuple(actions), tuple(rules))


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------


def parse_problem(text: str | bytes, domain: Domain) -> Problem:
    """Parse a problem file and type-check it against ``domain``.

    Init atoms must be observed predicates over declared objects; the goal
    may also reference derived predicates.  Raises :class:`PddlError`
    otherwise.
    """
    prob_name, sections = _prepare(text, "problem")

    domain_name: str | None = None
    object_types: dict[str, str] = {}
    init: set[GroundAtom] = set()
    goal: list[GroundLiteral] = []
    saw_goal = False

    def check_ground_atom(
        pred: str, args: list[_Tok], line: int, col: int, in_goal: bool
    ) -> GroundAtom:
        if pred == EQUALITY:
            raise PddlError("'=' cannot appear in problems", line, col)
        atom = GroundAtom(pred, tuple(a.text for a in args))
        for position, message in atom_faults(atom, domain, object_types):
            if position < 0:
                raise PddlError(message, line, col)
            tok = args[position]
            if tok.text.startswith("?"):  # never an object name, so always a fault
                message = f"variables are not allowed here: {tok.text!r}"
            raise PddlError(message, tok.line, tok.col)
        if not in_goal and domain.predicate(pred).kind == "derived":
            raise PddlError(
                f"derived predicate {pred!r} cannot appear in :init", line, col
            )
        return atom

    for key, lst in sections:
        if key == ":domain":
            if len(lst) != 2:
                _fail("(:domain NAME) takes one name", lst)
            domain_name = _name_tok(lst[1], "domain name").text
        elif key == ":objects":
            for name, typ, line, col in _typed_list(
                lst[1:], "object name", variables=False
            ):
                if name in object_types:
                    raise PddlError(f"duplicate object {name!r}", line, col)
                if not domain.hierarchy.contains(typ):
                    raise PddlError(f"unknown type {typ!r}", line, col)
                object_types[name] = typ
        elif key == ":init":
            for c in lst[1:]:
                pred, args, negated, line, col = _parse_literal(c)
                if negated:
                    raise PddlError("negation is not allowed in :init", line, col)
                init.add(check_ground_atom(pred, args, line, col, in_goal=False))
        elif key == ":goal":
            saw_goal = True
            if len(lst) != 2:
                _fail("(:goal FORMULA) takes one formula", lst)
            for c in _flatten_and(lst[1]):
                pred, args, negated, line, col = _parse_literal(c)
                goal.append(
                    GroundLiteral(
                        check_ground_atom(pred, args, line, col, in_goal=True),
                        negated,
                    )
                )

    if domain_name is None:
        raise PddlError("missing (:domain NAME)")
    if domain_name != domain.name:
        raise PddlError(
            f"problem is for domain {domain_name!r}, got {domain.name!r}"
        )
    if not saw_goal:
        raise PddlError("missing (:goal ...)")
    return Problem(
        prob_name, domain_name, tuple(object_types.items()), frozenset(init), tuple(goal)
    )


# ---------------------------------------------------------------------------
# Plan parsing
# ---------------------------------------------------------------------------


def parse_plan(text: str | bytes) -> Plan:
    """Parse one ``(action arg ...)`` per line; blanks and comments skipped.

    The plan is purely syntactic: the validator reports unknown actions
    and arity mismatches as verdicts.
    """
    steps: list[PlanStep] = []
    for line, raw in enumerate(_decode(text, "plan").lower().splitlines(), start=1):
        toks = _tokenize((raw,), line)
        if not toks:
            continue
        forms = _nest(toks)
        if len(forms) != 1 or not isinstance(forms[0], list):
            raise PddlError("expected one (action args...) form", line, toks[0].col)
        lst = forms[0]
        if not lst:
            raise PddlError("empty plan step", line, toks[0].col)
        name = _name_tok(lst[0], "action name").text
        args = tuple(_name_tok(a, "argument").text for a in lst[1:])
        steps.append(PlanStep(name, args))
    return Plan(tuple(steps))
