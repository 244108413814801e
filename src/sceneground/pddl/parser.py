"""Parser for the typed STRIPS subset.

Text is lowercased before tokenizing (identifiers are case-insensitive) and
``;`` comments run to end of line.  Nesting is handled with an explicit stack
so arbitrarily deep input cannot overflow the interpreter stack: any text
either parses or raises :class:`PddlError`.

Domains and problems share one reader of the ``(define (WHAT NAME) ...)``
form.  Each nested form keeps its ``(`` token, and ``_fail`` raises at a
token, at a form's first token, or at an empty form's ``(``.  A parse first
runs over plain string tokens, one ``findall`` over the whole text, which
carry no position.  Only when it raises does the same parser body run
again, over tokens that carry their line and column (``_Pos``, a ``str``),
and that run raises the error with its position.  Only errors about the
whole input carry no position: not exactly one top form, a missing name
form, a type cycle or duplicate type, an undeclared derived predicate,
unstratified rules, and a missing ``:domain`` or ``:goal`` or a domain name
mismatch.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from typing import NoReturn

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
    """A parse or validation error with a source position (line 0: none)."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.message = message
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line else ""
        super().__init__(f"{message}{where}")


# ---------------------------------------------------------------------------
# Tokenizing and nesting
# ---------------------------------------------------------------------------

# A token is a parenthesis or a run of other non-whitespace characters; a
# ``;`` match is a comment, which runs to the next newline.
_TOKEN_RE = re.compile(r"[()]|[^\s();]+|;[^\n]*")


def _tokens(text: str) -> list[str]:
    """The tokens of lowercased text, as plain strings: one pass, comments
    dropped."""
    toks = _TOKEN_RE.findall(text)
    if ";" in text:
        toks = [tok for tok in toks if tok[0] != ";"]
    return toks


class _Pos(str):
    """A token that also carries its 1-based ``line`` and ``col``."""

    def __new__(cls, text: str, line: int, col: int):
        tok = super().__new__(cls, text)
        tok.line, tok.col = line, col
        return tok


def _positioned(lines, first: int = 1) -> list[str]:
    """The tokens of each line, numbered from ``first``, a ``;`` comment cut
    off first, each a ``_Pos``.  No token spans a newline, and ``;`` cannot
    occur inside one, so the first ``;`` of a line starts its comment."""
    toks: list[str] = []
    for line, chars in enumerate(lines, first):
        if ";" in chars:
            chars = chars[: chars.index(";")]
        toks.extend(_Pos(m.group(), line, m.start() + 1) for m in _TOKEN_RE.finditer(chars))
    return toks


def _parse(body, text: str, *args, first: int = 1):
    """``body`` over the plain tokens of lowercased ``text``.  If that
    raises ``PddlError``, ``body`` runs again over the same tokens as
    ``_Pos``, its lines split at ``\\n`` and numbered from ``first``, and
    raises the same error with its position."""
    try:
        return body(_tokens(text), *args)
    except PddlError:
        pass
    return body(_positioned(text.split("\n"), first), *args)


class _Form(list):
    """A nested form: its nodes, and its ``(`` token in ``open``.  A slice
    of a form is a plain list, so only whole forms go to ``_fail``."""

    __slots__ = ("open",)


_Node = str | _Form


def _nest(toks: list[str]) -> list[_Node]:
    """Group tokens into nested forms with an explicit stack."""
    stack: list[list[_Node]] = [[]]
    top = stack[0]
    for tok in toks:
        if tok == "(":
            form = _Form()
            form.open = tok
            top.append(form)
            stack.append(form)
            top = form
        elif tok == ")":
            if len(stack) == 1:
                _fail("unbalanced ')'", tok)
            stack.pop()
            top = stack[-1]
        else:
            top.append(tok)
    if len(stack) != 1:
        _fail("unbalanced '('", top.open)
    return stack[0]


def _fail(message: str, node: _Node) -> NoReturn:
    """Raise at ``node``: a token, a form's first token, an empty form's
    ``(``.  A plain token has no position, so the error has none either;
    ``_parse`` then finds it."""
    while isinstance(node, list):
        node = node[0] if node else node.open
    raise PddlError(message, getattr(node, "line", 0), getattr(node, "col", 0)) from None


def _expect_tok(node: _Node, what: str) -> str:
    if not isinstance(node, str):
        _fail(f"expected {what}, got a list", node)
    return node


def _expect_list(node: _Node, what: str) -> _Form:
    if not isinstance(node, list):
        _fail(f"expected {what}", node)
    return node


_SECTION_KEYS = {
    "domain": (":requirements", ":types", ":predicates", ":action", ":derived"),
    "problem": (":domain", ":objects", ":init", ":goal"),
}


def _prepare(toks: list[str], what: str) -> tuple[str, Iterator[tuple[str, _Form]]]:
    """NAME and the sections of the one ``(define (WHAT NAME) ...)`` form,
    each section checked when the caller reaches it."""
    forms = _nest(toks)
    if len(forms) != 1:
        raise PddlError(f"expected exactly one (define ...) form in {what}")
    form = _expect_list(forms[0], "(define ...)")
    if not form or _expect_tok(form[0], "define") != "define":
        _fail("expected (define ...)", form)
    if len(form) == 1:
        raise PddlError(f"missing ({what} NAME)")
    head = _expect_list(form[1], f"({what} NAME)")
    if len(head) != 2 or _expect_tok(head[0], what) != what:
        _fail(f"expected ({what} NAME)", head)
    return _name_tok(head[1], f"{what} name"), _sections(form[2:], what)


def _sections(forms: list[_Node], what: str) -> Iterator[tuple[str, _Form]]:
    """Each non-empty section's keyword and form; an unknown keyword raises,
    and so does a problem section given twice."""
    seen: set[str] = set()
    for form in forms:
        lst = _expect_list(form, f"a {what} section")
        if lst:
            key = _expect_tok(lst[0], "a section keyword")
            if key not in _SECTION_KEYS[what]:
                _fail(f"unsupported section {key!r}", lst)
            if key in seen:
                _fail(f"duplicate section {key!r}", lst)
            if what == "problem":
                seen.add(key)
            yield key, lst


def _name_tok(node: _Node, what: str) -> str:
    tok = _expect_tok(node, what)
    if not valid_name(tok):
        _fail(f"bad {what} {tok!r}", tok)
    return tok


def _typed_list(nodes: list[_Node], what: str, variables: bool) -> list[tuple[str, str]]:
    """Parse ``a b - t c - s d`` into (name token, type), ``object`` by
    default."""
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    rest = iter(nodes)
    for node in rest:
        tok = _expect_tok(node, what)
        if tok == "-":
            if not pending:
                _fail("dangling '-' in typed list", tok)
            after = next(rest, None)
            if after is None:
                _fail("missing type after '-'", tok)
            typ = _name_tok(after, "type name")
            out += [(p, typ) for p in pending]
            pending = []
        elif variables:
            if not tok.startswith("?") or not valid_name(tok[1:]):
                _fail(f"expected a ?variable, got {tok!r}", tok)
            pending.append(tok)
        else:
            pending.append(_name_tok(tok, what))
    return out + [(p, ROOT_TYPE) for p in pending]


# ---------------------------------------------------------------------------
# Formula helpers
# ---------------------------------------------------------------------------


def _flatten_and(node: _Node) -> list[_Node]:
    """Return conjuncts of ``(and ...)``, or the single formula itself."""
    lst = _expect_list(node, "a formula")
    if lst and lst[0] == "and":
        return lst[1:]
    return [lst]


def _parse_literal(node: _Node) -> tuple[str, list[str], bool]:
    """Parse ``(p a b)`` or ``(not (p a b))`` into (predicate token, args,
    negated)."""
    lst = _expect_list(node, "a literal")
    if not lst:
        _fail("empty formula", lst)
    head = _expect_tok(lst[0], "predicate name")
    negated = head == "not"
    if negated:
        if len(lst) != 2:
            _fail("(not ...) takes one formula", head)
        lst = _expect_list(lst[1], "a negated atom")
        if not lst:
            _fail("empty negated formula", head)
        head = _expect_tok(lst[0], "predicate name")
    if head != EQUALITY and not valid_name(head):
        _fail(f"bad predicate name {head!r}", head)
    for arg in lst[1:]:
        if not isinstance(arg, str):
            _fail("expected an argument, got a list", arg)
    return head, lst[1:], negated


# ---------------------------------------------------------------------------
# Domain parsing
# ---------------------------------------------------------------------------


def parse_domain(text: str) -> Domain:
    """Parse a domain file, enforcing all domain invariants.

    Raises :class:`PddlError` on any malformed input: syntax, duplicate
    names, cyclic types, effects on derived predicates, unstratified
    (cyclic) rules, observed predicates of arity other than 1 or 2.
    """
    return _parse(_domain, text.lower())


def _domain(toks: list[str]) -> Domain:
    dom_name, sections = _prepare(toks, "domain")

    type_decls: list[tuple[str, str]] = []
    pred_decls: list[tuple[str, list[tuple[str, str]]]] = []
    action_nodes: list[_Form] = []
    derived_nodes: list[_Form] = []

    # :requirements are declarative hints; the subset is fixed anyway.
    for key, lst in sections:
        if key == ":types":
            type_decls.extend(_typed_list(lst[1:], "type name", variables=False))
        elif key == ":predicates":
            for p in lst[1:]:
                plist = _expect_list(p, "a predicate declaration")
                if not plist:
                    _fail("empty predicate declaration", plist)
                name = _expect_tok(plist[0], "predicate name")
                if name == EQUALITY:
                    _fail("'=' is builtin and cannot be declared", name)
                if name in ("and", "not"):
                    # A formula would read an atom of it as the connective.
                    _fail(f"{name!r} is a connective and cannot be declared", name)
                name = _name_tok(name, "predicate name")
                pred_decls.append((name, _typed_list(plist[1:], "parameter", variables=True)))
        elif key == ":action":
            action_nodes.append(lst)
        elif key == ":derived":
            derived_nodes.append(lst)

    # Types: parents referenced but not declared become children of the root.
    parents: list[tuple[str, str]] = []
    for tok, parent in type_decls:
        if tok == ROOT_TYPE:
            _fail("cannot redeclare type 'object'", tok)
        parents.append((tok, parent))
    declared = {name for name, _ in parents}
    for _, parent in type_decls:
        if parent != ROOT_TYPE and parent not in declared:
            parents.append((parent, ROOT_TYPE))
            declared.add(parent)
    try:
        hierarchy = TypeHierarchy(tuple(dict.fromkeys(parents)))
    except ModelError as exc:
        raise PddlError(str(exc)) from None

    # Predicate kinds: heads of :derived rules are derived, the rest observed.
    # Each rule keeps its head name token, head parameter nodes and body.
    rule_forms: list[tuple[str, list[_Node], _Node]] = []
    for lst in derived_nodes:
        if len(lst) != 3:
            _fail("(:derived HEAD BODY) takes two forms", lst)
        hd = _expect_list(lst[1], "a rule head")
        if not hd:
            _fail("empty rule head", hd)
        rule_forms.append((_name_tok(hd[0], "predicate name"), hd[1:], lst[2]))
    derived_names = {head_name for head_name, _, _ in rule_forms}

    sigs: dict[str, PredicateSignature] = {}
    for name, params in pred_decls:
        if name in sigs:
            _fail(f"duplicate predicate {name!r}", name)
        for var, typ in params:
            if not hierarchy.contains(typ):
                _fail(f"unknown type {typ!r}", var)
        kind = "derived" if name in derived_names else "observed"
        try:
            sigs[name] = PredicateSignature(
                name, tuple(params), kind
            )
        except ModelError as exc:
            _fail(str(exc), name)
    missing = derived_names - sigs.keys()
    if missing:
        raise PddlError(
            f"derived predicate {sorted(missing)[0]!r} is not declared in (:predicates ...)"
        )

    def check_atom_types(
        head: str, args: list[str], var_types: dict[str, str], where: str
    ) -> Atom:
        if head == EQUALITY:
            if len(args) != 2:
                _fail("'=' takes two arguments", head)
            for a in args:
                if not a.startswith("?"):
                    _fail(f"'=' arguments must be variables, got {a!r}", a)
                if a not in var_types:
                    _fail(f"variable {a!r} is not declared", a)
            return Atom(EQUALITY, tuple(args))
        sig = sigs.get(head)
        if sig is None:
            _fail(f"unknown predicate {head!r} in {where}", head)
        if len(args) != sig.arity:
            _fail(f"{head!r} takes {sig.arity} args, got {len(args)}", head)
        for a, (_, want) in zip(args, sig.params):
            if not a.startswith("?"):
                _fail(f"constants are not supported; got {a!r}", a)
            have = var_types.get(a)
            # A free rule variable has no type; matching facts bind it.
            if have is not None and not hierarchy.is_subtype(have, want):
                _fail(f"{a} has type {have!r}, {head!r} requires {want!r}", a)
        return Atom(head, tuple(args))

    def check_parameters(args: list[str], var_types: dict[str, str]) -> None:
        for a in args:
            if a not in var_types:
                _fail(f"variable {a!r} is not a parameter", a)

    # Actions.
    actions: list[ActionSchema] = []
    action_names: set[str] = set()
    for lst in action_nodes:
        if len(lst) < 2:
            _fail("(:action ...) missing a name", lst)
        name = _name_tok(lst[1], "action name")
        if name in action_names:
            _fail(f"duplicate action {name!r}", name)
        action_names.add(name)
        parts: dict[str, _Node] = {}
        for i in range(2, len(lst), 2):
            key = _expect_tok(lst[i], "an action keyword")
            if key not in (":parameters", ":precondition", ":effect"):
                _fail(f"unexpected {key!r} in action", key)
            if i + 1 == len(lst):
                _fail(f"{key} missing its form", key)
            if key in parts:
                _fail(f"duplicate {key} in action", key)
            parts[key] = lst[i + 1]
        if ":parameters" not in parts or ":effect" not in parts:
            _fail(f"action {name!r} needs :parameters and :effect", name)
        var_types: dict[str, str] = {}
        for var, typ in _typed_list(
            _expect_list(parts[":parameters"], "a parameter list"),
            "parameter",
            variables=True,
        ):
            if var in var_types:
                _fail(f"duplicate parameter {var!r}", var)
            if not hierarchy.contains(typ):
                _fail(f"unknown type {typ!r}", var)
            var_types[var] = typ

        pre: list[Literal] = []
        if ":precondition" in parts:
            for c in _flatten_and(parts[":precondition"]):
                head, args, negated = _parse_literal(c)
                atom = check_atom_types(head, args, var_types, "precondition")
                check_parameters(args, var_types)
                pre.append(Literal(atom, negated))
        add: list[Atom] = []
        delete: list[Atom] = []
        for c in _flatten_and(parts[":effect"]):
            head, args, negated = _parse_literal(c)
            if head == EQUALITY:
                _fail("'=' cannot appear in effects", head)
            atom = check_atom_types(head, args, var_types, "effect")
            if sigs[head].kind == "derived":
                _fail(f"effect on derived predicate {head!r}", head)
            check_parameters(args, var_types)
            (delete if negated else add).append(atom)
        actions.append(
            ActionSchema(
                name,
                tuple(var_types.items()),
                tuple(pre),
                tuple(add),
                tuple(delete),
            )
        )

    # Derived rules.
    rules: list[DerivedRule] = []
    for head_name, head_nodes, body_node in rule_forms:
        sig = sigs[head_name]
        head_params = _typed_list(head_nodes, "parameter", variables=True)
        if len(head_params) != sig.arity:
            _fail(
                f"rule head for {head_name!r} has {len(head_params)} "
                f"args, signature says {sig.arity}",
                head_name,
            )
        var_types = {}
        for (var, typ), (_, declared_t) in zip(head_params, sig.params):
            if var in var_types:
                _fail(f"duplicate head variable {var!r}", var)
            # An untyped head variable takes the signature's type; a rule
            # head may not narrow or change it.
            if typ not in (ROOT_TYPE, declared_t):
                _fail(
                    f"head variable {var} has type {typ!r}, "
                    f"{head_name!r} declares {declared_t!r}",
                    var,
                )
            var_types[var] = declared_t
        body: list[Atom] = []
        for c in _flatten_and(body_node):
            head, args, negated = _parse_literal(c)
            if negated:
                _fail("negation is not allowed in rule bodies", head)
            if head == EQUALITY:
                _fail("'=' is not allowed in rule bodies", head)
            body.append(check_atom_types(head, args, var_types, "rule body"))
        try:
            rules.append(DerivedRule(Atom(head_name, tuple(var_types)), tuple(body)))
        except ModelError as exc:
            _fail(str(exc), head_name)

    try:  # Building the domain checks that the rules are stratified.
        return Domain(dom_name, hierarchy, tuple(sigs.values()), tuple(actions), tuple(rules))
    except ModelError as exc:
        raise PddlError(str(exc)) from None


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------


def parse_problem(text: str, domain: Domain) -> Problem:
    """Parse a problem file and type-check it against ``domain``.

    Init atoms must be observed predicates over declared objects; the goal
    may also reference derived predicates.  Each section appears at most
    once.  Raises :class:`PddlError` otherwise.
    """
    return _parse(_problem, text.lower(), domain)


def _problem(toks: list[str], domain: Domain) -> Problem:
    prob_name, sections = _prepare(toks, "problem")

    domain_name: str | None = None
    object_types: dict[str, str] = {}
    init: set[GroundAtom] = set()
    goal: list[GroundLiteral] | None = None

    def check_ground_atom(head: str, args: list[str], in_goal: bool) -> GroundAtom:
        if head == EQUALITY:
            _fail("'=' cannot appear in problems", head)
        atom = GroundAtom(head, tuple(args))
        for position, message in atom_faults(atom, domain, object_types):
            if position < 0:
                _fail(message, head)
            tok = args[position]
            if tok.startswith("?"):  # never an object name, so always a fault
                message = f"variables are not allowed here: {tok!r}"
            _fail(message, tok)
        if not in_goal and domain.predicate(head).kind == "derived":
            _fail(f"derived predicate {head!r} cannot appear in :init", head)
        return atom

    for key, lst in sections:
        if key == ":domain":
            if len(lst) != 2:
                _fail("(:domain NAME) takes one name", lst)
            domain_name = _name_tok(lst[1], "domain name")
        elif key == ":objects":
            for name, typ in _typed_list(lst[1:], "object name", variables=False):
                if name in object_types:
                    _fail(f"duplicate object {name!r}", name)
                if not domain.hierarchy.contains(typ):
                    _fail(f"unknown type {typ!r}", name)
                object_types[name] = typ
        elif key == ":init":
            for c in lst[1:]:
                head, args, negated = _parse_literal(c)
                if negated:
                    _fail("negation is not allowed in :init", head)
                init.add(check_ground_atom(head, args, in_goal=False))
        elif key == ":goal":
            if len(lst) != 2:
                _fail("(:goal FORMULA) takes one formula", lst)
            goal = []
            for c in _flatten_and(lst[1]):
                head, args, negated = _parse_literal(c)
                goal.append(GroundLiteral(check_ground_atom(head, args, in_goal=True), negated))

    if domain_name is None:
        raise PddlError("missing (:domain NAME)")
    if domain_name != domain.name:
        raise PddlError(
            f"problem is for domain {domain_name!r}, got {domain.name!r}"
        )
    if goal is None:
        raise PddlError("missing (:goal ...)")
    return Problem(
        prob_name, domain_name, tuple(object_types.items()), frozenset(init), tuple(goal)
    )


# ---------------------------------------------------------------------------
# Plan parsing
# ---------------------------------------------------------------------------


def parse_plan(text: str) -> Plan:
    """Parse one ``(action arg ...)`` per line; blanks and comments skipped.

    The plan is purely syntactic: the validator reports unknown actions
    and arity mismatches as verdicts.
    """
    steps = []
    # A line from splitlines holds no "\n", so _parse reads it as one line.
    for line, raw in enumerate(text.lower().splitlines(), start=1):
        step = _parse(_step, raw, first=line)
        if step is not None:
            steps.append(step)
    return Plan(tuple(steps))


def _step(toks: list[str]) -> PlanStep | None:
    """The step on one plan line, or None for a blank or comment line."""
    if not toks:
        return None
    forms = _nest(toks)
    if len(forms) != 1 or not isinstance(forms[0], list):
        _fail("expected one (action args...) form", toks[0])
    lst = forms[0]
    if not lst:
        _fail("empty plan step", lst)
    name = _name_tok(lst[0], "action name")
    return PlanStep(name, tuple(_name_tok(a, "argument") for a in lst[1:]))
