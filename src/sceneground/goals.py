"""Goal construction, kept strictly upstream of init estimation.

A goal comes either from the structured grammar

    goal   := clause (AND clause)*
    clause := [NOT] predicate '(' name (',' name)* ')'

or from a chat-completions endpoint that is asked to answer in that same
grammar.  Either way the result is validated against the domain and
grounded against the merged object set only; the predicted init is never
an input, so state-grounding mistakes cannot bend the goal.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from sceneground.pddl.model import Domain, GroundAtom, GroundLiteral, atom_faults, valid_name


class GoalError(ValueError):
    """Unparsable, unknown, ill-typed, or unresolvable goal."""


_CLAUSE_RE = re.compile(
    r"^\s*(not\s+)?([a-z0-9_-]+)\s*\(\s*([a-z0-9_,\s-]*?)\s*\)\s*$"
)
# AND joins clauses only after a closing parenthesis, so a name such as
# salt-and-pepper never splits.
_AND_RE = re.compile(r"(?<=\))\s*and(?![a-z0-9_-])")


def parse_structured_goal(text: str, domain: Domain) -> tuple[GroundLiteral, ...]:
    """Parse and validate the structured goal grammar.

    Keywords and names are case-insensitive; predicates must exist in the
    domain (observed or derived) with matching arity.  The goal is never empty.
    """
    lowered = text.lower().strip()
    if not lowered:
        raise GoalError("empty goal text")
    literals = []
    for clause in _AND_RE.split(lowered):
        m = _CLAUSE_RE.match(clause)
        if m is None:
            raise GoalError(f"cannot parse goal clause {clause.strip()!r}")
        negated = m.group(1) is not None
        predicate = m.group(2)
        args = tuple(a.strip() for a in m.group(3).split(","))
        if not all(map(valid_name, args)):
            raise GoalError(f"bad argument list in clause {clause.strip()!r}")
        atom = GroundAtom(predicate, args)
        # With no objects given, a predicate or arity fault comes first;
        # names are resolved against a scene later.
        faults = atom_faults(atom, domain, {})
        if faults and faults[0][0] < 0:
            raise GoalError(faults[0][1])
        literals.append(GroundLiteral(atom, negated))
    return tuple(literals)


def format_goal(literals: tuple[GroundLiteral, ...]) -> str:
    """``literals`` in the structured goal grammar; the inverse of
    :func:`parse_structured_goal`."""
    return " AND ".join(
        f"{'NOT ' if negated else ''}{atom.predicate}({', '.join(atom.args)})"
        for atom, negated in literals
    )


def resolve_goal(
    literals: tuple[GroundLiteral, ...],
    objects: tuple[tuple[str, str], ...],
    domain: Domain,
) -> tuple[GroundLiteral, ...]:
    """Check a goal's names against the named objects and return its literals.

    An argument whose object's type does not fit the predicate raises at
    once, as does a wrong predicate or arity (only hand-built literals have
    one); names that name no object raise together, sorted, after the walk.
    """
    types = dict(objects)
    unresolved = set()
    for atom, _ in literals:
        for position, message in atom_faults(atom, domain, types):
            if position < 0 or atom.args[position] in types:
                raise GoalError(message)
            unresolved.add(atom.args[position])
    if unresolved:
        raise GoalError(
            "unresolvable goal names: " + ", ".join(sorted(unresolved))
        )
    return literals


# ---------------------------------------------------------------------------
# Chat-completions client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlmEndpointConfig:
    """Where and how to reach the goal-translation endpoint.  The timeout
    is a positive, finite int or float (not a bool), and retries a
    nonnegative int."""

    base_url: str
    model: str
    api_key_env: str = "SCENEGROUND_API_KEY"
    timeout_s: float = 30.0
    retries: int = 2

    def __post_init__(self):
        timeout = self.timeout_s
        number = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
        if not number or not 0 < timeout < math.inf:
            raise GoalError("timeout must be positive and finite")
        if type(self.retries) is not int or self.retries < 0:
            raise GoalError("retries must be a nonnegative int")


@dataclass
class Cassette:
    """Recorded endpoint exchanges: a JSON array of {request, response}.

    In replay mode each stored exchange is consumed at most once, matched
    by exact request payload.  In record mode live responses are appended
    and the file replaced atomically.  A file that cannot be read or holds
    anything but such an array is a GoalError.
    """

    path: Path
    mode: str = "replay"  # or "record"
    entries: list = field(default_factory=list)
    _used: set = field(default_factory=set)

    def __post_init__(self):
        self.path = Path(self.path)
        if self.mode not in ("replay", "record"):
            raise GoalError(f"bad cassette mode {self.mode!r}")
        if self.path.exists():
            try:
                self.entries = json.loads(self.path.read_text(encoding="utf-8"))
                if not isinstance(self.entries, list) or not all(
                    "request" in e and isinstance(e["response"], str) for e in self.entries
                ):
                    raise ValueError("not an array of {request, response} objects")
            except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
                raise GoalError(f"bad cassette {self.path}: {exc}") from None

    def replay(self, request: dict) -> str | None:
        for i, entry in enumerate(self.entries):
            if i not in self._used and entry["request"] == request:
                self._used.add(i)
                return entry["response"]
        return None

    def record(self, request: dict, response: str) -> None:
        self.entries.append({"request": request, "response": response})
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(self.entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.path)


def _goal_prompt(instruction: str, domain: Domain) -> str:
    predicates = "; ".join(
        f"{sig.name}({', '.join(t for _, t in sig.params)})"
        for sig in domain.predicates
    )
    type_names = ", ".join(sorted(domain.hierarchy.all_types()))
    return (
        "Translate the instruction into a planning goal.\n"
        f"Object types: {type_names}.\n"
        f"Predicates: {predicates}.\n"
        "Objects are referred to by lowercase names from the instruction.\n"
        f"Instruction: {instruction}\n"
        "Reply with exactly one line of the form\n"
        "  predicate(name, ...) AND NOT predicate(name, ...)\n"
        "using only the predicates above. No other text."
    )


def _post_chat(request: dict, cfg: LlmEndpointConfig) -> str:
    # Imported here, not at module level: they pull in ssl, email and
    # socket, which no process needs unless it calls an endpoint.
    import http.client
    import urllib.request

    url = cfg.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env)
    if key:
        headers["Authorization"] = f"Bearer {key}"
    req = urllib.request.Request(
        url, data=json.dumps(request).encode(), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=cfg.timeout_s) as resp:
            raw = resp.read()
    except http.client.HTTPException as exc:  # a garbled status line or a cut-off body
        raise GoalError(f"broken endpoint answer: {type(exc).__name__}: {exc}") from None
    # ValueError covers bytes that are not UTF-8 and text that is not JSON,
    # RecursionError JSON nested too deep to decode.
    try:
        content = json.loads(raw.decode("utf-8"))["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
        raise GoalError(f"malformed endpoint response: {exc}") from None
    if not isinstance(content, str):
        raise GoalError(
            f"malformed endpoint response: content is {type(content).__name__}, not text"
        )
    return content


def _extract_goal_line(content: str, domain: Domain) -> tuple[GroundLiteral, ...]:
    stripped = content.replace("```", "\n")
    for line in stripped.splitlines():
        line = line.strip()
        if not line or "(" not in line:
            continue
        try:
            return parse_structured_goal(line, domain)
        except GoalError:
            continue
    raise GoalError(f"no parsable goal line in response {content!r}")


def llm_parse_goal(
    instruction: str,
    domain: Domain,
    cfg: LlmEndpointConfig,
    cassette: Cassette | None = None,
) -> tuple[GroundLiteral, ...]:
    """Ask the endpoint to translate an instruction; validate its answer.

    The request is deterministic (temperature 0).  Invalid or failed
    responses are retried up to cfg.retries times, then raised as
    GoalError.  With a cassette in replay mode no network is touched.
    """
    request = {
        "model": cfg.model,
        "temperature": 0,
        "messages": [{"role": "user", "content": _goal_prompt(instruction, domain)}],
    }
    last: Exception | None = None
    for _ in range(cfg.retries + 1):
        try:
            if cassette is not None and cassette.mode == "replay":
                content = cassette.replay(request)
                if content is None:
                    raise GoalError(
                        f"no cassette entry for instruction {instruction!r}"
                    )
            else:
                content = _post_chat(request, cfg)
                if cassette is not None:
                    cassette.record(request, content)
            return _extract_goal_line(content, domain)
        except (GoalError, OSError) as exc:  # URLError and TimeoutError are OSErrors
            last = exc
    raise GoalError(f"goal translation failed after {cfg.retries + 1} attempts: {last}")
