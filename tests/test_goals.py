"""Structured goal grammar, grounding, and the endpoint client."""

import http.client
import json
import os
import subprocess
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sceneground.bench import DOMAIN_KINDS, GenConfig, shipped_domain, write_suite
from sceneground.cli import main
from sceneground.goals import (
    Cassette,
    GoalError,
    LlmEndpointConfig,
    format_goal,
    llm_parse_goal,
    parse_structured_goal,
    resolve_goal,
)
from sceneground.pddl import GroundAtom, GroundLiteral, parse_domain
from sceneground.scene import valid_name

# JSON nested too deep for ``json.loads``, which raises RecursionError.
DEEP = b"[" * 100_000 + b"]" * 100_000

KITCHEN = parse_domain(
    """
    (define (domain kitchen)
      (:types gripper - object carriable - object
              vegetable - carriable location - object container - location)
      (:predicates
        (carry ?g - gripper ?o - carriable)
        (at ?o - carriable ?l - location)
        (sliced ?v - vegetable)
        (in ?o - carriable ?c - container))
      (:derived (in ?o - carriable ?c - container) (at ?o ?c)))
    """
)

OBJECTS = (
    ("cucumber", "vegetable"),
    ("tomato", "vegetable"),
    ("white_bowl", "container"),
    ("gripper1", "gripper"),
)


def test_parse_two_conjuncts():
    goal = parse_structured_goal(
        "in(cucumber, white_bowl) AND sliced(cucumber)", KITCHEN
    )
    assert goal == (
        GroundLiteral(GroundAtom("in", ("cucumber", "white_bowl")), False),
        GroundLiteral(GroundAtom("sliced", ("cucumber",)), False),
    )


def test_parse_negated_clause():
    goal = parse_structured_goal("NOT carry(gripper1, cucumber)", KITCHEN)
    assert goal == (
        GroundLiteral(GroundAtom("carry", ("gripper1", "cucumber")), True),
    )


def test_and_inside_a_name_does_not_split_clauses():
    assert valid_name("salt-and-pepper")
    goal = parse_structured_goal(
        "sliced(salt-and-pepper) AND in(salt-and-pepper, white_bowl)", KITCHEN
    )
    assert goal == (
        GroundLiteral(GroundAtom("sliced", ("salt-and-pepper",)), False),
        GroundLiteral(GroundAtom("in", ("salt-and-pepper", "white_bowl")), False),
    )


@pytest.mark.parametrize(
    "text", ["sliced(salt and pepper)", "at(tomato board, white_bowl)"]
)
def test_name_with_spaces_is_rejected_at_parse_time(text):
    with pytest.raises(GoalError) as err:
        parse_structured_goal(text, KITCHEN)
    assert repr(text) in str(err.value)


def test_parse_is_case_insensitive():
    a = parse_structured_goal("Sliced(Cucumber) AND In(CUCUMBER, White_Bowl)", KITCHEN)
    b = parse_structured_goal("sliced(cucumber) and in(cucumber, white_bowl)", KITCHEN)
    assert a == b


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("in(cucumber)", "takes 2 args"),
        ("teleport(cucumber)", "unknown predicate"),
        ("sliced cucumber", "cannot parse"),
        ("sliced(cucumber) AND", "cannot parse"),
        ("sliced()", "bad argument"),
        ("sliced(,)", "bad argument"),
        ("", "empty"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GoalError) as err:
        parse_structured_goal(text, KITCHEN)
    assert fragment in str(err.value)


NAMES = st.from_regex(r"[a-z0-9_-]{1,8}", fullmatch=True).filter(lambda s: s != "-")


@st.composite
def domain_and_goal(draw):
    """A shipped domain and 1-4 literals over its predicates, either sign,
    with arbitrary legal names."""
    domain = shipped_domain(draw(st.sampled_from(DOMAIN_KINDS)))
    literals = []
    for _ in range(draw(st.integers(1, 4))):
        sig = draw(st.sampled_from(domain.predicates))
        atom = GroundAtom(sig.name, tuple(draw(NAMES) for _ in sig.params))
        literals.append(GroundLiteral(atom, draw(st.booleans())))
    return domain, tuple(literals)


@settings(max_examples=200, deadline=None)
@given(domain_and_goal())
def test_format_goal_is_the_inverse_of_the_parser(case):
    domain, literals = case
    assert parse_structured_goal(format_goal(literals), domain) == literals


def test_ground_goal_resolves_names():
    goal = parse_structured_goal("in(cucumber, white_bowl) AND sliced(cucumber)", KITCHEN)
    assert resolve_goal(goal, OBJECTS, KITCHEN) == (
        GroundLiteral(GroundAtom("in", ("cucumber", "white_bowl")), False),
        GroundLiteral(GroundAtom("sliced", ("cucumber",)), False),
    )


def test_ground_goal_reports_unresolved_names():
    goal = parse_structured_goal("in(tomato, red_bowl) AND sliced(radish)", KITCHEN)
    with pytest.raises(GoalError) as err:
        resolve_goal(goal, OBJECTS, KITCHEN)
    assert str(err.value) == "unresolvable goal names: radish, red_bowl"


def test_ground_goal_type_checks():
    goal = parse_structured_goal("sliced(white_bowl)", KITCHEN)
    with pytest.raises(GoalError) as err:
        resolve_goal(goal, OBJECTS, KITCHEN)
    assert "requires" in str(err.value)
    # A type error raises at once, before names that did not resolve.
    goal = parse_structured_goal("sliced(radish) AND sliced(white_bowl)", KITCHEN)
    with pytest.raises(GoalError, match="'white_bowl' has type 'container'"):
        resolve_goal(goal, OBJECTS, KITCHEN)


def test_resolve_goal_raises_on_unresolved():
    goal = parse_structured_goal("sliced(radish)", KITCHEN)
    with pytest.raises(GoalError) as err:
        resolve_goal(goal, OBJECTS, KITCHEN)
    assert "radish" in str(err.value)


# Grammar-shaped goal texts and near misses: clauses of either sign,
# clauses with no or the wrong arguments, bare parentheses and blanks,
# joined by single, doubled or missing ANDs, with an AND or blanks at
# either end.
GOAL_CLAUSES = st.sampled_from(
    (
        "sliced(cucumber)",
        "NOT carry(gripper1, tomato)",
        "in(cucumber, white_bowl)",
        "at(salt-and-pepper,white_bowl)",
        "in(cucumber)",
        "sliced()",
        "()",
        "",
        "  ",
    )
)
GOAL_JOINERS = st.sampled_from((" AND ", " and ", "AND", " AND AND ", " ", ""))
GOAL_ENDS = st.sampled_from(("", " ", "AND ", " AND", "\t"))


@st.composite
def goal_texts(draw):
    clauses = draw(st.lists(GOAL_CLAUSES, max_size=4))
    text = "".join(c + draw(GOAL_JOINERS) for c in clauses[:-1]) + "".join(clauses[-1:])
    return draw(GOAL_ENDS) + text + draw(GOAL_ENDS)


@settings(max_examples=300, deadline=None)
@given(goal_texts())
@example("")
@example(" \t ")
@example("sliced(cucumber) AND")
@example("()")
@example("sliced(cucumber) AND AND sliced(tomato)")
@example("sliced(cucumber) AND NOT carry(gripper1, tomato)")
def test_a_parsed_goal_is_a_nonempty_tuple_of_literals(text):
    # The parser either refuses a text or returns at least one literal, so
    # no caller has to check for an empty goal.
    try:
        goal = parse_structured_goal(text, KITCHEN)
    except GoalError:
        return
    assert type(goal) is tuple and goal
    assert all(type(literal) is GroundLiteral for literal in goal)


class _StubHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next of ``responses``: a str is sent as
    the message content of a well-formed reply, bytes as the whole body."""

    responses: list[str | bytes] = []
    calls: list[dict] = []
    authorizations: list[str | None] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _StubHandler.calls.append(json.loads(self.rfile.read(length)))
        _StubHandler.authorizations.append(self.headers["Authorization"])
        body = _StubHandler.responses.pop(0)
        if isinstance(body, str):
            body = json.dumps({"choices": [{"message": {"content": body}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.calls = []
    _StubHandler.authorizations = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_llm_parse_goal_against_stub(stub_server):
    _StubHandler.responses = ["in(cucumber, white_bowl) AND sliced(cucumber)"]
    cfg = LlmEndpointConfig(base_url=stub_server, model="stub", retries=0)
    goal = llm_parse_goal("put the cucumber in the white bowl, sliced", KITCHEN, cfg)
    assert goal == parse_structured_goal(
        "in(cucumber, white_bowl) AND sliced(cucumber)", KITCHEN
    )
    sent = _StubHandler.calls[0]
    assert sent["temperature"] == 0
    assert sent["model"] == "stub"
    assert "cucumber" in sent["messages"][0]["content"]


def test_llm_answer_with_fences_and_prose(stub_server):
    _StubHandler.responses = [
        "Sure! Here is the goal:\n```\nsliced(cucumber)\n```\nHope that helps."
    ]
    cfg = LlmEndpointConfig(base_url=stub_server, model="stub", retries=0)
    goal = llm_parse_goal("slice it", KITCHEN, cfg)
    assert goal == (GroundLiteral(GroundAtom("sliced", ("cucumber",)), False),)


def test_llm_answer_skips_a_line_the_grammar_refuses(stub_server):
    refused = "Goal: (the cucumber, sliced)"
    with pytest.raises(GoalError) as err:
        parse_structured_goal(refused, KITCHEN)
    assert str(err.value) == "cannot parse goal clause 'goal: (the cucumber, sliced)'"
    _StubHandler.responses = [f"{refused}\nsliced(cucumber)"]
    cfg = LlmEndpointConfig(base_url=stub_server, model="stub", retries=0)
    goal = llm_parse_goal("slice it", KITCHEN, cfg)
    assert goal == (GroundLiteral(GroundAtom("sliced", ("cucumber",)), False),)
    assert len(_StubHandler.calls) == 1


def test_llm_prose_only_fails_after_retries(stub_server):
    _StubHandler.responses = ["no goal here", "still chatting"]
    cfg = LlmEndpointConfig(base_url=stub_server, model="stub", retries=1)
    with pytest.raises(GoalError) as err:
        llm_parse_goal("slice it", KITCHEN, cfg)
    assert "2 attempts" in str(err.value)
    assert len(_StubHandler.calls) == 2


MALFORMED_BODIES = [
    pytest.param(b"<html>busy</html>", "Expecting value", id="html"),
    pytest.param(b"\xff\xfe", "can't decode byte", id="not-utf8"),
    pytest.param(
        b'{"choices": [{"message": {"content": null}}]}',
        "content is NoneType, not text",
        id="null-content",
    ),
]


@pytest.mark.parametrize("body, reason", MALFORMED_BODIES)
def test_malformed_endpoint_body_is_retried_then_a_goal_error(
    stub_server, tmp_path, body, reason
):
    _StubHandler.responses = [body, body]
    cfg = LlmEndpointConfig(base_url=stub_server, model="stub", retries=1)
    cassette = Cassette(tmp_path / "cassette.json", mode="record")
    with pytest.raises(GoalError) as err:
        llm_parse_goal("slice it", KITCHEN, cfg, cassette)
    assert "2 attempts: malformed endpoint response: " in str(err.value)
    assert reason in str(err.value)
    assert len(_StubHandler.calls) == 2
    assert not (tmp_path / "cassette.json").exists()


@pytest.mark.parametrize(
    "error",
    [http.client.BadStatusLine("garbage"), http.client.IncompleteRead(b'{"cho', 95)],
    ids=["bad-status-line", "cut-off-body"],
)
def test_broken_http_answer_is_retried_then_a_goal_error(monkeypatch, error):
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        raise error

    monkeypatch.setattr(urllib.request, "urlopen", broken)
    cfg = LlmEndpointConfig(base_url="http://127.0.0.1:9", model="stub", retries=1)
    with pytest.raises(GoalError, match="2 attempts"):
        llm_parse_goal("slice it", KITCHEN, cfg)
    assert len(calls) == 2


class _Answer:
    """What ``urlopen`` returns: a context manager whose ``read`` gives
    ``body``."""

    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self) -> bytes:
        return self.body


def test_deeply_nested_endpoint_body_is_retried_then_a_goal_error(monkeypatch):
    # json.loads raises RecursionError on it, which is no ValueError.
    calls = []

    def nested(*args, **kwargs):
        calls.append(args)
        return _Answer(DEEP)

    monkeypatch.setattr(urllib.request, "urlopen", nested)
    cfg = LlmEndpointConfig(base_url="http://127.0.0.1:9", model="stub", retries=1)
    with pytest.raises(GoalError) as err:
        llm_parse_goal("slice it", KITCHEN, cfg)
    assert "2 attempts: malformed endpoint response: maximum recursion depth" in str(err.value)
    assert len(calls) == 2


def test_importing_the_cli_loads_no_network_stack():
    # Only an endpoint call needs http.client and urllib.request, and with
    # them ssl, email and socket; one fresh interpreter shows what the
    # command line loads on import.
    code = (
        "import sys, sceneground.cli; "
        "print(sorted(m for m in ('ssl', 'http.client', 'urllib.request') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "[]\n"


def test_eval_scores_a_malformed_endpoint_body_as_a_goal_failure(
    stub_server, tmp_path, capsys
):
    suite = tmp_path / "suite"
    write_suite(GenConfig("hanoi", d=3, g=3, seed=0), 2, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    for entry in manifest["problems"]:
        entry["goal_text"] = "move the tower to the last peg"
        entry["goal_structured"] = None
    (suite / "manifest.json").write_text(json.dumps(manifest))
    _StubHandler.responses = [b"<html>busy</html>"] * 6  # 2 entries, 3 attempts each
    argv = [
        "eval",
        str(suite / "manifest.json"),
        "--llm-base-url",
        stub_server,
        "--llm-model",
        "stub",
        "--out",
        str(tmp_path / "report.json"),
    ]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads((tmp_path / "report.json").read_text())["problems"]
    assert len(records) == 2
    for record in records:
        assert record["failure"].startswith("goal: goal translation failed after 3")
        assert "malformed endpoint response" in record["failure"]
    assert len(_StubHandler.calls) == 6


def test_api_key_env_flag_sends_the_key_as_a_bearer_token(
    stub_server, tmp_path, monkeypatch
):
    suite = tmp_path / "suite"
    write_suite(GenConfig("hanoi", d=3, g=3, seed=0), 1, suite)
    manifest = json.loads((suite / "manifest.json").read_text())
    entry = manifest["problems"][0]
    _StubHandler.responses = [entry.pop("goal_structured")]
    entry["goal_text"] = "move the tower to the last peg"
    (suite / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setenv("SCENEGROUND_TEST_KEY", "sk-test")
    argv = [
        "eval",
        str(suite / "manifest.json"),
        "--llm-base-url",
        stub_server,
        "--llm-model",
        "stub",
        "--llm-api-key-env",
        "SCENEGROUND_TEST_KEY",
        "--out",
        str(tmp_path / "report.json"),
    ]
    assert main(argv) == 0
    assert _StubHandler.authorizations == ["Bearer sk-test"]
    record = json.loads((tmp_path / "report.json").read_text())["problems"][0]
    assert record["failure"] is None and record["success"]


def test_llm_unreachable_endpoint_fails():
    cfg = LlmEndpointConfig(
        base_url="http://127.0.0.1:9", model="stub", retries=0, timeout_s=0.5
    )
    with pytest.raises(GoalError):
        llm_parse_goal("slice it", KITCHEN, cfg)


def test_cassette_record_then_replay(stub_server, tmp_path):
    path = tmp_path / "cassette.json"
    _StubHandler.responses = ["sliced(tomato)"]
    cfg = LlmEndpointConfig(base_url=stub_server, model="stub", retries=0)
    recorded = llm_parse_goal(
        "slice the tomato", KITCHEN, cfg, Cassette(path, mode="record")
    )
    assert path.exists()
    # Replay without any live endpoint.
    dead_cfg = LlmEndpointConfig(base_url="http://127.0.0.1:9", model="stub", retries=0)
    replayed = llm_parse_goal(
        "slice the tomato", KITCHEN, dead_cfg, Cassette(path, mode="replay")
    )
    assert replayed == recorded
    assert len(_StubHandler.calls) == 1


def test_cassette_replay_miss_is_an_error(tmp_path):
    path = tmp_path / "cassette.json"
    path.write_text("[]")
    cfg = LlmEndpointConfig(base_url="http://127.0.0.1:9", model="stub", retries=0)
    with pytest.raises(GoalError) as err:
        llm_parse_goal("slice it", KITCHEN, cfg, Cassette(path, mode="replay"))
    assert "cassette" in str(err.value)


@pytest.mark.parametrize(
    "content",
    [
        b"{not json",
        b"\xff\xfe",
        b'{"request": {}}',
        b'[{"request": {}}]',
        b'[{"request": {}, "response": 3}]',
        pytest.param(DEEP, id="deep-nesting"),
    ],
)
def test_corrupt_cassette_is_a_goal_error(tmp_path, content):
    path = tmp_path / "cassette.json"
    path.write_bytes(content)
    with pytest.raises(GoalError, match="cassette"):
        Cassette(path)


def test_bad_cassette_mode_is_a_goal_error(tmp_path):
    with pytest.raises(GoalError, match="bad cassette mode 'bogus'"):
        Cassette(tmp_path / "cassette.json", mode="bogus")


def test_cassette_record_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "cassette.json"
    cassette = Cassette(path, mode="record")
    cassette.record({"q": 1}, "sliced(tomato)")
    cassette.record({"q": 2}, "sliced(cucumber)")
    assert [p.name for p in tmp_path.iterdir()] == ["cassette.json"]
    assert Cassette(path).replay({"q": 2}) == "sliced(cucumber)"


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
def test_endpoint_timeout_must_be_positive_and_finite(timeout):
    with pytest.raises(GoalError, match="timeout must be positive and finite"):
        LlmEndpointConfig(base_url="x", model="m", timeout_s=timeout)


@pytest.mark.parametrize("retries", [2.5, float("nan"), True])
def test_endpoint_retries_must_be_a_nonnegative_int(retries):
    # range() would raise TypeError on the first goal translation, which
    # no caller catches.
    with pytest.raises(GoalError, match="retries must be a nonnegative int"):
        LlmEndpointConfig(base_url="x", model="m", retries=retries)


def test_endpoint_config_validation():
    with pytest.raises(GoalError):
        LlmEndpointConfig(base_url="x", model="m", timeout_s=0)
    with pytest.raises(GoalError):
        LlmEndpointConfig(base_url="x", model="m", retries=-1)
