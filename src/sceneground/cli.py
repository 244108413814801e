"""Command line front end.

Subcommands cover the whole pipeline: checking PDDL files, grounding a
scene into a problem, planning, validating plans, generating benchmark
suites, and scoring them.  Exit status is 0 on success, 1 on domain
errors (bad input files, unsolvable problems, failed validation), 2 on
usage errors.  Flag values win over the --config file, which wins over
built-in defaults; a --config key no subcommand reads is an error.
Output files never embed timing, so reruns with the same inputs are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from sceneground.bench import DOMAIN_KINDS, BenchError, GenConfig, write_suite
from sceneground.goals import GoalError, LlmEndpointConfig
from sceneground.graph import ExemplarError
from sceneground.metrics import (
    EvalError,
    ManifestEntry,
    PipelineConfig,
    evaluate_suite,
    ground,
    read_text,
    stem_name,
    validate_plan,
)
from sceneground.pddl import (
    PddlError,
    parse_domain,
    parse_plan,
    parse_problem,
    serialize_plan,
    serialize_problem,
)
from sceneground.pddl.model import valid_name
from sceneground.planner import PlannerError, SearchConfig, solve
from sceneground.scene import SceneError

USER_ERRORS = (
    PddlError,
    SceneError,
    GoalError,
    ExemplarError,
    BenchError,
    EvalError,
    PlannerError,
    OSError,
)


# The --config keys some subcommand reads; a section maps to its own keys.
CONFIG_KEYS = {
    **dict.fromkeys(("match_threshold", "cassette", "cassette_mode", "sigma")),
    "search": ("mode", "node_limit", "time_limit_s"),
    "llm": ("base_url", "model", "api_key_env"),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    text = read_text(path)  # outside the try: its SceneError is a ValueError too
    try:
        raw = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int past the digit limit
        raise EvalError(f"bad config file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise EvalError(f"config file {path} must hold a JSON object")
    for key in sorted(raw):  # the same error whatever order the file lists keys in
        if key not in CONFIG_KEYS:
            raise EvalError(f"config key {key!r} is not a setting")
        known, section = CONFIG_KEYS[key], raw[key]
        if known is None or section is None:
            continue
        if not isinstance(section, dict):
            raise EvalError(f"config key {key!r} must be an object, got {section!r}")
        for inner in sorted(section):
            if inner not in known:
                raise EvalError(f"config key {inner!r} in {key!r} is not a setting")
    return raw


def _setting(flag, config: dict, key: str, default):
    """The flag, else the config value (checked against the default's type),
    else the default."""
    if flag is not None:
        return flag
    if key not in config:
        return default
    value = config[key]
    if default is None or isinstance(default, str):
        ok, kind = isinstance(value, (str, type(default))), "a string"
    elif isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    else:
        ok, kind = type(value) in (int, float), "a number"
    if not ok:
        raise EvalError(f"config key {key!r} must be {kind}, got {value!r}")
    return value


def _search_config(args, config: dict) -> SearchConfig:
    section = config.get("search") or {}
    defaults = SearchConfig()
    return SearchConfig(
        mode=_setting(args.mode, section, "mode", defaults.mode),
        node_limit=_setting(args.node_limit, section, "node_limit", defaults.node_limit),
        time_limit_s=_setting(
            args.time_limit, section, "time_limit_s", defaults.time_limit_s
        ),
    )


def _pipeline_config(args, config: dict, search=SearchConfig()) -> PipelineConfig:
    """Settings for ``ground`` and ``eval``, which passes its own search
    settings.  Each other field takes its flag, else its --config key, else
    the PipelineConfig default."""
    defaults = PipelineConfig()
    flags = {
        "match_threshold": args.threshold,
        "cassette": args.cassette,
        "cassette_mode": args.cassette_mode,
    }
    settings = {
        key: _setting(flag, config, key, getattr(defaults, key))
        for key, flag in flags.items()
    }
    return PipelineConfig(search=search, llm=_llm_config(args, config), **settings)


def _llm_config(args, config: dict) -> LlmEndpointConfig | None:
    section = config.get("llm") or {}
    base_url = _setting(getattr(args, "llm_base_url", None), section, "base_url", None)
    model = _setting(getattr(args, "llm_model", None), section, "model", None)
    if base_url is None and model is None:
        return None
    if base_url is None or model is None:
        raise GoalError("an LLM endpoint needs both a base URL and a model name")
    kwargs = {}
    key_env = _setting(getattr(args, "llm_api_key_env", None), section, "api_key_env", None)
    if key_env is not None:
        kwargs["api_key_env"] = key_env
    return LlmEndpointConfig(base_url, model, **kwargs)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_pddl_check(args, config: dict) -> int:
    domain = parse_domain(read_text(args.domain))
    print(f"domain {domain.name}: ok")
    if args.problem is None:
        return 0
    problem = parse_problem(read_text(args.problem), domain)
    print(f"problem {problem.name}: ok")
    return 0


def _cmd_ground(args, config: dict) -> int:
    domain = parse_domain(read_text(args.domain))
    pipeline = _pipeline_config(args, config)
    goal = args.goal
    if os.path.isfile(goal):  # a goal too long for a file name is text
        goal = read_text(goal)
    name = args.name or stem_name(args.scene)
    # Both goal fields set: the grammar first, the LLM only as a fallback.
    entry = ManifestEntry(
        name, args.scene, args.exemplar,
        goal_text=goal, goal_structured=goal, ground_truth_problem=None,
    )
    grounded = ground(domain, entry, pipeline)
    if grounded.failure is not None:
        print(f"error: {grounded.failure}", file=sys.stderr)
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    problem_path = out / f"{name}.pddl"
    graph_path = out / f"{name}.graph.json"
    problem_path.write_text(serialize_problem(grounded.problem), encoding="utf-8")
    graph_path.write_text(grounded.graph.to_json(), encoding="utf-8")
    print(problem_path)
    print(graph_path)
    return 0


def _cmd_plan(args, config: dict) -> int:
    domain = parse_domain(read_text(args.domain))
    problem = parse_problem(read_text(args.problem), domain)
    result = solve(domain, problem, _search_config(args, config))
    if result.plan is not None:
        verdict = validate_plan(domain, problem.init, problem.goal, result.plan)
        if not verdict.ok:
            at = "" if verdict.step is None else f" at step {verdict.step}"
            raise PlannerError(f"planner produced an invalid plan: {verdict.reason}{at}")
    summary = json.dumps(result.as_dict(), indent=2, sort_keys=True)
    print(summary)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "result.json").write_text(summary + "\n", encoding="utf-8")
        if result.plan is not None:
            (out / "plan.txt").write_text(serialize_plan(result.plan), encoding="utf-8")
    if result.status != "solved":
        print(f"error: {result.status}", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args, config: dict) -> int:
    domain = parse_domain(read_text(args.domain))
    problem = parse_problem(read_text(args.problem), domain)
    plan = parse_plan(read_text(args.plan))
    verdict = validate_plan(domain, problem.init, problem.goal, plan)
    print(json.dumps(asdict(verdict), indent=2, sort_keys=True))
    return 0 if verdict.ok else 1


def _cmd_genbench(args, config: dict) -> int:
    sigma = _setting(args.sigma, config, "sigma", 0.0)
    cfg = GenConfig(
        kind=args.kind, n=args.n, d=args.d, g=args.g, sigma=sigma, seed=args.seed
    )
    manifest = write_suite(cfg, args.seeds, args.out)
    print(manifest)
    return 0


def _cmd_eval(args, config: dict) -> int:
    pipeline = _pipeline_config(args, config, _search_config(args, config))
    report = evaluate_suite(Path(args.manifest), pipeline)
    print(report.to_table())
    if args.out is not None:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _problem_name(text: str) -> str:
    if not valid_name(text):
        raise argparse.ArgumentTypeError(f"bad problem name {text!r}")
    return text


def _add_search_flags(sub):
    sub.add_argument("--mode", choices=("optimal", "satisficing"))
    sub.add_argument("--node-limit", type=int)
    sub.add_argument("--time-limit", type=float, metavar="SECONDS")


def _add_llm_flags(sub):
    sub.add_argument("--llm-base-url")
    sub.add_argument("--llm-model")
    sub.add_argument("--llm-api-key-env")
    sub.add_argument("--cassette", metavar="FILE")
    sub.add_argument("--cassette-mode", choices=("replay", "record"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneground",
        description="Scene observations to PDDL problems, plans, and scores.",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON defaults file")
    commands = parser.add_subparsers(dest="command", required=True)

    pddl = commands.add_parser("pddl", help="static checks on PDDL files")
    pddl_sub = pddl.add_subparsers(dest="pddl_command", required=True)
    check = pddl_sub.add_parser("check", help="parse and type-check files")
    check.add_argument("domain")
    check.add_argument("problem", nargs="?")
    check.set_defaults(handler=_cmd_pddl_check)

    ground = commands.add_parser(
        "ground", help="scene + exemplar + goal to problem PDDL and graph JSON"
    )
    ground.add_argument("domain")
    ground.add_argument("scene")
    ground.add_argument("exemplar")
    ground.add_argument("--goal", required=True, metavar="TEXT_OR_FILE")
    ground.add_argument("--out", default=".", metavar="DIR")
    ground.add_argument("--name", type=_problem_name, help="basename for the outputs")
    ground.add_argument("--threshold", type=float, metavar="IOU")
    _add_llm_flags(ground)
    ground.set_defaults(handler=_cmd_ground)

    plan = commands.add_parser("plan", help="solve a problem")
    plan.add_argument("domain")
    plan.add_argument("problem")
    plan.add_argument("--out", metavar="DIR", help="write plan.txt and result.json")
    _add_search_flags(plan)
    plan.set_defaults(handler=_cmd_plan)

    validate = commands.add_parser("validate", help="replay a plan file")
    validate.add_argument("domain")
    validate.add_argument("problem")
    validate.add_argument("plan")
    validate.set_defaults(handler=_cmd_validate)

    genbench = commands.add_parser("genbench", help="write a benchmark suite")
    genbench.add_argument("kind", choices=DOMAIN_KINDS)
    genbench.add_argument("--n", type=int, default=5, help="blocksworld blocks")
    genbench.add_argument("--d", type=int, default=4, help="hanoi disks")
    genbench.add_argument("--g", type=int, default=3, help="hanoi pegs")
    genbench.add_argument("--seeds", type=int, default=10, help="problem count")
    genbench.add_argument("--sigma", type=float, metavar="NOISE")
    genbench.add_argument("--seed", type=int, default=0, help="first seed")
    genbench.add_argument("--out", required=True, metavar="DIR")
    genbench.set_defaults(handler=_cmd_genbench)

    evaluate = commands.add_parser("eval", help="score a suite manifest")
    evaluate.add_argument("manifest")
    evaluate.add_argument("--out", metavar="FILE", help="also write report JSON")
    evaluate.add_argument("--threshold", type=float, metavar="IOU")
    _add_search_flags(evaluate)
    _add_llm_flags(evaluate)
    evaluate.set_defaults(handler=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
