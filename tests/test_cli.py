"""End-to-end checks on the command line interface.

Everything drives sceneground.cli.main directly; each test asserts the
exit status first and the produced files second.  A small hanoi suite is
generated once per module and reused for the chained runs.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

import sceneground.cli as cli
import sceneground.goals as goals
import sceneground.graph as graph
import sceneground.metrics as metrics
from sceneground.bench import GenConfig, write_suite
from sceneground.cli import main
from sceneground.pddl import parse_domain, parse_problem
from sceneground.pddl.model import Plan, PlanStep
from sceneground.planner import SolveResult

README = Path(__file__).resolve().parent.parent / "README.md"

UNSOLVABLE_PROBLEM = """
(define (problem impossible)
  (:domain blocksworld)
  (:objects a b - block)
  (:init (on a b))
  (:goal (and (on a b) (on b a))))
"""


@pytest.fixture(scope="module")
def suite_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    write_suite(GenConfig("hanoi", d=3, g=3, seed=0), 2, out)
    return out


@pytest.fixture(scope="module")
def first_goal(suite_dir):
    manifest = json.loads((suite_dir / "manifest.json").read_text())
    return manifest["problems"][0]["goal_structured"]


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["ground", "d.pddl", "s.json"],
        ["genbench", "hanoi"],
        ["genbench", "castle", "--out", "x"],
        [],
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_heuristic_and_empty_precision_flags_are_usage_errors(suite_dir, capsys):
    truth = suite_dir / "problems" / "000" / "truth.pddl"
    plan = ["plan", str(suite_dir / "domain.pddl"), str(truth)]
    evaluate = ["eval", str(suite_dir / "manifest.json")]
    for argv in (
        plan + ["--heuristic", "blind"],
        evaluate + ["--empty-precision", "0"],
        evaluate + ["--jobs", "2"],  # a suite is scored in one process
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_pddl_check_accepts_generated_files(suite_dir, capsys):
    assert main(["pddl", "check", str(suite_dir / "domain.pddl")]) == 0
    assert capsys.readouterr().out == "domain hanoi: ok\n"
    code = main(
        [
            "pddl",
            "check",
            str(suite_dir / "domain.pddl"),
            str(suite_dir / "problems" / "000" / "truth.pddl"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "domain hanoi: ok" in out
    assert "problem" in out


def test_pddl_check_rejects_junk(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain broken)")
    assert main(["pddl", "check", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_pddl_check_rejects_an_ill_typed_init_atom(suite_dir, tmp_path, capsys):
    problem = tmp_path / "bad.pddl"
    problem.write_text(
        "(define (problem bad) (:domain hanoi)\n"
        "  (:objects d1 - disk p1 p2 - peg)\n"
        "  (:init (onpeg p1 d1))\n"
        "  (:goal (onpeg d1 p2)))\n"
    )
    assert main(["pddl", "check", str(suite_dir / "domain.pddl"), str(problem)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "at 3:17" in err


def test_missing_file_is_a_domain_error(capsys):
    assert main(["pddl", "check", "/no/such/file.pddl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ground_plan_validate_chain(suite_dir, first_goal, tmp_path, capsys):
    problem_dir = suite_dir / "problems" / "000"
    code = main(
        [
            "ground",
            str(suite_dir / "domain.pddl"),
            str(problem_dir / "scene.json"),
            str(problem_dir / "exemplar.json"),
            "--goal",
            first_goal,
            "--out",
            str(tmp_path),
            "--name",
            "p0",
        ]
    )
    assert code == 0
    problem_path = tmp_path / "p0.pddl"
    graph_path = tmp_path / "p0.graph.json"
    assert problem_path.exists() and graph_path.exists()
    graph = json.loads(graph_path.read_text())
    assert graph["edges"]

    domain = parse_domain((suite_dir / "domain.pddl").read_text())
    parse_problem(problem_path.read_text(), domain)

    capsys.readouterr()
    code = main(
        [
            "plan",
            str(suite_dir / "domain.pddl"),
            str(problem_path),
            "--mode",
            "optimal",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "run" / "result.json").read_text())
    assert summary["status"] == "solved"
    assert summary["plan_length"] == 7
    assert "wall" not in (tmp_path / "run" / "result.json").read_text()

    capsys.readouterr()
    code = main(
        [
            "validate",
            str(suite_dir / "domain.pddl"),
            str(problem_path),
            str(tmp_path / "run" / "plan.txt"),
        ]
    )
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is True


def test_goal_can_come_from_a_file(suite_dir, first_goal, tmp_path):
    problem_dir = suite_dir / "problems" / "000"
    goal_file = tmp_path / "goal.txt"
    goal_file.write_text(first_goal)
    code = main(
        [
            "ground",
            str(suite_dir / "domain.pddl"),
            str(problem_dir / "scene.json"),
            str(problem_dir / "exemplar.json"),
            "--goal",
            str(goal_file),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0


def test_freeform_goal_without_llm_fails(suite_dir, tmp_path, capsys):
    problem_dir = suite_dir / "problems" / "000"
    code = main(
        [
            "ground",
            str(suite_dir / "domain.pddl"),
            str(problem_dir / "scene.json"),
            str(problem_dir / "exemplar.json"),
            "--goal",
            "please move the tower somewhere nice",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "LLM" in capsys.readouterr().err


def test_grammar_reason_survives_the_llm_fallback(suite_dir, tmp_path, capsys):
    assert main(ground_argv(suite_dir, "onpeg(big disk, p3)", tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: goal: ")
    assert "bad argument list in clause 'onpeg(big disk, p3)'" in err
    assert "no LLM endpoint is configured" in err


def ground_argv(suite_dir, goal, out, *extra):
    problem_dir = suite_dir / "problems" / "000"
    return [
        "ground",
        str(suite_dir / "domain.pddl"),
        str(problem_dir / "scene.json"),
        str(problem_dir / "exemplar.json"),
        "--goal",
        goal,
        "--out",
        str(out),
        "--name",
        "p0",
        *extra,
    ]


def test_ground_names_the_problem_from_a_cleaned_scene_stem(suite_dir, first_goal, tmp_path):
    problem_dir = suite_dir / "problems" / "000"
    scene = tmp_path / "Scene.V2.json"
    shutil.copy(problem_dir / "scene.json", scene)
    argv = [
        "ground",
        str(suite_dir / "domain.pddl"),
        str(scene),
        str(problem_dir / "exemplar.json"),
        "--goal",
        first_goal,
        "--out",
        str(tmp_path / "out"),
    ]
    assert main(argv) == 0
    text = (tmp_path / "out" / "scene-v2.pddl").read_text()
    assert text.startswith("(define (problem scene-v2)")
    # A stem that cleans to a lone "-", which is not a name, gives "scene".
    shutil.copy(problem_dir / "scene.json", tmp_path / "!.json")
    argv[2] = str(tmp_path / "!.json")
    assert main(argv) == 0
    text = (tmp_path / "out" / "scene.pddl").read_text()
    assert text.startswith("(define (problem scene)")


@pytest.mark.parametrize("name", ["Kitchen Run", "../escape", "p0\n", "-"])
def test_ground_rejects_a_bad_name_before_reading_files(name, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = ["ground", missing, missing, missing, "--goal", "x", "--name", name]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"bad problem name {name!r}" in capsys.readouterr().err


LLM_FLAGS = ("--llm-base-url", "http://127.0.0.1:9", "--llm-model", "stub")


def test_freeform_goal_falls_back_to_the_llm(suite_dir, first_goal, tmp_path, monkeypatch):
    instruction = "please move the tower somewhere nice"
    domain = parse_domain((suite_dir / "domain.pddl").read_text())
    cassette = tmp_path / "cassette.json"
    request = {
        "model": "stub",
        "temperature": 0,
        "messages": [{"role": "user", "content": goals._goal_prompt(instruction, domain)}],
    }
    cassette.write_text(json.dumps([{"request": request, "response": first_goal}]))

    def no_network(request, cfg):
        raise AssertionError("a replay cassette must not reach the endpoint")

    monkeypatch.setattr(goals, "_post_chat", no_network)
    assert main(ground_argv(suite_dir, first_goal, tmp_path / "structured")) == 0
    argv = ground_argv(
        suite_dir, instruction, tmp_path / "llm", *LLM_FLAGS, "--cassette", str(cassette)
    )
    assert main(argv) == 0
    assert tree_bytes(tmp_path / "llm") == tree_bytes(tmp_path / "structured")


def test_corrupt_cassette_is_a_user_error(suite_dir, tmp_path, capsys):
    cassette = tmp_path / "cassette.json"
    cassette.write_text("{not json")
    argv = ground_argv(
        suite_dir, "move the tower", tmp_path, *LLM_FLAGS, "--cassette", str(cassette)
    )
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "p0.pddl").exists()


def test_ground_classifies_the_scene_once(suite_dir, first_goal, tmp_path, monkeypatch):
    calls = []
    original = graph.classify_scene

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, graph, metrics):
        if hasattr(module, "classify_scene"):
            monkeypatch.setattr(module, "classify_scene", counting)
    assert main(ground_argv(suite_dir, first_goal, tmp_path)) == 0
    assert len(calls) == 1


def test_goal_longer_than_a_file_name_is_goal_text(suite_dir, first_goal, tmp_path):
    goal = " AND ".join([first_goal] * 5)
    assert len(goal) > 255  # too long for a file name on common file systems
    assert main(ground_argv(suite_dir, goal, tmp_path)) == 0
    assert (tmp_path / "p0.pddl").is_file()


def test_plan_reruns_are_byte_identical(suite_dir, tmp_path):
    truth = suite_dir / "problems" / "001" / "truth.pddl"
    # truth.pddl has no goal-reaching issue: plan straight from it
    for run in ("a", "b"):
        code = main(
            [
                "plan",
                str(suite_dir / "domain.pddl"),
                str(truth),
                "--out",
                str(tmp_path / run),
            ]
        )
        assert code == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_plan_checks_its_plan_before_writing(suite_dir, tmp_path, monkeypatch, capsys):
    truth = suite_dir / "problems" / "001" / "truth.pddl"
    bogus = Plan((PlanStep("move", ("disk1", "peg1", "peg1")),))  # from == to
    monkeypatch.setattr(cli, "solve", lambda *args: SolveResult("solved", bogus, 1))
    argv = ["plan", str(suite_dir / "domain.pddl"), str(truth), "--out", str(tmp_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: planner produced an invalid plan: precondition-unsatisfied at step 0\n"
    )
    assert not (tmp_path / "plan.txt").exists()
    assert not (tmp_path / "result.json").exists()


def test_unsolvable_problem_exits_1(tmp_path, capsys):
    from sceneground.bench import domain_text

    domain_file = tmp_path / "blocksworld.pddl"
    domain_file.write_text(domain_text("blocksworld"))
    problem_file = tmp_path / "impossible.pddl"
    problem_file.write_text(UNSOLVABLE_PROBLEM)
    code = main(
        ["plan", str(domain_file), str(problem_file), "--out", str(tmp_path / "run")]
    )
    assert code == 1
    summary = json.loads((tmp_path / "run" / "result.json").read_text())
    assert summary["status"] == "unsolvable"
    assert summary["plan_length"] is None
    assert "unsolvable" in capsys.readouterr().err


def test_validate_flags_a_broken_plan(suite_dir, tmp_path, capsys):
    truth = suite_dir / "problems" / "000" / "truth.pddl"
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("; hand-written\n\n(move disk3 peg1 peg2)\n")
    code = main(
        ["validate", str(suite_dir / "domain.pddl"), str(truth), str(plan_file)]
    )
    assert code == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is False
    assert verdict["reason"] is not None


def test_validate_skips_comments_and_blanks(suite_dir, tmp_path):
    truth = suite_dir / "problems" / "001" / "truth.pddl"
    run_dir = tmp_path / "run"
    assert main(["plan", str(suite_dir / "domain.pddl"), str(truth), "--out", str(run_dir)]) == 0
    plan_text = (run_dir / "plan.txt").read_text()
    annotated = tmp_path / "annotated.txt"
    annotated.write_text("; replayed\n\n" + plan_text + "\n; done\n")
    assert main(["validate", str(suite_dir / "domain.pddl"), str(truth), str(annotated)]) == 0


def test_genbench_reruns_are_byte_identical(tmp_path, capsys):
    argv = ["genbench", "hanoi", "--d", "3", "--seeds", "2", "--out"]
    assert main(argv + [str(tmp_path / "a")]) == 0
    assert main(argv + [str(tmp_path / "b")]) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith("manifest.json")


def test_eval_scores_a_clean_suite(tmp_path, capsys):
    assert main(["genbench", "cooking", "--seeds", "2", "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    code = main(
        [
            "eval",
            str(tmp_path / "s" / "manifest.json"),
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "cooking" in table
    report = json.loads((tmp_path / "report.json").read_text())
    for row in report["rows"]:
        assert row["success"] == 1.0
        assert row["precision"] == 1.0


def test_config_file_sets_defaults_and_flags_win(suite_dir, tmp_path):
    truth = suite_dir / "problems" / "000" / "truth.pddl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search": {"node_limit": 1}}))
    argv = [
        "--config",
        str(config),
        "plan",
        str(suite_dir / "domain.pddl"),
        str(truth),
    ]
    assert main(argv) == 1  # config's node limit stops the search
    assert main(argv + ["--node-limit", "100000"]) == 0  # flag overrides config


def test_config_file_reaches_ground_and_eval(suite_dir, first_goal, tmp_path, monkeypatch):
    seen = {}

    def capture(name):
        def fake(*args):
            seen[name] = args[-1]
            raise metrics.EvalError("captured")

        return fake

    monkeypatch.setattr(cli, "ground", capture("ground"))
    monkeypatch.setattr(cli, "evaluate_suite", capture("eval"))
    ground_args = ground_argv(suite_dir, first_goal, tmp_path)
    eval_args = ["eval", str(suite_dir / "manifest.json")]
    assert main(ground_args) == main(eval_args) == 1
    assert seen == {"ground": metrics.PipelineConfig(), "eval": metrics.PipelineConfig()}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"match_threshold": 0.3, "cassette_mode": "record"}))
    seen.clear()
    assert main(["--config", str(config)] + ground_args) == 1
    assert main(["--config", str(config)] + eval_args) == 1
    assert sorted(seen) == ["eval", "ground"]
    for pipeline in seen.values():
        assert (pipeline.match_threshold, pipeline.cassette_mode) == (0.3, "record")


def test_bad_cassette_mode_in_config_is_a_user_error(suite_dir, first_goal, tmp_path, capsys):
    # The goal is in the grammar, so no cassette is ever opened.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cassette_mode": "bogus"}))
    report = tmp_path / "report.json"
    for argv in (
        ground_argv(suite_dir, first_goal, tmp_path),
        ["eval", str(suite_dir / "manifest.json"), "--out", str(report)],
    ):
        assert main(["--config", str(config)] + argv) == 1
        assert capsys.readouterr().err == "error: bad cassette mode 'bogus'\n"
    assert not (tmp_path / "p0.pddl").exists()
    assert not report.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("ground", {"match_threshold": "high"}),
        ("ground", {"cassette": 3}),
        ("ground", {"llm": "http://127.0.0.1:9"}),
        ("ground", {"llm": {"base_url": "http://127.0.0.1:9", "model": 7}}),
        ("eval", {"match_threshold": "high"}),
        ("eval", {"jobs": 1}),
        ("eval", {"empty_precision": None}),
        ("eval", {"cassette_mode": None}),
        ("eval", {"search": {"node_limit": "many"}}),
        ("eval", {"llm": []}),
        ("plan", {"search": {"node_limit": "many"}}),
        ("plan", {"search": {"time_limit_s": False}}),
        ("plan", {"search": {"mode": 1}}),
        ("plan", {"search": "fast"}),
        ("eval", {"match_treshold": 0.9}),
        ("plan", {"search": {"heuristic": "goal-count"}}),
        ("ground", {"llm": {"timeout_s": 5}}),
        ("pddl", {"search": "fast"}),
    ],
)
def test_wrong_typed_config_value_is_a_user_error(
    suite_dir, first_goal, tmp_path, capsys, command, config
):
    argv = {
        "ground": ground_argv(suite_dir, first_goal, tmp_path),
        "eval": ["eval", str(suite_dir / "manifest.json")],
        "plan": [
            "plan",
            str(suite_dir / "domain.pddl"),
            str(suite_dir / "problems" / "000" / "truth.pddl"),
        ],
        "pddl": ["pddl", "check", str(suite_dir / "domain.pddl")],
    }[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key ")
    assert "Traceback" not in err
    assert not (tmp_path / "p0.pddl").exists()


def test_readme_lists_exactly_the_config_keys():
    # The README's --config paragraph names every key and section key the
    # reader accepts, so adding or removing one must change the README too.
    text = " ".join(README.read_text(encoding="utf-8").split())
    listing = re.search(r"Its keys are (.*?)\. Any other key", text).group(1)
    plain, sections = listing.split(" and the sections ")
    documented = dict.fromkeys(re.findall(r"`(\w+)`", plain))
    for name, inner in re.findall(r"`(\w+)` \(([^)]*)\)", sections):
        documented[name] = set(re.findall(r"`(\w+)`", inner))
    accepted = {key: keys and set(keys) for key, keys in cli.CONFIG_KEYS.items()}
    assert documented == accepted


def test_well_typed_config_values_are_accepted(suite_dir, tmp_path):
    # Integers are numbers, and an absent or null section is empty.
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"match_threshold": 1, "llm": None, "search": {"time_limit_s": 60}})
    )
    argv = ["--config", str(config), "eval", str(suite_dir / "manifest.json")]
    assert main(argv) == 0


@pytest.fixture(scope="module")
def cooking_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cooking")
    write_suite(GenConfig("cooking", seed=0), 3, out)
    return out


@pytest.mark.parametrize("value", [5, ["vegetable"]])
@pytest.mark.parametrize("field", ["suggested_type", "referent_name"])
@pytest.mark.parametrize(
    "file, stream",
    [("scene.json", "phrase_detections"), ("exemplar.json", "class_detections")],
)
def test_non_string_detection_field_fails_one_problem(
    cooking_dir, tmp_path, capsys, file, stream, field, value
):
    suite = tmp_path / "suite"
    shutil.copytree(cooking_dir, suite)
    path = suite / "problems" / "001" / file
    doc = json.loads(path.read_text())
    doc[stream][0][field] = value
    path.write_text(json.dumps(doc))
    report_path = tmp_path / "report.json"
    assert main(["eval", str(suite / "manifest.json"), "--out", str(report_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads(report_path.read_text())["problems"]
    assert [r["failure"] is None for r in records] == [True, False, True]
    assert records[1]["failure"].startswith("grounding: bad detection entry")
    assert f"{field} must be a string or null" in records[1]["failure"]


def test_scene_file_not_in_utf8_fails_one_problem(cooking_dir, tmp_path, capsys):
    suite = tmp_path / "suite"
    shutil.copytree(cooking_dir, suite)
    scene = suite / "problems" / "001" / "scene.json"
    scene.write_bytes(b"\xff" + scene.read_bytes())
    report_path = tmp_path / "report.json"
    assert main(["eval", str(suite / "manifest.json"), "--out", str(report_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    records = json.loads(report_path.read_text())["problems"]
    assert [r["failure"] for r in records] == [
        None,
        f"grounding: cannot read {scene}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte",
        None,
    ]


def test_non_finite_canvas_fails_ground(suite_dir, first_goal, tmp_path, capsys):
    doc = json.loads((suite_dir / "problems" / "000" / "scene.json").read_text())
    for value in ("nan", "inf"):
        scene = tmp_path / f"scene-{value}.json"
        scene.write_text(json.dumps({**doc, "image_width": float(value)}))
        argv = ground_argv(suite_dir, first_goal, tmp_path)
        argv[2] = str(scene)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grounding: bad canvas") and err.count("\n") == 1
    assert not (tmp_path / "p0.pddl").exists()


@pytest.mark.parametrize(
    "rows",
    ["on", [["on", 1, 2]], [["on", ["x"], "b"]]],
    ids=["string", "numbers", "nested-list"],
)
def test_malformed_true_atoms_fail_ground(suite_dir, first_goal, tmp_path, capsys, rows):
    path = suite_dir / "problems" / "000" / "exemplar.json"
    exemplar = tmp_path / "exemplar.json"
    exemplar.write_text(json.dumps({**json.loads(path.read_text()), "true_atoms": rows}))
    argv = ground_argv(suite_dir, first_goal, tmp_path)
    argv[3] = str(exemplar)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grounding: bad true_atoms") and err.count("\n") == 1
    assert not (tmp_path / "p0.pddl").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_time_limit_is_a_user_error(suite_dir, tmp_path, capsys, value):
    plan = [
        "plan",
        str(suite_dir / "domain.pddl"),
        str(suite_dir / "problems" / "000" / "truth.pddl"),
    ]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"search": {"time_limit_s": float(value)}}))
    for argv in (plan + ["--time-limit", value], ["--config", str(config)] + plan):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: limits must be positive and finite\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_sigma_is_a_user_error(tmp_path, capsys, value):
    out = tmp_path / "suite"
    assert main(["genbench", "cooking", "--sigma", value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: sigma must be nonnegative and finite\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "bad config file {}: Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "config file {} must hold a JSON object"),
    ],
    ids=["not-json", "not-an-object"],
)
def test_unreadable_config_file_is_a_user_error(suite_dir, tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["--config", str(config), "pddl", "check", str(suite_dir / "domain.pddl")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(config)}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "data, prefix",
    [
        (b'{"search": {"node_limit": ' + b"1" * 5000 + b"}}", "bad config file {}: "),
        (b'{"search": {}}\xff', "cannot read {}: "),
    ],
    ids=["int-past-the-digit-limit", "not-utf8"],
)
def test_undecodable_config_file_is_one_error_line(suite_dir, tmp_path, capsys, data, prefix):
    # json.loads raises a plain ValueError for the long integer; a file
    # that cannot be decoded keeps the message every unreadable input gets.
    config = tmp_path / "config.json"
    config.write_bytes(data)
    assert main(["--config", str(config), "pddl", "check", str(suite_dir / "domain.pddl")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + prefix.format(config))
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_llm_flags_need_a_model_with_the_base_url(suite_dir, first_goal, tmp_path, capsys):
    argv = ground_argv(suite_dir, first_goal, tmp_path, "--llm-base-url", "http://127.0.0.1:9")
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: an LLM endpoint needs both a base URL and a model name\n"
    )
    assert not (tmp_path / "p0.pddl").exists()


def drop_domain_file(suite: Path) -> str:
    (suite / "domain.pddl").unlink()
    return f"cannot read domain file: [Errno 2] No such file or directory: '{suite / 'domain.pddl'}'"


def domain_not_utf8(suite: Path) -> str:
    domain = suite / "domain.pddl"
    size = len(domain.read_bytes())
    domain.write_bytes(domain.read_bytes() + b"\xff")
    return (
        f"cannot read domain file: 'utf-8' codec can't decode byte 0xff in position {size}: "
        "invalid start byte"
    )


def replace_second_problem(suite: Path) -> str:
    manifest = suite / "manifest.json"
    raw = json.loads(manifest.read_text())
    raw["problems"][1] = "problems/001/scene.json"
    manifest.write_text(json.dumps(raw))
    return "problem 1 is not an object"


@pytest.mark.parametrize("breaks", [drop_domain_file, domain_not_utf8, replace_second_problem])
def test_broken_manifest_is_a_user_error(suite_dir, tmp_path, capsys, breaks):
    suite = tmp_path / "suite"
    shutil.copytree(suite_dir, suite)
    message = breaks(suite)
    assert main(["eval", str(suite / "manifest.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_manifest_with_an_integer_too_long_to_read_is_a_user_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"domain_file": "domain.pddl", "problems": [' + "1" * 5000 + "]}")
    assert main(["eval", str(manifest)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read manifest {manifest}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_truncated_truth_names_its_entry_and_file(cooking_dir, tmp_path, capsys):
    suite = tmp_path / "suite"
    shutil.copytree(cooking_dir, suite)
    truth = suite / "problems" / "001" / "truth.pddl"
    truth.write_text("(define (problem x) (:domain cooking)")
    assert main(["eval", str(suite / "manifest.json")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: 001-scene: ground truth {truth}: unbalanced '(' at 1:1\n"
    assert captured.out == ""


def exemplar_not_json(scene: dict, exemplar: dict):
    return scene, "not json", "bad exemplar JSON: Expecting value: line 1 column 1 (char 0)"


def exemplar_without_atoms(scene: dict, exemplar: dict):
    del exemplar["true_atoms"]
    return scene, exemplar, "exemplar JSON must be an object with true_atoms"


def phrase_of_unknown_type(scene: dict, exemplar: dict):
    # The box overlaps no class detection, so the phrase makes a new object.
    phrase = {"query": "a dragon", "box": [0, 0, 10, 10], "suggested_type": "dragon"}
    scene["phrase_detections"] = [phrase]
    return scene, exemplar, "suggested type 'dragon' not in domain"


def degenerate_box(scene: dict, exemplar: dict):
    scene["class_detections"][0]["box"] = [5, 5, 5, 9]
    return scene, exemplar, "degenerate box Box(x_min=5.0, y_min=5.0, x_max=5.0, y_max=9.0)"


@pytest.mark.parametrize(
    "breaks", [exemplar_not_json, exemplar_without_atoms, phrase_of_unknown_type, degenerate_box]
)
def test_broken_scene_or_exemplar_fails_ground(suite_dir, first_goal, tmp_path, capsys, breaks):
    problem_dir = suite_dir / "problems" / "000"
    scene, exemplar, message = breaks(
        json.loads((problem_dir / "scene.json").read_text()),
        json.loads((problem_dir / "exemplar.json").read_text()),
    )
    argv = ground_argv(suite_dir, first_goal, tmp_path / "out")
    for index, doc in ((2, scene), (3, exemplar)):
        argv[index] = str(tmp_path / Path(argv[index]).name)
        Path(argv[index]).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: grounding: {message}\n"
    assert not (tmp_path / "out").exists()
