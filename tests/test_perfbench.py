"""The traced benchmark wraps layer functions by module attribute name, and
the workloads call other functions directly, so renaming or dropping one of
them breaks `perfbench/run.py`."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layer_spans_find_every_wrapped_attribute(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    tracer = Tracer()
    try:
        workloads.install_layer_spans(tracer)
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.close()
    assert all(getattr(module, attr) is original for module, attr, original in patched)


def test_direct_calls_run_on_a_one_entry_suite(monkeypatch, tmp_path):
    # Besides the wrapped attributes, the workloads call graph_to_init,
    # pddl.Problem, load_manifest, triplet_pr and evaluate_suite(solver=...)
    # directly; one ground operation with its score and one untraced eval
    # pass reach each of them.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    from sceneground.bench import GenConfig, write_suite
    from sceneground.metrics import load_manifest

    cfg = GenConfig("hanoi", d=3, g=3)
    manifest = write_suite(cfg, 1, tmp_path)
    domain, (entry,) = load_manifest(manifest)
    text, graph_json, failure, init = workloads.ground_op(domain, entry)
    assert failure is None and text and graph_json
    grounded = workloads.Outcome(
        0.0,
        "",
        detail={"domain": domain, "entry": entry, "text": text, "graph": graph_json, "init": init},
    )
    assert workloads.check_ground(None, grounded) is None
    tp, fp, fn, _, _ = workloads.ground_score(grounded)
    assert tp > 0 and fp == fn == 0

    workload = workloads.WORKLOADS["eval-hanoi-optimal"]
    with Tracer() as tracer:
        outcomes = workloads.eval_pass(
            workload, [workloads.Suite("0.0", cfg, manifest)], 0, tracer, False
        )
    (evaluated,) = outcomes.values()
    assert evaluated.error is None and evaluated.digest is not None
    assert workloads.check_eval(workload, evaluated) is None
    assert workloads.eval_score(evaluated) == (tp, 0, 0, True, 7)


def test_a_traced_eval_pass_compiles_once_per_suite(monkeypatch, tmp_path):
    # The benchmark's eval pass solves through its own wrapper around
    # planner.solve, inside evaluate_suite: its four entries share one
    # object set and three exemplar files, so the pass grounds the actions
    # once and compiles each distinct exemplar text once.  Were the suite's
    # compiles lost to that wrapper, both counts would be one per entry and
    # the pinned benchmark counters would move.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    from sceneground.bench import GenConfig, write_suite
    from sceneground.metrics import load_manifest, read_text

    cfg = GenConfig("hanoi", d=3, g=3, seed=5)
    manifest = write_suite(cfg, 4, tmp_path)
    _, entries = load_manifest(manifest)
    exemplars = {read_text(entry.exemplar) for entry in entries}
    workload = workloads.WORKLOADS["eval-hanoi-optimal"]
    with Tracer() as tracer:
        workloads.install_layer_spans(tracer)
        outcomes = workloads.eval_pass(
            workload, [workloads.Suite("0.0", cfg, manifest)], 0, tracer, True
        )
        calls = {name: row["calls"] for name, row in tracer.summary([0])[0].items()}
    assert len(outcomes) == len(entries) == 4
    assert all(outcome.error is None for outcome in outcomes.values())
    assert calls["planner.ground_actions"] == 1
    assert calls["graph.exemplar_from_json"] == len(exemplars) == 3


def test_traced_ground_pass_counts_candidate_columns_and_kept_atoms(monkeypatch, tmp_path):
    # The benchmark wraps graph.classify and counts len(args[0]) as
    # graph.candidates and len(result) as graph.kept: the candidate feature
    # column must stay classify's first argument and the kept sequence its
    # result, or the pinned counter digests move.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from spans import Tracer

    from sceneground import graph
    from sceneground.bench import GenConfig, write_suite
    from sceneground.metrics import load_manifest, read_text
    from sceneground.scene import merge_detections, observation_from_json

    suites = [
        workloads.Suite(str(i), cfg, write_suite(cfg, 2, tmp_path / str(i)))
        for i, cfg in enumerate(
            (
                GenConfig("blocksworld", n=4, sigma=0.2, seed=3),
                GenConfig("hanoi", d=3, g=3, sigma=0.2, seed=3),
                GenConfig("cooking", sigma=0.2, seed=3),
            )
        )
    ]
    candidates = kept = 0
    for suite in suites:
        domain, entries = load_manifest(suite.manifest)
        for entry in entries:
            scene = merge_detections(observation_from_json(read_text(entry.scene)), domain)
            exemplar = graph.exemplar_from_json(read_text(entry.exemplar), domain)
            columns = graph.enumerate_candidates(scene, domain).values()
            candidates += sum(len(features) for _, features in columns)
            kept += len(graph.classify_scene(scene, domain, exemplar).atoms)
    workload = workloads.WORKLOADS["ground-noisy"]
    with Tracer() as tracer:
        workloads.install_layer_spans(tracer)
        outcomes = workloads.ground_pass(workload, suites, 0, tracer, True)
        calls = tracer.summary([0])[0]["graph.classify"]["calls"]
    assert len(outcomes) == 6
    assert all(outcome.error is None for outcome in outcomes.values())
    assert calls > 0 and candidates > kept > 0
    assert tracer.counts[0]["graph.candidates"] == candidates
    assert tracer.counts[0]["graph.kept"] == kept
