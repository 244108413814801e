"""Golden outputs: sha256 digests of generated suites and what the pipeline
makes of them.

Each case writes a three-seed suite, then digests three things separately:
every file the generator wrote, the evaluation reports in both search
modes, and each entry's ``ground`` output (scene-graph JSON and problem
text, or the failure line).  An optimization must leave all three
byte-identical; a digest that has to change needs its reason recorded
next to the new value.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from sceneground.bench import GenConfig, write_suite
from sceneground.metrics import PipelineConfig, evaluate_suite, ground, load_manifest
from sceneground.pddl import serialize_problem
from sceneground.planner import SearchConfig

CONFIGS = {
    "blocksworld": GenConfig("blocksworld", n=4),
    "hanoi": GenConfig("hanoi", d=3, g=3),
    "cooking": GenConfig("cooking"),
}

GOLDEN = {
    ("blocksworld", 0.0): {
        "files": "ede4f631d0b81c8fab4b77b9465faf149b456c85aec4d4c80ddfa1a41234814d",
        "reports": "0611ceee238ac0840c31970ddaf7eac1f07acd66c72ea0104a9e60da00ae23dd",
        "ground": "33d7cc7aea7273761ecd3977dcb33533ead01f526ac008f3cea8870b7ec8c6e5",
    },
    ("blocksworld", 0.2): {
        "files": "c5d0c2a941e4623d305dad0774ae1177bf07e0df130f01fb2393f8883e1dd4b2",
        "reports": "6bc41195a77018356262cd90c2e0ee5ecd36bb0693ca7c122d3dafe7302a5120",
        "ground": "f7fb10c5ae002a8dacb1a5043aa5f1a3d01d432652cf938a178eb39393ba0bdd",
    },
    ("cooking", 0.0): {
        "files": "8d1a22f91ab107a1b1f89adc1b50e93bb4018ba532fa32dd3938612fa73cc4c0",
        "reports": "cf63cd9ec3562abc280f042a914bde1a4bfa859e62c05c7ff39ca692b4278c49",
        "ground": "66d759a6d226adfb1d420c6f0a701262f6dba07fc2636d13f566241ad6ebc593",
    },
    ("cooking", 0.2): {
        "files": "7985145e607586bbf30bde0315c4d3efd30417bd0b304676dbc56fc56fc1dab3",
        "reports": "53bb3d05638ff4e56a277e1ba4feafa6d0bfc1717daa226bdecb803194338504",
        "ground": "430197966e109586eaa2490c6f936b43f2c3f8d38a69e27f483c6024b488c5d3",
    },
    ("hanoi", 0.0): {
        "files": "276d941d47f74cedbe13642135f4e12e5daeb2800f69025ccf84b7e6d4046220",
        "reports": "e2543d1eb736ba4cdb5c4df8fe3b4de04a874714cb434b96cb7aa8b3ab555d91",
        "ground": "347cd4a2d2440be3aee539d42e45f76dfc20e1ba2eef656f3f6be97329897737",
    },
    ("hanoi", 0.2): {
        "files": "bef5afebe0cd28ec60fec9a0947a1ff00f51222bf643581f3ad039ada9af4aa7",
        "reports": "5d26ac1523a9b1b8baa9c92615074b26e186697d64070bf976fae51bc89c1b36",
        "ground": "229664964d957ec617c16466694cf193bc855f61d5ce3907cb9d7d6e8da3e366",
    },
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8") if isinstance(part, str) else part
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def _digests(kind: str, sigma: float, root) -> dict[str, str]:
    manifest = write_suite(replace(CONFIGS[kind], sigma=sigma), 3, root)
    files = sorted(p for p in root.rglob("*") if p.is_file())
    reports = [
        evaluate_suite(
            manifest, PipelineConfig(search=SearchConfig(mode=mode))
        ).to_json()
        for mode in ("optimal", "satisficing")
    ]
    domain, entries = load_manifest(manifest)
    grounded = []
    for entry in entries:
        result = ground(domain, entry, PipelineConfig())
        grounded.append(entry.name)
        grounded.append(result.graph.to_json() if result.graph else "")
        grounded.append(
            serialize_problem(result.problem) if result.problem else result.failure
        )
    return {
        "files": _digest(
            part
            for path in files
            for part in (path.relative_to(root).as_posix(), path.read_bytes())
        ),
        "reports": _digest(reports),
        "ground": _digest(grounded),
    }


@pytest.mark.parametrize("kind, sigma", sorted(GOLDEN))
def test_outputs_match_golden_digests(kind, sigma, tmp_path):
    assert _digests(kind, sigma, tmp_path) == GOLDEN[(kind, sigma)]
