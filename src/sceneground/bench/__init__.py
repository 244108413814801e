"""Synthetic scene suites for the three shipped evaluation domains."""

from functools import cache
from importlib import resources

from sceneground.pddl import Domain, parse_domain

DOMAIN_KINDS = ("blocksworld", "hanoi", "cooking")


def domain_text(kind: str) -> str:
    """PDDL source of a shipped domain file (blocksworld, hanoi, cooking)."""
    if kind not in DOMAIN_KINDS:
        raise ValueError(f"no shipped domain named {kind!r}")
    path = resources.files("sceneground.bench").joinpath("data", f"{kind}.pddl")
    return path.read_text(encoding="utf-8")


@cache
def shipped_domain(kind: str) -> Domain:
    """The parsed shipped domain, parsed once per process (Domain is frozen)."""
    return parse_domain(domain_text(kind))


from sceneground.bench.generate import (  # noqa: E402  (needs domain_text above)
    BenchError,
    GenConfig,
    GeneratedProblem,
    Meta,
    gen_blocksworld,
    gen_cooking,
    gen_hanoi,
    generate,
    perturb,
    write_suite,
)

__all__ = [
    "DOMAIN_KINDS",
    "BenchError",
    "GenConfig",
    "GeneratedProblem",
    "Meta",
    "domain_text",
    "gen_blocksworld",
    "gen_cooking",
    "gen_hanoi",
    "generate",
    "perturb",
    "write_suite",
]
