"""Determinism rule RPL003 unseeded-random.

It protects the byte-identity guarantees: batched results must equal
scalar results, and a killed-and-resumed run must assemble a library
byte-identical to an uninterrupted one.  Neither survives an unseeded
RNG.  Wall-clock values reaching canonical artifacts are the
whole-program rule RPL101's (:mod:`repro.lint.program.rules`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, ModuleUnit, Rule, register

#: module-global RNG entry points: banned outright (their state is
#: process-wide and implicitly seeded from the OS)
_GLOBAL_RNG = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.sample",
        "random.shuffle",
        "random.uniform",
        "random.gauss",
        "random.normalvariate",
        "random.getrandbits",
        "random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.seed",
    }
)

#: generator constructors: fine *with* an explicit seed argument
_GENERATORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)


def _has_seed(call: ast.Call) -> bool:
    """An explicit seed: any positional arg, or seed=/random_state= kwarg
    (an explicit ``None`` does not count — that is the unseeded path)."""
    for arg in call.args:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for kw in call.keywords:
        if kw.arg in ("seed", "random_state"):
            if not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                return True
    return False


@register
class UnseededRandomRule(Rule):
    """Randomness must flow through an explicitly seeded generator."""

    id = "RPL003"
    name = "unseeded-random"
    summary = "module-global or unseeded RNG use in library code"
    rationale = (
        "Reproducibility of sampled cell sets, forest bootstraps and "
        "tuning splits requires every random draw to come from a "
        "generator constructed with an explicit seed (random.Random(seed), "
        "numpy.random.default_rng(seed)) that is threaded through the "
        "call tree.  The module-global functions (random.random, "
        "numpy.random.rand, ...) share hidden process-wide state and are "
        "banned outright; so is seeding them (random.seed), which still "
        "leaves every other caller entangled in shared state."
    )

    def check(self, unit: ModuleUnit, config: LintConfig) -> Iterator[Finding]:
        assert unit.tree is not None
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = unit.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _GLOBAL_RNG:
                yield self.finding(
                    unit,
                    node,
                    f"module-global RNG {dotted}() is banned; construct an "
                    "explicitly seeded generator instead "
                    "(numpy.random.default_rng(seed) / random.Random(seed))",
                )
            elif dotted == "random.SystemRandom":
                yield self.finding(
                    unit,
                    node,
                    "random.SystemRandom is entropy-seeded by construction "
                    "and can never reproduce; use random.Random(seed)",
                )
            elif dotted in _GENERATORS and not _has_seed(node):
                yield self.finding(
                    unit,
                    node,
                    f"{dotted}() without an explicit seed/random_state "
                    "draws OS entropy; pass the run's seed through",
                )
