"""REP008: the package's layer diagram is enforced, not aspirational.

``docs/ARCHITECTURE.md`` draws the dependency layers: pure decision
procedures (``core``) at the bottom, substrates (``sim``, ``netsim``) and
analytic machinery (``markov``, ``ratfunc``) above, ``analysis`` and the
CLI at the top.  A ``core`` module importing from ``sim`` would let
simulator state leak into the pure protocol logic that three independent
substrates replay; this rule fails the build instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import PurePosixPath

from ..findings import Finding, Severity
from ..registry import PACKAGE_NAME, FileContext, FileRule, register

#: Allowed intra-package dependencies, by first-level directory/module.
#: Top-level orchestration modules (cli, __init__, __main__) are absent,
#: meaning unrestricted.
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "errors": frozenset(),
    "types": frozenset({"errors"}),
    "obs": frozenset({"errors", "types"}),
    "perf": frozenset({"errors", "types", "obs"}),
    "ratfunc": frozenset({"errors", "types"}),
    "quorums": frozenset({"ratfunc", "errors", "types"}),
    "core": frozenset({"errors", "types"}),
    "lint": frozenset({"errors", "types"}),
    "markov": frozenset({"core", "obs", "ratfunc", "errors", "types"}),
    "sim": frozenset({"core", "obs", "perf", "errors", "types"}),
    "reassignment": frozenset({"core", "quorums", "errors", "types"}),
    "netsim": frozenset({"core", "obs", "sim", "errors", "types"}),
    # The model checker drives netsim deterministically and serializes
    # counterexamples through obs; nothing imports check.
    "check": frozenset({"core", "netsim", "obs", "sim", "errors", "types"}),
    "analysis": frozenset(
        {
            "core",
            "markov",
            "obs",
            "sim",
            "netsim",
            "quorums",
            "ratfunc",
            "errors",
            "types",
        }
    ),
}


@register
class NoCrossLayerImports(FileRule):
    """REP008: imports must follow the architecture's layer diagram."""

    code = "REP008"
    name = "no-cross-layer-imports"
    severity = Severity.ERROR
    description = (
        "import that violates the layer diagram (e.g. core/ importing "
        "from sim/ or netsim/)"
    )
    rationale = (
        "Purity: core protocols are replayed by three substrates; a "
        "downward-only import graph is what keeps the decision procedures "
        "substrate-agnostic (docs/ARCHITECTURE.md)."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_package:
            return
        parts = PurePosixPath(ctx.rel_path).parts
        if len(parts) == 1:
            layer = PurePosixPath(parts[0]).stem  # types.py -> "types"
        else:
            layer = parts[0]
        allowed = ALLOWED_IMPORTS.get(layer)
        if allowed is None:
            return  # cli/__init__/__main__ orchestrate and are unrestricted
        for node in ast.walk(ctx.tree):
            target: str | None = None
            if isinstance(node, ast.ImportFrom):
                target = self._target_layer(node, parts)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bits = alias.name.split(".")
                    if bits[0] == PACKAGE_NAME and len(bits) > 1:
                        target = bits[1]
            if target is None or target == layer or target in allowed:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                f"layer `{layer}` must not import from `{target}` "
                f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})",
            )

    @staticmethod
    def _target_layer(
        node: ast.ImportFrom, parts: tuple[str, ...]
    ) -> str | None:
        """First-level package a ``from ... import`` statement reaches."""
        module = node.module or ""
        bits = module.split(".") if module else []
        if node.level == 0:
            if not bits or bits[0] != PACKAGE_NAME:
                return None  # third-party or stdlib
            return bits[1] if len(bits) > 1 else None
        # Relative import: resolve against this file's package location.
        # parts[:-1] is the file's package path inside repro; level=1 is the
        # current package, each extra level climbs one parent.
        package_path = list(parts[:-1])
        climb = node.level - 1
        if climb > len(package_path):
            return None
        base = package_path[: len(package_path) - climb]
        full = base + bits
        return full[0] if full else None
