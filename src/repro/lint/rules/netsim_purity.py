"""REP009: netsim message handlers stay pure (call-graph walk).

The explicit-state checker (:mod:`repro.check`) is sound only if every
behaviour of the message layer is a function of the schedule: a handler
that read the wall clock or a global RNG, or that mutated a *peer* node
directly instead of sending a message, would make states restored from
their snapshots, and schedules replayed from the root, diverge from the
states explored, and would hide interleavings from the explorer.  This rule walks
the real call graph -- every function reachable from the handler entry
points ``Node.receive``, ``ProtocolRun.on_reply`` and
``ReplicaCluster.deliver_to_coordinator`` across all netsim files, nested
closures included -- and flags, anywhere along a reachable chain:

* wall-clock reads (the REP002 patterns, re-checked transitively);
* global RNG access (``random.*`` / ``numpy.random.*`` calls);
* peer-state reach-around: subscripting a ``_nodes`` table outside
  ``netsim/cluster.py``, invoking another node's ``.receive(...)``
  outside the network/cluster layer, or scheduling directly on the
  simulator (``<...>.simulator.schedule(...)``) outside
  ``netsim/cluster.py``/``netsim/network.py`` -- handler-side timers must
  flow through the ``ReplicaCluster.schedule_timer`` seam the checker
  controls.

Call-graph edges are name-based and deliberately over-approximate: any
reference to an attribute or name that matches an indexed netsim function
counts as a possible call (this also catches callbacks passed by
reference, e.g. lock-grant partials).  Findings report the chain from the
entry point so the path is auditable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from ..findings import Finding, Severity
from ..registry import FileContext, ProjectContext, ProjectRule, register
from .determinism import CLOCK_ATTRS, CLOCK_NAMES

#: Handler entry points: (class name, method name).
HANDLER_ROOTS = (
    ("Node", "receive"),
    ("ProtocolRun", "on_reply"),
    ("ReplicaCluster", "deliver_to_coordinator"),
)

#: Files where subscripting the node table is the cluster's own business.
NODE_TABLE_MODULES = ("netsim/cluster.py",)

#: Files allowed to invoke handlers / schedule on the simulator directly.
TRANSPORT_MODULES = ("netsim/cluster.py", "netsim/network.py")


@dataclass
class _Indexed:
    """One function or method defined somewhere under netsim/."""

    qualname: str
    name: str
    is_method: bool
    ctx: FileContext
    node: ast.AST
    attr_refs: set[str] = field(default_factory=set)
    name_refs: set[str] = field(default_factory=set)


def _function_defs(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Top-level functions and methods with their qualified names."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{top.name}.{item.name}", item


def _referenced_names(node: ast.AST) -> tuple[set[str], set[str]]:
    """(attribute references, bare-name references) in a function body.

    This is the (deliberately loose) edge relation: a bare reference like
    ``self._lock_granted`` passed as a callback is an edge just like the
    call ``self._lock_granted()``.  Attribute references may target
    methods; bare names only ever link to module-level functions, so a
    local variable that happens to share a method's name (``run``) does
    not fabricate an edge.
    """
    attrs: set[str] = set()
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
    return attrs, names


def _attribute_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` as ``["a", "b", "c"]`` (empty when not a plain chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


@register
class NetsimHandlerPurity(ProjectRule):
    """REP009: everything reachable from a message handler is schedule-pure."""

    code = "REP009"
    name = "netsim-handler-purity"
    severity = Severity.ERROR
    description = (
        "code reachable from a netsim message handler (Node.receive, "
        "ProtocolRun.on_reply, ReplicaCluster.deliver_to_coordinator) "
        "reads the wall clock or a global RNG, or mutates peer-node state "
        "without going through the network/scheduler seams"
    )
    rationale = (
        "The repro check explorer restores states from their snapshots "
        "and replays counterexamples from the root, so a state's future "
        "must be a function of its snapshot and the schedule; a handler "
        "chain with hidden nondeterminism (wall clock, global RNG) or "
        "out-of-band peer mutation (direct .receive calls, _nodes[...] "
        "subscripts, raw simulator.schedule) breaks that and hides "
        "interleavings from the model checker (docs/CHECKING.md)."
    )

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        index = self._build_index(project)
        reachable = self._reachable(index)
        for qualname in sorted(reachable):
            entry, chain = reachable[qualname]
            yield from self._check_function(entry, chain)

    # ------------------------------------------------------------------ #
    # Call graph
    # ------------------------------------------------------------------ #

    def _build_index(self, project: ProjectContext) -> dict[str, _Indexed]:
        index: dict[str, _Indexed] = {}
        for ctx in project.files:
            if ctx.in_package and not ctx.in_dirs("netsim"):
                continue
            for qualname, node in _function_defs(ctx.tree):
                key = f"{ctx.rel_path}::{qualname}"
                attrs, names = _referenced_names(node)
                index[key] = _Indexed(
                    qualname=qualname,
                    name=qualname.rsplit(".", 1)[-1],
                    is_method="." in qualname,
                    ctx=ctx,
                    node=node,
                    attr_refs=attrs,
                    name_refs=names,
                )
        return index

    def _reachable(
        self, index: dict[str, _Indexed]
    ) -> dict[str, tuple[_Indexed, tuple[str, ...]]]:
        """BFS from the handler roots; values carry the call chain."""
        by_name: dict[str, list[str]] = {}
        functions_by_name: dict[str, list[str]] = {}
        for key, entry in index.items():
            by_name.setdefault(entry.name, []).append(key)
            if not entry.is_method:
                functions_by_name.setdefault(entry.name, []).append(key)
        for mapping in (by_name, functions_by_name):
            for keys in mapping.values():
                keys.sort()
        roots = [
            key
            for key, entry in sorted(index.items())
            if any(
                entry.qualname == f"{cls}.{method}"
                for cls, method in HANDLER_ROOTS
            )
        ]
        reached: dict[str, tuple[_Indexed, tuple[str, ...]]] = {}
        queue = [(key, (index[key].qualname,)) for key in roots]
        while queue:
            key, chain = queue.pop(0)
            if key in reached:
                continue
            entry = index[key]
            reached[key] = (entry, chain)
            targets: list[str] = []
            for called in sorted(entry.attr_refs):
                targets.extend(by_name.get(called, ()))
            for called in sorted(entry.name_refs):
                targets.extend(functions_by_name.get(called, ()))
            for target in targets:
                if target not in reached:
                    queue.append((target, chain + (index[target].qualname,)))
        return reached

    # ------------------------------------------------------------------ #
    # Per-function purity checks
    # ------------------------------------------------------------------ #

    def _check_function(
        self, entry: _Indexed, chain: tuple[str, ...]
    ) -> Iterator[Finding]:
        via = " -> ".join(chain)
        ctx = entry.ctx
        for node in ast.walk(entry.node):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, via)
            elif isinstance(node, ast.Subscript):
                chain_parts = _attribute_chain(node.value)
                if (
                    chain_parts
                    and chain_parts[-1] == "_nodes"
                    and not any(
                        ctx.is_file(mod) for mod in NODE_TABLE_MODULES
                    )
                ):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        "peer node table subscript `_nodes[...]` outside "
                        f"netsim/cluster.py (reachable via {via})",
                    )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, via: str
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in CLOCK_NAMES:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"wall-clock call `{func.id}()` in handler-reachable "
                    f"code (via {via})",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        base_name = None
        if isinstance(base, ast.Name):
            base_name = base.id
        elif isinstance(base, ast.Attribute):
            base_name = base.attr
        if (base_name, func.attr) in CLOCK_ATTRS:
            yield self.finding(
                ctx,
                node.lineno,
                f"wall-clock call `{base_name}.{func.attr}()` in "
                f"handler-reachable code (via {via})",
            )
        chain_parts = _attribute_chain(func)
        if "random" in chain_parts[:-1]:
            yield self.finding(
                ctx,
                node.lineno,
                f"global RNG call `{'.'.join(chain_parts)}(...)` in "
                f"handler-reachable code (via {via})",
            )
        in_transport = any(ctx.is_file(mod) for mod in TRANSPORT_MODULES)
        if func.attr == "receive" and not in_transport:
            yield self.finding(
                ctx,
                node.lineno,
                "direct `.receive(...)` on a peer node bypasses the "
                f"network layer (via {via})",
            )
        if (
            func.attr == "schedule"
            and len(chain_parts) >= 2
            and chain_parts[-2] in ("simulator", "_simulator")
            and not in_transport
        ):
            yield self.finding(
                ctx,
                node.lineno,
                "direct simulator.schedule(...) in a handler chain; use "
                f"the ReplicaCluster.schedule_timer seam (via {via})",
            )
