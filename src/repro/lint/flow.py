"""DET006 — cross-module message-flow analysis.

Every message in this codebase is a tuple headed by a small-int opcode
constant (``OP_*``), and the receiving side consumes it through one of
four shapes: a dense dispatch table (``_dispatch`` /
``on_message_table``) indexed by opcode value, a ``_dispatch`` dict keyed
by opcode (the cluster-tree modules'), an explicit comparison
(``op == OP_REG_UP``, ``payload[0] != OP_APP``), or membership in an
opcode-set tuple (``op in (OP_A, OP_B)``).  The emitter and the consumer
routinely live in *different* modules — registration emits ``OP_REG_UP``
waves that the synchronizer's dispatch table routes back into
``RegistrationModule.handle_reg_up`` — so no single-file check can see a
dangling flow.

This pass runs over the whole linted file set at once:

1. per file, collect opcode **definitions** (``OP_NAME = <int>`` at
   module or class scope), **emissions** (a tuple literal headed by an
   opcode name — the message-construction idiom), and **consumptions**
   (comparisons, subscript indexes, opcode-set tuples, dict-dispatch
   keys, and the value ranges covered by dense dispatch tables);
2. globally, flag every opcode that is emitted somewhere but consumed
   nowhere (a message kind the system sends and then drops on the floor —
   the dynamic symptom is a silent no-op or an unguarded table
   ``IndexError``), and every opcode defined but neither emitted nor
   consumed anywhere (a dead message kind left behind by a refactor).

A dense table consumes opcode *values* ``0..len-1``, but only for opcode
names **visible in the table's own module** (defined there or imported
by name) — otherwise any sufficiently long table anywhere would absolve
every small opcode value in the tree and the rule would be toothless.
Findings anchor at the first emit site (resp. the definition) in
path/line order, so ``# det: ignore[DET006] -- why`` applies at the one
place a reader will look.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .rules import Finding

#: The opcode-constant naming convention the flow analysis keys on.
_OPCODE_RE = re.compile(r"^_?OP_[A-Z0-9_]+$")

#: Assignment targets treated as dense opcode dispatch tables: a tuple or
#: list bound to one of these names consumes opcode *values* ``0..len-1``.
_TABLE_NAMES = ("_dispatch", "on_message_table", "dispatch_table")


def _opcode_name(node: ast.AST) -> Optional[str]:
    """The opcode identifier a Name/Attribute reference resolves to."""
    if isinstance(node, ast.Name) and _OPCODE_RE.match(node.id):
        return node.id
    if isinstance(node, ast.Attribute) and _OPCODE_RE.match(node.attr):
        return node.attr
    return None


@dataclass
class FlowSummary:
    """Message-flow facts extracted from one file."""

    path: str
    module: str
    #: opcode name -> (value, line, col) of its constant definition.
    defs: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    #: (opcode name, line, col) per message-tuple construction.
    emits: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Opcode names consumed by comparisons / subscripts / opcode sets.
    handles: Set[str] = field(default_factory=set)
    #: Lengths of dense dispatch tables: values 0..len-1 are consumed,
    #: scoped to the opcode names visible in this module.
    table_lengths: List[int] = field(default_factory=list)
    #: Opcode names imported into this module (``from m import OP_X``).
    imported: Set[str] = field(default_factory=set)


class _FlowCollector(ast.NodeVisitor):
    def __init__(self, summary: FlowSummary) -> None:
        self.summary = summary

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            name = alias.asname or alias.name
            if _OPCODE_RE.match(name):
                self.summary.imported.add(name)
        self.generic_visit(node)

    # -- definitions and dispatch tables -------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._assignment([node.target], node.value)
        self.generic_visit(node)

    def _assignment(self, targets: List[ast.AST], value: ast.AST) -> None:
        for target in targets:
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is None:
                continue
            if (
                _OPCODE_RE.match(name)
                and isinstance(value, ast.Constant)
                and type(value.value) is int
            ):
                self.summary.defs.setdefault(
                    name, (value.value, target.lineno, target.col_offset)
                )
            elif name in _TABLE_NAMES and isinstance(
                value, (ast.Tuple, ast.List)
            ):
                self.summary.table_lengths.append(len(value.elts))
            elif name in _TABLE_NAMES and isinstance(value, ast.Dict):
                for key in value.keys:
                    op = _opcode_name(key) if key is not None else None
                    if op is not None:
                        self.summary.handles.add(op)

    # -- consumption sites ---------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        for side in [node.left, *node.comparators]:
            op = _opcode_name(side)
            if op is not None:
                self.summary.handles.add(op)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        op = _opcode_name(node.slice)
        if op is not None:
            self.summary.handles.add(op)
        self.generic_visit(node)

    def visit_MatchValue(self, node: ast.MatchValue) -> None:
        op = _opcode_name(node.value)
        if op is not None:
            self.summary.handles.add(op)
        self.generic_visit(node)

    # -- emissions and opcode sets -------------------------------------
    def visit_Tuple(self, node: ast.Tuple) -> None:
        self._sequence(node)
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        self._sequence(node)
        self.generic_visit(node)

    def _sequence(self, node: ast.AST) -> None:
        elts = node.elts
        if not elts:
            return
        named = [_opcode_name(e) for e in elts]
        if len(elts) >= 2 and all(n is not None for n in named):
            # (OP_A, OP_B, ...): an opcode *set* for membership tests,
            # not a message (a real payload carries non-opcode fields).
            self.summary.handles.update(named)
            return
        if named[0] is not None:
            self.summary.emits.append(
                (named[0], node.lineno, node.col_offset)
            )


def collect_flow(tree: ast.AST, path: str, module: str) -> FlowSummary:
    """Extract one file's :class:`FlowSummary` from its parsed AST."""
    summary = FlowSummary(path=path, module=module)
    _FlowCollector(summary).visit(tree)
    return summary


def analyze_flow(summaries: List[FlowSummary]) -> List[Finding]:
    """Cross-module DET006 pass over the whole linted file set."""
    ordered = sorted(summaries, key=lambda s: s.path)
    defs: Dict[str, Tuple[int, str, int, int]] = {}
    handled: Set[str] = set()
    emitted: Set[str] = set()
    first_emit: Dict[str, Tuple[str, int, int]] = {}
    for summary in ordered:
        for name, (value, line, col) in summary.defs.items():
            defs.setdefault(name, (value, summary.path, line, col))
        handled.update(summary.handles)
        for name, line, col in summary.emits:
            emitted.add(name)
            site = (summary.path, line, col)
            if name not in first_emit or site < first_emit[name]:
                first_emit[name] = site
    # A table consumes the opcode names visible in its own module whose
    # values its slot range covers.
    for summary in ordered:
        if not summary.table_lengths:
            continue
        reach = max(summary.table_lengths)
        for name in set(summary.defs) | summary.imported:
            definition = defs.get(name)
            if definition is not None and definition[0] < reach:
                handled.add(name)

    findings: List[Finding] = []
    for name in sorted(emitted):
        if name in handled:
            continue
        path, line, col = first_emit[name]
        findings.append(Finding(
            path, line, col, "DET006",
            f"message opcode {name} is emitted here but no handler"
            " consumes it anywhere in the linted files (no dispatch-table"
            " slot, comparison, or opcode-set membership)",
        ))
    for name in sorted(defs):
        if name in emitted or name in handled:
            continue
        value, path, line, col = defs[name]
        findings.append(Finding(
            path, line, col, "DET006",
            f"message opcode {name} is defined but never emitted nor"
            " consumed anywhere in the linted files (dead message kind)",
        ))
    return findings
