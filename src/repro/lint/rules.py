"""Rule catalog and finding records for the determinism linter.

Every rule is derived from a real hazard class in this codebase — each one
is a bug family the dynamic equivalence suites have had to catch (or defend
against) at runtime, lifted to a static check that runs at commit time:

* **DET001** — iteration over a ``set``/``frozenset`` value inside the
  protocol/transport packages.  Set iteration order is
  implementation-defined; when the iteration feeds message emission or any
  other ordered effect, the trace stops being a function of (graph, seed).
  The codebase-wide convention is ``sorted(...)`` at every such site (the
  Go-Ahead walk in ``registration._run_g`` is the canonical example).
* **DET002** — unseeded entropy or wall-clock reads outside the two
  sanctioned stream modules (``repro.net.delays`` / ``repro.net.faults``):
  ``random.*``, ``time.time``/``perf_counter``, ``id()``, and ``hash()`` of
  a non-int (str/bytes hashes are salted per process via PYTHONHASHSEED).
* **DET003** — pooled-state reset completeness: a class with a
  ``reuse()``/``reset()`` method must reset every attribute its
  ``__init__`` assigns.  A field added to ``__init__`` but not to the reset
  path silently leaks the previous occupant's state into the recycled
  object (today ``PulseApi.reset``, one api per node across pulses).
* **DET004** — ``__slots__`` classes assigning undeclared attributes
  (silently impossible at runtime, so the assignment *raises* mid-protocol),
  and opcode dispatch tables (``on_message_table``/``_dispatch``) that
  reference missing handler methods or leave ``None`` gaps in the opcode
  range the transport indexes unchecked.
* **DET005** — mutable default arguments: a shared ``[]``/``{}``/``set()``
  default on a handler or ``Process`` subclass aliases state across nodes
  and across sweep replays.
* **DET006** — dangling message flow: every ``(OP_*, ...)`` tuple a module
  emits must have a consumer *somewhere* in the linted tree (a dispatch
  table slot covering its value, a comparison, or an opcode-set
  membership test), and every defined opcode must participate in some
  flow.  Emitters and consumers routinely live in different modules, so
  this is the one cross-module pass (:mod:`repro.lint.flow`); it runs
  over the whole file set in ``run()``/the CLI, not in single-file
  ``check_file``.

Two hygiene rules keep the suppression mechanism honest (and are not
themselves suppressible):

* **LNT001** — a ``# det:`` directive that is malformed, names an unknown
  rule, or carries no ``-- justification`` (every suppression must say why
  the flagged site is deterministic anyway).
* **LNT002** — a suppression that matched no finding (stale after a fix,
  or never needed).

* **LNT003** — a file the linter cannot parse at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Packages whose modules are "protocol/transport" code: iteration order and
#: entropy there feed the pinned schedules, so DET001/DET002 apply.
PROTOCOL_PACKAGES: Tuple[str, ...] = ("repro.core", "repro.net", "repro.covers")

#: The only modules allowed to draw entropy: every random number in a run
#: must flow through the seeded delay/fault streams.
SANCTIONED_ENTROPY: Tuple[str, ...] = ("repro.net.delays", "repro.net.faults")


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    summary: str


RULES: Dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            "DET001",
            "set-iteration-order",
            "iteration over a set/frozenset value in protocol/transport code"
            " (wrap in sorted(...) or justify)",
        ),
        Rule(
            "DET002",
            "unseeded-entropy",
            "random.*/time.time/perf_counter/id()/hash(non-int) outside the"
            " sanctioned repro.net.delays / repro.net.faults streams",
        ),
        Rule(
            "DET003",
            "incomplete-pool-reset",
            "attribute assigned in __init__ but never reset in the class's"
            " reuse()/reset() method (pooled-slot state leak)",
        ),
        Rule(
            "DET004",
            "slots-and-dispatch-integrity",
            "__slots__ class assigning an undeclared attribute, or an opcode"
            " dispatch table with a missing handler / None gap",
        ),
        Rule(
            "DET005",
            "mutable-default-argument",
            "mutable default argument ([]/{}/set()/list()/dict()) shared"
            " across calls, nodes, and sweep replays",
        ),
        Rule(
            "DET006",
            "dangling-message-flow",
            "message opcode emitted with no consumer anywhere in the"
            " linted files, or defined but never emitted nor consumed"
            " (cross-module flow check)",
        ),
        Rule(
            "LNT001",
            "bad-suppression",
            "malformed '# det:' directive, unknown rule code, or suppression"
            " without a '-- justification'",
        ),
        Rule(
            "LNT002",
            "unused-suppression",
            "suppression directive that matched no finding on its line",
        ),
        Rule(
            "LNT003",
            "unparseable-file",
            "file could not be tokenized/parsed; nothing was checked",
        ),
    )
}

#: Rules the suppression mechanism itself must not silence.
UNSUPPRESSIBLE: Tuple[str, ...] = ("LNT001", "LNT002", "LNT003")


@dataclass(frozen=True)
class Finding:
    """One linter finding, totally ordered for byte-stable output."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.path, self.line, self.col, self.code, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def module_in(module: str, packages: Tuple[str, ...]) -> bool:
    """True iff ``module`` is one of ``packages`` or nested inside one."""
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )
