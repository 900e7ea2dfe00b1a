"""Fixture-driven tests for ``repro.lint`` (DESIGN.md §12).

Every rule DET001-DET005 is exercised in both directions — a fixture file
of true positives that must all be flagged, and a fixture of true
negatives (sorted wrapping, sanctioned modules, order-insensitive
consumers, complete resets) that must pass silently.  On top of the
fixtures: the real recycled class (`PulseApi`) is re-checked with a
deliberately-injected missing-reset field to prove
DET003 guards a class the tree actually recycles, the repo itself must lint
clean via the same entry point CI runs, and the ``--json`` output must be
byte-identical across runs (the linter's own determinism contract).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    apply_suppressions,
    check_file,
    check_module,
    discover_files,
    module_name_for,
    run,
    scan_directives,
)
from repro.lint.cli import main
from repro.lint.rules import RULES, UNSUPPRESSIBLE

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
SRC = ROOT / "src"


def lint_fixture(name):
    findings, used = check_file(str(FIXTURES / name))
    return findings, used


def lint_run(*paths):
    """Multi-file entry point — the one that includes the DET006 pass."""
    return run(list(paths))


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# rule catalog sanity
# ----------------------------------------------------------------------
def test_rule_catalog_complete():
    assert {"DET001", "DET002", "DET003", "DET004", "DET005"} <= set(RULES)
    assert set(UNSUPPRESSIBLE) <= set(RULES)


# ----------------------------------------------------------------------
# DET001 — set iteration order
# ----------------------------------------------------------------------
def test_det001_positive_fixture():
    findings, _ = lint_fixture("det001_positive.py")
    assert codes(findings) == ["DET001"] * 8
    flagged_lines = {f.line for f in findings}
    # for-loop, inferred name, annotated param, list(), enumerate(),
    # dict comp, set union, self attribute — one line each.
    assert flagged_lines == {8, 14, 19, 24, 25, 30, 34, 43}


def test_det001_negative_fixture():
    findings, used = lint_fixture("det001_negative.py")
    assert findings == []
    assert used == 1  # the justified demo suppression


def test_det001_does_not_apply_outside_protocol_packages(tmp_path):
    source = (
        "# det: module=repro.analysis.fixture\n"
        "def f(s: set):\n"
        "    for v in s:\n"
        "        print(v)\n"
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings, _ = check_file(str(path))
    assert findings == []


# ----------------------------------------------------------------------
# DET002 — unsanctioned entropy
# ----------------------------------------------------------------------
def test_det002_positive_fixture():
    findings, _ = lint_fixture("det002_positive.py")
    assert codes(findings) == ["DET002"] * 7


def test_det002_negative_fixture():
    findings, _ = lint_fixture("det002_negative.py")
    assert findings == []


def test_det002_sanctioned_module_passes():
    findings, _ = lint_fixture("det002_sanctioned.py")
    assert findings == []


# ----------------------------------------------------------------------
# DET003 — recycled-state reset completeness
# ----------------------------------------------------------------------
def test_det003_positive_fixture():
    findings, _ = lint_fixture("det003_positive.py")
    assert codes(findings) == ["DET003", "DET003"]
    messages = "\n".join(f.message for f in findings)
    assert "deferred_acks" in messages
    assert "missing" in messages


def test_det003_negative_fixture():
    findings, _ = lint_fixture("det003_negative.py")
    assert findings == []


def test_real_pooled_classes_are_reset_complete():
    """The recycled classes must stay clean — the shipped audit result."""
    findings, _ = check_file(str(SRC / "repro" / "net" / "program.py"))
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize(
    "module, anchor, classname",
    [
        (
            "repro.net.program",
            "        self._output: Any = None\n",
            "PulseApi",
        ),
    ],
    ids=["PulseApi"],
)
def test_det003_would_catch_field_added_to_real_pool(module, anchor, classname):
    """Inject the regression into the REAL source: a field added to
    ``__init__`` but not to ``reset()`` must fire DET003 on today's code."""
    path = SRC.joinpath(*module.split(".")).with_suffix(".py")
    source = path.read_text(encoding="utf-8")
    assert source.count(anchor) == 1
    broken = source.replace(anchor, anchor + "        self.sneaky_field = None\n")
    # Suppressions apply as on the real tree (PulseApi keeps its node
    # identity across resets under a justified DET003 suppression).
    findings = apply_suppressions(
        str(path), check_module(broken, str(path), module),
        scan_directives(broken),
    )
    det003 = [f for f in findings if f.code == "DET003"]
    assert len(det003) == 1
    assert "sneaky_field" in det003[0].message
    assert classname in det003[0].message


# ----------------------------------------------------------------------
# DET004 — __slots__ and dispatch-table integrity
# ----------------------------------------------------------------------
def test_det004_positive_fixture():
    findings, _ = lint_fixture("det004_positive.py")
    assert codes(findings) == ["DET004"] * 5
    messages = "\n".join(f.message for f in findings)
    assert "self.totl" in messages and "self.coutn" in messages
    assert "opcode gap" in messages
    assert "self._handle_missing" in messages
    assert "self._on_gone" in messages


def test_det004_negative_fixture():
    findings, _ = lint_fixture("det004_negative.py")
    assert findings == []


def test_det004_real_dispatch_tables_clean():
    for rel in ("core/synchronizer.py", "core/thresholded_bfs.py",
                "core/gate.py"):
        findings, _ = check_file(str(SRC / "repro" / rel))
        assert [f for f in findings if f.code == "DET004"] == []


# ----------------------------------------------------------------------
# DET005 — mutable defaults
# ----------------------------------------------------------------------
def test_det005_positive_fixture():
    findings, _ = lint_fixture("det005_positive.py")
    assert codes(findings) == ["DET005"] * 6


def test_det005_negative_fixture():
    findings, _ = lint_fixture("det005_negative.py")
    assert findings == []


# ----------------------------------------------------------------------
# DET006 — cross-module message flow
# ----------------------------------------------------------------------
def test_det006_positive_fixture():
    findings, _, _ = lint_run(str(FIXTURES / "det006_positive.py"))
    assert codes(findings) == ["DET006", "DET006"]
    messages = "\n".join(f.message for f in findings)
    assert "OP_LOST" in messages and "no handler consumes" in messages
    assert "OP_DEAD" in messages and "dead message kind" in messages


def test_det006_negative_fixture():
    findings, _, _ = lint_run(str(FIXTURES / "det006_negative.py"))
    assert findings == []


def test_det006_is_cross_module():
    """The emitter dangles alone; adding the handler file (whose dispatch
    table imports the opcode names) completes the flow."""
    emitter = str(FIXTURES / "det006_emitter.py")
    handler = str(FIXTURES / "det006_handler.py")
    alone, _, _ = lint_run(emitter)
    assert codes(alone) == ["DET006", "DET006"]
    paired, _, _ = lint_run(emitter, handler)
    assert paired == []


def test_det006_table_coverage_is_module_scoped():
    """A dispatch table only consumes opcodes visible in its own module —
    the positive fixture's danglers survive even when linted alongside
    fixtures that carry wide tables."""
    findings, _, _ = lint_run(str(FIXTURES))
    det006 = [f for f in findings if f.code == "DET006"]
    assert [os.path.basename(f.path) for f in det006] == (
        ["det006_positive.py"] * 2
    )


def test_det006_not_in_single_file_check():
    """check_file is the per-file API: cross-module flow needs the whole
    set and deliberately stays out of it."""
    findings, _ = check_file(str(FIXTURES / "det006_positive.py"))
    assert [f for f in findings if f.code == "DET006"] == []


def test_det006_suppression(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "OP_EXT = 7\n"
        "def send(to, p):\n"
        "    del to, p\n"
        "def go():\n"
        "    send(1, (OP_EXT, 'x'))  # det: ignore[DET006]"
        " -- consumed by the out-of-tree collector\n"
    )
    findings, _, used = lint_run(str(path))
    assert findings == []
    assert used == 1


def test_det006_real_tree_flows_complete():
    findings, _, _ = lint_run("src")
    assert [f for f in findings if f.code == "DET006"] == []


# ----------------------------------------------------------------------
# suppression hygiene
# ----------------------------------------------------------------------
def test_suppression_fixture():
    findings, used = lint_fixture("suppressions.py")
    assert used == 1  # only the justified directive counts
    got = sorted(codes(findings))
    assert got == ["DET001", "DET001", "LNT001", "LNT001", "LNT001", "LNT002"]


def test_unsuppressible_rules_reject_suppression(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# det: module=repro.core.fixture\n"
        "x = 1  # det: ignore[LNT002] -- trying to silence the police\n"
    )
    findings, used = check_file(str(path))
    assert codes(findings) == ["LNT001"]
    assert "cannot be suppressed" in findings[0].message
    assert used == 0


def test_unparseable_file_is_lnt003():
    findings, _ = lint_fixture("unparseable.py")
    assert codes(findings) == ["LNT003"]


# ----------------------------------------------------------------------
# discovery, module mapping, and output determinism
# ----------------------------------------------------------------------
def test_discovery_is_sorted_and_deduplicated():
    twice = discover_files([str(FIXTURES), str(FIXTURES / "det001_positive.py")])
    assert twice == sorted(twice)
    assert len(twice) == len(set(twice))
    assert all(p.endswith(".py") for p in twice)


def test_module_name_for_real_tree():
    assert (
        module_name_for(str(SRC / "repro" / "core" / "registration.py"))
        == "repro.core.registration"
    )
    assert module_name_for(str(SRC / "repro" / "lint" / "__init__.py")) == "repro.lint"
    assert module_name_for(str(FIXTURES / "det001_positive.py")) == "det001_positive"


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=str(ROOT), env=env, capture_output=True, text=True,
    )


def test_repo_lints_clean_via_module_entry_point():
    """The acceptance gate: ``python -m repro.lint src/`` exits 0."""
    proc = _run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_json_output_is_byte_stable():
    first = _run_cli("tests/fixtures/lint", "--json")
    second = _run_cli("tests/fixtures/lint", "--json")
    assert first.returncode == 1 and second.returncode == 1
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["version"] == 1
    keys = [
        (f["path"], f["line"], f["col"], f["code"], f["message"])
        for f in payload["findings"]
    ]
    assert keys == sorted(keys)
    assert payload["counts"]["DET001"] >= 8
    assert payload["suppressions_used"] == 2


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out


def test_cli_rule_subset(capsys):
    rc = main([str(FIXTURES / "det005_positive.py"), "--rules", "det001"])
    assert rc == 0  # DET005 findings filtered out
    rc = main([str(FIXTURES / "det005_positive.py"), "--rules", "DET005"])
    assert rc == 1
    capsys.readouterr()


def test_cli_unknown_rule_code(capsys):
    assert main(["src", "--rules", "DET042"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_missing_path(capsys):
    assert main(["no/such/dir"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# unused imports
# ----------------------------------------------------------------------
def _quoted_names(annotation):
    """Names inside the string parts of an annotation ("Dict[K, V]")."""
    names = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def unused_imports(source):
    """``(line, name)`` of every name ``source`` imports and never
    references — in code, or inside a quoted annotation."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _quoted_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns:
            used |= _quoted_names(node.returns)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from .x import Y as Z\n"
        "CACHE: \"Dict[int, Optional[int]]\" = {}\n"
        "def f(a: \"Z\") -> None:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(1, "List")]


#: The trees the CI lint job checks (``python -m repro.lint src benchmarks
#: examples perfbench``).
LINTED_TREES = ("src", "benchmarks", "examples", "perfbench")


def test_linted_trees_have_no_unused_imports():
    """Every name a module of the linted trees, or a test module, imports
    is referenced there (package ``__init__.py`` files re-export, so they
    are skipped; ``tests/fixtures/`` holds deliberate lint inputs, so only
    the top of ``tests`` is read)."""
    paths = [
        path
        for tree in LINTED_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
    ] + sorted((ROOT / "tests").glob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
