"""repro.check unit tests: exploration, reduction soundness checks,
trace round-trips, CLI exit codes, and the dispatch-table validation the
controlled engine performs at wiring time (DESIGN.md §13)."""

import json

import pytest

from repro.check import explore
from repro.check.cli import main as check_main
from repro.check.scheduler import ReplayMismatch
from repro.check.state import canon
from repro.check.trace import (
    canonical_bytes,
    load_trace,
    make_trace,
    replay,
    save_trace,
    trace_choices,
    trace_signature,
)
from repro.check.workloads import build_workload, expand_workloads
from repro.core.registration import ClusterView, RegistrationModule
from repro.net.async_runtime import AsyncRuntime, Process
from repro.net.delays import ConstantDelay
from repro.net.topology import path_graph


class TestExploration:
    def test_sync_cycle3_exhausts_clean(self):
        report = explore(build_workload("sync-bfs:cycle:3"))
        assert report.exhausted
        assert not report.truncated
        assert report.violation is None
        assert report.executions > 1
        assert report.states > report.executions  # decision points dominate

    def test_reg_star4_exhausts_clean(self):
        report = explore(build_workload("reg:star:4"))
        assert report.exhausted
        assert report.violation is None

    def test_churn_crash_cell_clean_under_budget(self):
        report = explore(build_workload("churn:cycle:5:crash:1"), budget=60)
        assert report.violation is None
        assert report.executions == 60
        assert not report.exhausted  # budget cut, honestly reported

    def test_rejoin_cell_clean_under_budget(self):
        """The crash+rejoin cell stays clean over a bounded prefix of its
        schedule space — the default first execution already walks crash
        → detect batch → rejoin → alive batch, and backtracking reverses
        the rejoin across the detects (the D1–D3 race of DESIGN.md §15)."""
        report = explore(build_workload("rejoin:cycle:4:crash:1"), budget=80)
        assert report.violation is None
        assert report.executions == 80
        # Rejoin steps genuinely appear in the explored prefix: races on
        # the rejoin action were found and scheduled.
        assert report.races > 0

    def test_rejoin_cell_deterministic(self):
        a = explore(build_workload("rejoin:cycle:4:crash:2"), budget=40)
        b = explore(build_workload("rejoin:cycle:4:crash:2"), budget=40)
        assert (a.executions, a.states, a.races, a.steps_total,
                a.max_depth, a.violation) == (
            b.executions, b.states, b.races, b.steps_total,
            b.max_depth, b.violation)

    def test_budget_zero_like_minimal(self):
        report = explore(build_workload("reg:star:3"), budget=1)
        assert report.executions == 1
        assert report.violation is None

    def test_deterministic_reports(self):
        """Two independent explorations are field-for-field identical —
        the property every replayable-trace claim rests on."""
        a = explore(build_workload("reg:star:3:crash:1"))
        b = explore(build_workload("reg:star:3:crash:1"))
        assert (a.executions, a.states, a.races, a.steps_total,
                a.max_depth, a.violation) == (
            b.executions, b.states, b.races, b.steps_total,
            b.max_depth, b.violation)
        assert a.exhausted and b.exhausted

    def test_dpor_agrees_with_full_baseline(self):
        """DPOR + sleep sets vs backtrack-everything on the same cells:
        both must exhaust with zero violations, and DPOR must actually
        reduce (fewer executions than the baseline)."""
        for spec in ("reg:star:3", "reg:star:3:crash:1"):
            reduced = explore(build_workload(spec))
            full = explore(build_workload(spec), full=True)
            assert reduced.exhausted and full.exhausted
            assert reduced.violation is None and full.violation is None
            assert reduced.executions < full.executions


#: (spec, budget, (executions, states, pruned_executions, sleep_pruned,
#: races, max_depth, steps_total)) — the explored schedule space pinned
#: exactly.  Any change to the offered bag, the synthetic actions, the
#: fingerprint's state classes or the step accounting moves at least one
#: of these counts.
SCHEDULE_SPACE_PINS = (
    ("sync-bfs:cycle:3", None, (224, 619, 38, 279, 302, 38, 13378)),
    ("reg:star:4:crash:1", None, (190, 507, 114, 377, 279, 26, 5707)),
    ("rejoin:cycle:4:crash:1", 100, (100, 319, 3, 137, 297, 88, 15314)),
    ("churn:cycle:5:crash:2", 100, (100, 373, 41, 214, 393, 112, 20918)),
)


class TestScheduleSpacePins:
    @pytest.mark.parametrize(
        "spec,budget,expected", SCHEDULE_SPACE_PINS,
        ids=[pin[0] for pin in SCHEDULE_SPACE_PINS],
    )
    def test_explored_space_is_pinned(self, spec, budget, expected):
        report = explore(build_workload(spec), budget=budget)
        assert report.violation is None
        assert report.exhausted == (budget is None)
        assert (report.executions, report.states, report.pruned_executions,
                report.sleep_pruned, report.races, report.max_depth,
                report.steps_total) == expected


class TestProbes:
    def test_message_count_probe_fires_on_wrong_reference(self):
        """Every fault-free interleaving sends the uncontrolled run's
        messages; a reference one off is caught on the first execution."""
        workload = build_workload("sync-bfs:cycle:3")
        assert workload.reference_messages() == 38
        workload.reference_messages = lambda: 37
        report = explore(workload, budget=1)
        assert report.violation == (
            "message-count", "sent 38 messages, the uncontrolled run sent 37"
        )

    def test_retired_stage_leaves_no_fingerprint(self):
        """A finished register/deregister cycle leaves a registration
        module indistinguishable from a fresh one, so the state dedup
        merges the two."""
        def module():
            return RegistrationModule(
                node_id=0,
                clusters={0: ClusterView(0, parent=None, children=())},
                on_registered=lambda *a: None,
                on_go_ahead=lambda *a: None,
                priority_fn=lambda tag: (0,),
                links={},
                send_link=lambda *a: None,
            )

        used = module()
        used.register(0, 1)
        used.deregister(0, 1)
        assert canon(used, {}) == canon(module(), {})


class TestWorkloadSpecs:
    def test_crash_root_rejected(self):
        with pytest.raises(ValueError):
            build_workload("churn:cycle:5:crash:0")

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            build_workload("nonsense:cycle:4")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_workload("sync-bfs:torus:4")

    def test_rejoin_root_rejected(self):
        with pytest.raises(ValueError):
            build_workload("rejoin:cycle:5:crash:0")

    def test_rejoin_cell_wires_controller(self):
        cell = build_workload("rejoin:cycle:5:crash:2")
        assert cell.crashable == (2,)
        assert cell.rejoinable == (2,)
        churn = build_workload("churn:cycle:5:crash:2")
        assert churn.rejoinable == ()

    def test_matrix_expansion(self):
        cells = expand_workloads("churn:cycle:5")
        assert [c.name for c in cells] == [
            f"churn:cycle:5:crash:{v}" for v in (1, 2, 3, 4)
        ]
        rejoin = expand_workloads("rejoin:cycle:5")
        assert [c.name for c in rejoin] == [
            f"rejoin:cycle:5:crash:{v}" for v in (1, 2, 3, 4)
        ]
        assert all(c.rejoinable == c.crashable for c in rejoin)
        reg = expand_workloads("reg:star:4:crash")
        assert [c.name for c in reg] == [
            f"reg:star:4:crash:{v}" for v in (1, 2, 3)
        ]
        single = expand_workloads("sync-bfs:cycle:3")
        assert len(single) == 1


class TestTraces:
    VIOLATION = ("pulse-bound", "synthetic")

    def _trace(self):
        return make_trace(
            "sync-bfs:cycle:3", [("ev", 3), ("crash", 1)], self.VIOLATION
        )

    def test_canonical_bytes_stable(self):
        raw = canonical_bytes(self._trace())
        assert raw.endswith(b"\n")
        assert b" " not in raw.replace(b"synthetic", b"")
        # Key order is canonical: re-encoding a parsed copy is identical.
        assert canonical_bytes(json.loads(raw)) == raw

    def test_save_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        trace = self._trace()
        save_trace(trace, path)
        loaded = load_trace(path)
        assert trace_choices(loaded) == [("ev", 3), ("crash", 1)]
        assert trace_signature(loaded) == self.VIOLATION
        assert canonical_bytes(loaded) == canonical_bytes(trace)

    def test_version_check(self, tmp_path):
        path = str(tmp_path / "bad.json")
        trace = self._trace()
        trace["version"] = 99
        save_trace(trace, path)
        with pytest.raises(ValueError):
            load_trace(path)

    def test_replay_mismatch_on_stale_choice(self):
        trace = make_trace(
            "reg:star:3", [("ev", 999_999)], self.VIOLATION
        )
        with pytest.raises(ReplayMismatch):
            replay(trace)

    def test_replay_clean_prefix_reports_no_violation(self):
        outcome = replay(make_trace("reg:star:3", [], self.VIOLATION))
        assert outcome.violation is None


class TestCli:
    def test_explore_clean_exits_zero(self, capsys):
        assert check_main(["explore", "reg:star:3"]) == 0
        out = capsys.readouterr().out
        assert "exhausted" in out

    def test_bare_flags_imply_explore(self, capsys):
        assert check_main(["--budget", "5", "reg:star:3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["workload"] == "reg:star:3"
        assert payload["reports"][0]["executions"] == 5

    def test_states_reported(self, capsys):
        """The text line and ``--json`` both carry the convergence-dedup
        state count the explorer's report holds."""
        expected = explore(build_workload("reg:star:3")).states
        assert check_main(["explore", "reg:star:3"]) == 0
        assert f"{expected} states" in capsys.readouterr().out
        assert check_main(["explore", "reg:star:3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["states"] == expected

    def test_bad_spec_exits_two(self, capsys):
        assert check_main(["explore", "bogus:cell:1"]) == 2
        assert "repro.check" in capsys.readouterr().err

    def test_replay_missing_file_exits_two(self, capsys):
        assert check_main(["replay", "/nonexistent/trace.json"]) == 2
        capsys.readouterr()

    def test_replay_unreproduced_violation_exits_one(self, tmp_path, capsys):
        path = str(tmp_path / "fake.json")
        save_trace(
            make_trace("reg:star:3", [], ("pulse-bound", "fabricated")), path
        )
        assert check_main(["replay", path]) == 1
        assert "did NOT reproduce" in capsys.readouterr().err

    def test_list_exits_zero(self, capsys):
        assert check_main(["list"]) == 0
        assert "sync-bfs" in capsys.readouterr().out


class _Tabled(Process):
    """Opcode-dispatch process used to exercise the wiring-time table
    validation; never actually run."""

    NUM_OPCODES = 3

    def __init__(self, ctx):
        super().__init__(ctx)
        self.on_message_table = self._make_table()

    def on_message(self, sender, payload):  # pragma: no cover
        pass

    def _h(self, sender, payload):  # pragma: no cover
        pass

    def _make_table(self):
        return (self._h, self._h, self._h)


class TestTableValidation:
    def _build(self, cls):
        return AsyncRuntime(path_graph(2), cls, ConstantDelay(1.0))

    def test_correct_table_accepted(self):
        self._build(_Tabled)

    def test_short_table_rejected(self):
        class Short(_Tabled):
            def _make_table(self):
                return (self._h, self._h)

        with pytest.raises(ValueError, match="NUM_OPCODES"):
            self._build(Short)

    def test_gap_table_rejected(self):
        class Gap(_Tabled):
            def _make_table(self):
                return (self._h, None, self._h)

        with pytest.raises(ValueError, match="not callable"):
            self._build(Gap)
