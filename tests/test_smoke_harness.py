"""The smoke harness's shared path (``benchmarks/smoke.py``).

The cases themselves are CI-sized runs; these tests pin what every case
shares: the three verdicts, the baseline gate, best-of-N timing, the
argument rules, the report, and that no gate is an ``assert`` that
``python -O`` would strip.
"""

import ast
import json
from pathlib import Path

import pytest

from benchmarks import smoke

BENCH = Path(smoke.REPO_ROOT) / "BENCH.json"


def test_gate_verdicts_are_printed_and_recorded(capsys):
    s = smoke.Smoke("compile", None, None, None)
    s.gate("floor", 2.5, ">=", 2.0)
    s.gate("floor", 1.2, ">=", 2.0)
    s.gate("parallel", 1.0, ">=", 2.0, unmeasured="1 usable core")
    s.gate("identity", ["fir"], "==", [])
    assert [g["verdict"] for g in s.gates] == [
        "pass", "fail", "unmeasured", "fail"]
    assert s.gates[2]["reason"] == "1 usable core"
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [
        "PASS", "FAIL", "UNMEASURED", "FAIL"]


def test_baseline_gate_needs_the_committed_section():
    def judge(committed):
        s = smoke.Smoke("dse", None, None, committed)
        s.against_baseline("sweep", "optimized_s", 7.0, "<=",
                           lambda base: base * 1.5)
        return s

    untouched = judge(None)
    assert untouched.gates == []
    assert untouched.report["baseline"] == {"optimized_s": 7.0}
    assert judge({"optimized_s": 4.0}).gates[0]["verdict"] == "fail"
    assert judge({"optimized_s": 5.0}).gates[0]["verdict"] == "pass"
    with pytest.raises(KeyError):
        judge({})


def test_best_of_keeps_the_minimum_of_the_phase_clock():
    clocks = iter([3.0, 1.0, 2.0])
    best, last = smoke.best_of(3, lambda arg: arg,
                               setup=lambda: next(clocks),
                               clock=lambda result: result)
    assert (best, last) == (1.0, 2.0)


def test_diverged_lists_differing_and_missing_keys():
    assert smoke.diverged({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 4}) == [
        "b", "c"]


def test_no_gate_is_an_assert():
    tree = ast.parse(Path(smoke.__file__).read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] \
        == []


@pytest.mark.parametrize("argv", [["stream", "--scenario", "enzyme"],
                                  ["scenario"]])
def test_scenario_flag_belongs_to_the_scenario_case(argv):
    with pytest.raises(SystemExit) as exc:
        smoke.main(argv)
    assert exc.value.code == 2


def test_committed_baseline_sections():
    bench = json.loads(BENCH.read_text())
    assert {case: sorted(section) for case, section in bench.items()} == {
        "compile": ["cold_sweep_s"],
        "dse": ["optimized_s"],
        "fleet": ["speedup"],
        "serve": ["coalesce_rate", "p99_ms"],
        "stream": ["iced_speedup"],
    }


def test_fleet_phases_are_fleet_report_stats():
    # The fleet case copies these keys out of a batched run's stats.
    from repro.fleet import FleetSim, synthesize_fleet
    from repro.streaming import gcn_app

    from tests.test_kernels import _FakePartition

    spec = synthesize_fleet(4, 2, inputs=20)
    report = FleetSim(spec, partitions={"gcn": _FakePartition(gcn_app())}
                      ).run()
    assert set(smoke.FLEET_PHASES) <= set(report["stats"])
    assert all(isinstance(report["stats"][key], float)
               for key in smoke.FLEET_PHASES)


def test_exact_case_writes_its_report(tmp_path):
    out = tmp_path / "exact.json"
    assert smoke.main(["exact", "--out", str(out),
                       "--baseline", str(BENCH)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert [g["verdict"] for g in report["gates"]] == ["pass", "pass"]
    assert sorted(report["kernels"]) == sorted(smoke.EXACT_KERNELS)
