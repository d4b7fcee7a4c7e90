"""Unit tests for the reproduction-verdict engine."""

import pytest

from repro.bench import Verdict, run_verdicts, verdict_table
from repro.bench import verdicts as verdicts_module
from repro.bench.__main__ import main as bench_main
from repro.bench.verdicts import KNOWN_DEPARTURES, VERDICT_CHECKS


class TestVerdictEngine:
    def test_registry_covers_every_benchmarked_figure(self):
        sources = set(VERDICT_CHECKS)
        assert {"fig3-communities", "fig4-50k", "fig6-ordering",
                "fig7-layout-dominates", "fig8-frame-vs-cutoff",
                "cloud-stability"} <= sources

    def test_unknown_verdict_rejected(self):
        with pytest.raises(KeyError):
            run_verdicts(only=["fig99-imaginary"])

    def test_fig6_ordering_verdict(self):
        (v,) = run_verdicts(quick=True, only=["fig6-ordering"])
        assert isinstance(v, Verdict)
        assert v.source == "Figure 6 a/b"
        assert v.holds
        assert "deg" in v.evidence

    def test_fig6_client_dominated_verdict(self):
        (v,) = run_verdicts(quick=True, only=["fig6-client-dominated"])
        assert v.holds
        # The total sums a measured server time and the client DOM model.
        assert "measured" in v.evidence and "modeled client" in v.evidence

    def test_fig7_verdict(self):
        # With the dense Laplacian layout engine the layout is under 5x the
        # edge update: a listed departure, reported with both sums.
        (v,) = run_verdicts(quick=True, only=["fig7-layout-dominates"])
        assert "fig7-layout-dominates" in KNOWN_DEPARTURES
        assert "Σ edge-update" in v.evidence and "Σ layout" in v.evidence
        assert v.holds or v.departure == KNOWN_DEPARTURES["fig7-layout-dominates"]

    def test_fig8_verdict(self):
        (v,) = run_verdicts(quick=True, only=["fig8-frame-vs-cutoff"])
        assert v.holds
        assert v.evidence.startswith("modeled client DOM:")

    def test_fig3_verdict(self):
        (v,) = run_verdicts(quick=True, only=["fig3-communities"])
        assert v.holds
        assert "NMI" in v.evidence

    def test_cloud_verdict(self):
        (v,) = run_verdicts(quick=True, only=["cloud-stability"])
        assert v.holds
        assert v.evidence.startswith("simulated cloud")

    def test_table_rendering(self):
        verdicts = [
            Verdict("claim A", "Fig. 1", True, "42"),
            Verdict("claim B", "Fig. 2", False, "7"),
        ]
        text = verdict_table(verdicts)
        assert "PASS" in text and "FAIL" in text
        assert "claim A" in text


class TestKnownDepartures:
    @staticmethod
    def _failing(quick):
        return Verdict("claim X", "Fig. X", False, "measured 1")

    def _exit_code(self, monkeypatch, departures):
        monkeypatch.setattr(
            verdicts_module, "VERDICT_CHECKS", {"fig-x": self._failing}
        )
        monkeypatch.setattr(verdicts_module, "KNOWN_DEPARTURES", departures)
        return bench_main(["--verdicts", "--quick"])

    def test_unlisted_failing_verdict_exits_1(self, monkeypatch, capsys):
        assert self._exit_code(monkeypatch, {}) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_listed_departure_prints_fail_and_exits_0(self, monkeypatch, capsys):
        assert self._exit_code(monkeypatch, {"fig-x": "measured reason"}) == 0
        out = capsys.readouterr().out
        assert "FAIL*" in out and "measured reason" in out

    def test_passing_verdict_is_not_a_departure(self, monkeypatch):
        monkeypatch.setattr(
            verdicts_module,
            "VERDICT_CHECKS",
            {"fig-x": lambda quick: Verdict("claim X", "Fig. X", True, "ok")},
        )
        monkeypatch.setattr(verdicts_module, "KNOWN_DEPARTURES", {"fig-x": "why"})
        (v,) = run_verdicts(quick=True)
        assert v.holds and v.departure == "" and not v.blocking
