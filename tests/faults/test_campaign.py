"""The chaos campaign: 100% detection, zero false positives, CLI exit."""

from repro.cli import main
from repro.faults.campaign import (
    CampaignReport,
    format_campaign,
    run_campaign,
)


class TestCampaign:
    def test_full_detection_and_clean_controls(self):
        report = run_campaign(seed=0, trials=1)
        assert report.cells, "campaign ran no cells"
        assert report.detection_rate == 1.0
        assert report.missed == []
        assert report.false_positives == []
        assert report.controls > 0
        assert report.ok

    def test_fault_subset_and_seeding(self):
        report = run_campaign(seed=5, trials=2,
                              faults=["rumor-loss", "step-budget"])
        pairs = {(cell.fault, cell.trial) for cell in report.cells}
        assert pairs == {
            ("rumor-loss", 0), ("rumor-loss", 1),
            ("step-budget", 0), ("step-budget", 1),
        }
        assert report.ok

    def test_forged_message_live_detected_in_model_matrix(self):
        report = run_campaign(seed=0, trials=1,
                              faults=["forged-message-live"])
        assert report.ok
        assert {c.kind for c in report.cells} == {"gossip", "consensus"}
        for cell in report.cells:
            assert cell.detected == "traffic-provenance"

    def test_report_formatting(self):
        report = run_campaign(seed=0, trials=1, faults=["foreign-rumor"])
        text = format_campaign(report)
        assert "foreign-rumor" in text
        assert "detection: " in text
        assert "false positive" in text

    def test_empty_report_is_ok(self):
        assert CampaignReport().ok
        assert CampaignReport().detection_rate == 1.0


class TestChaosCli:
    def test_chaos_exits_zero_on_full_detection(self, capsys):
        code = main(["chaos", "--seed", "0", "--trials", "1",
                     "--faults", "rumor-loss,delay-burst"])
        out = capsys.readouterr().out
        assert code == 0
        assert "detection:" in out and "100%" in out
