"""Golden campaign report: the bytes of one short serial campaign, pinned.

The campaign trains once and runs the no-PFM baseline, healthy PFM and
two attacked scenarios on 0.4 simulated days with telemetry traces.
``to_json()`` and ``summary()`` (wall times zeroed) are compared with the
committed files in ``golden/``, so any change to a report row, the
scenario names or attack tags, the predictor-quality block, the trace
paths or the layout shows up as a byte difference.

A deliberate change regenerates them with
``PYTHONPATH=src python tests/resilience/test_golden_campaign.py``
(run from the repository root).
"""

import os
import sys
from pathlib import Path

import pytest

from repro.resilience import CampaignConfig, PFMFaultScenario, run_campaign

GOLDEN = Path(__file__).with_name("golden")


def run_golden(workdir) -> tuple[bytes, bytes]:
    """The pinned campaign, run with ``workdir`` as the current directory."""
    previous = os.getcwd()
    os.chdir(workdir)  # the trace paths in the report are relative
    try:
        report = run_campaign(
            CampaignConfig(
                horizon=0.4 * 86_400.0,
                attack_mtbf=1_800.0,
                scenarios=[
                    PFMFaultScenario("monitoring-dropout", monitoring_dropout=True),
                    PFMFaultScenario(
                        "exceptions-and-actions",
                        predictor_exceptions=True,
                        action_failures=True,
                    ),
                ],
                telemetry_dir="telemetry",
            )
        )
    finally:
        os.chdir(previous)
    for result in [report.healthy, *report.attacked]:
        result.wall_seconds = 0.0
    return (report.to_json() + "\n").encode(), (report.summary() + "\n").encode()


@pytest.fixture(scope="module")
def golden_bytes(tmp_path_factory):
    return run_golden(tmp_path_factory.mktemp("campaign"))


class TestGoldenCampaign:
    def test_json_matches_golden(self, golden_bytes):
        assert golden_bytes[0] == (GOLDEN / "campaign.json").read_bytes()

    def test_summary_matches_golden(self, golden_bytes):
        assert golden_bytes[1] == (GOLDEN / "campaign_summary.txt").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        document, summary = run_golden(workdir)
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "campaign.json").write_bytes(document)
    (GOLDEN / "campaign_summary.txt").write_bytes(summary)
    sys.stdout.write(f"wrote {GOLDEN}/campaign.json and campaign_summary.txt\n")
