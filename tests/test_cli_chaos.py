"""``repro chaos`` end to end: every built-in plan through the CLI path."""

import json

import pytest

from repro import faultline, obs
from repro.cli import main
from repro.faultline import builtin_plans


@pytest.fixture(autouse=True)
def restore_state():
    was = obs.enabled()
    faultline.uninstall()
    yield
    faultline.uninstall()
    obs.set_enabled(was)


def _sessions(plan):
    # ci-smoke draws its gateway.frame and serve.admit triggers from
    # windows reaching hit 8-10 (frames, admitted sessions): only a
    # CI-sized soak is sure to reach them
    return 16 if plan == "ci-smoke" else 6


@pytest.mark.parametrize("plan", sorted(builtin_plans()))
def test_every_plan_passes_through_the_cli(plan, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main([
        "chaos", "--plan", plan, "--sessions", str(_sessions(plan)),
        "--report", str(out),
    ])
    printed = capsys.readouterr()
    assert code == 0, printed.out + printed.err
    assert "chaos: OK" in printed.out
    doc = json.loads(out.read_text())
    assert doc["plan"] == plan
    assert doc["topology"] == builtin_plans()[plan].topology
    assert doc["ok"] is True and doc["bit_identical"] is True
    assert doc["checks"] and all(doc["checks"].values())
    assert doc["faults"] and all(
        row["fired"] == row["times"] for row in doc["faults"]
    )


def test_a_soak_too_small_for_the_schedule_fails(tmp_path, capsys):
    """Unreached triggers are a failed audit, never a silent pass."""
    code = main(["chaos", "--plan", "ci-smoke", "--seed", "2007",
                 "--sessions", "6", "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "FAILED (all_faults_fired)" in capsys.readouterr().err
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["ok"] is False and doc["checks"]["all_faults_fired"] is False


def test_list_and_bad_arguments(capsys):
    assert main(["chaos", "--list"]) == 0
    listing = capsys.readouterr().out
    for name, plan in builtin_plans().items():
        assert name in listing and plan.topology in listing
    assert main(["chaos", "--plan", "no-such-plan"]) == 2
    assert main(["chaos", "--sessions", "0"]) == 2
    assert main(["chaos", "--wait", "0"]) == 2
