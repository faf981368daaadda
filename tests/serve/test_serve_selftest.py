"""``python -m repro.serve selftest``: scenario pin, the shared
command-line scaffold of :mod:`repro.common.drill`, subprocess smoke.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.serve.__main__ import CHECKS, main

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def test_scenarios_cover_the_service_claims():
    names = [name for name, _ in CHECKS]
    assert names == [
        "drain",
        "coalesce",
        "worker-kill",
        "hang-deadline",
        "store-io-error",
        "deadline-partial",
        "restart-resume",
        "overloaded",
    ]


def test_help_scenarios_lists_them(capsys):
    assert main(["selftest", "--help-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == [name for name, _ in CHECKS]


def test_unknown_scenario_exits_2(capsys):
    assert main(["selftest", "--only", "asteroid"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_no_subcommand_exits_2(capsys):
    # A bare ``python -m repro.serve`` boots the daemon, so the usage
    # error is probed with an unknown flag instead.
    with pytest.raises(SystemExit) as exc:
        main(["--frobnicate"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.faults(timeout=300)
def test_selftest_single_scenario_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", "selftest",
         "--only", "drain"],
        capture_output=True, text=True, timeout=280, env=env,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "drain... ok" in proc.stdout
    assert "1 scenario(s) passed" in proc.stdout
