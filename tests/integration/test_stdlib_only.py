"""The simulator and the campaign engine run on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = """
import sys
from repro.experiments import ScenarioConfig, chain_grid, run_campaign, run_chain

config = ScenarioConfig(sim_time=0.5, window=4)
run_chain(4, ["muzha"], config=config)
grid = chain_grid(["muzha", "newreno"], [2], config=config)
result = run_campaign(grid, replications=2, jobs=1, pool_mode="inproc")
assert result.complete and len(result.records) == 4
assert "numpy" not in sys.modules, "a production import pulled numpy in"
"""


def test_a_run_and_a_campaign_never_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
