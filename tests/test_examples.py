"""Smoke tests: every example script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, env=None) -> str:
    out = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=560,
        env=env,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "Modeled GPU time" in out
    assert "KNN results" in out


@pytest.mark.slow
def test_sph_fluid_runs():
    out = _run("sph_fluid.py")
    assert "total modeled neighbor-search time" in out


@pytest.mark.slow
def test_lidar_clustering_runs():
    out = _run("lidar_clustering.py")
    assert "clusters with >=" in out


@pytest.mark.slow
def test_galaxy_correlation_runs():
    out = _run("galaxy_correlation.py")
    assert "hierarchically clustered" in out
    # count_in_radius pair sums equal the k=4096 range-count sums the
    # example computed before it switched to aggregate counting
    assert "DD totals: [102828, 378534, 1528702, 6203578, 22667908]" in out
    assert "DR totals: [704, 6253, 52256, 428118, 3487954]" in out
