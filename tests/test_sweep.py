"""Smoke test of tools/sweep.py at small widths: one row per width with
2^N leaves and as many body runs, and a slope line per functional."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROW = re.compile(r"(sum|max):(\d+) +(\d+) +(\d+) +\d+\.\d{6} +\d+\.\d{2}")


def test_sweep_counts_one_body_run_per_leaf_at_small_widths():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--widths", "1", "4"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [m.groups() for m in map(ROW.fullmatch, proc.stdout.splitlines()) if m]
    assert [(kind, int(n)) for kind, n, *_ in rows] == \
        [(kind, n) for kind in ("sum", "max") for n in range(1, 5)]
    for _, n, leaves, runs in rows:
        assert int(leaves) == int(runs) == 1 << int(n)
    slopes = re.findall(r"^(sum|max): log2 slope -?\d+\.\d{3}$", proc.stdout, re.M)
    assert slopes == ["sum", "max"]


def test_sweep_refuses_an_empty_range():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--widths", "5", "5"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "FIRST < LAST" in proc.stderr
