"""The byte-identity gate: tools/pass_digest.py prints one digest line per
benchmark workload, and the lines do not depend on the hash seed."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pass_digest_prints_one_stable_line_per_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_pass

    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "pass_digest.py"),
             "--src", str(ROOT / "src"), "--seed", "7"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    lines = outputs[0].splitlines()
    assert len(lines) == len(WORKLOADS)
    for name, line in zip(WORKLOADS, lines):
        m = re.fullmatch(rf"{re.escape(name)}: (\d+) ops sha256 [0-9a-f]{{64}}", line)
        assert m is not None, line
        assert int(m[1]) == len(make_pass(name, 7, 0))
    assert outputs[1] == outputs[0]
