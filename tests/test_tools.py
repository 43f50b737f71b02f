"""The byte-identity gate: tools/pass_digest.py prints one digest line per
benchmark workload, the lines do not depend on the hash seed, and at seeds
7 and 41 they are the pinned digests."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# pass 0 at seeds 7 and 41 of every workload, report for report; a change
# meant to alter a report updates its line here and says why in CHANGES.md
PINNED_SEED_7 = """\
flags-shallow: 456 ops sha256 127fa0505b564eb44b3f645a370a7c9548c4ada5c930a304e57c3025875dcd3e
flags-deep: 160 ops sha256 39dd2d032b9ae0883a0b2ed000aec8044370882d1eeb7b22bb395ef1882eef38
fan: 112 ops sha256 535580795122bd4f10f06fe0e1e261f61ad5d9cf27a072b6f14a046d5e3f274d
normalize: 75 ops sha256 70bdbbdfc62d4b96b13732aba2c411ca99e648694327ff48f43d0cb5b1c3244f
"""

PINNED_SEED_41 = """\
flags-shallow: 456 ops sha256 216f1c3b0e49880fc97be5f4ad40ee2ae37fbca7c94bf2bdbbdae5675c566e93
flags-deep: 160 ops sha256 5a8a67d4c1339613f5c6fe873fdb7a9942f49315662a8e816c077602566faea6
fan: 112 ops sha256 045efa2ab37989c9fdc12e4b0082af81b44c4406ac7b5429b0dfe2aa8f5080ef
normalize: 75 ops sha256 7bc24649a0589030d4b4e735277529fe7e7bb6bb66d8e44ceb77a979e857a990
"""


def _digest(*argv: str, hash_seed: str = "0") -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pass_digest.py"),
         "--src", str(ROOT / "src"), *argv],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pass_digest_prints_one_stable_line_per_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, make_pass

    outputs = [_digest("--seed", "7", hash_seed=h) for h in ("0", "1")]
    lines = outputs[0].splitlines()
    assert len(lines) == len(WORKLOADS)
    for name, line in zip(WORKLOADS, lines):
        m = re.fullmatch(rf"{re.escape(name)}: (\d+) ops sha256 [0-9a-f]{{64}}", line)
        assert m is not None, line
        assert int(m[1]) == len(make_pass(name, 7, 0))
    assert outputs[1] == outputs[0]
    assert outputs[0] == PINNED_SEED_7


def test_pass_digest_at_seed_41_is_pinned():
    assert _digest("--seed", "41") == PINNED_SEED_41
