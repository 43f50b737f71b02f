"""The benchmark's answers, not only its bytes: pass 0 at seed 7 of every
workload in ``perfbench/workloads.py`` runs in process through
``mulab.cli.main``, and each op's report passes that op's own check from
``perfbench/oracle.py``, which imports no mulab."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from mulab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("flags-shallow", "flags-deep", "fan", "normalize")


@pytest.mark.parametrize("workload", NAMES)
def test_every_pass_0_op_exits_0_with_the_oracle_s_answer(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS, make_pass

    assert WORKLOADS == NAMES
    ops = make_pass(workload, 7, 0)
    assert ops
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
        assert code == 0, op.argv
        op.check(json.loads(out.getvalue()))
