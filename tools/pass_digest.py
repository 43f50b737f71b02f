"""Digest of pass 0 of each benchmark workload: one sha256 per workload.

    python3 tools/pass_digest.py --src src --seed 7 --seed 41

Builds pass 0 of every workload in ``perfbench/workloads.py`` for each
seed, runs each op in process through ``mulab.cli.main`` loaded from
``--src``, and prints per workload the number of ops and one sha256 over
every op's argv, exit code (or escaped exception), stdout and stderr.
Two checkouts whose reports are byte-identical print the same lines, so
a change meant to keep every report can be checked against its parent:
run this once with ``--src`` pointing at each checkout's ``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_main(src: Path):
    sys.path.insert(0, str(src))
    import mulab.cli
    if src not in Path(mulab.cli.__file__).resolve().parents:
        raise ImportError(f"mulab.cli imported from {mulab.cli.__file__}, "
                          f"not from {src}")
    return mulab.cli.main


def _run(main, argv: tuple[str, ...]) -> list:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome = f"exit:{main(list(argv))}"
    except SystemExit as exc:
        outcome = f"exit:{exc.code}"
    except Exception as exc:  # an escaped exception is part of the report
        outcome = f"escaped:{type(exc).__name__}: {exc}"
    return [list(argv), outcome, out.getvalue(), err.getvalue()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the mulab package")
    parser.add_argument("--seed", type=int, action="append",
                        help="workload seed, repeatable (default: 7 and 41)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS, make_pass

    main_fn = _load_main(args.src.resolve())
    for workload in WORKLOADS:
        digest, ops = hashlib.sha256(), 0
        for seed in args.seed or [7, 41]:
            for op in make_pass(workload, seed, 0):
                record = _run(main_fn, op.argv)
                digest.update(json.dumps(record).encode() + b"\n")
                ops += 1
        print(f"{workload}: {ops} ops sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
