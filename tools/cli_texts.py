"""Digest of the command line's help and error texts: one sha256 line.

    python3 tools/cli_texts.py --src src

Runs a fixed list of argvs in process through ``mulab.cli.main`` loaded
from ``--src``, with ``COLUMNS=80``, and prints the number of argvs and
one sha256 over every argv, exit code (or escaped exception), stdout and
stderr.  The list holds ``--help`` at the top level and for each
command, ``--he``, ``-h ubin``, an empty argv, an unknown command, each
command bare, with an unknown option and with a bad ``--seed``, a
command name as an option's value, ``--json`` after a command,
``--seed`` before ``corpus``, after it and on a flag command, ``--``
and extra arguments.  Two checkouts whose parsers print the same texts
print the same line under one Python, so a change to the parser can be
checked against its parent: run this once with ``--src`` pointing at
each checkout's ``src``.  argparse's texts differ between Python
versions, so compare lines from the same one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from pass_digest import load_main, run_argv

COMMANDS = ["ubin", "wwkl", "ivt", "dq", "weier", "fan", "normalize", "corpus"]
FLAG = "prefix=[1,1,1];tail=[0]"
ARGVS = [
    ["--help"], *([command, "--help"] for command in COMMANDS),
    ["--he"], ["-h", "ubin"], [], ["bogus"], ["--json"],
    *([command] for command in COMMANDS),
    *([command, "--bogus"] for command in COMMANDS),
    *([command, "--seed", "x"] for command in COMMANDS),
    ["--seed", "x", "ubin"], ["--seed", "fan", "ubin", "--flag", FLAG],
    ["dq", "--flag", FLAG, "--json"], ["--seed", "2", "corpus"],
    ["corpus", "--seed", "2", "--size", "3"],
    ["ubin", "--flag", FLAG, "--seed", "2"],
    ["--", "ubin"], ["--", "ubin", "--flag", FLAG],
    ["ubin", "--", "--flag", FLAG],
    ["ubin", "--flag", FLAG, "extra"], ["ubin", "--flag", FLAG, "fan"],
    ["corpus", "--size", "2", "extra"],
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the mulab package")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"
    main_fn = load_main(args.src.resolve())
    digest = hashlib.sha256()
    for cli_argv in ARGVS:
        record = run_argv(main_fn, tuple(cli_argv))
        digest.update(json.dumps(record).encode() + b"\n")
    print(f"cli texts: {len(ARGVS)} argvs sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
