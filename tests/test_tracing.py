"""The benchmark tracer's hook targets: ``perfbench/tracing.py`` wraps
mulab names from outside, and a hooked name that moves or goes makes its
per-layer count read 0 with no other sign.  So, with every mulab module
loaded, the only targets ``Tracer.install`` may report missing are the
three coding functions deleted on purpose, and ``uninstall`` puts back
every module attribute, class attribute and function default.  It runs
in a subprocess, since ``install`` patches the modules it finds."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, pkgutil
import mulab
for info in pkgutil.iter_modules(mulab.__path__, "mulab."):
    importlib.import_module(info.name)
from tracing import Tracer

def snapshot():
    import sys
    got = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "mulab" and not name.startswith("mulab."):
            continue
        for key, value in vars(mod).items():
            got[(name, key)] = value
            defaults = getattr(value, "__defaults__", None)
            if defaults:
                got[(name, key, "__defaults__")] = defaults
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    got[(name, key, attr)] = member
                    defaults = getattr(member, "__defaults__", None)
                    if defaults:
                        got[(name, key, attr, "__defaults__")] = defaults
    return got

before = snapshot()
tracer = Tracer()
missing = tracer.install()
during = snapshot()
tracer.uninstall()
after = snapshot()
print(json.dumps({
    "missing": missing,
    "patched": sorted(".".join(k) for k in before if during.get(k) is not before[k]),
    "not_restored": sorted(".".join(k) for k in before.keys() | after.keys()
                           if after.get(k) is not before.get(k)),
}))
"""


def test_the_tracer_finds_every_hook_target_and_puts_everything_back():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])})
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert sorted(got["missing"]) == ["mulab.coding.rational_code",
                                      "mulab.coding.rational_decode",
                                      "mulab.coding.string_decode"]
    # the wrappers did go in, among them the two the normalize counts read
    assert "mulab.formulas.to_normal_form" in got["patched"]
    assert "mulab.formulas.RuleStep.__init__" in got["patched"]
    assert got["not_restored"] == []
