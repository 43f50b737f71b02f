"""Smoke tests of tools/sweep.py: at small widths, one row per width
with 2^N leaves and as many body runs, and a slope line per functional;
at small event indices, one row per route and m whose witness is m,
whose search bound is at least m and whose cells are those the route's
views recorded, and a slope line per route; at small
formula sizes, one row per family and k with the family's step count
and at least as many nodes summarized, and a slope line per family."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from mulab.extractors import (
    ubin_extraction,
    udq_extraction,
    uivt_extraction,
    uwwkl_extraction,
)
from mulab.functionals import TracedView
from mulab.sequences import PresentedSequence

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


EVENT_ROW = re.compile(
    r"(ubin|wwkl|ivt|dq) +(\d+) +(\d+) +(\d+|<2\^\d+|none) +(\d+) +(\d+) +\d+\.\d{6}")


def test_event_sweep_recovers_each_event_within_its_bound():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--events", "2", "16"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [m.groups() for m in map(EVENT_ROW.fullmatch, proc.stdout.splitlines())
            if m]
    assert [(route, int(m)) for route, m, *_ in rows] == \
        [(route, m) for route in ("ubin", "wwkl", "ivt", "dq")
         for m in (2, 4, 8, 16)]
    for route, m, witness, xi, bound, _ in rows:
        assert int(witness) == int(m) <= int(bound)
        assert (xi == "none") == (route == "dq")
    slopes = re.findall(r"^(\w+): log2 slope -?\d+\.\d{3}$", proc.stdout, re.M)
    assert slopes == ["ubin", "wwkl", "ivt", "dq"]
    # the width sweep runs only when asked for or when nothing else is
    assert "functional" not in proc.stdout


def test_event_sweep_counts_the_cells_the_views_recorded(monkeypatch):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--events", "3", "12"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [m.groups() for m in map(EVENT_ROW.fullmatch, proc.stdout.splitlines())
            if m]
    assert len(rows) == 12
    # in process, the views are the ones that hand cells to a trace.  A
    # run that crosses a budget reaches _record through _record_cells,
    # but no route run here comes near its budget
    record, record_cells = TracedView._record, TracedView._record_cells
    views = []

    def keep(view):
        if view not in views:
            views.append(view)

    monkeypatch.setattr(TracedView, "_record",
                        lambda view, i: keep(view) or record(view, i))
    monkeypatch.setattr(TracedView, "_record_cells",
                        lambda view, cells, size: keep(view) or
                        record_cells(view, cells, size))
    extractions = {"ubin": ubin_extraction, "wwkl": uwwkl_extraction,
                   "ivt": uivt_extraction}
    for route, m, *_, cells in rows:
        views.clear()
        m = int(m)
        if route == "dq":
            udq_extraction(PresentedSequence((0,) * m + (1,), (0,)))
        else:
            extractions[route](PresentedSequence((1,) * m + (0,), (1,)))
        assert int(cells) == len(set().union(*(view.trace for view in views)))
        assert (int(cells) == 0) == (route == "dq")


def test_event_sweep_refuses_a_grid_of_one_point():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--events", "5", "9"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "2 FIRST <= LAST" in proc.stderr


SIZE_ROW = re.compile(
    r"(pull|flip|herbrand|negation) +(\d+) +(\d+) +(\d+) +\d+\.\d{6} +\d+\.\d{2}")
STEPS = {"pull": lambda k: k * (k + 1) // 2, "flip": lambda k: k,
         "herbrand": lambda k: k + 2, "negation": lambda k: 2 * k}


def test_size_sweep_takes_each_familys_steps():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--sizes", "2", "16"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [m.groups() for m in map(SIZE_ROW.fullmatch, proc.stdout.splitlines())
            if m]
    assert [(family, int(k)) for family, k, *_ in rows] == \
        [(family, k) for family in STEPS for k in (2, 4, 8, 16)]
    for family, k, steps, summarized in rows:
        assert int(steps) == STEPS[family](int(k))
        # every step summarizes at least the node it builds
        assert int(summarized) >= int(steps)
    # R2 summarizes only the nodes above the body it substitutes into
    herbrand_16, = [int(summarized) for family, k, _, summarized in rows
                    if (family, k) == ("herbrand", "16")]
    assert herbrand_16 <= 259
    slopes = re.findall(r"^(\w+): log2 slope -?\d+\.\d{3}$", proc.stdout, re.M)
    assert slopes == list(STEPS)
    assert "functional" not in proc.stdout


@pytest.mark.parametrize("sizes", [("3", "8"), ("0", "8"), ("4", "7")])
def test_size_sweep_refuses_an_odd_or_short_grid(sizes):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--sizes", *sizes],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "even FIRST >= 2 and 2 FIRST <= LAST" in proc.stderr


def test_several_axes_run_in_table_order_in_one_process():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"),
         "--src", str(ROOT / "src"), "--sizes", "2", "4", "--events", "2", "4",
         "--widths", "1", "2"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    # per line, the series its row or slope line names, in print order
    seen = []
    for line in proc.stdout.splitlines():
        match = (ROW.fullmatch(line) or EVENT_ROW.fullmatch(line)
                 or SIZE_ROW.fullmatch(line)
                 or re.fullmatch(r"(\w+): log2 slope -?\d+\.\d{3}", line))
        if match:
            seen.append(match.group(1))
    widths = [kind for kind in ("sum", "max") for _ in range(3)]
    events = [route for route in ("ubin", "wwkl", "ivt", "dq") for _ in range(3)]
    sizes = [family for family in STEPS for _ in range(3)]
    assert seen == widths + events + sizes
