from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(path: Path, capsys) -> str:
    runpy.run_path(str(path), run_name="__main__")
    return capsys.readouterr().out


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_to_completion(path, capsys):
    assert run_demo(path, capsys).strip()


def test_trees_demo_draws_the_thin_gate(capsys):
    out = run_demo(next(p for p in DEMOS if p.stem == "05_trees_and_measure"),
                   capsys)
    assert "tree        : flagtree:0:prefix=[1,1,1];tail=[0]" in out
    assert "  level 2: ##.#" in out
    assert "  level 3: ####...." in out


def test_normal_forms_demo_replays_its_trace_to_the_normal_form(capsys):
    out = run_demo(next(p for p in DEMOS if p.stem == "06_normal_forms"),
                   capsys)
    fields = {key.strip(): value for key, value in
              (line.split(" : ", 1) for line in out.splitlines() if " : " in line)}
    assert fields["replayed"] == fields["normal form"]
