"""The parent -> change identity check of scripts/identity.py."""

import argparse
import importlib.util
import shutil
from pathlib import Path

import pytest

from tauspec import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_SPEC = importlib.util.spec_from_file_location("identity", ROOT / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

# Fast cases: one per verb family, two refusals that name a file, the help.
FAST = ["model-oscillator", "extract-order-4", "kk-spectrum-w1", "winding",
        "refused-model-float-field", "refused-extract-bad-cell-after-whitespace", "help"]


def test_same_tree_shows_no_difference(tmp_path):
    assert set(FAST) <= identity.CASES.keys()
    assert identity.compare(SRC, SRC, FAST, tmp_path) == []


def test_changed_message_is_one_difference(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "tauspec" / "cli.py"
    text = cli.read_text()
    assert "winding needs a pole-zero model" in text
    cli.write_text(text.replace("winding needs a pole-zero model", "winding needs poles"))
    lines = identity.compare(SRC, changed, ["refused-winding-kind"], tmp_path / "runs")
    assert lines == ["refused-winding-kind: stderr differs at line 1"]


def test_broken_run_is_never_expected(tmp_path):
    """A run that exits 1 fails the check even where --expect-diff names its case."""
    broken = tmp_path / "src"
    shutil.copytree(SRC, broken, ignore=shutil.ignore_patterns("__pycache__"))
    (broken / "tauspec" / "cli.py").write_text("raise ImportError('no cli')\n")
    lines = identity.compare(SRC, broken, ["usage-no-verb"], tmp_path / "runs")
    assert lines[0] == ("usage-no-verb: new run exited 1, "
                        "a traceback, never a tauspec exit code")
    assert [line for line in lines if identity.expected(line, ["usage-no-verb"])] == lines[1:]
    assert lines[1:] and all(line.startswith("usage-no-verb: ") for line in lines[1:])


def test_expected_difference_not_seen_fails(monkeypatch, capsys):
    """--expect-diff names exactly the cases that differ: one that does not
    is reported and fails the check."""
    monkeypatch.setattr(identity, "CASES", {"help": identity.CASES["help"]})
    assert identity.main([str(SRC), str(SRC), "--expect-diff", "help"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "help: expected a difference, none seen",
        "identity: 1 cases, 0 differences, 0 not expected",
    ]


def test_run_broken_on_both_sides_is_a_difference():
    crash = (1, b"", b"Traceback\n", {})
    lines = identity._differences("demo", crash, crash)
    assert [line.split(",")[0] for line in lines] == ["demo: old run exited 1",
                                                      "demo: new run exited 1"]
    assert not any(identity.expected(line, ["demo"]) for line in lines)


def test_help_and_usage_cases_cover_every_verb():
    verbs = next(action.choices for action in cli._build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert set(identity.VERBS) == verbs.keys()
    assert {f"help-{verb}" for verb in identity.VERBS} <= identity.CASES.keys()
    assert {"usage-no-verb", "usage-unknown-verb", "usage-bad-choice"} <= identity.CASES.keys()


def test_refused_cases_are_the_refusal_table():
    refused = {name.removeprefix("refused-") for name in identity.CASES
               if name.startswith("refused-")}
    assert refused == identity.refusals.CASES.keys()


def test_case_named_twice_is_an_error(monkeypatch):
    # A kind "oscillator-fine" names its case as the fine oscillator's.
    monkeypatch.setitem(identity.MODELS, "oscillator-fine", identity.MODELS["oscillator"])
    with pytest.raises(ValueError, match="^case named more than once: model-oscillator-fine$"):
        identity._cases()
