"""The parent -> change identity check of scripts/identity.py."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
_SPEC = importlib.util.spec_from_file_location("identity", ROOT / "scripts" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

# Fast cases: one per verb family, two refusals that name a file.
FAST = ["model-oscillator", "extract-order-4", "kk-spectrum-w1", "winding",
        "refused-model-float-field", "refused-extract-bad-cell-after-whitespace"]


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


def test_refused_cases_are_the_refusal_table():
    refused = {name.removeprefix("refused-") for name in identity.CASES
               if name.startswith("refused-")}
    assert refused == identity.refusals.CASES.keys()


def test_case_named_twice_is_an_error(monkeypatch):
    # A kind "oscillator-fine" names its case as the fine oscillator's.
    monkeypatch.setitem(identity.MODELS, "oscillator-fine", identity.MODELS["oscillator"])
    with pytest.raises(ValueError, match="^case named more than once: model-oscillator-fine$"):
        identity._cases()
