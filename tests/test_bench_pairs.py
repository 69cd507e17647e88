"""The pair runner, ``tools/bench_pairs.py``: a tiny pair of HEAD against
itself runs both sides, records them, and leaves the checkout as it was;
its summary counts wins by each metric's direction."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def _git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("_bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tiny_pair_of_head_against_head(tmp_path):
    if shutil.which("git") is None or _git("rev-parse", "HEAD").returncode:
        pytest.skip("the pair runner needs a git checkout with a commit")
    status, worktrees = (_git("status", "--porcelain").stdout,
                         _git("worktree", "list").stdout)
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--base", "HEAD", "--workload",
         "train_r20_dense_f32", "--pairs", "1", "--seconds", "0.1",
         "--size", "tiny", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the base worktree is gone, and no run left a file git would see
    assert _git("status", "--porcelain").stdout == status
    assert _git("worktree", "list").stdout == worktrees
    records = json.loads((tmp_path / "BENCH_train_r20_dense_f32.json")
                         .read_text())
    assert len(records) == 1
    record = records[0]
    assert record["correct"] and record["pairs"] == 1
    assert record["base"] == _git("rev-parse", "HEAD").stdout.strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(record["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for summary in record["metrics"].values():
        assert len(summary["base"]) == len(summary["change"]) == 1
        assert summary["base_iqr"] == 0.0
    assert "change wins" in proc.stdout


def test_summary_counts_wins_by_direction():
    tool = _bench_pairs()

    def side(value):
        return {"metrics": {"t": {"value": value}, "r": {"value": value}}}

    pairs = [(side(b), side(c)) for b, c in ((10, 8), (10, 12), (11, 9),
                                             (12, 12), (13, 1))]
    summary = tool.summarize([{"name": "t", "unit": "ms", "better": "lower"},
                              {"name": "r", "unit": "1/s",
                               "better": "higher"}], pairs)
    assert summary["t"]["wins"] == 3 and summary["r"]["wins"] == 1
    assert summary["t"]["base_median"] == 11 and summary["t"]["change_median"] == 9
    assert summary["t"]["base_iqr"] == 2.0   # quartiles 10 and 12
