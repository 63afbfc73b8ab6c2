"""tools/bench_pairs.py: the summary of canned parent/change run results."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 1.0},
]


def result(wall, rss, rate, failed=1, correct=True):
    metrics = {"wall_s": wall, "peak_rss_mb": rss, "rate": rate}
    return {"correct": correct, "attempted": 7, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def test_medians_wins_and_verdicts():
    pairs = [(result(1.0 + 0.01 * k, 30.0, 10.0), result(0.9 + 0.01 * k, 30.2, 12.0 - k))
             for k in range(10)]
    pairs[3] = (pairs[3][0], result(2.0, 30.2, 12.0, failed=0, correct=False))
    summary = bench_pairs.summarize(pairs, END_TO_END)
    rows = {r["name"]: r for r in summary["metrics"]}

    wall = rows["wall_s"]
    assert wall["parent_median"] == pytest.approx(1.045)
    assert wall["change_median"] == pytest.approx(0.955)
    assert wall["won"] == 9 and wall["verdict"] == "no regression"

    rss = rows["peak_rss_mb"]
    assert rss["won"] == 0 and rss["verdict"] == "worse"   # +0.2 MiB > 0.1

    rate = rows["rate"]   # higher is better: the change wins while above 10
    assert rate["won"] == 3 and rate["change_median"] == pytest.approx(7.5)
    assert rate["verdict"] == "worse"

    assert summary["attempted"] == [70, 70]
    assert summary["failed"] == [10, 9]
    assert summary["all_correct"] is False
    text = bench_pairs.report(summary)
    assert "change won 9 of 10; bound 0.25: no regression" in text
    assert "operations: parent 10 of 70 failed, change 9 of 70 failed" in text
    assert text.endswith("every run correct: false")


def test_wide_parent_spread_is_unresolved():
    pairs = [(result(wall, 30.0, 10.0), result(wall + 0.05, 30.0, 10.0))
             for wall in (1.0, 1.2, 1.5, 1.8, 2.0)]
    rows = {r["name"]: r for r in bench_pairs.summarize(pairs, END_TO_END)["metrics"]}
    assert rows["wall_s"]["parent_iqr"] == pytest.approx(0.6)
    assert rows["wall_s"]["verdict"] == "unresolved"
    assert rows["peak_rss_mb"]["verdict"] == "no regression"


def test_refuses_checkouts_whose_paths_differ_in_length(tmp_path, capsys):
    for name in ("a", "bb"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    assert bench_pairs.main([str(tmp_path / "a"), str(tmp_path / "bb"),
                             "--workload", "shoot"]) == 2
    assert "differ in length" in capsys.readouterr().err
