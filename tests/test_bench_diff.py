import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SCRIPT = ROOT / "scripts" / "bench_diff.py"


def bench_diff(*paths):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


def test_diffs_the_committed_bench_files():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    old = json.loads((ROOT / "BENCH_12.json").read_text())["end_to_end"]
    new = json.loads((ROOT / "BENCH_13.json").read_text())["end_to_end"]
    result = bench_diff(ROOT / "BENCH_12.json", ROOT / "BENCH_13.json")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    expected = [(w["name"], m["name"]) for w in benchmark["workloads"]
                for m in benchmark["end_to_end"]]
    assert [tuple(row[:2]) for row in rows] == expected
    for row in rows:
        a = old[row[0]]["metrics"][row[1]]["change"]["median"]
        b = new[row[0]]["metrics"][row[1]]["change"]["median"]
        assert float(row[2]) == float(f"{a:.4g}")
        assert float(row[4]) == float(f"{b:.4g}")
        assert row[6] == f"{(b - a) / a:+.1%}"


def test_lists_the_counts_that_moved(tmp_path):
    bench = json.loads((ROOT / "BENCH_19.json").read_text())
    factor = bench["trace"]["change"]["metrics"]["stokes_manufactured.fem2d.factor.calls"]
    old_value, factor["value"] = factor["value"], 7
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(bench))
    same = bench_diff(ROOT / "BENCH_19.json", ROOT / "BENCH_19.json")
    result = bench_diff(ROOT / "BENCH_19.json", moved)
    assert same.returncode == result.returncode == 0, result.stderr
    # the end-to-end rows stay as they are, then a blank line, a header and one row
    table = same.stdout.splitlines()
    lines = result.stdout.splitlines()
    assert lines[1:len(table)] == table[1:]
    tail = lines[len(table):]
    assert len(tail) == 3 and tail[0] == ""
    assert tail[2].split() == ["stokes_manufactured", "fem2d.factor.calls",
                               str(old_value), "->", "7"]


def drop_metric(end_to_end):
    del end_to_end["spectral_verify"]["metrics"]["setup_s"]
    return ["'setup_s'", "'spectral_verify'"]


def drop_workload(end_to_end):
    del end_to_end["nse_incompatible"]
    return ["'nse_incompatible'"]


@pytest.mark.parametrize("damage", [drop_metric, drop_workload])
def test_incomplete_file_exits_2(tmp_path, damage):
    bench = json.loads((ROOT / "BENCH_13.json").read_text())
    named = damage(bench["end_to_end"])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bench))
    result = bench_diff(ROOT / "BENCH_12.json", broken)
    assert result.returncode == 2
    assert result.stdout == ""
    assert all(name in result.stderr for name in named)


def pairs_row(bench, tmp_path, workload, metric):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(bench))
    result = bench_diff(path)
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[1:]]
    return next(row for row in rows if row[:2] == [workload, metric]), rows


def test_reads_the_pairs_of_one_file(tmp_path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = json.loads((ROOT / "BENCH_22.json").read_text())
    # BENCH_22 claimed spectral_verify run_s: 10 of 10 pairs, beyond the parent IQR
    row, rows = pairs_row(bench, tmp_path, "spectral_verify", "run_s")
    assert row[8:] == ["10/10", "resolved"]
    assert [tuple(r[:2]) for r in rows] == [(w["name"], m["name"])
                                            for w in benchmark["workloads"]
                                            for m in benchmark["end_to_end"]]
    for r in rows:
        entry = bench["end_to_end"][r[0]]["metrics"][r[1]]
        parent, change = entry["parent"], entry["change"]
        assert float(r[2]) == float(f"{parent['median']:.4g}")
        assert float(r[4]) == float(f"{change['median']:.4g}")
        assert float(r[6]) == float(f"{parent['q3'] - parent['q1']:.4g}")
        won = sum(c < p for p, c in zip(parent["runs"], change["runs"]))
        assert r[8] == f"{won}/{len(parent['runs'])}"


@pytest.mark.parametrize("change_runs, iqr, verdict", [
    ([9.0] * 9 + [11.0], 0.8, "resolved"),
    ([9.0] * 9 + [10.0], 0.8, "resolved"),  # a tie counts for neither side
    ([9.0] * 8 + [11.0] * 2, 0.8, "unresolved"),  # 8 of 10 pairs
    ([9.0] * 9 + [11.0], 1.0, "unresolved"),  # a median gap within the parent IQR
])
def test_gain_needs_nine_tenths_of_the_pairs_beyond_the_parent_iqr(
        tmp_path, change_runs, iqr, verdict):
    bench = json.loads((ROOT / "BENCH_22.json").read_text())
    bench["end_to_end"]["nse_incompatible"]["metrics"]["run_s"] = {
        "parent": {"median": 10.0, "q1": 10.0 - iqr / 2, "q3": 10.0 + iqr / 2,
                   "runs": [10.0] * 10},
        "change": {"median": 9.0, "q1": 9.0, "q3": 9.0, "runs": change_runs}}
    row, _ = pairs_row(bench, tmp_path, "nse_incompatible", "run_s")
    assert row[9] == verdict


def test_one_file_without_paired_runs_exits_2(tmp_path):
    bench = json.loads((ROOT / "BENCH_22.json").read_text())
    del bench["end_to_end"]["stokes_manufactured"]["metrics"]["peak_rss_mb"]["change"]["runs"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(bench))
    result = bench_diff(broken)
    assert result.returncode == 2 and result.stdout == ""
    assert "'peak_rss_mb'" in result.stderr and "'stokes_manufactured'" in result.stderr
