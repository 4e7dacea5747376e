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
