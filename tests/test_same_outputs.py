import importlib.util
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "same_outputs.py"


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def output_tree(root):
    """A tree laid out like the outputs of ``run_studies``."""
    files = {
        "case_ii_weighted/convergence.csv": "k,n0,alpha,norm,error,rate_pairwise\n",
        "case_ii_weighted/manifest.txt": "newton_iterations[reference] = min 2, mean 2.500, "
                                         "max 3\ntime[total] = 1.000s\n",
        "verify_seed23/verify_temporal.csv": "operator,slope,pairwise\n",
        "verify_seed23/verify_temporal.txt": "PASS interpolation\n",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_identical_trees_exit_0(tmp_path, same_outputs, capsys):
    old = output_tree(tmp_path / "old")
    new = shutil.copytree(old, tmp_path / "new")
    # manifest lines other than the Newton iteration counts are not compared
    (new / "case_ii_weighted/manifest.txt").write_text(
        "newton_iterations[reference] = min 2, mean 2.500, max 3\ntime[total] = 9.000s\n")
    assert same_outputs.compare(old, new) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.startswith("same ") for line in lines)


@pytest.mark.parametrize("name", ["case_ii_weighted/convergence.csv",
                                  "case_ii_weighted/manifest.txt",
                                  "verify_seed23/verify_temporal.txt"])
def test_one_changed_byte_exits_1(tmp_path, same_outputs, capsys, name):
    old = output_tree(tmp_path / "old")
    new = shutil.copytree(old, tmp_path / "new")
    data = bytearray((new / name).read_bytes())
    data[2] ^= 1
    (new / name).write_bytes(bytes(data))
    assert same_outputs.compare(old, new) == 1
    changed = [line for line in capsys.readouterr().out.splitlines()
               if not line.startswith("same ")]
    assert len(changed) == 1 and changed[0].startswith("DIFFERS") and name in changed[0]


def test_missing_output_exits_1(tmp_path, same_outputs, capsys):
    old = output_tree(tmp_path / "old")
    new = shutil.copytree(old, tmp_path / "new")
    (new / "verify_seed23/verify_temporal.csv").unlink()
    assert same_outputs.compare(old, new) == 1
    assert "missing  verify_seed23/verify_temporal.csv" in capsys.readouterr().out


def test_differing_csv_line_counts_cells_and_relative_difference(tmp_path, same_outputs,
                                                                   capsys):
    old = output_tree(tmp_path / "old")
    new = shutil.copytree(old, tmp_path / "new")
    name = "verify_seed23/verify_temporal.csv"
    (old / name).write_text("operator,slope,pairwise\ninterpolation,2.0,1.5\n")
    (new / name).write_text("operator,slope,pairwise\nInterpolation,2.0000000000000004,1.5\n")
    assert same_outputs.compare(old, new) == 1
    out = capsys.readouterr().out
    assert (f"DIFFERS  {name} (differing cells: 2, largest relative difference: 2.22e-16)"
            in out.splitlines())


@pytest.mark.parametrize("a, b, want", [
    ("x,1.0\n", "x,1.0\n", "differing cells: 0, largest relative difference: none numeric"),
    ("x,1.0\n", "x,1.5\n", "differing cells: 1, largest relative difference: 0.333"),
    ("x,1.0\ny,2.0\n", "x,1.0\ny,2.0,3.0\nz\n",
     "differing cells: 2, largest relative difference: none numeric"),
    ("x,0.0,nan\n", "x,-0.0,inf\n",
     "differing cells: 2, largest relative difference: 0"),
])
def test_csv_difference(same_outputs, a, b, want):
    assert same_outputs.csv_difference(a.encode(), b.encode()) == want
