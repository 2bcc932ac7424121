"""``tools/run_outputs.py --compare`` sorts output files into byte-identical,
close, close to its row and different.

The tool is loaded by path, as the package does not ship it.
"""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "run_outputs.py"
# a row of states whose first passes near zero, while the largest is 6.5e-11
ROW = "{},6.5e-11,1.2e-11\n"
BEFORE = "-2.75560115556e-15"


@pytest.fixture
def tool(monkeypatch):
    # the tool pins the BLAS thread counts in os.environ as it loads
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(key, "1")
    spec = importlib.util.spec_from_file_location("run_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(tool, tmp_path, capsys, after, row=ROW):
    for side, value in (("a", BEFORE), ("b", after)):
        job = tmp_path / side / "verify-models-2" / "linear-free2-0"
        job.mkdir(parents=True)
        (job / "simulate.csv").write_text("x_1,x_2,x_3\n" + row.format(value))
    status = tool.compare(tmp_path / "a", tmp_path / "b")
    return status, capsys.readouterr().out.splitlines()


def test_a_component_near_zero_is_close_to_its_row(tool, tmp_path, capsys):
    # 5e-11 of itself, 2.2e-15 of the row's largest entry
    status, lines = compare(tool, tmp_path, capsys, "-2.75560115542e-15")
    assert status == 1
    assert lines[0] == ("close to its row verify-models-2/linear-free2-0/simulate.csv: "
                        "1 numbers, largest relative gap 5.08e-11, largest "
                        "row-relative gap 2.15e-15")
    assert lines[-1] == ("1 files: 0 byte-identical, 0 close (0 numbers, largest "
                         "relative gap 0), 1 close to their row (largest row-relative "
                         "gap 2.15e-15), 0 different")


def test_a_moved_component_is_different(tool, tmp_path, capsys):
    # moved by 2.5e-14, 3.8e-4 of the row's largest entry
    status, lines = compare(tool, tmp_path, capsys, "-2.75560115556e-14")
    assert status == 1
    assert lines == ["different verify-models-2/linear-free2-0/simulate.csv",
                     "1 files: 0 byte-identical, 0 close (0 numbers, largest relative "
                     "gap 0), 0 close to their row (largest row-relative gap 0), "
                     "1 different"]


def test_a_twelfth_digit_is_close(tool, tmp_path, capsys):
    # one unit in the 12th digit of a number that starts with 1 is exactly
    # 1e-11 of it
    status, lines = compare(tool, tmp_path, capsys, "-2.75560115557e-15")
    assert status == 0
    assert lines[0].startswith("close verify-models-2/linear-free2-0/simulate.csv: "
                               "1 numbers, largest relative gap 3.63e-12")
    assert tool.close_numbers("1.00000000000", "1.00000000001")[3]


def test_every_number_of_the_line_sets_its_row_scale(tool):
    # a time column of 20 makes the same move 1.2e-15 of the row
    count, worst, worst_row, own = tool.close_numbers(
        "20," + ROW.format(BEFORE), "20," + ROW.format("-2.75560115556e-14"))
    assert (count, own) == (1, False)
    assert worst == pytest.approx(0.9) and worst_row == pytest.approx(1.24e-15, rel=1e-2)
