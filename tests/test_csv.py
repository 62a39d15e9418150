import math

import numpy as np
import pytest

from biasbound._csv import Table, write


def test_header_rows_and_floats(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(" ,b0, b1\n\nt0, 0.25,0.25\n , \nt1,0.5,0\n")
    table = Table(path)
    assert table.header == ["", "b0", "b1"]
    assert table.rows == [["t0", "0.25", "0.25"], ["t1", "0.5", "0"]]
    got = table.floats(1)
    assert got.shape == (2, 2)
    assert np.array_equal(got, [[0.25, 0.25], [0.5, 0.0]])


def test_errors_name_the_line(tmp_path):
    path = tmp_path / "t.csv"
    for text, match in (("", "line 1: expected a header line"),
                        ("\nvalue\n1.0\n", "line 1: expected a header line"),
                        ("value\n\n \n", "no data rows"),
                        ("value,weight\n1.0,0.5\n\n2.0\n", "line 4: row has 1 cells"),
                        ("value\n1.0\n2.0,3.0\n",
                         "line 3: row has 2 cells, header has 1"),
                        ('value\n"1.0\n2.0",3\n', "line 3: row has 2 cells")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            Table(path)
    path.write_text("value\n1.0\n\nnot-a-number\n")
    table = Table(path)
    with pytest.raises(ValueError, match="line 4: non-numeric entry"):
        table.floats()


def test_nan_is_read_as_a_float(tmp_path):
    # which values are valid is the caller's decision
    path = tmp_path / "t.csv"
    path.write_text("value\nnan\ninf\n")
    assert np.isnan(Table(path).floats()[0, 0])


def test_read_failures_name_the_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("value\n" + "1" * (1 << 18) + "\n")  # over csv's field size limit
    with pytest.raises(ValueError, match="line 2"):
        Table(path)
    path.write_bytes(b"value\n\xff\n")
    with pytest.raises(ValueError, match=r"t.csv: .*codec can.t decode"):
        Table(path)


def test_write_cells():
    text = write(["label", "none", "pinf", "ninf", "nan", "np", "int"],
                 [["a,b", None, math.inf, -math.inf, math.nan, np.float64(0.1), 7]])
    assert text == 'label,none,pinf,ninf,nan,np,int\n"a,b",,nan,nan,nan,0.1,7\n'


def test_write_round_trips_through_table(tmp_path):
    values = [[0.1, 1 / 3, 5e-324], [-2.5e300, np.float64(2) ** -60, 1e16]]
    path = tmp_path / "t.csv"
    path.write_text(write(["", "x,y", "z", "w"], [["t0", *values[0]], ["t1", *values[1]]]))
    table = Table(path)
    assert table.header == ["", "x,y", "z", "w"]
    assert [row[0] for row in table.rows] == ["t0", "t1"]
    assert np.array_equal(table.floats(1), values)  # repr reads back exactly
