"""Trial record CSV schema and round-trips."""

import csv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlearn.records import TrialRecord, config_hash, write_csv


def sample_record(abort_t=None, intervals=False):
    n = 5
    return TrialRecord(
        t=np.arange(n),
        theta_dist=np.linspace(1.0, 0.2, n),
        loss=np.linspace(3.0, 0.5, n),
        grad_norm=np.ones(n),
        abort_t=abort_t,
        interval_k=np.arange(n) if intervals else None,
    )


def test_csv_header_schema(tmp_path):
    path = tmp_path / "r.csv"
    sample_record().to_csv(str(path))
    first = path.read_text().splitlines()[0]
    assert first == "t,theta_dist,loss,grad_norm,aborted"


def test_csv_header_with_intervals(tmp_path):
    path = tmp_path / "r.csv"
    sample_record(intervals=True).to_csv(str(path))
    first = path.read_text().splitlines()[0]
    assert first == "t,theta_dist,loss,grad_norm,aborted,interval_k"


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "r.csv"
    rec = sample_record(abort_t=4)
    rec.to_csv(str(path))
    back = TrialRecord.from_csv(str(path))
    assert np.array_equal(back.t, rec.t)
    assert np.array_equal(back.theta_dist, rec.theta_dist)
    assert back.abort_t == 4 and back.aborted


def test_floats_roundtrip_exactly(tmp_path):
    rec = sample_record()
    rec.theta_dist[2] = 0.1 + 0.2  # not exactly representable in decimal
    path = tmp_path / "r.csv"
    rec.to_csv(str(path))
    back = TrialRecord.from_csv(str(path))
    assert back.theta_dist[2] == rec.theta_dist[2]


def test_write_csv_atomic_no_partial(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(str(path), ("a", "b"), [[1], [2.5]])
    assert path.read_text().splitlines() == ["a,b", "1,2.5"]
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_config_hash_stable_and_sensitive():
    a = config_hash({"x": 1, "y": "z"})
    b = config_hash({"y": "z", "x": 1})
    assert a == b
    assert config_hash({"x": 2, "y": "z"}) != a


def csv_writer_bytes(path, header, rows):
    """The oracle: csv.writer, each int cell written as str, each other
    number as the repr of a float, text as it is."""

    def cell(x):
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(x) for x in row])
    return path.read_bytes()


def test_column_writer_matches_csv_writer(tmp_path, monkeypatch):
    # The column-wise writer must give the bytes of csv.writer with
    # per-cell formatting, on special floats, ints, aborted rows and the
    # interval_k column, across blocks of rows; on text cells that need
    # quoting; and on a header alone.
    import dynlearn.records as records

    monkeypatch.setattr(records, "CSV_BLOCK_ROWS", 5)
    specials = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -5e-324, 1.7976931348623157e308,
                0.1 + 0.2, 1e16, 123456789.0, -2.5]
    n = len(specials)
    rec = TrialRecord(
        t=np.arange(n) * 1000,
        theta_dist=np.array(specials),
        loss=np.array(specials[::-1]),
        grad_norm=np.arange(n, dtype=float) / 3.0,
        abort_t=6000,
        interval_k=np.array([0, 1, 2, 3, 2**40, -7, 5, 6, 7, 8, 9, 10]),
    )
    expected, got = tmp_path / "rows.csv", tmp_path / "columns.csv"
    for record in (sample_record(), sample_record(abort_t=0), rec):
        record.to_csv(str(got))
        assert got.read_bytes() == csv_writer_bytes(expected, record.header(), zip(*record.columns()))
    lines = got.read_bytes().split(b"\r\n")
    assert lines[1] == b"0,nan,-2.5,0.0,0,0" and lines[7] == b"6000,-5e-324,1e-300,2.0,1,5"
    write_csv(str(got), ["a", "b"], [np.array([1, -2]), np.array([-0.0, np.nan])])
    assert got.read_bytes() == b"a,b\r\n1,-0.0\r\n-2,nan\r\n"
    rows = [["sgd", 0, 1, 0.25, "", -1], ["x, y", 12, 0, np.nan, 'say "hi"', 7],
            ["line\nbreak", np.int64(3), 0, -0.0, "cr\r", 2]]
    header = ["arm", "seed", "converged", "final_dist", "error", "abort_t"]
    write_csv(str(got), header, list(zip(*rows)))
    assert got.read_bytes() == csv_writer_bytes(expected, header, rows)
    assert got.read_bytes().startswith(b'arm,seed,converged,final_dist,error,abort_t\r\nsgd,0,1,0.25,,-1\r\n"x, y"')
    write_csv(str(got), header, [])
    assert got.read_bytes() == csv_writer_bytes(expected, header, []) == b",".join(
        h.encode() for h in header) + b"\r\n"


# Text cells (csv.writer writes a row of one empty cell as "", so rows
# here have two cells or more) and floats with the special values.
cells = st.one_of(
    st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "Z", "0", "é", "λ", "😀"])),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
)


def as_array(column):
    """A column of floats only or ints only as a numpy array (the writer's
    whole-column path); any other column as it is."""
    for kind, dtype in ((float, float), (int, np.int64)):
        if all(type(x) is kind for x in column):
            return np.array(column, dtype=dtype)
    return column


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(2, 4).flatmap(
    lambda width: st.lists(st.lists(cells, min_size=width, max_size=width), max_size=6)))
def test_write_csv_matches_csv_writer_on_any_cells(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("cells")
    header = [f"c{j}" for j in range(len(rows[0]) if rows else 2)]
    expected = csv_writer_bytes(path / "expected.csv", header, rows)
    write_csv(str(path / "got.csv"), header, list(zip(*rows)))
    assert (path / "got.csv").read_bytes() == expected
    write_csv(str(path / "got.csv"), header, [as_array(c) for c in zip(*rows)])
    assert (path / "got.csv").read_bytes() == expected
