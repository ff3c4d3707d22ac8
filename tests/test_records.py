"""Trial record CSV schema and round-trips."""

import csv
import tracemalloc

import numpy as np
import pytest
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


def oracle_from_csv(path):
    """The reference parse of a trial CSV: csv.DictReader, one dict of
    strings per row, each cell through int() or float(). t, aborted and
    interval_k are int64 and interval_k is read when the header has it,
    also with no rows."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)

    def column(name, kind):
        return np.array([kind(r[name]) for r in rows], dtype=np.int64 if kind is int else float)

    t, aborted = column("t", int), column("aborted", int)
    return TrialRecord(
        t=t,
        theta_dist=column("theta_dist", float),
        loss=column("loss", float),
        grad_norm=column("grad_norm", float),
        abort_t=int(t[aborted == 1][0]) if aborted.any() else None,
        interval_k=column("interval_k", int) if "interval_k" in reader.fieldnames else None,
    )


def assert_same_record(got, want):
    """got and want hold the same columns in dtype and in bits, and the same abort_t."""
    for name in ("t", "theta_dist", "loss", "grad_norm", "interval_k"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert got.abort_t == want.abort_t


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
                  1e300, -1e300, 1.7976931348623157e308, 0.1 + 0.2]


@st.composite
def records(draw):
    """Records of 0-3,100 rows (a block edge or any size), floats of every
    magnitude with special values placed among them, with and without
    interval_k, aborted or not."""
    n = draw(st.one_of(st.sampled_from([0, 1, 1023, 1024, 1025, 2049, 3100]), st.integers(0, 3100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def floats():
        column = rng.normal(size=n) * np.exp(rng.uniform(-700.0, 700.0, size=n))
        for i, x in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                            st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())),
                                  max_size=12 if n else 0)):
            column[i] = x
        return column

    t = np.sort(rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64, endpoint=True))
    aborted = n > 0 and draw(st.booleans())
    return TrialRecord(
        t=t, theta_dist=floats(), loss=floats(), grad_norm=floats(),
        abort_t=int(t[rng.integers(n)]) if aborted else None,
        interval_k=rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True) if draw(st.booleans()) else None,
    )


@settings(max_examples=40, deadline=None, database=None)
@given(records())
def test_from_csv_matches_dictreader_oracle(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("read") / "r.csv"
    record.to_csv(str(path))
    assert_same_record(TrialRecord.from_csv(str(path)), oracle_from_csv(path))


HEADER = "t,theta_dist,loss,grad_norm,aborted"
ROW = "0,1.0,2.0,3.0,0"
MALFORMED = [
    (HEADER + "\r\n" + ROW + "\r\n1,1.0,2.0\r\n", "data row 2 has 3 cells, the header 5"),
    (HEADER + "\r\n" + ROW + ",7\r\n", "data row 1 has 6 cells, the header 5"),
    (HEADER + "\r\n" + ROW + "\r\n\r\n" + ROW + "\r\n", "data row 2 has 0 cells, the header 5"),
    (HEADER + "\r\n" + "\r\n".join([ROW] * 1026 + ["1,2"]) + "\r\n", "data row 1027 has 2 cells"),
    ("t,theta_dist,loss,grad_norm\r\n0,1.0,2.0,3.0\r\n", "header 't,theta_dist,loss,grad_norm' is not"),
    (HEADER + ",extra\r\n" + ROW + ",1\r\n", "header 't,theta_dist,loss,grad_norm,aborted,extra' is not"),
    ("theta_dist,t,loss,grad_norm,aborted\r\n" + ROW + "\r\n", "header 'theta_dist,t,loss,grad_norm,aborted'"),
    ("", "header '' is not the trial header"),
    (HEADER + "\r\n0,abc,2.0,3.0,0\r\n", "data row 1, column theta_dist: could not convert string to float"),
    (HEADER + "\r\n" + ROW + "\r\n1.5,1.0,2.0,3.0,0\r\n", "data row 2, column t: invalid literal for int()"),
    (HEADER + "\r\n9223372036854775808,1.0,2.0,3.0,0\r\n", "data row 1, column t: "),
    (HEADER + "\r\n" + ROW + "\r\n1,1.0,2.0,3.0,2\r\n", "data row 2: aborted is 2, not 0 or 1"),
    (HEADER + "\r\n" + ROW + "\r\n" + "1" * 200_000 + ",1.0,2.0,3.0,0\r\n", "line 3: field larger than"),
]


@pytest.mark.parametrize("text, message", MALFORMED, ids=[
    "short-row", "long-row", "blank-row", "short-row-second-block", "missing-column", "unknown-column",
    "reordered-columns", "empty-file", "bad-float", "float-in-int-column", "int64-overflow", "aborted-2",
    "csv-field-limit"])
def test_malformed_trial_csv_raises_value_error(text, message, tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as err:
        TrialRecord.from_csv(str(path))
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)


@pytest.mark.parametrize("header", [HEADER, HEADER + ",interval_k"])
def test_header_only_csv_reads_typed_empty_columns(header, tmp_path):
    path = tmp_path / "r.csv"
    path.write_bytes(header.encode() + b"\r\n")
    record = TrialRecord.from_csv(str(path))
    assert record.t.dtype == np.int64 and record.theta_dist.dtype == np.float64 and len(record.t) == 0
    assert record.abort_t is None
    assert (record.interval_k is None) == (header == HEADER)
    if record.interval_k is not None:
        assert record.interval_k.dtype == np.int64 and len(record.interval_k) == 0
    assert_same_record(record, oracle_from_csv(path))


def test_reading_a_long_interval_csv_holds_columns_and_one_block(tmp_path):
    # 20,001 rows of six columns are 0.92 MiB at 8 bytes a cell; a dict of
    # strings per row (the oracle) peaks near 12.8 MiB.
    n = 20001
    rng = np.random.default_rng(3)
    record = TrialRecord(t=np.arange(n), theta_dist=rng.random(n), loss=rng.random(n) ** 2,
                         grad_norm=rng.random(n), abort_t=None, interval_k=np.arange(n))
    path = tmp_path / "r.csv"
    record.to_csv(str(path))
    tracemalloc.start()
    try:
        back = TrialRecord.from_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
    assert_same_record(back, oracle_from_csv(path))


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2049])
def test_write_csv_blocks_match_csv_writer(n, tmp_path):
    # One % template per block of rows writes the oracle's bytes at the
    # block edges, for every kind of cell: text that needs quoting, numpy
    # ints (an int64 array, and np.int64 cells in a list), Python and numpy
    # bools, floats with NaN, +-inf, -0.0, 1e16 and 5e-324 (a float array,
    # and Python floats in a list), and a list of mixed cells.
    texts = ["plain", "a,b", 'say "hi"', "line\nbreak", "cr\r", "", "é λ"]
    specials = [np.nan, np.inf, -np.inf, -0.0, 1e16, 5e-324, 0.1 + 0.2, -2.5, 123456789.0]
    floats = np.array([specials[i % len(specials)] for i in range(n)])
    mixed = [texts[1], np.int64(-3), 1e16, True, -0.0, 7, np.float64(5e-324)]
    columns = [
        [texts[i % len(texts)] for i in range(n)],
        np.arange(n, dtype=np.int64) * 9_000_000_000_000 - 2**62,
        [np.int64(i * 7) for i in range(n)],
        [bool(i % 3) for i in range(n)],
        np.arange(n) % 2 == 0,
        floats,
        floats[::-1].tolist(),
        [mixed[i % len(mixed)] for i in range(n)],
    ]
    header = [f"c{j}" for j in range(len(columns))] + ["a,b"]
    columns.append(np.arange(n, dtype=np.uint64))
    write_csv(str(tmp_path / "got.csv"), header, columns)
    want = csv_writer_bytes(tmp_path / "want.csv", header, zip(*columns))
    assert (tmp_path / "got.csv").read_bytes() == want
    assert want.count(b"\r\n") >= n + 1
