import csv
import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from districtor import dataio, geometry
from districtor.assignment import solve_balanced
from districtor.dataio import (
    EARTH_RADIUS_KM,
    DataError,
    SolveOutputs,
    project,
    read_blocks,
    write_outputs,
)
from districtor.lloyd import LloydConfig, run
from districtor.model import (
    BalancedAssignment,
    CenterSet,
    Instance,
    IterationRecord,
    ModelError,
    RunTrace,
    assignment_cost,
)
from tests.conftest import gaussian_instance, make_instance

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def haversine_km(lon1, lat1, lon2, lat2):
    """Great-circle distance; the independent reference for the projection."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def write_csv(path, rows, header="block_id,x,y,population"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""), encoding="utf-8")


class TestReadBlocks:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0.0,0.0,3", "b,1.5,2.0,4", "c,-1.0,0.25,0"])
        inst = read_blocks(p, k=2)
        assert inst.m == 7
        assert inst.n_blocks == 3
        assert inst.name == "blocks"
        assert inst.locations()[1].tolist() == [1.5, 2.0]

    def test_negative_population_names_row(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0,0,1", "b,1,1,-1"])
        with pytest.raises(DataError, match=r":3:.*negative"):
            read_blocks(p, k=1)

    def test_non_integer_population(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0,0,1.5"])
        with pytest.raises(DataError, match=r":2:.*not an integer"):
            read_blocks(p, k=1)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0,0,1", "a,1,1,1"])
        with pytest.raises(DataError, match="duplicate"):
            read_blocks(p, k=1)

    def test_non_finite_coordinate(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,nan,0,1"])
        with pytest.raises(DataError, match="non-finite"):
            read_blocks(p, k=1)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0,0,1"], header="id,x,y,pop")
        with pytest.raises(DataError, match="header"):
            read_blocks(p, k=1)

    def test_lonlat_header_required(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0,0,1"])
        with pytest.raises(DataError, match="header"):
            read_blocks(p, k=1, lonlat=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "blocks.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            read_blocks(p, k=1)

    def test_planar_input_passes_through(self, tmp_path):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,12.5,-3.25,2"])
        inst = read_blocks(p, k=1)
        assert inst.locations()[0].tolist() == [12.5, -3.25]

    @pytest.mark.parametrize("block_id", ['"a,b"', '"a""b"', '"a\nb"', '"a\rb"'])
    def test_id_the_result_files_cannot_hold(self, tmp_path, block_id):
        p = tmp_path / "blocks.csv"
        write_csv(p, ["a,0,0,1", f"{block_id},1,1,1"])
        with pytest.raises(DataError, match=r"blocks.csv:3: block_id .* holds a comma, quote"):
            read_blocks(p, k=1)

    def test_line_numbers_count_lines_not_records(self, tmp_path):
        # the quoted line break is part of a value float() accepts ("1\n")
        p = tmp_path / "blocks.csv"
        p.write_text('block_id,x,y,population\nb0,"1\n",2,3\nb1,1,2,x\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"blocks.csv:4: population 'x' is not an integer"):
            read_blocks(p, k=1)

    def test_bad_row_deep_in_a_large_file_names_its_line(self, tmp_path):
        rows = [f"b{i},{i * 0.5!r},{-i * 0.25!r},{i % 7}" for i in range(6_000)]
        p = tmp_path / "blocks.csv"
        write_csv(p, rows)
        inst = read_blocks(p, k=1)
        assert inst.ids == tuple(f"b{i}" for i in range(6_000))
        assert inst.populations().tolist() == [i % 7 for i in range(6_000)]
        rows[4_999] = "b4999,1.0,2.0,x"
        write_csv(p, rows)
        with pytest.raises(DataError, match=r"blocks.csv:5001: population 'x' is not an integer"):
            read_blocks(p, k=1)


def records_by_line(reader):
    """(line number, record) for each further record of a csv.reader, where
    the number is that of the line the record starts on."""
    while True:
        lineno = reader.line_num + 1
        row = next(reader, None)
        if row is None:
            return
        yield lineno, row


def reference_read_blocks(path, lonlat):
    """Row-by-row block reader: csv.reader plus float() and int(), with the
    documented rules and messages. The reference for read_blocks."""
    expected = ["block_id", *(("lon", "lat") if lonlat else ("x", "y")), "population"]
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if [h.strip() for h in header] != expected:
            raise DataError(
                f"{path}: expected header {','.join(expected)!r}, got {','.join(header)!r}"
            )
        seen = set()
        for lineno, row in records_by_line(reader):
            if not row:
                continue
            where = f"{path}:{lineno}"
            if len(row) != 4:
                raise DataError(f"{where}: expected 4 fields, got {len(row)}")
            block_id = row[0].strip()
            if not block_id:
                raise DataError(f"{where}: empty block_id")
            if set(block_id) & set(',"\r\n'):
                raise DataError(
                    f"{where}: block_id {block_id!r} holds a comma, quote or line break, "
                    "which the result files cannot hold"
                )
            if block_id in seen:
                raise DataError(f"{where}: duplicate block_id {block_id!r}")
            seen.add(block_id)
            try:
                cx, cy = float(row[1]), float(row[2])
            except ValueError:
                raise DataError(f"{where}: non-numeric coordinate") from None
            if not (math.isfinite(cx) and math.isfinite(cy)):
                raise DataError(f"{where}: non-finite coordinate")
            try:
                pop = int(row[3])
            except ValueError:
                raise DataError(f"{where}: population {row[3]!r} is not an integer") from None
            if pop < 0:
                raise DataError(f"{where}: population {pop} is negative")
            rows.append((block_id, cx, cy, pop))
    if not rows:
        raise DataError(f"{path}: no data rows")
    ids, xs, ys, pops = zip(*rows)
    if lonlat:
        bad = [i for i, lat in enumerate(ys) if abs(lat) >= 89.0]
        if bad:
            raise DataError(
                f"{path}: block {ids[bad[0]]!r}: latitude {ys[bad[0]]} out of range (|lat| < 89.0)"
            )
        xs, ys = project(xs, ys, sum(ys) / len(ys))
    return Instance(ids, np.column_stack((xs, ys)), pops, k=1, name=path.stem)


NUMBERS = ("1.5", " 2.25 ", "+5", "-0.0", "1e1", "12", "-3.75", "\t4.5\t")
POPULATIONS = ("0", "17", " 7 ", "+5", "007", "250", "\t9\t", str(2**63 - 1))
# read by float() and int(), rejected by np.loadtxt
EXOTIC_NUMBERS = ("1_0.5", "1_000.5", "\u0661\u0662.5")
EXOTIC_POPULATIONS = ("1_000", "\u0661\u0662", str(2**63))
DEFECTS = (
    ("id", ""), ("id", "dup"), ("id", '"a,b"'), ("id", '"a""b"'), ("id", "a\rb"),
    ("x", "nan"), ("y", "inf"), ("x", "abc"), ("y", ""), ("y", "89.5"),
    ("pop", "1e3"), ("pop", "-3"), ("pop", "x"), ("pop", "1.5"), ("pop", "9" * 19),
    ("pop", "9" * 25), ("row", "extra"), ("row", "short"), ("row", "   "),
    ("header", "wrong"), ("header", '"block_id"'), ("file", "empty"),
)


def block_file(lonlat, rows, defect, pick=lambda n: n // 2):
    """The lines of a block CSV: the header, then rows (lists of fields),
    with one defect applied, to row ``pick(n)`` for a row defect; no lines
    for the empty-file defect."""
    header = ["block_id", *(("lon", "lat") if lonlat else ("x", "y")), "population"]
    where, value = defect or (None, None)
    if where == "file":
        return []
    if where == "header":
        header[0] = value
    elif where is not None and rows:
        row = rows[pick(len(rows))]
        if where == "id":
            row[0] = rows[0][0].strip('" ') if value == "dup" else value
        elif where in ("x", "y", "pop"):
            row[("x", "y", "pop").index(where) + 1] = value
        elif value == "extra":
            row.append("5")
        elif value == "short":
            row.pop()
        else:
            row[:] = [value]
    return [",".join(header)] + [",".join(row) for row in rows]


@st.composite
def block_files(draw):
    """A block CSV, mostly well formed, in every shape the reader accepts,
    with at most one defect. About half the files are plain: LF line ends,
    no quotes and numbers that np.loadtxt parses. The others add what it
    reads differently from csv: quotes, a lone CR, CRLF, digit separators,
    Unicode digits and integers beyond 64 bits. Ids hold '#', tabs and NUL
    in both."""
    lonlat = draw(st.booleans())
    style = draw(st.sampled_from(["plain"] * 4 + ["quoted", "exotic", "crlf", "cr"]))
    exotic = style == "exotic"
    n = draw(st.integers(0, 40))
    number = st.one_of(
        st.sampled_from(NUMBERS + EXOTIC_NUMBERS * exotic), st.floats(-80.0, 80.0).map(repr)
    )
    population = st.sampled_from(POPULATIONS + EXOTIC_POPULATIONS * exotic)
    rows = []
    for i in range(n):
        forms = [f"b{i}", f" b{i} ", f"b {i}", f"#b{i}", f"\tb{i}\t", f"b\x00{i}"]
        forms += [f'"b{i}"', f'" b{i}"'] * (style == "quoted")
        rows.append([draw(st.sampled_from(forms)), draw(number), draw(number), draw(population)])
    defect = draw(st.sampled_from([None] * (len(DEFECTS) // 2) + list(DEFECTS)))
    lines = block_file(lonlat, rows, defect, lambda n: draw(st.integers(0, n - 1)))
    if lines and draw(st.booleans()):
        lines[0] = lines[0].replace("block_id", " block_id ", 1)
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = {"crlf": "\r\n", "cr": "\r"}.get(style, "\n")
    return lonlat, newline.join(lines) + (draw(st.sampled_from([newline, ""])) if lines else "")


def _outcome(read, path, lonlat):
    try:
        inst = read(path, lonlat)
    except (DataError, ModelError) as exc:
        return type(exc).__name__, str(exc)
    return inst.ids, inst.locations().tobytes(), inst.populations().tolist()


@settings(deadline=None, max_examples=300)
@given(case=block_files())
def test_columnar_reader_agrees_with_the_row_reference(tmp_path_factory, case):
    """Both readers give the same ids, location bytes and populations, or
    fail with the same message."""
    lonlat, text = case
    path = tmp_path_factory.getbasetemp() / "agree.csv"
    path.write_bytes(text.encode("utf-8"))
    got = _outcome(lambda p, ll: read_blocks(p, k=1, lonlat=ll), path, lonlat)
    assert got == _outcome(reference_read_blocks, path, lonlat)


@pytest.mark.parametrize("lonlat", [False, True], ids=["planar", "lonlat"])
@pytest.mark.parametrize("defect", DEFECTS, ids=[f"{w}:{v!r}" for w, v in DEFECTS])
def test_each_defect_of_a_plain_file_agrees_with_the_row_reference(tmp_path, defect, lonlat):
    """Every defect, in the middle row of a file that the loadtxt pass
    would read, fails as the reference does (or reads as it does)."""
    rows = [[f"b{i}", f"{i}.5", f"{i + 30}.25", str(i + 1)] for i in range(5)]
    lines = block_file(lonlat, rows, defect)
    path = tmp_path / "blocks.csv"
    path.write_text("\n".join(lines) + "\n" * bool(lines), encoding="utf-8")
    got = _outcome(lambda p, ll: read_blocks(p, k=1, lonlat=ll), path, lonlat)
    assert got == _outcome(reference_read_blocks, path, lonlat)


def reference_read_assignment(path):
    """Row-by-row assignment.csv reader: csv.reader plus int(), with the
    documented messages. The reference for read_assignment_columns."""
    ids, centers, persons = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = dataio.ASSIGNMENT_HEADER
        if header is None:
            raise DataError(f"{path}: empty file")
        if [h.strip() for h in header] != expected:
            raise DataError(
                f"{path}: expected header {','.join(expected)!r}, got {','.join(header)!r}"
            )
        for lineno, row in records_by_line(reader):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                center, person = int(row[1]), int(row[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row") from None
            ids.append(row[0])
            centers.append(center)
            persons.append(person)
    if any(not -(2**63) <= v < 2**63 for v in centers + persons):
        raise DataError(f"{path}: an integer field exceeds the 64-bit range")
    return ids, centers, persons


ASSIGNMENT_INTS = ("0", "3", " 7 ", "+5", "-2", "007", "\t9\t", str(2**63 - 1))
# read by int() or rejected by it, and rejected by np.loadtxt
EXOTIC_ASSIGNMENT_INTS = ("1_000", "\u0661\u0662", "1.5", "x", "", str(2**63), str(-(2**63) - 1))


@st.composite
def assignment_files(draw):
    """An assignment.csv in the shapes write_outputs writes and the row
    reader reads, with the hazards of ``block_files``: about half the files
    are plain, and a quoted id may appear in any of them."""
    style = draw(st.sampled_from(["plain"] * 4 + ["exotic", "crlf", "cr"]))
    ints = st.one_of(
        st.integers(0, 9).map(str),
        st.sampled_from(ASSIGNMENT_INTS + EXOTIC_ASSIGNMENT_INTS * (style == "exotic")),
    )
    rows = []
    for i in range(draw(st.integers(0, 30))):
        forms = [f"b{i}", f" b{i} ", f"#b{i}", f"b\x00{i}"] * 3 + [f'"b{i}"']
        block_id = draw(st.sampled_from(forms))
        rows.append([block_id, draw(ints), draw(ints)])
    if rows and draw(st.integers(0, 3)) == 0:  # one row with a field too many or too few
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    header = ",".join(dataio.ASSIGNMENT_HEADER)
    header = draw(
        st.sampled_from([header] * 6 + [f'"{header}"', '"block_id"' + header[8:], "id,c,p"])
    )
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = {"crlf": "\r\n", "cr": "\r"}.get(style, "\n")
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return "" if draw(st.integers(0, 30)) == 0 else text


@settings(deadline=None, max_examples=300)
@given(text=assignment_files())
def test_assignment_reader_agrees_with_the_row_reference(tmp_path_factory, text):
    """read_assignment_columns gives the reference's ids and integers, or
    fails with the same message."""
    path = tmp_path_factory.getbasetemp() / "assignment.csv"
    path.write_bytes(text.encode("utf-8"))

    def outcome(read):
        try:
            ids, centers, persons = read(path)
        except DataError as exc:
            return str(exc)
        return ids, np.asarray(centers).tolist(), np.asarray(persons).tolist()

    assert outcome(dataio.read_assignment_columns) == outcome(reference_read_assignment)


def test_files_of_a_run_take_the_loadtxt_path(tmp_path):
    """The blocks.csv and assignment.csv that write_outputs writes, and a
    lon/lat input in the benchmark generator's shape, are read without the
    row readers: a fallback would double the read time without a word."""
    sys.path.insert(0, PERFBENCH)
    try:
        import gen
    finally:
        sys.path.remove(PERFBENCH)
    inst, result, _, paths = small_run(tmp_path)
    lonlat = tmp_path / "lonlat.csv"
    pops = gen.write_blocks(lonlat, 3, 300, 9_000, lonlat=True)
    refuse = mock.Mock(side_effect=AssertionError("read row by row"))
    with mock.patch.object(dataio, "_read_block_rows", refuse), \
            mock.patch.object(dataio, "_read_csv_rows", refuse):
        assert read_blocks(paths["blocks"], k=inst.k).ids == inst.ids
        ids, centers, persons = dataio.read_assignment_columns(paths["assignment"])
        assert ids == [inst.ids[b] for b in result.assignment.block_indices]
        assert np.array_equal(centers, result.assignment.center_indices)
        assert np.array_equal(persons, result.assignment.persons)
        read = read_blocks(lonlat, k=3, lonlat=True)
        assert np.array_equal(read.populations(), pops)
    refuse.assert_not_called()


def test_loadtxt_assignment_columns_own_their_data(tmp_path):
    """The loadtxt path returned views into its structured array, so a
    caller that kept the center or persons column kept every id string of
    the file alive."""
    _, _, _, paths = small_run(tmp_path)
    refuse = mock.Mock(side_effect=AssertionError("read row by row"))
    with mock.patch.object(dataio, "_read_csv_rows", refuse):
        _, centers, persons = dataio.read_assignment_columns(paths["assignment"])
    for column in (centers, persons):
        assert column.dtype == np.int64
        assert column.base is None and column.flags.owndata


def test_assignment_columns_match_the_rows(tmp_path):
    p = tmp_path / "assignment.csv"
    p.write_text(
        "block_id,center_index,persons_assigned\na,0,3\n\nb, 1 ,+4\nb,2,1_0", encoding="utf-8"
    )
    ids, centers, persons = dataio.read_assignment_columns(p)
    assert ids == ["a", "b", "b"]
    assert centers.dtype == persons.dtype == np.int64
    assert (centers.tolist(), persons.tolist()) == ([0, 1, 2], [3, 4, 10])
    assert dataio.read_assignment_csv(p) == [("a", 0, 3), ("b", 1, 4), ("b", 2, 10)]
    p.write_text(p.read_text().replace("\n", "\r\n").replace("a,", '"a",'), encoding="utf-8")
    assert dataio.read_assignment_csv(p) == [("a", 0, 3), ("b", 1, 4), ("b", 2, 10)]
    p.write_text("block_id,center_index,persons_assigned\na,0,3\nb,x,1\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"assignment.csv:3: malformed row"):
        dataio.read_assignment_columns(p)


# Every CSV districtor reads, through its public reader, and the header
# small_run writes it with
CSV_READERS = {
    "blocks": (lambda p: read_blocks(p, k=3).ids, "block_id,x,y,population"),
    "assignment": (
        lambda p: dataio.read_assignment_columns(p)[0], "block_id,center_index,persons_assigned"
    ),
    "centers": (
        lambda p: dataio.read_centers_csv(p)[0].tolist(), "index,x,y,weight,capacity,population"
    ),
    "trace": (dataio.read_trace_csv, "iteration,cost,cost_scaled,max_displacement"),
}


@pytest.mark.parametrize("name", list(CSV_READERS))
def test_every_csv_takes_the_block_files_header_rule(tmp_path, name):
    """An empty file, a header padded with spaces and a wrong header read
    alike in every CSV. An empty result-set CSV used to fail with
    "unexpected header None", and a padded header was refused."""
    read, header = CSV_READERS[name]
    path = small_run(tmp_path)[3][name]
    text = path.read_text(encoding="utf-8")
    assert text.startswith(header + "\n")
    body = text[len(header):]
    plain = read(path)
    path.write_text(" " + " , ".join(header.split(",")) + " " + body, encoding="utf-8")
    assert read(path) == plain
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError) as empty:
        read(path)
    assert str(empty.value) == f"{path}: empty file"
    path.write_text("x,y" + body, encoding="utf-8")
    with pytest.raises(DataError) as wrong:
        read(path)
    assert str(wrong.value) == f"{path}: expected header {header!r}, got 'x,y'"


@pytest.mark.parametrize(
    "read, other, kind",
    [(dataio.read_summary_json, "[]", "object"), (dataio.read_cells_json, "{}", "array")],
    ids=["summary", "cells"],
)
def test_both_json_readers_name_the_file(tmp_path, read, other, kind):
    """Both readers name the file of invalid JSON, and of a top-level value
    of the wrong kind; a summary.json holding 5 used to exit 1 with "argument
    of type 'int' is not iterable"."""
    path = tmp_path / "file.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError) as invalid:
        read(path)
    assert str(invalid.value).startswith(f"{path}: invalid JSON: ")
    path.write_text(other, encoding="utf-8")
    with pytest.raises(DataError) as wrong:
        read(path)
    assert str(wrong.value) == f"{path}: expected a JSON {kind}"


class TestProjection:
    def test_one_degree_meridian_step(self):
        _, ya = project(0.0, 32.0, reference_parallel=32.5)
        _, yb = project(0.0, 33.0, reference_parallel=32.5)
        assert yb - ya == pytest.approx(111.195, abs=0.05)

    def test_longitude_scales_with_reference_cosine(self):
        lat0 = 40.0
        xa, _ = project(10.0, lat0, lat0)
        xb, _ = project(11.0, lat0, lat0)
        expected = EARTH_RADIUS_KM * math.radians(1.0) * math.cos(math.radians(lat0))
        assert xb - xa == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_latitude(self):
        with pytest.raises(DataError):
            project(0.0, 89.5, 0.0)

    def test_read_blocks_projects_each_row_exactly(self, tmp_path):
        rng = np.random.default_rng(7)
        lons = rng.uniform(-88.0, -84.0, size=40).tolist()
        lats = rng.uniform(31.5, 33.0, size=40).tolist()
        rows = [f"b{i},{lon!r},{lat!r},1" for i, (lon, lat) in enumerate(zip(lons, lats))]
        p = tmp_path / "blocks.csv"
        write_csv(p, rows, header="block_id,lon,lat,population")
        locs = read_blocks(p, k=1, lonlat=True).locations()
        lat0 = sum(lats) / len(lats)
        for i, (lon, lat) in enumerate(zip(lons, lats)):
            assert np.array_equal(locs[i], np.array(project(lon, lat, lat0)))

    def test_out_of_range_latitude_in_csv_names_block(self, tmp_path):
        p = tmp_path / "blocks.csv"
        header = "block_id,lon,lat,population"
        write_csv(p, ["a,-86.0,32.0,1", "polar,-86.0,89.5,1"], header=header)
        with pytest.raises(DataError, match=r"block 'polar'.*latitude 89.5 out of range"):
            read_blocks(p, k=1, lonlat=True)

    def test_distance_ratios_match_haversine_state_extent(self, tmp_path):
        # a state-sized box: 1.5 degrees of latitude, 4 degrees of longitude
        rng = np.random.default_rng(31)
        lons = rng.uniform(-88.0, -84.0, size=60)
        lats = rng.uniform(31.5, 33.0, size=60)
        rows = [
            f"b{i},{float(lon)!r},{float(lat)!r},1"
            for i, (lon, lat) in enumerate(zip(lons, lats))
        ]
        p = tmp_path / "blocks.csv"
        write_csv(p, rows, header="block_id,lon,lat,population")
        inst = read_blocks(p, k=1, lonlat=True)
        locs = inst.locations()
        checked = 0
        for i in range(0, 60, 3):
            for j in range(i + 1, 60, 7):
                truth = haversine_km(lons[i], lats[i], lons[j], lats[j])
                if truth < 5.0:
                    continue
                planar = float(np.hypot(*(locs[i] - locs[j])))
                assert planar / truth == pytest.approx(1.0, abs=0.01)
                checked += 1
        assert checked > 50


def small_run(tmp_path, seed=0, k=3):
    inst = gaussian_instance(seed=17, n=120, m=4000, k=k, clusters=3, name="mini")
    result = run(inst, LloydConfig(seed=seed))
    frame = geometry.default_frame(inst.locations())
    cells = geometry.compute_cells(result.centers, result.weights, frame)
    outputs = SolveOutputs(
        instance=inst,
        centers=result.centers,
        assignment=result.assignment,
        weights=np.asarray(result.weights),
        trace=result.trace,
        cells=cells,
        scale=1e9,
        threshold=1e-9,
        restarts=1,
        wall_time_seconds=0.25,
    )
    paths = write_outputs(tmp_path / "out", outputs)
    return inst, result, outputs, paths


class TestWriteOutputs:
    def test_blocks_roundtrip_exact(self, tmp_path):
        inst, _, _, paths = small_run(tmp_path)
        again = read_blocks(paths["blocks"], k=inst.k)
        assert again.m == inst.m
        assert again.ids == inst.ids
        # repr round-trips floats exactly
        assert np.array_equal(again.locations(), inst.locations())
        assert np.array_equal(again.populations(), inst.populations())

    def test_assignment_conservation_and_balance(self, tmp_path):
        inst, result, _, paths = small_run(tmp_path)
        rows = dataio.read_assignment_csv(paths["assignment"])
        total = sum(p for _, _, p in rows)
        assert total == inst.m
        per_center = {}
        for _, c, p in rows:
            per_center[c] = per_center.get(c, 0) + p
        for i, cap in enumerate(result.centers.capacities):
            assert per_center.get(i, 0) == int(cap)

    def test_split_blocks_emit_multiple_rows(self, tmp_path):
        inst = make_instance([(0.0, 0.0)], [3], k=2)
        centers = CenterSet(positions=[(-1.0, 0.0), (1.0, 0.0)], capacities=[1, 2])
        res = solve_balanced(inst, centers)
        frame = geometry.default_frame(inst.locations())
        cells = geometry.compute_cells(centers, res.weights, frame)
        outputs = SolveOutputs(
            instance=inst,
            centers=centers,
            assignment=res.assignment,
            weights=np.asarray(res.weights),
            trace=RunTrace(
                iterations=(IterationRecord(0, 0.0, res.flow_solution.objective, 0.0),),
                converged=True,
                seed=0,
            ),
            cells=cells,
            scale=1e9,
            threshold=1e-9,
            restarts=1,
            wall_time_seconds=0.0,
        )
        paths = write_outputs(tmp_path / "out", outputs)
        rows = dataio.read_assignment_csv(paths["assignment"])
        assert len(rows) == 2
        assert sum(p for _, _, p in rows) == 3
        assert {r[0] for r in rows} == {"b000000"}

    def test_cost_reproducible_from_assignment_csv(self, tmp_path):
        inst, result, _, paths = small_run(tmp_path)
        summary = dataio.read_summary_json(paths["summary"])
        again = read_blocks(paths["blocks"], k=inst.k)
        positions, weights, capacities, _ = dataio.read_centers_csv(paths["centers"])
        rows = dataio.read_assignment_csv(paths["assignment"])
        index_of = {bid: i for i, bid in enumerate(again.ids)}
        asg = BalancedAssignment(
            block_indices=[index_of[b] for b, _, _ in rows],
            center_indices=[c for _, c, _ in rows],
            persons=[p for _, _, p in rows],
        )
        centers = CenterSet(positions=positions, capacities=capacities)
        recomputed = assignment_cost(again, centers, asg)
        assert recomputed == pytest.approx(summary["final_cost"], rel=1e-6)

    def test_centers_out_of_order_rejected(self, tmp_path):
        _, _, _, paths = small_run(tmp_path)
        lines = paths["centers"].read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        paths["centers"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="center indices"):
            dataio.read_centers_csv(paths["centers"])

    def test_trace_roundtrip(self, tmp_path):
        _, result, _, paths = small_run(tmp_path)
        rows = dataio.read_trace_csv(paths["trace"])
        assert len(rows) == len(result.trace.iterations)
        for row, rec in zip(rows, result.trace.iterations):
            assert row[0] == rec.index
            assert row[1] == rec.cost  # exact: repr round-trip
            assert row[2] == rec.cost_scaled
            assert row[3] == rec.max_displacement

    def test_centers_roundtrip_exact(self, tmp_path):
        _, result, outputs, paths = small_run(tmp_path)
        positions, weights, capacities, populations = dataio.read_centers_csv(paths["centers"])
        assert np.array_equal(positions, result.centers.positions)
        assert np.array_equal(weights, np.asarray(outputs.weights))
        assert np.array_equal(capacities, result.centers.capacities)
        assert np.array_equal(
            populations, result.assignment.per_center_population(result.centers.k)
        )

    def test_cells_json_schema(self, tmp_path):
        _, result, outputs, paths = small_run(tmp_path)
        payload = json.loads(paths["cells"].read_text())
        assert len(payload) == result.centers.k
        for entry, cell in zip(payload, outputs.cells):
            assert set(entry) == {"center", "weight", "ring", "clipped"}
            assert entry["center"] == cell.center_index
            if entry["ring"]:
                assert entry["ring"][0] == entry["ring"][-1]  # closed

    def test_plotdata_files(self, tmp_path):
        _, result, outputs, paths = small_run(tmp_path)
        for cell in outputs.cells:
            f = paths["plotdata"] / f"cell_{cell.center_index:03d}.txt"
            if cell.is_empty:
                assert not f.exists()
            else:
                lines = f.read_text().strip().splitlines()
                assert len(lines) == len(cell.vertices) + 1
                first = [float(v) for v in lines[0].split()]
                assert first == [cell.vertices[0][0], cell.vertices[0][1]]

    def test_summary_fields(self, tmp_path):
        inst, result, _, paths = small_run(tmp_path)
        summary = dataio.read_summary_json(paths["summary"])
        assert summary["instance"] == "mini"
        assert summary["k"] == inst.k and summary["m"] == inst.m
        assert summary["iterations"] == len(result.trace.iterations)
        assert summary["converged"] is True
        per_center = summary["per_center"]
        assert len(per_center) == inst.k
        assert sum(c["population"] for c in per_center) == inst.m
        pops = sorted(c["population"] for c in per_center)
        assert pops[-1] - pops[0] <= 1
