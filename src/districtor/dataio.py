"""Block ingestion, projection, and output artifacts.

Input is a four-column CSV (planar or lon/lat coordinates). Outputs are a
self-contained result set: the projected blocks, the assignment, centers
with weights, cell polygons, the iteration trace, and a run summary. All
files are UTF-8 with LF newlines; floats are written with shortest
round-trip formatting.

Every CSV is read as ``csv.reader`` with the default dialect reads it:
quoted fields, LF or CRLF line ends, blank lines skipped. Its header's
fields, stripped of surrounding spaces, must be the expected names, and
the first malformed row fails with its file and line. Block ids are
stripped too; numbers are parsed by ``float`` and ``int``. An id may not
hold a comma, a double quote, a CR or an LF, since the result files write
ids unquoted and could not read it back. Block files and assignment.csv
are parsed by one ``np.loadtxt`` pass each; a file that pass would read
differently from ``csv`` (a quote in the header or an id, no data rows),
a row it rejects, and a file the checks after it reject are read again
row by row.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import ConvexCell
from .model import (
    BalancedAssignment,
    CenterSet,
    Instance,
    ModelError,
    RunTrace,
    assignment_cost,
)

EARTH_RADIUS_KM = 6371.0088
MAX_ABS_LATITUDE = 89.0

PLANAR_HEADER = ["block_id", "x", "y", "population"]
LONLAT_HEADER = ["block_id", "lon", "lat", "population"]
ASSIGNMENT_HEADER = ["block_id", "center_index", "persons_assigned"]

# Rows of blocks.csv and assignment.csv converted to text and written per
# chunk, so only one chunk's Python objects live at a time: about 1 MiB,
# against 13 MiB for all rows of a 100k-block state at once.
_WRITE_ROWS = 2**13

# The rows of a block CSV and of assignment.csv, as np.loadtxt parses them
_BLOCK_ROW = np.dtype([("id", "O"), ("x", "f8"), ("y", "f8"), ("p", "i8")])
_ASSIGNMENT_ROW = np.dtype([("id", "O"), ("c", "i8"), ("p", "i8")])


class DataError(ValueError):
    """Malformed input data, reported with file and line context."""


def project(lon, lat, reference_parallel: float) -> tuple:
    """Equirectangular projection of lon/lat degrees to km, as (x, y).

    x = R * lon_rad * cos(reference_parallel), y = R * lat_rad. ``lon`` and
    ``lat`` are scalars or equal-shape arrays; x and y are scalars or
    arrays to match. Distances are faithful near the reference parallel and
    degrade with latitude span.
    """
    lat = np.asarray(lat, dtype=np.float64)
    bad = np.abs(lat) >= MAX_ABS_LATITUDE
    if bad.any():
        raise DataError(f"latitude {lat[bad][0]} out of range (|lat| < {MAX_ABS_LATITUDE})")
    scale_x = math.cos(math.radians(reference_parallel))
    return (
        EARTH_RADIUS_KM * np.radians(lon) * scale_x,
        EARTH_RADIUS_KM * np.radians(lat),
    )


def read_blocks(path: str | Path, k: int, lonlat: bool = False) -> Instance:
    """Read a block CSV into an Instance.

    With ``lonlat`` the header must be block_id,lon,lat,population and the
    coordinates are projected to planar km (reference parallel = mean input
    latitude); otherwise the header is block_id,x,y,population and the
    coordinates pass through. Zero-population blocks are kept. Any malformed
    row fails with its line number, and a file that is not UTF-8 fails with
    a DataError that names it. The instance is named after the file's stem.
    """
    path = Path(path)
    expected = LONLAT_HEADER if lonlat else PLANAR_HEADER
    try:
        rows = _load_rows(path, expected, _BLOCK_ROW)
        if rows is not None:
            ids = list(map(str.strip, rows["id"]))
            if all(ids) and '"' not in "".join(ids):
                try:
                    return _block_instance(path, ids, rows["x"], rows["y"], rows["p"], k, lonlat)
                except (DataError, ModelError):
                    pass  # read again row by row, which names the line of the first bad row
        return _block_instance(path, *_read_block_rows(path, expected), k, lonlat)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text (undecodable byte 0x{bad:02x})") from None


def _block_instance(path: Path, ids, xs, ys, pops, k: int, lonlat: bool) -> Instance:
    """The Instance of a block file's columns, projected first with ``lonlat``."""
    if lonlat:
        # The sequential Python mean, not np.mean: the reference parallel,
        # and with it every projected coordinate, must not change bits.
        ys = np.asarray(ys, dtype=np.float64)
        lat0 = sum(ys.tolist()) / len(ys)
        try:
            xs, ys = project(xs, ys, lat0)
        except DataError as exc:
            bad = int(np.argmax(np.abs(ys) >= MAX_ABS_LATITUDE))
            raise DataError(f"{path}: block {ids[bad]!r}: {exc}") from None
    # the (n, 2) transpose of the (2, n) columns: the column-major layout Instance keeps
    return Instance(
        ids=ids, locations=np.array((xs, ys), dtype=np.float64).T, populations=pops, k=k,
        name=path.stem,
    )


def _read_block_rows(path: Path, expected: list[str]) -> tuple:
    """The columns of a block CSV, read row by row through ``csv``; the
    first malformed row fails with its line number."""
    seen: set[str] = set()

    def parse(row: list[str]) -> tuple[str, float, float, int]:
        block_id = row[0].strip()
        if not block_id:
            raise DataError("empty block_id")
        if any(c in block_id for c in ',"\r\n'):
            raise DataError(
                f"block_id {block_id!r} holds a comma, quote or line break, "
                "which the result files cannot hold"
            )
        if block_id in seen:
            raise DataError(f"duplicate block_id {block_id!r}")
        seen.add(block_id)
        try:
            cx, cy = float(row[1]), float(row[2])
        except ValueError:
            raise DataError("non-numeric coordinate") from None
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise DataError("non-finite coordinate")
        try:
            pop = int(row[3])
        except ValueError:
            raise DataError(f"population {row[3]!r} is not an integer") from None
        if pop < 0:
            raise DataError(f"population {pop} is negative")
        return block_id, cx, cy, pop

    rows = _read_csv_rows(path, expected, parse)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return tuple(zip(*rows))


def _load_rows(path: Path, header: list[str], dtype: np.dtype) -> np.ndarray | None:
    """The data rows of a CSV file as a structured array, parsed by one
    ``np.loadtxt`` pass; None when the row reader must read the file.

    The header's fields, split at commas with any quotes kept and stripped,
    must be ``header``, so a quoted header goes to the row reader. Blank
    lines are skipped, and a CR ends a line, as it does for ``csv``. None
    on a rejected header, no data rows, or a row loadtxt rejects (a wrong
    field count, a field it cannot convert). Ids come back as written,
    quotes and surrounding spaces included.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if [h.strip() for h in fh.readline().split(",")] != header:
            return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns of no data rows
            return np.loadtxt(
                path,
                dtype=dtype,
                delimiter=",",
                skiprows=1,
                comments=None,
                ndmin=1,
                encoding="utf-8",
            )
    except (ValueError, UserWarning):
        return None


@dataclass(frozen=True)
class SolveOutputs:
    """Everything one solve produces, ready to be written."""

    instance: Instance
    centers: CenterSet
    assignment: BalancedAssignment
    weights: np.ndarray
    trace: RunTrace
    cells: list[ConvexCell]
    scale: float
    threshold: float
    restarts: int
    wall_time_seconds: float


def _fmt(x: float) -> str:
    return repr(float(x))


def write_outputs(out_dir: str | Path, outputs: SolveOutputs) -> dict[str, Path]:
    """Write the full result set; returns the path of every artifact.

    Files: blocks.csv (projected instance), assignment.csv, centers.csv,
    cells.json, trace.csv, summary.json, and plotdata/ vertex lists. All
    content except the wall-time field in summary.json is a deterministic
    function of the solve result.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    inst = outputs.instance
    centers = outputs.centers
    asg = outputs.assignment
    paths: dict[str, Path] = {}

    blocks_path = out / "blocks.csv"
    xs, ys = inst.locations().T
    pops = inst.populations()
    with open(blocks_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(PLANAR_HEADER) + "\n")
        for lo in range(0, inst.n_blocks, _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            rows = zip(
                inst.ids[lo:hi], xs[lo:hi].tolist(), ys[lo:hi].tolist(), pops[lo:hi].tolist()
            )
            fh.write("".join(f"{block_id},{x!r},{y!r},{pop}\n" for block_id, x, y, pop in rows))
    paths["blocks"] = blocks_path

    ids = inst.ids
    asg_path = out / "assignment.csv"
    with open(asg_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(ASSIGNMENT_HEADER) + "\n")
        for lo in range(0, len(asg.persons), _WRITE_ROWS):
            hi = lo + _WRITE_ROWS
            rows = zip(
                asg.block_indices[lo:hi].tolist(),
                asg.center_indices[lo:hi].tolist(),
                asg.persons[lo:hi].tolist(),
            )
            fh.write("".join(f"{ids[bi]},{ci},{p}\n" for bi, ci, p in rows))
    paths["assignment"] = asg_path

    populations = asg.per_center_population(centers.k)
    centers_path = out / "centers.csv"
    with open(centers_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,x,y,weight,capacity,population\n")
        for i in range(centers.k):
            fh.write(
                f"{i},{_fmt(centers.positions[i, 0])},{_fmt(centers.positions[i, 1])},"
                f"{_fmt(outputs.weights[i])},{int(centers.capacities[i])},{int(populations[i])}\n"
            )
    paths["centers"] = centers_path

    cells_payload = [
        {
            "center": cell.center_index,
            "weight": float(outputs.weights[cell.center_index]),
            "ring": cell.ring(),
            "clipped": cell.clipped,
        }
        for cell in outputs.cells
    ]
    cells_path = out / "cells.json"
    with open(cells_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cells_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["cells"] = cells_path

    trace_path = out / "trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,cost,cost_scaled,max_displacement\n")
        for rec in outputs.trace.iterations:
            fh.write(
                f"{rec.index},{_fmt(rec.cost)},{rec.cost_scaled},{_fmt(rec.max_displacement)}\n"
            )
    paths["trace"] = trace_path

    centroids = asg.centroids(inst, populations)
    summary = {
        "instance": inst.name,
        "k": centers.k,
        "m": inst.m,
        "seed": outputs.trace.seed,
        "restarts": outputs.restarts,
        "iterations": len(outputs.trace.iterations),
        "converged": outputs.trace.converged,
        "final_cost": assignment_cost(inst, centers, asg),
        "final_cost_scaled": outputs.trace.iterations[-1].cost_scaled,
        "scale": outputs.scale,
        "threshold": outputs.threshold,
        # work counts of the run's solves, summed; deterministic like the rest
        "solver": {
            field: sum(getattr(rec.solve, field) for rec in outputs.trace.iterations)
            for field in ("sweeps", "augmentations", "reprices", "table_reads")
        },
        "per_center": [
            {
                "index": i,
                "capacity": int(centers.capacities[i]),
                "population": int(populations[i]),
                "weight": float(outputs.weights[i]),
                "centroid": [float(centroids[i, 0]), float(centroids[i, 1])],
            }
            for i in range(centers.k)
        ],
        "wall_time_seconds": outputs.wall_time_seconds,
    }
    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["summary"] = summary_path

    plot_dir = out / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    for stale in plot_dir.glob("cell_*.txt"):
        stale.unlink()
    for cell in outputs.cells:
        if cell.is_empty:
            continue
        cell_path = plot_dir / f"cell_{cell.center_index:03d}.txt"
        with open(cell_path, "w", encoding="utf-8", newline="\n") as fh:
            for x, y in cell.ring():
                fh.write(f"{_fmt(x)} {_fmt(y)}\n")
    paths["plotdata"] = plot_dir
    return paths


# -- result-set readers (used by validate and stats) ------------------------


def _read_csv_rows(path: str | Path, header: list[str], parse) -> list:
    """``parse`` applied to each nonempty data row. An empty file, a header
    whose stripped fields are not ``header``, a row with a field count other
    than the header's, or a row that ``parse`` rejects fails with its line
    number, plus a DataError's reason."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            raise DataError(f"{path}: empty file")
        if [h.strip() for h in found] != header:
            raise DataError(
                f"{path}: expected header {','.join(header)!r}, got {','.join(found)!r}"
            )
        for lineno, row in _numbered(reader):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                rows.append(parse(row))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row") from None
    return rows


def _numbered(reader):
    """(line, record) for each further record of a ``csv.reader``: the line
    the record starts on, which a quoted line break puts before its last."""
    start = reader.line_num + 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def read_assignment_columns(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The block ids, center indices and persons of an assignment.csv, in
    file order; the indices and persons as int64 arrays that own their data,
    so keeping them does not keep the file's id strings alive."""
    rows = _load_rows(Path(path), ASSIGNMENT_HEADER, _ASSIGNMENT_ROW)
    if rows is not None and '"' not in "".join(rows["id"]):
        return rows["id"].tolist(), rows["c"].copy(), rows["p"].copy()
    rows = _read_csv_rows(
        path, ASSIGNMENT_HEADER, lambda row: (row[0], int(row[1]), int(row[2]))
    )
    ids, centers, persons = ([row[j] for row in rows] for j in range(3))
    try:
        return ids, np.array(centers, dtype=np.int64), np.array(persons, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: an integer field exceeds the 64-bit range") from None


def read_assignment_csv(path: str | Path) -> list[tuple[str, int, int]]:
    """The rows of an assignment.csv as (block id, center index, persons)."""
    ids, centers, persons = read_assignment_columns(path)
    return list(zip(ids, centers.tolist(), persons.tolist()))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise DataError(f"non-finite value {text!r}")
    return value


def read_centers_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (positions, weights, capacities, populations). Every x, y and
    weight must be finite."""
    rows = _read_csv_rows(
        path,
        ["index", "x", "y", "weight", "capacity", "population"],
        lambda row: (int(row[0]), *map(_finite, row[1:4]), int(row[4]), int(row[5])),
    )
    if [r[0] for r in rows] != list(range(len(rows))):
        raise DataError(f"{path}: center indices do not run 0, 1, ... in order")
    return (
        np.array([r[1:3] for r in rows], dtype=np.float64).reshape(-1, 2),
        np.array([r[3] for r in rows], dtype=np.float64),
        np.array([r[4] for r in rows], dtype=np.int64),
        np.array([r[5] for r in rows], dtype=np.int64),
    )


def read_trace_csv(path: str | Path) -> list[tuple[int, float, int, float]]:
    return _read_csv_rows(
        path,
        ["iteration", "cost", "cost_scaled", "max_displacement"],
        lambda row: (int(row[0]), float(row[1]), int(row[2]), float(row[3])),
    )


def _read_json(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON: {exc}") from None


def read_summary_json(path: str | Path) -> dict:
    summary = _read_json(path)
    if not isinstance(summary, dict):
        raise DataError(f"{path}: expected a JSON object")
    return summary


def read_cells_json(path: str | Path) -> list[dict]:
    """The entries of a cells.json: objects, each with a ``ring`` that is a
    list of finite numeric [x, y] pairs."""
    payload = _read_json(path)
    if not isinstance(payload, list):
        raise DataError(f"{path}: expected a JSON array")
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise DataError(f"{path}: entry {i} is not an object")
        ring = entry.get("ring")
        if not (isinstance(ring, list) and all(map(_is_point, ring))):
            raise DataError(f"{path}: entry {i}: ring is not a list of numeric [x, y] pairs")
    return payload


def _is_point(pair) -> bool:
    """True for a list of two JSON numbers within the finite float range."""
    return (
        isinstance(pair, list)
        and len(pair) == 2
        and all(type(c) in (int, float) and abs(c) <= sys.float_info.max for c in pair)
    )
