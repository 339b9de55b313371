import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from districtor import dataio, lloyd
from districtor.assignment import _BLOCK_ENTRIES, ScaledCostPolicy, cost_model_for
from districtor.cli import (
    EXIT_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from districtor.dataio import _WRITE_ROWS
from tests.conftest import gaussian_instance


def write_corner_instance(path: Path):
    path.write_text(
        "block_id,x,y,population\n"
        "a,0.0,0.0,1\nb,1.0,0.0,1\nc,0.0,1.0,1\nd,1.0,1.0,1\n",
        encoding="utf-8",
    )


def gauss_rows(seed=3, n=150, m=6000):
    """(x, y, population) rows of two Gaussian clusters."""
    rng = np.random.default_rng(seed)
    locs = np.concatenate(
        [
            rng.normal((0.0, 0.0), 1.0, size=(n // 2, 2)),
            rng.normal((8.0, 2.0), 1.5, size=(n - n // 2, 2)),
        ]
    )
    pops = rng.multinomial(m, np.full(n, 1.0 / n))
    return list(zip(locs[:, 0].tolist(), locs[:, 1].tolist(), pops.tolist()))


def write_gauss_instance(path: Path, seed=3, n=150, m=6000):
    lines = ["block_id,x,y,population"]
    for i, (x, y, p) in enumerate(gauss_rows(seed, n, m)):
        lines.append(f"g{i:04d},{x!r},{y!r},{p}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestSolve:
    def test_corner_instance_converges(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.csv"
        write_corner_instance(blocks)
        code = main(
            ["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["k"] == 2
        out = capsys.readouterr().out
        assert "converged" in out

    def test_k_exceeds_blocks(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.csv"
        write_corner_instance(blocks)
        code = main(
            ["solve", "--input", str(blocks), "--k", "9", "--seed", "0",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_max_iters_one_truncates(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.csv"
        write_gauss_instance(blocks)
        code = main(
            ["solve", "--input", str(blocks), "--k", "4", "--seed", "0",
             "--max-iters", "1", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_NOT_CONVERGED
        trace = (tmp_path / "out" / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 2  # header plus a single iteration
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["converged"] is False
        # the run ends one centroid move short, and its result set still
        # validates: the centroid condition failed it (max drift 5.25)
        capsys.readouterr()
        assert main(["validate", "--dir", str(tmp_path / "out")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS centroid condition: not checked: the run did not converge" in out
        assert "FAIL" not in out

    def test_missing_input(self, tmp_path, capsys):
        code = main(
            ["solve", "--input", str(tmp_path / "nope.csv"), "--k", "2",
             "--seed", "0", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_INPUT

    def test_malformed_input(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        blocks.write_text("block_id,x,y,population\na,0,0,-4\n", encoding="utf-8")
        code = main(
            ["solve", "--input", str(blocks), "--k", "1", "--seed", "0",
             "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_INPUT

    def test_bad_flags(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        write_corner_instance(blocks)
        assert main(
            ["solve", "--input", str(blocks), "--k", "0", "--seed", "0",
             "--out", str(tmp_path / "out")]
        ) == EXIT_INPUT
        assert main(
            ["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
             "--scale", "-5", "--out", str(tmp_path / "out")]
        ) == EXIT_INPUT

    def test_overflowing_scale_is_input_error(self, tmp_path, capsys):
        blocks = tmp_path / "blocks.csv"
        write_corner_instance(blocks)
        code = main(
            ["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
             "--scale", "1e19", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_INPUT
        assert "scaling" in capsys.readouterr().err

    def test_restarts_pick_best(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        write_gauss_instance(blocks)
        out1 = tmp_path / "r1"
        out3 = tmp_path / "r3"
        assert main(
            ["solve", "--input", str(blocks), "--k", "4", "--seed", "0",
             "--out", str(out1)]
        ) in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert main(
            ["solve", "--input", str(blocks), "--k", "4", "--seed", "0",
             "--restarts", "3", "--out", str(out3)]
        ) in (EXIT_OK, EXIT_NOT_CONVERGED)
        c1 = json.loads((out1 / "summary.json").read_text())["final_cost_scaled"]
        c3 = json.loads((out3 / "summary.json").read_text())["final_cost_scaled"]
        assert c3 <= c1


def _set_summary(key, value):
    def edit(text):
        summary = json.loads(text)
        summary[key] = value
        return json.dumps(summary)

    return edit


def cost_unit(out: Path) -> float:
    """The original squared-distance units of one integer cost unit of a
    result set."""
    summary = dataio.read_summary_json(out / "summary.json")
    inst = dataio.read_blocks(out / "blocks.csv", k=summary["k"])
    return cost_model_for(inst, ScaledCostPolicy(scale=summary["scale"])).units_per_cost


def _plus_five(value):
    return str(int(value) + 5)


def _set_center_field(column, change):
    """Rewrite one field of the first center row."""

    def edit(text):
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[column] = change(fields[column])
        lines[1] = ",".join(fields)
        return "\n".join(lines) + "\n"

    return edit


@pytest.fixture
def solved_dir(tmp_path):
    blocks = tmp_path / "blocks.csv"
    write_gauss_instance(blocks)
    out = tmp_path / "out"
    code = main(
        ["solve", "--input", str(blocks), "--k", "3", "--seed", "1", "--out", str(out)]
    )
    assert code == EXIT_OK
    return out


class TestValidate:
    def test_fresh_output_passes(self, solved_dir, capsys):
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "validation passed" in out
        assert "FAIL" not in out

    def test_moved_person_fails_balance(self, solved_dir, capsys):
        asg = solved_dir / "assignment.csv"
        lines = asg.read_text().splitlines()
        # move one person from the first data row to the last (different center)
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[1] != last[1] or len(lines) > 3
        donor, receiver = 1, len(lines) - 1
        if lines[donor].split(",")[1] == lines[receiver].split(",")[1]:
            receiver = next(
                i for i in range(2, len(lines))
                if lines[i].split(",")[1] != lines[donor].split(",")[1]
            )
        d = lines[donor].split(",")
        r = lines[receiver].split(",")
        d[2] = str(int(d[2]) - 1)
        r[2] = str(int(r[2]) + 1)
        lines[donor] = ",".join(d)
        lines[receiver] = ",".join(r)
        asg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_perturbed_weight_fails_consistency(self, solved_dir, capsys):
        centers = solved_dir / "centers.csv"
        lines = centers.read_text().splitlines()
        parts = lines[1].split(",")
        parts[3] = repr(float(parts[3]) + 1e9)  # far beyond any squared distance
        lines[1] = ",".join(parts)
        centers.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL optimality certificate (exact)" in out

    def test_missing_files(self, tmp_path):
        assert main(["validate", "--dir", str(tmp_path / "nothing")]) == EXIT_INPUT

    def test_corrupt_summary(self, solved_dir):
        (solved_dir / "summary.json").write_text("{not json", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "command, fname, edit",
        [
            pytest.param("validate", "summary.json", _set_summary("scale", 0), id="zero-scale"),
            pytest.param(
                "validate", "summary.json", _set_summary("converged", "yes"),
                id="converged-not-a-bool",
            ),
            *(
                pytest.param(command, fname, edit, id=f"{command}-{name}")
                for command in ("validate", "stats")
                for name, fname, edit in (
                    ("k-not-a-number", "summary.json", _set_summary("k", "three")),
                    ("capacity-plus-5", "centers.csv", _set_center_field(4, _plus_five)),
                    ("nan-center", "centers.csv", _set_center_field(1, lambda v: "nan")),
                )
            ),
        ],
    )
    def test_bad_result_set_is_input_error(self, solved_dir, capsys, command, fname, edit):
        path = solved_dir / fname
        path.write_text(edit(path.read_text()), encoding="utf-8")
        assert main([command, "--dir", str(solved_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_subnormal_scale_is_the_error_solve_names(self, solved_dir, capsys, command):
        # validate failed the certificate (exit 3) and stats printed the
        # diagram of a scale that solve now rejects
        path = solved_dir / "summary.json"
        path.write_text(_set_summary("scale", 1e-310)(path.read_text()), encoding="utf-8")
        assert main([command, "--dir", str(solved_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: scale 1e-310 makes one cost unit inf")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cells: [7, *cells[1:]], "entry 0 is not an object"),
            (
                lambda cells: [cells[0], {**cells[1], "ring": [[0.5, "x"]]}, *cells[2:]],
                "entry 1: ring is not a list of numeric [x, y] pairs",
            ),
        ],
        ids=["entry-not-an-object", "ring-holds-a-string"],
    )
    def test_malformed_cells_json_is_input_error(self, solved_dir, capsys, edit, message):
        cells = solved_dir / "cells.json"
        cells.write_text(json.dumps(edit(json.loads(cells.read_text()))), encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {cells}: {message}\n"

    @pytest.mark.parametrize("column, value", [(1, "inf"), (2, "-inf"), (3, "nan")])
    def test_non_finite_center_field_is_input_error(self, solved_dir, capsys, column, value):
        """Non-finite weights used to pass every check when the rings were
        emptied too: NaN comparisons find no violation, and the average
        side count of no cell is not compared with anything."""
        centers = solved_dir / "centers.csv"
        lines = centers.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            row[column] = value
        centers.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n", encoding="utf-8")
        cells = solved_dir / "cells.json"
        payload = json.loads(cells.read_text())
        cells.write_text(json.dumps([{**entry, "ring": []} for entry in payload]))
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {centers}:2: non-finite value {value!r}\n"

    @pytest.mark.parametrize(
        "fname, fields",
        [("centers.csv", 6), ("trace.csv", 4), ("assignment.csv", 3)],
        ids=["centers", "trace", "assignment"],
    )
    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_wrong_field_count_is_input_error(self, solved_dir, capsys, fname, fields, change):
        """Extra fields used to be dropped without a word: a seventh field
        on a centers.csv row passed validation."""
        path = solved_dir / fname
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + ",999" if change == "extra" else lines[1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = fields + 1 if change == "extra" else fields - 1
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {path}:2: expected {fields} fields, got {got}\n"

    @pytest.mark.parametrize(
        "field, value",
        [("center", 0), ("weight", -1e9), ("clipped", "no"), ("clipped", None)],
        ids=["center-zero", "weight-minus-1e9", "clipped-no", "clipped-flipped"],
    )
    def test_cells_json_field_mismatch_fails(self, solved_dir, capsys, field, value):
        """validate compared only the rings: every center 0, every weight
        -1e9 and every clipped "no" passed. None flips each clipped flag."""
        cells = solved_dir / "cells.json"
        payload = json.loads(cells.read_text())
        for entry in payload:
            entry[field] = not entry[field] if value is None else value
        cells.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        line = rf"^FAIL cells.json matches recomputed diagram: entry \d+: {field} differs$"
        assert re.search(line, out, re.M)
        assert "validation failed" in out

    def test_persons_beyond_64_bits_is_input_error(self, solved_dir, capsys):
        asg = solved_dir / "assignment.csv"
        lines = asg.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = str(2**70)
        lines[1] = ",".join(fields)
        asg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {asg}: an integer field exceeds the 64-bit range\n"
        )

    def test_person_moved_within_center_fails_conservation(self, solved_dir, capsys):
        asg = solved_dir / "assignment.csv"
        lines = asg.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        donor = next(r for r in rows if int(r[2]) > 1)
        receiver = next(r for r in rows if r[1] == donor[1] and r[0] != donor[0])
        donor[2] = str(int(donor[2]) - 1)
        receiver[2] = str(int(receiver[2]) + 1)
        asg.write_text("\n".join([lines[0], *map(",".join, rows)]) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert (
            "FAIL optimality certificate (exact): certificate: supply conservation violated"
            in out
        )

    @pytest.mark.parametrize("step", [1, -1])
    def test_one_cost_unit_on_a_split_center_fails(self, solved_dir, capsys, step):
        """A split block is tight at both of its centers, so one cost unit
        on either weight breaks the certificate. The float power check that
        the certificate replaced allowed two units and passed it."""
        rows = [line.split(",") for line in
                (solved_dir / "assignment.csv").read_text().splitlines()[1:]]
        split = next(r for r, nxt in zip(rows, rows[1:]) if r[0] == nxt[0])
        center = int(split[1])
        unit = cost_unit(solved_dir)
        path = solved_dir / "centers.csv"
        lines = path.read_text().splitlines()
        fields = lines[center + 1].split(",")
        fields[3] = repr((round(float(fields[3]) / unit) + step) * unit)
        lines[center + 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert re.search(r"^FAIL optimality certificate \(exact\): certificate: ", out, re.M)

    def test_certificate_line_names_the_entry_off_its_row_minimum(self, solved_dir, capsys):
        """10**11 cost units on center 0's weight, beyond any spread of the
        costs and weights, make it every block's cheapest center: the line
        names the first assignment row at another center, by its block's row
        in blocks.csv and its center."""
        unit = cost_unit(solved_dir)
        path = solved_dir / "centers.csv"
        raise_weight = _set_center_field(3, lambda w: repr((round(float(w) / unit) + 10**11) * unit))
        path.write_text(raise_weight(path.read_text()), encoding="utf-8")
        ids = [line.split(",")[0] for line in
               (solved_dir / "blocks.csv").read_text().splitlines()[1:]]
        rows = [line.split(",") for line in
                (solved_dir / "assignment.csv").read_text().splitlines()[1:]]
        block, center = next((r[0], r[1]) for r in rows if r[1] != "0")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        line = (rf"^FAIL optimality certificate \(exact\): certificate: not optimal: entry "
                rf"\(supply {ids.index(block)}, demand {center}\) has reduced cost -?\d+ "
                rf"above its row's least -?\d+$")
        assert re.search(line, out, re.M), out

    @pytest.mark.filterwarnings("error")
    def test_weight_beyond_the_potential_bound_fails_quietly(self, solved_dir, capsys):
        """A weight of 1e300 is about 10**306 cost units, beyond int64: it
        fails before any cast, which would print a numpy RuntimeWarning."""
        path = solved_dir / "centers.csv"
        path.write_text(_set_center_field(3, lambda v: "1e300")(path.read_text()),
                        encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == ""
        assert ("FAIL optimality certificate (exact): a weight is not a whole number of "
                "cost units of magnitude at most 2**61") in captured.out

    @pytest.mark.parametrize("value", [None, 1.0, "7", True], ids=["missing", "float", "string",
                                                                  "bool"])
    def test_final_cost_scaled_missing_or_not_an_int_is_input_error(
        self, solved_dir, capsys, value
    ):
        path = solved_dir / "summary.json"
        summary = json.loads(path.read_text())
        if value is None:
            del summary["final_cost_scaled"]
        else:
            summary["final_cost_scaled"] = value
        path.write_text(json.dumps(summary), encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: summary.json: ") and "final_cost_scaled" in err

    @pytest.mark.parametrize(
        "key, change, code",
        [
            ("k", lambda k: k + 0.9, EXIT_INPUT),
            ("k", str, EXIT_INPUT),
            ("m", lambda m: 1, EXIT_VALIDATION),
            ("m", lambda m: "x", EXIT_INPUT),
            ("scale", repr, EXIT_INPUT),
            ("threshold", repr, EXIT_INPUT),
            ("iterations", float, EXIT_VALIDATION),
        ],
        ids=["k-float", "k-string", "m-one", "m-string", "scale-string", "threshold-string",
             "iterations-float"],
    )
    def test_mistyped_or_inconsistent_summary_field_fails(
        self, solved_dir, capsys, key, change, code
    ):
        """Each of these edits used to validate: no check read m, and int()
        and float() coerced the rest."""
        path = solved_dir / "summary.json"
        summary = json.loads(path.read_text())
        summary[key] = change(summary[key])
        path.write_text(json.dumps(summary), encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == code
        captured = capsys.readouterr()
        if code == EXIT_INPUT:
            assert captured.err.startswith(f"error: summary.json: {key} {summary[key]!r} is not ")
        else:
            line = "result-set structure" if key == "m" else "trace.csv matches the run"
            assert re.search(rf"^FAIL {line}", captured.out, re.M)

    def test_ring_one_ulp_off_fails(self, solved_dir, capsys):
        """The rings are compared exactly: validate passed a ring moved by
        up to 1e-9 of the blocks' diameter."""
        cells = solved_dir / "cells.json"
        payload = json.loads(cells.read_text())
        i = next(i for i, entry in enumerate(payload) if entry["ring"])
        x = payload[i]["ring"][1][0]
        payload[i]["ring"][1][0] = math.nextafter(x, math.inf)
        cells.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert f"FAIL cells.json matches recomputed diagram: entry {i}: ring differs\n" in out

    def test_last_trace_row_off_the_final_cost_fails(self, solved_dir, capsys):
        """One cost unit less on the last row keeps the trace nonincreasing
        and its cost cost_scaled x units_per_cost; only its match with
        summary.json's final_cost_scaled catches it."""
        unit = cost_unit(solved_dir)
        trace = solved_dir / "trace.csv"
        lines = trace.read_text().splitlines()
        last = lines[-1].split(",")
        lower = int(last[2]) - 1
        last[1:3] = [repr(lower * unit), str(lower)]
        lines[-1] = ",".join(last)
        trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL trace.csv matches the run: the last cost_scaled is not final_cost_scaled" in out
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("edit", ["swap-blocks", "unknown-id", "zero-population-block"])
    def test_rows_out_of_write_order_fail_structure(self, solved_dir, capsys, edit):
        """validate maps assignment.csv rows to blocks by the order
        write_outputs writes them: grouped by block, in blocks.csv order,
        no rows for a block of zero population."""
        asg = solved_dir / "assignment.csv"
        lines = asg.read_text().splitlines()
        i = next(i for i in range(1, len(lines) - 1)
                 if lines[i].split(",")[0] != lines[i + 1].split(",")[0])
        if edit == "swap-blocks":
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif edit == "unknown-id":
            lines[i] = ",".join(["zz", *lines[i].split(",")[1:]])
        else:
            blocks = solved_dir / "blocks.csv"
            rows = blocks.read_text().splitlines()
            block = lines[i].split(",")[0] + ","
            j = next(j for j, row in enumerate(rows) if row.startswith(block))
            rows[j] = rows[j].rsplit(",", 1)[0] + ",0"
            blocks.write_text("\n".join(rows) + "\n", encoding="utf-8")
        asg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL result-set structure" in out
        assert "validation failed" in out

    @pytest.mark.parametrize(
        "column, rows, value",
        [
            (0, "last", "+1"),
            (1, "all", "inf"),
            (1, "last", "ulp"),
            (3, "all", "-5"),
            (3, "first", "nan"),
            (3, "first", "inf"),
            (3, "last", "1e300"),
            (None, None, "iterations+1"),
            (None, None, "not-converged"),
        ],
        ids=[
            "iteration-renumbered", "cost-inf", "cost-off-by-an-ulp", "displacement-negative",
            "displacement-nan", "displacement-inf", "converged-above-threshold",
            "summary-iterations", "not-converged-within-threshold",
        ],
    )
    def test_tampered_trace_fails(self, solved_dir, capsys, column, rows, value):
        """trace.csv used to be checked by its scaled costs alone: every cost
        inf and every displacement -5 passed validation. A run that did not
        converge ends above the threshold, or lloyd.run would have stopped
        there converged."""
        if column is None:
            summary = solved_dir / "summary.json"
            payload = json.loads(summary.read_text())
            if value == "not-converged":
                assert payload["converged"] is True
                payload["converged"] = False
            else:
                payload["iterations"] += 1
            summary.write_text(json.dumps(payload), encoding="utf-8")
        else:
            trace = solved_dir / "trace.csv"
            lines = trace.read_text().splitlines()
            assert len(lines) > 2
            table = [line.split(",") for line in lines[1:]]
            picked = {"first": table[:1], "last": table[-1:], "all": table}[rows]
            for row in picked:
                old = row[column]
                row[column] = (
                    str(int(old) + 1) if value == "+1"
                    else repr(math.nextafter(float(old), math.inf)) if value == "ulp"
                    else value
                )
            trace.write_text("\n".join([lines[0], *map(",".join, table)]) + "\n",
                             encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert re.search(r"^FAIL trace.csv matches the run: \S", out, re.M)
        assert "validation failed" in out

    def test_rising_scaled_trace_fails(self, solved_dir, capsys):
        """The second-to-last cost_scaled rises above the one before it, and
        its cost is still cost_scaled x units_per_cost; the last stays the
        summary's final_cost_scaled. So the monotonicity line is the only one
        that can catch it."""
        unit = cost_unit(solved_dir)
        trace = solved_dir / "trace.csv"
        lines = trace.read_text().splitlines()
        table = [line.split(",") for line in lines[1:]]
        assert len(table) > 2
        risen = int(table[-3][2]) + 1
        table[-2][1:3] = [repr(risen * unit), str(risen)]
        trace.write_text("\n".join([lines[0], *map(",".join, table)]) + "\n", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL trace cost nonincreasing (scaled ints)" in out
        assert "PASS trace.csv matches the run" in out
        assert out.count("FAIL") == 1


class TestStats:
    def test_prints_table_row(self, solved_dir, capsys):
        assert main(["stats", "--dir", str(solved_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "k=3" in out
        assert "m=6000" in out
        assert "iterations=" in out
        assert "average internal sides" in out

    def test_missing_dir(self, tmp_path):
        assert main(["stats", "--dir", str(tmp_path / "nope")]) == EXIT_INPUT


def write_lonlat_instance(path: Path, seed=5, n=80, m=3000):
    rng = np.random.default_rng(seed)
    lons = rng.uniform(-87.5, -85.0, size=n)
    lats = rng.uniform(31.8, 33.2, size=n)
    pops = rng.multinomial(m, np.full(n, 1.0 / n))
    lines = ["block_id,lon,lat,population"]
    for i in range(n):
        lines.append(f"l{i:04d},{float(lons[i])!r},{float(lats[i])!r},{int(pops[i])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_splitty_instance(path: Path):
    # three persons on one point with k=2 forces a block split
    path.write_text(
        "block_id,x,y,population\ns0,0.0,0.0,3\ns1,4.0,0.0,2\ns2,4.0,1.0,2\n",
        encoding="utf-8",
    )


class TestSolveThenValidateCorpus:
    """validate(solve(x)) passes across input shapes."""

    def test_corner(self, tmp_path):
        blocks = tmp_path / "b.csv"
        write_corner_instance(blocks)
        out = tmp_path / "out"
        assert main(
            ["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
             "--out", str(out)]
        ) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK

    def test_gauss_with_restarts(self, tmp_path):
        blocks = tmp_path / "b.csv"
        write_gauss_instance(blocks, seed=11)
        out = tmp_path / "out"
        assert main(
            ["solve", "--input", str(blocks), "--k", "5", "--seed", "2",
             "--restarts", "2", "--out", str(out)]
        ) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK

    def test_lonlat(self, tmp_path):
        blocks = tmp_path / "b.csv"
        write_lonlat_instance(blocks)
        out = tmp_path / "out"
        assert main(
            ["solve", "--input", str(blocks), "--k", "3", "--seed", "4",
             "--lonlat", "--out", str(out)]
        ) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK

    def test_forced_split(self, tmp_path):
        blocks = tmp_path / "b.csv"
        write_splitty_instance(blocks)
        out = tmp_path / "out"
        code = main(
            ["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK

    def test_k1_one_row_per_positive_block(self, tmp_path):
        blocks = tmp_path / "b.csv"
        blocks.write_text(
            "block_id,x,y,population\n"
            "a,0.0,0.0,2\nb,1.0,0.0,0\nc,3.0,4.0,5\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(
            ["solve", "--input", str(blocks), "--k", "1", "--seed", "0",
             "--out", str(out)]
        ) == EXIT_OK
        rows = (out / "assignment.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2  # zero-population block carries no flow
        assert all(r.split(",")[1] == "0" for r in rows)
        assert {r.split(",")[0] for r in rows} == {"a", "c"}
        assert main(["validate", "--dir", str(out)]) == EXIT_OK

    @pytest.mark.parametrize(
        "write, k",
        [
            (write_gauss_instance, 1),
            # diameter 0: cost_model_for takes it as 1.0
            (lambda path: path.write_text(block_rows([(2.5, -1.0, p) for p in (4, 0, 7, 3)])), 1),
        ],
        ids=["gauss-k1", "coincident-blocks"],
    )
    def test_degenerate_result_sets_certify(self, tmp_path, capsys, write, k):
        blocks = tmp_path / "b.csv"
        write(blocks)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(blocks), "--k", str(k), "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK
        assert "PASS optimality certificate (exact): objective " in capsys.readouterr().out

    def test_custom_scale_and_threshold(self, tmp_path):
        blocks = tmp_path / "b.csv"
        write_gauss_instance(blocks, seed=13)
        out = tmp_path / "out"
        assert main(
            ["solve", "--input", str(blocks), "--k", "4", "--seed", "1",
             "--scale", "1e7", "--threshold", "1e-6", "--out", str(out)]
        ) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK


def write_collinear_instance(path: Path, axis: str, n=60):
    # every block on one line: the cells' frame is degenerate across it
    pops = np.random.default_rng(17).integers(1, 50, size=n)
    lines = ["block_id,x,y,population"]
    for i in range(n):
        x, y = (1.5 * i, 2.0) if axis == "horizontal" else (-3.0, 1.5 * i)
        lines.append(f"c{i:03d},{x!r},{y!r},{int(pops[i])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCollinearBlocks:
    @pytest.mark.parametrize("k", [1, 3, 40])
    @pytest.mark.parametrize("axis", ["horizontal", "vertical"])
    def test_solve_then_validate(self, tmp_path, axis, k):
        blocks = tmp_path / "b.csv"
        write_collinear_instance(blocks, axis)
        out = tmp_path / "out"
        assert main(
            ["solve", "--input", str(blocks), "--k", str(k), "--seed", "0",
             "--out", str(out)]
        ) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK


class TestSummaryDeterminism:
    def test_identical_except_wall_time(self, tmp_path):
        blocks = tmp_path / "b.csv"
        write_gauss_instance(blocks, seed=21)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["solve", "--input", str(blocks), "--k", "3", "--seed", "9"]
        assert main([*args, "--out", str(out_a)]) == EXIT_OK
        assert main([*args, "--out", str(out_b)]) == EXIT_OK
        sa = json.loads((out_a / "summary.json").read_text())
        sb = json.loads((out_b / "summary.json").read_text())
        sa.pop("wall_time_seconds")
        sb.pop("wall_time_seconds")
        assert sa == sb
        assert (out_a / "cells.json").read_bytes() == (out_b / "cells.json").read_bytes()

    def test_solver_totals_sum_the_trace(self, tmp_path):
        # the same run through the library: every iteration's solve counts
        blocks = tmp_path / "b.csv"
        write_gauss_instance(blocks, seed=21)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(blocks), "--k", "3", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
        solver = json.loads((out / "summary.json").read_text())["solver"]
        trace = lloyd.run(dataio.read_blocks(blocks, k=3), lloyd.LloydConfig(seed=9)).trace
        fields = ("sweeps", "augmentations", "reprices", "table_reads")
        assert solver == {
            f: sum(getattr(it.solve, f) for it in trace.iterations) for f in fields
        }
        assert solver["sweeps"] > 0 and solver["augmentations"] > 0


def openblas_on_x86_64() -> bool:
    """Whether numpy reports OpenBLAS and this is an x86-64 machine, where
    OPENBLAS_CORETYPE picks the kernel of a process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    return "openblas" in blas.lower() and platform.machine().lower() in ("x86_64", "amd64")


@pytest.mark.skipif(not openblas_on_x86_64(), reason="needs numpy on OpenBLAS on x86-64")
class TestAcrossBlasKernels:
    """The same input and seed give the same result set whichever BLAS
    kernel numpy picks for the CPU. A subprocess under
    OPENBLAS_CORETYPE=Nehalem runs another kernel than this process (on
    this planar 20,000-block input, the default kernel and Nehalem once
    disagreed on cells.json and on summary.json's final_cost)."""

    @staticmethod
    def under_nehalem(*args: str) -> subprocess.CompletedProcess:
        src = str(Path(dataio.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, "-m", "districtor", *args], env=env, capture_output=True, text=True
        )

    @staticmethod
    def artifacts(out: Path) -> dict:
        files = {str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()}
        summary = json.loads(files.pop("summary.json"))
        summary.pop("wall_time_seconds")
        return {**files, "summary.json": summary}

    def test_solve_and_validate_under_a_second_kernel(self, tmp_path):
        inst = gaussian_instance(1, n=20_000, m=600_000, k=7)
        blocks = tmp_path / "blocks.csv"
        blocks.write_text(
            "block_id,x,y,population\n"
            + "".join(
                f"{b},{x!r},{y!r},{p}\n"
                for b, (x, y), p in zip(
                    inst.ids, inst.locations().tolist(), inst.populations().tolist()
                )
            ),
            encoding="utf-8",
        )
        args = ("solve", "--input", str(blocks), "--k", "7", "--seed", "2", "--out")
        assert main([*args, str(tmp_path / "default")]) == EXIT_OK
        solved = self.under_nehalem(*args, str(tmp_path / "nehalem"))
        assert solved.returncode == EXIT_OK, solved.stderr
        default = self.artifacts(tmp_path / "default")
        nehalem = self.artifacts(tmp_path / "nehalem")
        assert default.keys() == nehalem.keys()
        assert [f for f in default if default[f] != nehalem[f]] == []
        checked = self.under_nehalem("validate", "--dir", str(tmp_path / "default"))
        assert checked.returncode == EXIT_OK, checked.stdout + checked.stderr


class TestBlockIds:
    """Every id that solve accepts must come back from validate's read of
    the result set."""

    def write(self, path: Path, first_id: str):
        path.write_text(
            f"block_id,x,y,population\n{first_id},0.0,0.0,2\nb,1.0,0.0,2\n"
            "c,0.0,1.0,2\nd,1.0,1.0,2\n",
            encoding="utf-8",
        )

    def test_id_with_a_comma_is_an_input_error(self, tmp_path, capsys):
        blocks = tmp_path / "b.csv"
        self.write(blocks, '"a,b"')
        out = tmp_path / "out"
        code = main(["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
                     "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {blocks}:2: block_id 'a,b' holds a comma, quote or line break, "
            "which the result files cannot hold\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("first_id, written", [('"A1"', "A1"), (" f", "f")])
    def test_quoted_and_padded_ids_round_trip(self, tmp_path, first_id, written):
        blocks = tmp_path / "b.csv"
        self.write(blocks, first_id)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(blocks), "--k", "2", "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "blocks.csv").read_text().splitlines()[1].startswith(f"{written},")
        assert main(["validate", "--dir", str(out)]) == EXIT_OK


class TestArtifactFingerprint:
    """SHA-256 of the result set of a 2,000-block lon/lat solve, measured
    before the columnar CSV reader and the sort-free solver read-out. A
    change that alters an artifact on purpose must re-pin these hashes and
    record why in CHANGES.md."""

    PINNED = {
        "blocks.csv": "9943c118b738414b460bf2e8937ac78d3ae58cd913e036fad38f2f63e41c581d",
        "assignment.csv": "60e4fe96928dacb91e1cd1f46c23ba2324158dc5ec09212f15b7f70eb2c9c46e",
        "centers.csv": "729fadd3a4b01bf96d0c53252f2c7b3b276d7478c0bd623028380984e58ea26a",
        "trace.csv": "ecf4d48f68bec448c2e52b9a5b3bf4e534d881d64d1a00bed5e9cd2539ae2b95",
        "cells.json": "946ded5e30e3cd0719c23bdc797a957863c153f943959a893a811bccff58d82c",
    }

    def test_lonlat_solve_artifacts(self, tmp_path):
        blocks = tmp_path / "blocks.csv"
        write_lonlat_instance(blocks, seed=8, n=2_000, m=60_000)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(blocks), "--lonlat", "--k", "5", "--seed", "2",
                     "--out", str(out)]) == EXIT_OK
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in self.PINNED}
        assert got == self.PINNED


class TestArtifactFingerprintAcrossChunks:
    """SHA-256 of the result set of a 30,000-block lon/lat solve, measured
    before the cost matrix was built in row blocks and blocks.csv and
    assignment.csv were written in row chunks. The 2,000 blocks above fit
    in one of each; these span four int_costs blocks and four writer
    chunks, each ending in a partial one, so an error at a boundary shows
    here."""

    PINNED = {
        "blocks.csv": "806319d2c2fd1d680f9addd0519fe469234fcb7e3d5845f05b8044c37b4bc351",
        "assignment.csv": "1ffad1b14e3ebf62c105f2a86dd6f93dbbdd3df5f7816bebc38ed670d03c1615",
        "centers.csv": "93dc75891012e6b9024d170c7ed267e77f34868c30f9471fa625a40e12f6e139",
        "trace.csv": "01b92f4a8d459b1c0a85eab912b59c1a7c82226cb621c77797883f14ecfa4dd4",
        "cells.json": "be24f01da4be5b5475813dfd2d04c5f10ddeb7fc2554eab78b4d5e73e21ec519",
    }

    def test_lonlat_solve_artifacts(self, tmp_path):
        n, k = 30_000, 7
        rows = _BLOCK_ENTRIES // k
        assert 3 * rows < n and n % rows and 3 * _WRITE_ROWS < n and n % _WRITE_ROWS
        blocks = tmp_path / "blocks.csv"
        write_lonlat_instance(blocks, seed=11, n=n, m=900_000)
        out = tmp_path / "out"
        assert main(["solve", "--input", str(blocks), "--lonlat", "--k", str(k), "--seed", "4",
                     "--out", str(out)]) == EXIT_OK
        got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in self.PINNED}
        assert got == self.PINNED


def scaled_gaussian(scale):
    """20 Gaussian blocks of 5 persons, the coordinates multiplied by scale."""
    xy = np.random.default_rng(20).normal(size=(20, 2)) * scale
    return [(x, y, 5) for x, y in xy.tolist()]


def block_rows(rows, header="block_id,x,y,population"):
    return header + "\n" + "".join(
        f"b{i},{x!r},{y!r},{p}\n" for i, (x, y, p) in enumerate(rows)
    )


ADVERSARIAL_OK = {
    # 12 blocks on 3 points, so ties on every side
    "tied-blocks": ([(float(i % 3), float(i % 3 == 1), 5) for i in range(12)], 3),
    "block-larger-than-a-district": (
        [(0.0, 0.0, 100), (1.0, 0.0, 1), (0.0, 1.0, 1), (1.0, 1.0, 1)], 3
    ),
    "k-equals-populated-blocks": (
        [(0.0, 0.0, 3), (1.0, 0.0, 0), (2.0, 5.0, 4), (7.0, 1.0, 2)], 3
    ),
    "single-block": ([(3.0, 4.0, 9)], 1),
    "far-apart-blocks": (
        [(0.0, 0.0, 4), (1e12, 0.0, 4), (0.0, 1e12, 4), (1e12, 1e12, 4)], 2
    ),
    "gaussian-at-1e150": (scaled_gaussian(1e150), 3),
    # the frame's pad of 0.05 is lost at this magnitude: the cells raised
    # a "degenerate frame" ModelError traceback
    "single-block-at-1e150": ([(-1e150, -1e150, 2)], 1),
    # the centroid rounds by a float of the coordinates, 0.002 here, more
    # than validate's centroid tolerance of 6.3e-5 allowed
    "coincident-blocks-at-1.25e13": (
        [(12497598638792.104, 12497598638792.104, p) for p in (14234, 2, 14234, 0)], 1
    ),
}

ADVERSARIAL_REJECTED = {
    "all-zero-populations": (
        [(0.0, 0.0, 0), (1.0, 0.0, 0), (0.0, 1.0, 0)], ["--k", "2"],
        "total population 0 is smaller than k=2",
    ),
    "k-above-populated-blocks": (
        [(0.0, 0.0, 3), (1.0, 0.0, 0), (2.0, 5.0, 4)], ["--k", "3"],
        "k=3 exceeds the 2 blocks with positive population",
    ),
    "coincident-blocks": (
        [(2.0, 2.0, 3), (2.0, 2.0, 4), (2.0, 2.0, 5)], ["--k", "2"],
        "k=2 exceeds the distinct positive-population locations",
    ),
    "objective-guard": (
        [(0.0, 0.0, 2**40), (1.0, 0.0, 2**40), (0.0, 1.0, 2**40)], ["--k", "2"],
        "risk 64-bit overflow",
    ),
    "huge-scale": (
        [(0.0, 0.0, 3), (1.0, 0.0, 4), (0.0, 1.0, 5)], ["--k", "2", "--scale", "1e300"],
        "scaled costs exceed the exact integer range",
    ),
    # one cost unit, diameter**2 / scale, is inf: solve exited 0 after a
    # RuntimeWarning and wrote NaN weights, which validate rejected
    "subnormal-scale": (
        gauss_rows(), ["--k", "3", "--scale", "1e-310"],
        "scale 1e-310 makes one cost unit inf squared distance units, which is not a "
        "normal float; raise the cost scaling",
    ),
    # ScaledCostPolicy's own message
    **{
        f"scale-{scale}": (
            [(0.0, 0.0, 3), (1.0, 0.0, 4)], ["--k", "2", "--scale", scale],
            f"scale must be positive and finite, got {float(scale)}",
        )
        for scale in ("-5", "0", "nan", "inf")
    },
    # the squared diameter overflows or underflows: these ended in a
    # traceback from center seeding (1e160, 1e300) or in a false message
    **{
        f"gaussian-at-{scale:g}": (
            scaled_gaussian(scale), ["--k", "3"], "bounding-box diagonal",
        )
        for scale in (1e160, 1e300, 1e-160, 1e-300)
    },
}


class TestAdversarialInputs:
    """Each accepted input ends in a certified answer that validates, or in
    exit 1 with an error that names the problem; never in a traceback."""

    @pytest.mark.parametrize("rows, k", ADVERSARIAL_OK.values(), ids=ADVERSARIAL_OK.keys())
    def test_solve_then_validate(self, tmp_path, capsys, rows, k):
        blocks = tmp_path / "b.csv"
        blocks.write_text(block_rows(rows), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["solve", "--input", str(blocks), "--k", str(k), "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        assert main(["validate", "--dir", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("header", ["block_id,x,y,population", "block_id,lon,lat,population"])
    def test_non_utf8_block_file_is_an_input_error(self, tmp_path, capsys, header):
        # both block readers decoded the file as UTF-8 and solve caught
        # neither's UnicodeDecodeError
        blocks = tmp_path / "b.csv"
        blocks.write_bytes(header.encode() + b"\na\xff,0.0,0.0,3\nb,1.0,0.0,4\n")
        flags = ["--lonlat"] if "lon" in header else []
        code = main(["solve", "--input", str(blocks), "--k", "2", "--seed", "0", *flags,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err == f"error: {blocks}: not UTF-8 text (undecodable byte 0xff)\n"
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows, flags, message", ADVERSARIAL_REJECTED.values(), ids=ADVERSARIAL_REJECTED.keys()
    )
    def test_rejected_with_a_named_error(self, tmp_path, capsys, rows, flags, message):
        blocks = tmp_path / "b.csv"
        blocks.write_text(block_rows(rows), encoding="utf-8")
        code = main(["solve", "--input", str(blocks), "--seed", "0", *flags,
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


@st.composite
def block_files(draw):
    """A planar block file of 1-12 rows and a k of 1-4: the rows sit on at
    most 6 points, so coincident blocks are common; the coordinates tie
    often and span magnitudes from 1e-300 to 1e300; zero populations are
    common."""
    scale = draw(st.sampled_from([1e-300, 1e-160, 1e-12, 1.0, 1e6, 1e150, 1e160, 1e300]))
    coord = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))
    rows = draw(st.lists(
        st.tuples(st.sampled_from(points), st.integers(0, 3) | st.integers(0, 10**6)),
        min_size=1, max_size=12,
    ))
    return [(x * scale, y * scale, p) for (x, y), p in rows], draw(st.integers(1, 4))


@st.composite
def solve_options(draw):
    """solve's options besides the input, k and the seed, each left out or
    drawn: --scale from subnormal to 1e300, --lonlat, --threshold (negative
    and NaN ones are rejected), --max-iters 1-4 and --restarts 1-3."""
    flags = ["--lonlat"] if draw(st.booleans()) else []
    scale = draw(st.none() | st.sampled_from([5e-324, 1e-310, 1e-300, 1e-12, 1.0, 1e300])
                 | st.floats(5e-324, 1e300))
    threshold = draw(st.none() | st.sampled_from([0.0, 1e-300, 1e300, math.inf, -1.0, math.nan])
                     | st.floats(0.0, 10.0))
    for flag, value in (("--scale", scale), ("--threshold", threshold)):
        if value is not None:
            flags += [flag, repr(value)]
    for flag, top in (("--max-iters", 4), ("--restarts", 3)):
        if draw(st.booleans()):
            flags += [flag, str(draw(st.integers(1, top)))]
    return flags


@settings(deadline=None, max_examples=60)
@given(case=block_files(), flags=solve_options())
# found by this test at 3,000 examples: validate failed the centroid
# condition of every run stopped by --max-iters
@example(case=([(-1e-12, -1e-12, 1), (-1e-12, 0.0, 1)], 1), flags=["--max-iters", "1"])
def test_any_block_file_ends_validated_or_in_one_named_error(case, flags):
    """Through cli.main, a block file and any options end in exit 0 or 2
    with a result set that validates, or in exit 1 with a single error
    line; a traceback fails the test by propagating out of main."""
    rows, k = case
    header = "block_id,lon,lat,population" if "--lonlat" in flags else "block_id,x,y,population"
    with tempfile.TemporaryDirectory() as tmp:
        blocks, out = Path(tmp) / "b.csv", Path(tmp) / "out"
        blocks.write_text(block_rows(rows, header), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["solve", "--input", str(blocks), "--k", str(k), "--seed", "0",
                         *flags, "--out", str(out)])
            checked = main(["validate", "--dir", str(out)]) if code != EXIT_INPUT else None
        if code == EXIT_INPUT:
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
            assert not out.exists()
        else:
            assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
            assert checked == EXIT_OK, err.getvalue()
