import json
from pathlib import Path

import numpy as np
import pytest

from districtor.cli import (
    EXIT_INPUT,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)


def write_corner_instance(path: Path):
    path.write_text(
        "block_id,x,y,population\n"
        "a,0.0,0.0,1\nb,1.0,0.0,1\nc,0.0,1.0,1\nd,1.0,1.0,1\n",
        encoding="utf-8",
    )


def write_gauss_instance(path: Path, seed=3, n=150, m=6000):
    rng = np.random.default_rng(seed)
    locs = np.concatenate(
        [
            rng.normal((0.0, 0.0), 1.0, size=(n // 2, 2)),
            rng.normal((8.0, 2.0), 1.5, size=(n - n // 2, 2)),
        ]
    )
    pops = rng.multinomial(m, np.full(n, 1.0 / n))
    lines = ["block_id,x,y,population"]
    for i in range(n):
        lines.append(f"g{i:04d},{float(locs[i, 0])!r},{float(locs[i, 1])!r},{int(pops[i])}")
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

    def test_max_iters_one_truncates(self, tmp_path):
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
        assert "FAIL power consistency" in out

    def test_missing_files(self, tmp_path):
        assert main(["validate", "--dir", str(tmp_path / "nothing")]) == EXIT_INPUT

    def test_corrupt_summary(self, solved_dir):
        (solved_dir / "summary.json").write_text("{not json", encoding="utf-8")
        assert main(["validate", "--dir", str(solved_dir)]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "command, fname, edit",
        [
            pytest.param("validate", "summary.json", _set_summary("scale", 0), id="zero-scale"),
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
        assert "FAIL conservation per block" in out
        assert "PASS balance per center (exact)" in out


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
