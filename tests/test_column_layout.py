"""The block locations are stored column-major, and every per-block pass reads
them a column at a time. These tests pin that layout, and check that each
pass has the bits of the row-major expressions it replaced, computed here
on a C-ordered copy of the locations."""

import math

import numpy as np
import pytest

from districtor.assignment import solve_balanced
from districtor.dataio import read_blocks
from districtor.lloyd import _guarded_positions, centroid_step, seed_centers
from districtor.model import BalancedAssignment, CenterSet, assignment_cost, balanced_capacities
from tests.conftest import make_instance

SEEDS = range(20)


def layout_instance(seed: int):
    """Clustered blocks at a seeded scale and offset, a fifth of them with no
    population and a few heavier than a district, so that they split."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 400))
    k = int(rng.integers(2, 8))
    scale = 10.0 ** int(rng.integers(-3, 4))
    hubs = rng.uniform(0.0, 100.0, size=(4, 2))
    locs = (hubs[rng.integers(0, 4, size=n)] + rng.normal(0.0, 7.0, size=(n, 2))) * scale
    locs += rng.uniform(-1e3, 1e3, size=2) * scale
    pops = rng.integers(1, 60, size=n)
    pops[rng.random(n) < 0.2] = 0
    heavy = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    pops[heavy] = int(pops.sum()) // k + int(rng.integers(1, 50))
    return make_instance(locs, pops, k), int(rng.integers(0, 2**31))


def row_major(inst) -> np.ndarray:
    locs = np.ascontiguousarray(inst.locations())
    assert locs.flags.c_contiguous and np.array_equal(locs, inst.locations())
    return locs


class RecordingGenerator(np.random.Generator):
    """A Generator that keeps the probabilities of each ``choice``, which
    hold the bits of the seeding's squared distances."""

    def __init__(self, seed: int) -> None:
        super().__init__(np.random.PCG64(seed))
        self.probabilities = []

    def choice(self, a, *args, p=None, **kwargs):
        self.probabilities.append(p.tobytes())
        return super().choice(a, *args, p=p, **kwargs)


def reference_seed_positions(inst, rng: np.random.Generator) -> np.ndarray:
    """seed_centers' draws with the (n, 2) expressions of the row-major layout."""
    locs = row_major(inst)
    pops = inst.populations().astype(np.float64)
    chosen = [int(rng.choice(inst.n_blocks, p=pops / pops.sum()))]
    d2 = np.sum((locs - locs[chosen[0]]) ** 2, axis=1)
    while len(chosen) < inst.k:
        mass = pops * d2
        chosen.append(int(rng.choice(inst.n_blocks, p=mass / mass.sum())))
        d2 = np.minimum(d2, np.sum((locs - locs[chosen[-1]]) ** 2, axis=1))
    return locs[chosen]


def reference_centroids(inst, asg: BalancedAssignment, totals: np.ndarray) -> np.ndarray:
    counts = totals.astype(np.float64)
    counts[counts == 0] = np.nan
    locs = row_major(inst)[asg.block_indices]
    w = asg.persons.astype(np.float64)
    sums = np.column_stack(
        [np.bincount(asg.center_indices, weights=locs[:, i] * w, minlength=len(totals))
         for i in (0, 1)]
    )
    return sums / counts[:, None]


def reference_cost(inst, centers: CenterSet, asg: BalancedAssignment) -> float:
    locs = row_major(inst)[asg.block_indices]
    cpos = centers.positions[asg.center_indices]
    return math.fsum(asg.persons * np.sum((locs - cpos) ** 2, axis=1))


def reference_guard(inst, res, current: CenterSet, candidate: CenterSet) -> np.ndarray:
    asg = res.assignment
    locs = row_major(inst)[asg.block_indices]
    entries = np.arange(len(asg.persons))

    def cost_per_center(positions):
        own = res.cost_model.int_costs(locs, positions)[entries, asg.center_indices]
        totals = np.zeros(current.k, dtype=np.int64)
        np.add.at(totals, asg.center_indices, asg.persons * own)
        return totals

    accept = cost_per_center(candidate.positions) < cost_per_center(current.positions)
    return np.where(accept[:, None], candidate.positions, current.positions)


def assert_column_layout(locs: np.ndarray, n: int) -> None:
    assert locs.shape == (n, 2) and locs.dtype == np.float64
    assert not locs.flags.writeable
    assert locs.T.flags.c_contiguous
    assert locs[:, 0].flags.c_contiguous and locs[:, 1].flags.c_contiguous
    with pytest.raises(ValueError):
        locs[0, 0] = 1.0


def test_locations_are_read_only_with_contiguous_columns():
    for locs in ([[0.5, -1.0], [2.0, 4.0], [3.0, 1.0]], np.arange(6.0).reshape(3, 2),
                 np.asfortranarray(np.arange(6.0).reshape(3, 2))):
        inst = make_instance(locs, [1, 2, 3], k=2)
        assert_column_layout(inst.locations(), 3)
        assert inst.locations().tolist() == np.asarray(locs, dtype=np.float64).tolist()


def test_read_blocks_builds_the_column_layout(tmp_path):
    p = tmp_path / "blocks.csv"
    p.write_text("block_id,lon,lat,population\na,-71.5,42.0,3\nb,-71.0,42.5,0\nc,-70.5,41.5,4\n",
                 encoding="utf-8")
    assert_column_layout(read_blocks(p, k=2, lonlat=True).locations(), 3)
    # a quoted id sends the file to the row reader
    p.write_text('block_id,x,y,population\n"a",1,2,3\nb,4,5,0\nc,6,7,4\n', encoding="utf-8")
    inst = read_blocks(p, k=2)
    assert_column_layout(inst.locations(), 3)
    assert inst.locations().tolist() == [[1.0, 2.0], [4.0, 5.0], [6.0, 7.0]]


def test_instance_owns_its_locations():
    locs = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    inst = make_instance(locs, [1, 2, 3], k=2)
    locs[0, 0] = 99.0
    assert inst.locations()[0, 0] == 0.0


@pytest.mark.parametrize("seed", SEEDS)
def test_per_block_passes_keep_the_row_major_bits(seed):
    inst, draw = layout_instance(seed)
    got, want = RecordingGenerator(draw), RecordingGenerator(draw)
    centers = seed_centers(inst, inst.k, got)
    assert centers.positions.tobytes() == reference_seed_positions(inst, want).tobytes()
    assert len(got.probabilities) == inst.k and got.probabilities == want.probabilities

    res = solve_balanced(inst, centers)
    asg = res.assignment
    assert len(np.unique(asg.block_indices)) < len(asg.block_indices)  # a block splits
    assert (inst.populations() == 0).any()
    totals = asg.per_center_population(inst.k)
    assert (asg.centroids(inst, totals).tobytes()
            == reference_centroids(inst, asg, totals).tobytes())
    assert assignment_cost(inst, centers, asg) == reference_cost(inst, centers, asg)

    # the centroid move, and a random one that the guard refuses in part
    rng = np.random.default_rng(draw)
    spread = np.ptp(inst.locations(), axis=0)
    jolted = CenterSet(
        positions=centers.positions + rng.normal(0.0, 0.05, size=(inst.k, 2)) * spread,
        capacities=balanced_capacities(inst.m, inst.k),
    )
    for candidate in (centroid_step(inst, asg), jolted):
        assert (assignment_cost(inst, candidate, asg)
                == reference_cost(inst, candidate, asg))
        guarded = _guarded_positions(inst, res, centers, candidate)
        assert guarded.tobytes() == reference_guard(inst, res, centers, candidate).tobytes()
