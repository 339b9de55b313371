"""Seeded block generator: a Gaussian mixture with lognormal populations.

Same recipe as the test suite's ``gaussian_instance``: ten cluster hubs in
a 400 km square, per-cluster spreads of 8 to 35 km, blocks drawn by
cluster, lognormal populations scaled to sum exactly to the requested
total. A rural share of the blocks is spread uniformly over the square, so
every part of the state has blocks, as it has census blocks.

Blocks are written as a CSV that ``districtor.dataio.read_blocks`` reads,
either planar (km) or as lon/lat degrees around a state-sized extent.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EXTENT_KM = 400.0
CLUSTERS = 10
SPREAD_KM = (8.0, 35.0)
RURAL_SHARE = 0.3
# The cluster hubs and spreads (the map) are the same for every seed; the
# seed draws the blocks and their populations. With the hubs drawn per seed
# too, the converged cost per person of a 100,000-block instance ranged
# from 3071 to 3939 km2 over five seeds; on one map it varied by a few
# percent.
MAP_SEED = 2010
# The blocks of the state that every workload loads, whatever the seed.
# With the blocks drawn from the seed, the cost of a k = 53 plan on 1,000
# blocks varied by 13% (bisection plan) to 34% (random plan) between six
# seeds, as quartile spread over the median.
STATE_SEED = 2010
# South-west corner of the lon/lat extent (degrees); a 400 km square from
# here spans about 4.3 degrees of longitude and 3.6 of latitude.
ORIGIN_LONLAT = (-88.4, 30.6)
KM_PER_DEGREE = 6371.0088 * math.pi / 180.0


def populations(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """Lognormal block weights scaled to sum exactly to m (zeros allowed)."""
    w = rng.lognormal(mean=1.0, sigma=1.1, size=n)
    pops = np.floor(m * w / w.sum()).astype(np.int64)
    pops[: int(m - pops.sum())] += 1
    return pops


def locations(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) planar km block locations: a Gaussian mixture on the fixed map
    plus a uniform rural share."""
    map_rng = np.random.default_rng(MAP_SEED)
    hubs = map_rng.uniform(0.0, EXTENT_KM, size=(CLUSTERS, 2))
    spread = map_rng.uniform(SPREAD_KM[0], SPREAD_KM[1], size=CLUSTERS)
    mix = rng.integers(0, CLUSTERS, size=n)
    xy = hubs[mix] + rng.normal(0.0, 1.0, size=(n, 2)) * spread[mix][:, None]
    rural = rng.random(n) < RURAL_SHARE
    xy[rural] = rng.uniform(0.0, EXTENT_KM, size=(int(rural.sum()), 2))
    return xy


def to_lonlat(xy: np.ndarray) -> np.ndarray:
    """Planar km offsets from ORIGIN_LONLAT to lon/lat degrees."""
    lon0, lat0 = ORIGIN_LONLAT
    lat = lat0 + xy[:, 1] / KM_PER_DEGREE
    mid = math.radians(lat0 + EXTENT_KM / 2.0 / KM_PER_DEGREE)
    lon = lon0 + xy[:, 0] / (KM_PER_DEGREE * math.cos(mid))
    return np.column_stack([lon, lat])


def plan(locs: np.ndarray, pops: np.ndarray, k: int) -> np.ndarray:
    """(k, 2) centers of a balanced starting plan: the blocks are bisected
    recursively along the longer side at the population quantile, and each
    of the k parts contributes its population-weighted centroid.

    A plan drawn at random puts some centers where few people live, and
    such a center must reach far for its persons; the bisection plan
    follows the blocks, as a planner's first draft would.
    """
    centers = []

    def split(idx: np.ndarray, parts: int) -> None:
        if parts == 1:
            w = pops[idx].astype(np.float64)
            centers.append(locs[idx].T @ w / w.sum() if w.sum() > 0 else locs[idx].mean(axis=0))
            return
        pts = locs[idx]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = idx[np.argsort(pts[:, axis], kind="stable")]
        cum = np.cumsum(pops[order])
        left = parts // 2
        cut = int(np.searchsorted(cum, cum[-1] * left / parts)) + 1
        cut = min(max(cut, left), len(order) - (parts - left))
        split(order[:cut], left)
        split(order[cut:], parts - left)

    split(np.arange(len(locs)), k)
    return np.array(centers)


def write_blocks(path: Path, seed, n: int, m: int, lonlat: bool) -> np.ndarray:
    """Write one seeded instance as a block CSV; returns the populations,
    in file order."""
    rng = np.random.default_rng(seed)
    xy = locations(rng, n)
    pops = populations(rng, n, m)
    coords = to_lonlat(xy) if lonlat else xy
    header = "block_id,lon,lat,population" if lonlat else "block_id,x,y,population"
    lines = [header]
    lines.extend(
        f"b{i:06d},{x!r},{y!r},{p}"
        for i, ((x, y), p) in enumerate(zip(coords.tolist(), pops.tolist()))
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return pops
