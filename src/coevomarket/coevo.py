"""Phase-space drift sampling of adaptive (PRZI_SHC) trader pairs.

Sampling the net drift of an adaptive buyer and seller over a grid of
initial (s_buyer, s_seller) values yields a quiver field of the
coevolutionary dynamics; attractor and plateau detection read it.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import harness
from .lob import ASK, BID
from .seeds import derive_seed
# The climber lives in traders; the name stays bound here because
# perfbench/tracing.py patches coevo.AdaptiveClimber.observe_trade.
from .traders import AdaptiveClimber  # noqa: F401


@dataclass
class QuiverField:
    """Mean strategy drift on a square grid over [-1,+1]^2.

    ``d_sb[i, j]`` and ``d_ss[i, j]`` hold the mean displacement
    (final minus initial prod value) of the adaptive buyer and seller
    for sessions started at s_b = grid[i], s_s = grid[j].
    """

    grid: np.ndarray
    d_sb: np.ndarray
    d_ss: np.ndarray
    reps: int

    @property
    def magnitude(self) -> np.ndarray:
        return np.hypot(self.d_sb, self.d_ss)


def _sample_point(args):
    """Mean displacement at one grid point; top-level so worker
    processes can unpickle it."""
    template, buyer_id, seller_id, i, j, s_b, s_s, horizon, reps, seed = args
    acc_b = 0.0
    acc_s = 0.0
    for rep in range(reps):
        cfg = _point_config(template, buyer_id, seller_id, s_b, s_s, horizon,
                            derive_seed(seed, "quiver", i, j, rep))
        result = harness.run_session(cfg)
        acc_b += result.final_strategies[buyer_id] - s_b
        acc_s += result.final_strategies[seller_id] - s_s
    return i, j, acc_b / reps, acc_s / reps


def _point_config(template, buyer_id, seller_id, s_b, s_s, horizon, seed):
    roster = []
    for entry in template.roster:
        if entry.tid == buyer_id:
            entry = replace(entry, strategy=replace(entry.strategy, s=s_b))
        elif entry.tid == seller_id:
            entry = replace(entry, strategy=replace(entry.strategy, s=s_s))
        roster.append(entry)
    return replace(template, roster=roster, duration=horizon, seed=seed,
                   log_interval=0)


def quiver_sample(session_template, grid_res: int, horizon: int, reps: int,
                  seed: int, workers: int = 1) -> QuiverField:
    """Sample the mean (buyer, seller) strategy drift over a grid.

    The template must contain exactly one adaptive buyer and one
    adaptive seller; their initial s-values are overridden per grid
    point.  Each point is averaged over ``reps`` sessions with
    independent derived seeds, so the field is deterministic in
    (template, seed) and independent of worker scheduling.
    """
    if grid_res < 2:
        raise ValueError(f"grid_res must be >= 2, got {grid_res}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    adaptive = [e for e in session_template.roster
                if e.strategy.kind == "PRZI_SHC"]
    buyers = [e.tid for e in adaptive if e.side == BID]
    sellers = [e.tid for e in adaptive if e.side == ASK]
    if len(buyers) != 1 or len(sellers) != 1:
        raise ValueError("quiver template needs exactly one adaptive buyer "
                         f"and one adaptive seller, got {len(buyers)}/{len(sellers)}")

    grid = np.linspace(-1.0, 1.0, grid_res)
    tasks = [(session_template, buyers[0], sellers[0], i, j,
              float(grid[i]), float(grid[j]), horizon, reps, seed)
             for i in range(grid_res) for j in range(grid_res)]
    d_sb = np.zeros((grid_res, grid_res))
    d_ss = np.zeros((grid_res, grid_res))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sample_point, tasks, chunksize=8))
    else:
        results = [_sample_point(t) for t in tasks]
    for i, j, db, ds in results:
        d_sb[i, j] = db
        d_ss[i, j] = ds
    return QuiverField(grid=grid, d_sb=d_sb, d_ss=d_ss, reps=reps)


_NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def convergence_score(field: QuiverField, min_neighbors: int = 3) -> np.ndarray:
    """Score each cell by how strongly the surrounding flow points at it.

    For every neighboring cell with a nonzero displacement vector, take
    the cosine between that vector and the direction from the neighbor
    toward this cell, and average.  A point attractor is surrounded by
    inward flow on all sides, scoring near +1; uniform flow-through
    regions cancel to near 0 (upstream neighbors align, downstream ones
    anti-align).  Cells with fewer than ``min_neighbors`` informative
    neighbors score 0 rather than trusting one noisy vector.
    """
    grid = field.grid
    res = len(grid)
    mag = field.magnitude
    tiny = 1e-12
    score = np.zeros((res, res))
    for i in range(res):
        for j in range(res):
            acc = 0.0
            n = 0
            for di, dj in _NEIGHBORS:
                ni, nj = i + di, j + dj
                if not (0 <= ni < res and 0 <= nj < res):
                    continue
                m = mag[ni, nj]
                if m <= tiny:
                    continue
                vx = grid[i] - grid[ni]
                vy = grid[j] - grid[nj]
                vnorm = math.hypot(vx, vy)
                acc += (field.d_sb[ni, nj] * vx + field.d_ss[ni, nj] * vy) / (m * vnorm)
                n += 1
            if n >= min_neighbors:
                score[i, j] = acc / n
    return score


@dataclass
class Attractor:
    cells: list
    centroid: tuple
    score: float


def detect_attractors(field: QuiverField, threshold: float = 0.6,
                      min_neighbors: int = 3, min_cells: int = 2) -> list:
    """Find point attractors as connected clusters of high-convergence
    cells.

    Returns one Attractor per 8-connected component of cells whose
    convergence score is >= threshold, keeping components of at least
    ``min_cells`` cells (isolated single-cell hits are treated as
    sampling noise).  Centroids are in strategy coordinates (s_b, s_s).
    """
    score = convergence_score(field, min_neighbors)
    hot = score >= threshold
    components = _components(hot)
    out = []
    for cells in components:
        if len(cells) < min_cells:
            continue
        sb = sum(field.grid[i] for i, _ in cells) / len(cells)
        ss = sum(field.grid[j] for _, j in cells) / len(cells)
        mean_score = sum(score[i, j] for i, j in cells) / len(cells)
        out.append(Attractor(cells=sorted(cells), centroid=(sb, ss),
                             score=mean_score))
    out.sort(key=lambda a: -a.score)
    return out


def origin_plateau(field: QuiverField, frac: float = 0.25):
    """The connected low-drift region around the origin, if any.

    Cells count as low-drift when their displacement magnitude is below
    ``frac`` times the field maximum.  Returns the 8-connected component
    of low-drift cells containing the grid point nearest (0, 0), or None
    if that point is not itself low-drift.
    """
    mag = field.magnitude
    cutoff = frac * mag.max()
    low = mag < cutoff
    o = int(np.argmin(np.abs(field.grid)))
    if not low[o, o]:
        return None
    for cells in _components(low):
        if (o, o) in cells:
            return sorted(cells)
    return None


def _components(mask: np.ndarray) -> list:
    """8-connected components of True cells, as lists of (i, j)."""
    res = mask.shape[0]
    seen = np.zeros_like(mask, dtype=bool)
    components = []
    for i in range(res):
        for j in range(mask.shape[1]):
            if not mask[i, j] or seen[i, j]:
                continue
            stack = [(i, j)]
            seen[i, j] = True
            cells = []
            while stack:
                ci, cj = stack.pop()
                cells.append((ci, cj))
                for di, dj in _NEIGHBORS:
                    ni, nj = ci + di, cj + dj
                    if (0 <= ni < res and 0 <= nj < mask.shape[1]
                            and mask[ni, nj] and not seen[ni, nj]):
                        seen[ni, nj] = True
                        stack.append((ni, nj))
            components.append(cells)
    return components


def export_quiver(field: QuiverField, fileobj):
    """Write the field as CSV: s_b,s_s,d_sb,d_ss,magnitude,reps.

    The vector columns hold unit directions, matching uniform-length
    quiver rendering, and the raw length lives in the magnitude column;
    zero vectors stay (0, 0).
    """
    fileobj.write("s_b,s_s,d_sb,d_ss,magnitude,reps\n")
    res = len(field.grid)
    for i in range(res):
        for j in range(res):
            db = float(field.d_sb[i, j])
            ds = float(field.d_ss[i, j])
            m = math.hypot(db, ds)
            if m > 0.0:
                db, ds = db / m, ds / m
            fileobj.write(f"{float(field.grid[i])!r},{float(field.grid[j])!r},"
                          f"{db!r},{ds!r},{m!r},{field.reps}\n")
