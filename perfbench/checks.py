"""Output checks that do not copy the program's own output.

Every check recomputes what it compares against from the workload's
inputs or from an independent method (a closed-form grid, a bound that
holds for any no-loss market, ``scipy.spatial.distance.pdist``, a
vectorised run-length RQA verified against the brute-force oracle in
``tests/oracles.py``).  Each function returns a list of failure
messages; an empty list means the output passed.
"""

import csv
import importlib.util
import math
import random

import numpy as np
from scipy.spatial.distance import pdist, squareform

TOL = 1e-12


def close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


# --- quiver ---

def check_quiver(out, doc) -> list:
    res, reps = doc["grid_res"], doc["reps"]
    with open(out / "quiver.csv", newline="", encoding="utf8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["s_b", "s_s", "d_sb", "d_ss", "magnitude", "reps"]:
        return [f"quiver.csv header {rows[0]}"]
    if len(rows) - 1 != res * res:
        return [f"quiver.csv has {len(rows) - 1} rows for a {res}x{res} grid"]
    grid = [-1 + 2 * i / (res - 1) for i in range(res)]
    failures = []
    for n, row in enumerate(rows[1:]):
        i, j = divmod(n, res)
        s_b, s_s, d_sb, d_ss, mag = map(float, row[:5])
        where = f"quiver cell ({i},{j})"
        if abs(s_b - grid[i]) > TOL or abs(s_s - grid[j]) > TOL:
            failures.append(f"{where}: grid point ({s_b}, {s_s})")
        if mag < 0 or (mag == 0) != (d_sb == 0 and d_ss == 0):
            failures.append(f"{where}: magnitude {mag} for ({d_sb}, {d_ss})")
        if mag > 0 and abs(math.hypot(d_sb, d_ss) - 1) > TOL:
            failures.append(f"{where}: direction ({d_sb}, {d_ss}) not unit")
        for s, d in ((s_b, d_sb), (s_s, d_ss)):
            if not -1 - 1e-9 <= s + d * mag <= 1 + 1e-9:
                failures.append(f"{where}: mean endpoint {s + d * mag} "
                                f"outside [-1, 1]")
        if int(row[5]) != reps:
            failures.append(f"{where}: reps {row[5]} != {reps}")
    return failures


# --- stgp ---

def genome_nodes(text: str) -> int:
    """Node count of a prefix-tuple genome: the atoms between the
    parentheses and commas."""
    return len(text.replace("(", " ").replace(")", " ").replace(",", " ")
               .split())


def genome_depth(text: str) -> int:
    """Tree depth from parenthesis nesting: every operator opens one
    level and its deepest child is one level below it."""
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest + 1


def check_stgp(out, doc) -> list:
    session = doc["session"]
    generations = doc["generations"]
    sides = {e["side"] for e in session["roster"] if e["strategy"] == "STGP"}
    if len(sides) != 1:
        return [f"STGP seats on sides {sorted(sides)}"]
    side = sides.pop()
    sched = next(s for s in session["schedules"] if s["side"] == side)
    sys_min, sys_max = session.get("sys_min", 1), session.get("sys_max", 500)
    # a seat fills each assignment at most once, and no-loss fills earn at
    # most the distance from the limit to the far system bound
    sweeps = -(-session["duration"] // sched.get("interval", 100))
    per_fill = (sched["p_max"] - sys_min if side == "Bid"
                else sys_max - sched["p_min"])
    fitness_cap = sweeps * per_fill

    with open(out / "genstats.csv", newline="", encoding="utf8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["gen", "max_fitness", "mean_fitness", "std_fitness",
                   "mean_size"]:
        return [f"genstats.csv header {rows[0]}"]
    if [int(r[0]) for r in rows[1:]] != list(range(1, generations + 1)):
        return [f"genstats.csv generations {[r[0] for r in rows[1:]]}"]
    failures = []
    for r in rows[1:]:
        gen = int(r[0])
        hi, mean, std, size = map(float, r[1:])
        if not 0 <= mean <= hi:
            failures.append(f"gen {gen}: mean {mean} outside [0, max {hi}]")
        # Bhatia-Davis with every fitness >= 0
        if std * std > mean * (hi - mean) + TOL * max(1.0, hi * hi):
            failures.append(f"gen {gen}: std {std} breaks the Bhatia-Davis "
                            f"bound for mean {mean}, max {hi}")
        if hi > fitness_cap:
            failures.append(f"gen {gen}: max fitness {hi} > {fitness_cap}")
    seed_size = genome_nodes(doc["seed_genome"])
    if float(rows[1][4]) != seed_size:
        failures.append(f"gen 1 mean_size {rows[1][4]} != seed genome's "
                        f"{seed_size} nodes")

    elites = (out / "elites.txt").read_text(encoding="utf8").splitlines()
    if len(elites) != generations:
        return failures + [f"elites.txt has {len(elites)} lines"]
    for line, r in zip(elites, rows[1:]):
        gen, fitness, genome = line.split(" ")
        if gen != f"gen={r[0]}" or fitness != f"fitness={r[1]}":
            failures.append(f"elite line {line!r} disagrees with genstats")
        if genome_depth(genome) > doc["max_depth"]:
            failures.append(f"{gen}: elite depth {genome_depth(genome)} > "
                            f"{doc['max_depth']}")
    return failures


# --- coevolve ---

def _runs(rows: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of ones along each row, in row-major
    order."""
    padded = np.zeros((rows.shape[0], rows.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = rows
    edges = np.diff(padded, axis=1)
    return np.nonzero(edges == -1)[1] - np.nonzero(edges == 1)[1]


def rqa_from_bits(bits, theiler_w: int, l_min: int, v_min: int) -> dict:
    """RQA measures by whole-matrix run-length extraction.

    Diagonals are sheared into rows, columns transposed into rows, and
    run lengths found from the edges of the zero-padded rows.  Same
    conventions as ``analysis.rqa_metrics``: cells with |i - j| <
    theiler_w are inadmissible, and diagonals or column segments too
    short to hold a qualifying run count in neither numerator nor
    denominator.
    """
    bits = np.asarray(bits, dtype=np.int8)
    t = bits.shape[0]
    w = theiler_w
    i, j = np.indices((t, t))
    admissible = np.abs(i - j) >= w
    n_adm = int(admissible.sum())
    rr = int(bits[admissible].sum()) / n_adm if n_adm else 0.0

    sheared = np.zeros((2 * t - 1, t), dtype=np.int8)
    sheared[j - i + t - 1, np.minimum(i, j)] = bits
    offsets = np.abs(np.arange(-(t - 1), t))
    diagonals = sheared[(offsets >= w) & (t - offsets >= l_min)]
    runs = _runs(diagonals)
    lines = runs[runs >= l_min]
    det_den = int(diagonals.sum())
    det = int(lines.sum()) / det_den if det_den else 0.0
    ent = 0.0
    for count in np.unique(lines, return_counts=True)[1]:
        p = int(count) / lines.size
        ent -= p * math.log(p)

    # column j, row i: segments above and below the Theiler band
    col_i, col_j = j, i
    if w == 0:
        segment = np.full((t, t), t)
    else:
        segment = np.where(col_i <= col_j - w, col_j - w + 1, t - col_j - w)
    keep = (np.abs(col_i - col_j) >= w) & (segment >= v_min)
    columns = np.where(keep, bits.T, 0)
    runs = _runs(columns)
    lam_den = int(columns.sum())
    lam = int(runs[runs >= v_min].sum()) / lam_den if lam_den else 0.0

    return {"rr": rr, "det": det, "lam": lam,
            "l_mean": int(lines.sum()) / lines.size if lines.size else 0.0,
            "l_max": int(lines.max()) if lines.size else 0, "ent": ent}


def verify_rqa_code(oracles_path, seed: int, trials: int = 60) -> list:
    """Compare ``rqa_from_bits`` with the brute-force oracle on small
    random symmetric matrices drawn from ``seed``."""
    spec = importlib.util.spec_from_file_location("oracles", oracles_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        t = rng.randint(2, 30)
        w = rng.choice((0, 1, 1, 2))
        density = rng.uniform(0.1, 0.9)
        upper = np.triu(np.array([[rng.random() < density for _ in range(t)]
                                  for _ in range(t)], dtype=np.int8))
        bits = upper | upper.T
        idx = np.arange(t)
        bits[np.abs(idx[:, None] - idx[None, :]) < w] = 0
        l_min, v_min = rng.choice((2, 2, 3)), rng.choice((2, 2, 3))
        got = rqa_from_bits(bits, w, l_min, v_min)
        want = oracles.rqa_oracle(bits.tolist(), w, l_min, v_min)
        if not all(close(got[k], want[k]) for k in want):
            failures.append(f"run-length RQA disagrees with the oracle on "
                            f"trial {trial}: {got} != {want}")
    return failures


def read_pbm(path) -> np.ndarray:
    """Parse a P1 bitmap written one row per line, digits separated by
    single spaces."""
    magic, size, body = path.read_bytes().split(b"\n", 2)
    width, height = map(int, size.split())
    if magic != b"P1" or len(body) != height * 2 * width:
        raise ValueError(f"{path.name}: not a {width}x{height} P1 bitmap")
    cells = np.frombuffer(body, dtype=np.uint8).reshape(height, 2 * width)
    seps = cells[:, 1::2]
    digits = cells[:, ::2] - ord("0")
    if ((seps[:, :-1] != ord(" ")).any() or (seps[:, -1] != ord("\n")).any()
            or (digits > 1).any()):
        raise ValueError(f"{path.name}: malformed P1 body")
    return digits


def check_coevolve(out, doc, oracles_path, seed: int) -> list:
    session = doc["session"]
    ids = [e["id"] for e in session["roster"]
           if e["strategy"].startswith("PRZI_SHC(")]
    theiler = doc.get("theiler", 1)
    l_min, v_min = doc.get("l_min", 2), doc.get("v_min", 2)
    tau = session.get("log_interval", 100)

    lines = (out / "strategies.csv").read_text(encoding="utf8").splitlines()
    if lines[0] != "time," + ",".join(ids):
        return [f"strategies.csv header {lines[0]!r}"]
    table = [[float(v) for v in line.split(",")] for line in lines[1:]]
    times = [row[0] for row in table]
    if times != list(range(0, session["duration"], tau)):
        return ["strategies.csv times are not 0, tau, 2 tau, ... < duration"]
    x = np.array([row[1:] for row in table])
    if np.abs(x).max() > 1:
        return ["strategies.csv has a strategy value outside [-1, 1]"]

    failures = []
    bits = read_pbm(out / "recurrence.pbm")
    t = len(x)
    if bits.shape != (t, t):
        return [f"recurrence.pbm is {bits.shape}, log has {t} samples"]
    dist = squareform(pdist(x))
    eps = doc.get("eps_frac", 0.1) * dist.max()
    want = dist < eps
    idx = np.arange(t)
    band = np.abs(idx[:, None] - idx[None, :]) < theiler
    want[band] = False
    wrong = (bits == 1) != want
    if (wrong & (np.abs(dist - eps) > 1e-9)).any():
        failures.append(f"recurrence.pbm differs from the pdist matrix at "
                        f"{int(wrong.sum())} cells away from epsilon")
    if (bits != bits.T).any():
        failures.append("recurrence.pbm is not symmetric")
    if bits[band].any():
        failures.append("recurrence.pbm has points inside the Theiler band")

    failures += verify_rqa_code(oracles_path, seed)
    rows = (out / "rqa.csv").read_text(encoding="utf8").splitlines()
    if rows[0] != "RR,DET,LAM,L_mean,L_max,ENT" or len(rows) != 2:
        return failures + [f"rqa.csv layout {rows[:1]}"]
    got = dict(zip(("rr", "det", "lam", "l_mean", "l_max", "ent"),
                   map(float, rows[1].split(","))))
    want = rqa_from_bits(bits, theiler, l_min, v_min)
    for key in want:
        if not close(got[key], want[key]):
            failures.append(f"rqa.csv {key} = {got[key]}, recomputed "
                            f"{want[key]}")
    return failures


# --- traced sessions ---

def check_sessions(tracer) -> list:
    """Totals reached by two paths, and market invariants, over every
    session the traced pass ran."""
    failures = []
    if tracer.calls("traders.quote") != tracer.calls("lob.submit"):
        failures.append(f"{tracer.calls('traders.quote')} quotes but "
                        f"{tracer.calls('lob.submit')} submits")
    tape = sum(len(r.tape) for r in tracer.sessions)
    if tracer.trades != tape:
        failures.append(f"{tracer.trades} trades from submit events, "
                        f"{tape} on the session tapes")
    for n, r in enumerate(tracer.sessions):
        if len(r.trade_limits) != len(r.tape):
            failures.append(f"session {n}: {len(r.tape)} trades, "
                            f"{len(r.trade_limits)} limit pairs")
        surplus = sum(b - s for b, s in r.trade_limits)
        if sum(r.profits.values()) != surplus:
            failures.append(f"session {n}: profits {sum(r.profits.values())}"
                            f" != traded surplus {surplus}")
        for trade, (b, s) in zip(r.tape, r.trade_limits):
            if not s <= trade.price <= b:
                failures.append(f"session {n}: trade at {trade.price} "
                                f"outside limits [{s}, {b}]")
                break
    return failures
