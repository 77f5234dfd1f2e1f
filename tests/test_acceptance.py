"""End-to-end acceptance gate.

Nine system-level checks, each with a pinned configuration, an explicit
tolerance, and a single summary verdict line on stdout.  Configurations
were chosen once (documented here inline) and are not tuned at runtime.
"""
import random
import statistics
import sys
import time

import numpy as np
import pytest
from scipy import stats

from coevomarket.analysis import (RecurrenceMatrix, default_epsilon,
                                  recurrence_matrix, rqa_metrics,
                                  surrogate_shuffle)
from coevomarket.coevo import (detect_attractors, origin_plateau,
                               quiver_sample)
from coevomarket.harness import (RosterEntry, Schedule, SessionConfig,
                                 equilibrium_surplus, run_session)
from coevomarket.lob import ASK, BID, Order, OrderBook, PriceBounds
from coevomarket.seeds import derive_seed
from coevomarket.stgp import (GenParams, canonicalize, format_tree,
                              parse_tree, run_experiment)
from coevomarket.traders import (AdaptiveClimber, CustomerOrder, gvwy_quote,
                                 parse_strategy, przi_pmf, shvr_quote)
from oracles import rqa_oracle


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"acceptance {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. PRZI endpoint equivalence: s=0 is exactly uniform over its support,
#    s=+1 quotes the GVWY price with probability 1, s=-1 the SHVR price.
# ---------------------------------------------------------------------------

def test_przi_endpoints_match_reference_strategies():
    t0 = time.monotonic()
    rng = random.Random(4101)
    worst_dev = 0.0
    for _ in range(1000):
        bounds = PriceBounds(1, rng.randint(150, 400))
        book = OrderBook(bounds=bounds)
        for k in range(rng.randint(0, 4)):
            book.submit_order(Order(trader_id=f"x{k}",
                                    side=rng.choice((BID, ASK)),
                                    price=rng.randint(1, bounds.sys_max),
                                    quantity=1, submit_time=k))
        side = rng.choice((BID, ASK))
        co = CustomerOrder(side=side, limit=rng.randint(1, bounds.sys_max),
                           issue_time=0)
        shave = rng.choice((1, 1, 2, 5))

        flat = przi_pmf(0.0, co, book, shave)
        n = len(flat.mass)
        worst_dev = max(worst_dev,
                        max(abs(m - 1.0 / n) for m in flat.mass))

        greedy = przi_pmf(1.0, co, book, shave)
        assert greedy.mass[gvwy_quote(co) - greedy.p_lo] == 1.0

        shaver = przi_pmf(-1.0, co, book, shave)
        assert shaver.mass[shvr_quote(co, book, shave) - shaver.p_lo] == 1.0
    elapsed = time.monotonic() - t0
    _verdict(1, "przi endpoint equivalence",
             worst_dev == 0.0 and elapsed < 5.0,
             f"max uniform deviation={worst_dev}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Hill-climber convergence on a frozen unimodal objective:
#    within 0.1 of the optimum in <= 500 adoptions for >= 95/100 seeds.
# ---------------------------------------------------------------------------

def test_hill_climber_converges_on_frozen_objective():
    t0 = time.monotonic()
    converged = 0
    for seed in range(100):
        rng = random.Random(seed)
        opt = rng.uniform(-0.9, 0.9)
        climber = AdaptiveClimber(rng.uniform(-1.0, 1.0), rng,
                                  k=2, n_trades=1, width=0.05)
        while climber.adoptions < 500:
            climber.observe_trade(1.0 - (climber.current_s - opt) ** 2)
            if abs(climber.prod_s - opt) <= 0.1:
                converged += 1
                break
    elapsed = time.monotonic() - t0
    _verdict(2, "hill-climber convergence",
             converged >= 95 and elapsed < 30.0,
             f"{converged}/100 seeds, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Strategy-space vector field: a 21x21 grid over the two adapting
#    traders' strategy values shows exactly one detected attractor basin
#    in the quadrant s_b < 0, s_s > 0, plus a connected low-drift region
#    (below 25% of the field maximum) containing the origin.
#    Coordinates themselves are not asserted.
# ---------------------------------------------------------------------------

def test_strategy_field_has_single_attractor_and_origin_plateau():
    t0 = time.monotonic()
    roster = [
        RosterEntry("AB", BID, parse_strategy("PRZI_SHC(0.0,nt=3,w=0.12)")),
        RosterEntry("AS", ASK, parse_strategy("PRZI_SHC(0.0,nt=3,w=0.12)")),
    ]
    roster += [RosterEntry(f"B{n:02d}", BID, parse_strategy(f"PRZI({s})"))
               for n, s in enumerate([-0.6, -0.2, 0.2, 0.6, 0.0])]
    roster += [RosterEntry(f"S{n:02d}", ASK, parse_strategy(f"PRZI({s})"))
               for n, s in enumerate([0.5, 0.0])]
    template = SessionConfig(
        duration=0, roster=tuple(roster),
        schedules=(Schedule(BID, 80, 180, interval=50),
                   Schedule(ASK, 60, 160, interval=50)),
        bounds=PriceBounds(1, 300), seed=0, log_interval=0)
    field = quiver_sample(template, grid_res=21, horizon=6000, reps=16,
                          seed=933)
    basins = detect_attractors(field, threshold=0.55, min_cells=2)
    in_quadrant = [b for b in basins
                   if b.centroid[0] < 0 and b.centroid[1] > 0]
    plateau = origin_plateau(field, frac=0.25)
    elapsed = time.monotonic() - t0
    desc = " ".join(f"({b.centroid[0]:+.2f},{b.centroid[1]:+.2f})"
                    for b in basins) or "none"
    # the single in-quadrant basin must be the genuine shading
    # equilibrium (buyer well below 0, seller well above), not a
    # low-drift noise blob next to the origin plateau
    deep = (len(in_quadrant) == 1
            and in_quadrant[0].centroid[0] <= -0.5
            and in_quadrant[0].centroid[1] >= 0.3)
    _verdict(3, "strategy-field attractor and plateau",
             deep and plateau is not None and elapsed < 1800.0,
             f"basins: {desc}; plateau="
             f"{0 if plateau is None else len(plateau)} cells, "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 4. RQA equivalence: all six measures match a brute-force line-counting
#    oracle exactly on 100 random recurrence matrices.
# ---------------------------------------------------------------------------

def test_rqa_measures_match_bruteforce_oracle():
    t0 = time.monotonic()
    rng = random.Random(4404)
    for trial in range(100):
        t = rng.randint(2, 30)
        theiler = rng.choice((0, 1, 1, 2))
        density = rng.uniform(0.1, 0.9)
        bits = np.zeros((t, t), dtype=np.uint8)
        for i in range(t):
            for j in range(i, t):
                v = 1 if rng.random() < density else 0
                bits[i][j] = bits[j][i] = v
        if theiler:
            idx = np.arange(t)
            bits[np.abs(idx[:, None] - idx[None, :]) < theiler] = 0
        l_min = rng.choice((2, 2, 3))
        v_min = rng.choice((2, 2, 3))
        got = rqa_metrics(RecurrenceMatrix(bits=bits, eps=1.0,
                                           theiler_w=theiler),
                          l_min=l_min, v_min=v_min)
        want = rqa_oracle(bits.tolist(), theiler, l_min, v_min)
        assert (got.rr, got.det, got.lam, got.l_mean, got.l_max,
                got.ent) == (want["rr"], want["det"], want["lam"],
                             want["l_mean"], want["l_max"],
                             want["ent"]), f"trial {trial}"
    elapsed = time.monotonic() - t0
    _verdict(4, "rqa oracle equivalence", elapsed < 5.0,
             f"100/100 exact, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. Recurrence structure of a coevolving market's strategy log:
#    DET exceeds the 95th percentile of 100 time-shuffled surrogates.
# ---------------------------------------------------------------------------

def test_strategy_log_det_beats_shuffled_surrogates():
    t0 = time.monotonic()
    b_init = [-0.6, -0.3, 0.0, 0.3, 0.6, 0.9]
    s_init = [0.9, 0.6, 0.3, 0.0, -0.3, -0.6]
    roster = [RosterEntry(f"AB{n}", BID,
                          parse_strategy(f"PRZI_SHC({s},nt=3,w=0.15)"))
              for n, s in enumerate(b_init)]
    roster += [RosterEntry(f"AS{n}", ASK,
                           parse_strategy(f"PRZI_SHC({s},nt=3,w=0.15)"))
               for n, s in enumerate(s_init)]
    cfg = SessionConfig(
        duration=20000, roster=tuple(roster),
        schedules=(Schedule(BID, 80, 180, interval=50),
                   Schedule(ASK, 60, 160, interval=50)),
        bounds=PriceBounds(1, 300), seed=2001, log_interval=100)
    log = run_session(cfg).strategy_log
    assert log is not None and log.dim >= 10
    eps = default_epsilon(log)
    det = rqa_metrics(recurrence_matrix(log, eps)).det
    rng = random.Random(derive_seed(2001, "surrogates"))
    surrogate_dets = []
    for _ in range(100):
        shuffled = surrogate_shuffle(log, rng)
        surrogate_dets.append(rqa_metrics(recurrence_matrix(shuffled,
                                                            eps)).det)
    p95 = sorted(surrogate_dets)[94]
    elapsed = time.monotonic() - t0
    _verdict(5, "recurrence determinism vs surrogates", det > p95,
             f"det={det:.3f} surrogate p95={p95:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6 & 7 share five evolution runs: 50 adaptive buyers + 50 fixed-rule
# buyers vs 100 fixed-rule sellers, 40 generations x 10000 time units.
# ---------------------------------------------------------------------------

EVOLUTION_SEEDS = (101, 102, 103, 104, 105)
GENERATIONS = 40


@pytest.fixture(scope="module")
def evolution_runs():
    stgp = parse_strategy("STGP")
    zic = parse_strategy("ZIC")
    roster = tuple(
        [RosterEntry(f"G{i:03d}", BID, stgp) for i in range(50)]
        + [RosterEntry(f"B{i:03d}", BID, zic) for i in range(50)]
        + [RosterEntry(f"S{i:03d}", ASK, zic) for i in range(100)])
    template = SessionConfig(
        duration=10000, roster=roster,
        schedules=(Schedule(BID, 100, 250, interval=100),
                   Schedule(ASK, 100, 250, interval=100)),
        bounds=PriceBounds(1, 500), log_interval=0)
    genome = parse_tree("(S,(S,Pbest,1),LIMIT)")
    params = GenParams(p_mut=0.03, p_x=0.9, max_depth=8)
    return [run_experiment(template, genome, GENERATIONS, params, seed)
            for seed in EVOLUTION_SEEDS]


def test_evolved_profits_rise_sharply_then_erode(evolution_runs):
    t0 = time.monotonic()
    gens = range(1, GENERATIONS + 1)
    median_fitness = [statistics.median(run[g - 1].mean_fitness
                                        for run in evolution_runs)
                      for g in gens]
    peak = max(gens, key=lambda g: median_fitness[g - 1])
    peak_in_window = 2 <= peak <= 10
    growth_ok = median_fitness[peak - 1] >= 1.5 * median_fitness[0]
    post_peak = median_fitness[peak - 1:]
    rho = stats.spearmanr(range(len(post_peak)), post_peak).statistic
    elapsed = time.monotonic() - t0
    _verdict(6, "evolution biphasic profits",
             peak_in_window and growth_ok and rho < 0,
             f"gen1={median_fitness[0]:.1f} peak=g{peak} "
             f"({median_fitness[peak - 1]:.1f}) post-peak rho={rho:+.3f}, "
             f"+{elapsed:.1f}s")


BLOAT_CHAIN = ("(S,(S,(S,(S,(S,(S,(S,(S,(S,(S,Pbest,1),7),7),1),1),7),1),"
               "1),7),1)")


def test_genomes_bloat_while_canonical_form_stays_small(evolution_runs):
    t0 = time.monotonic()
    gens = range(1, GENERATIONS + 1)
    mean_size = [statistics.mean(run[g - 1].mean_size
                                 for run in evolution_runs)
                 for g in gens]
    rho = stats.spearmanr(list(gens), mean_size).statistic
    reduced = canonicalize(parse_tree(BLOAT_CHAIN))
    canonical_ok = (reduced == ("S", "Pbest", 34)
                    and format_tree(reduced) == "(S,Pbest,34)")
    elapsed = time.monotonic() - t0
    _verdict(7, "genome bloat and canonicalization",
             rho > 0 and canonical_ok,
             f"size rho={rho:+.3f} "
             f"(size g1={mean_size[0]:.1f} g40={mean_size[-1]:.1f}), "
             f"canonical={format_tree(reduced)}, +{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Market-level invariants under fuzz: 10^4 random order streams never
#    cross the book, and 10^4 random sessions conserve surplus, contain
#    no loss-making trades, and rerun byte-identically.
# ---------------------------------------------------------------------------

FUZZ_STRATEGIES = (
    "ZIC", "ZIC", "ZIC", "GVWY", "GVWY", "SHVR", "SHVR",
    "PRZI(-0.8)", "PRZI(-0.4)", "PRZI(0.4)", "PRZI(0.8)",
    "PRZI_SHC(0.0,nt=2,w=0.2)", "STGP(LIMIT)", "STGP((S,LIMIT,5))",
    "STGP((A,Pbest,3))",
)


def _random_session_config(rng):
    roster = [RosterEntry(f"B{i}", BID,
                          parse_strategy(rng.choice(FUZZ_STRATEGIES)))
              for i in range(rng.randint(1, 4))]
    roster += [RosterEntry(f"S{i}", ASK,
                           parse_strategy(rng.choice(FUZZ_STRATEGIES)))
               for i in range(rng.randint(1, 4))]
    sys_max = rng.randint(120, 260)
    schedules = []
    for side in (BID, ASK):
        lo = rng.randint(1, sys_max - 40)
        schedules.append(Schedule(side, lo, rng.randint(lo, sys_max),
                                  mode=rng.choice(("uniform", "fixed")),
                                  interval=rng.choice((20, 50, 100, 250))))
    return SessionConfig(
        duration=rng.randint(50, 300), roster=tuple(roster),
        schedules=tuple(schedules), bounds=PriceBounds(1, sys_max),
        seed=rng.randrange(2 ** 32), log_interval=rng.choice((0, 0, 50)),
        quote_mode=rng.choice(("raw", "improvement")),
        shave=rng.choice((1, 1, 2, 5)))


def _canonical_bytes(result):
    return repr((tuple(result.tape), sorted(result.profits.items()),
                 sorted(result.event_counts.items()),
                 tuple(result.trade_limits),
                 sorted(result.final_strategies.items()))).encode()


def test_invariants_hold_over_fuzzed_sessions():
    t0 = time.monotonic()
    rng = random.Random(8801)
    for _ in range(10_000):
        book = OrderBook(bounds=PriceBounds(1, 200))
        for k in range(rng.randint(5, 40)):
            tid = f"T{rng.randint(0, 9)}"
            if rng.random() < 0.15:
                book.cancel(tid)
            else:
                book.submit_order(Order(trader_id=tid,
                                        side=rng.choice((BID, ASK)),
                                        price=rng.randint(1, 200),
                                        quantity=1, submit_time=k))
            assert not book.is_crossed()

    for _ in range(10_000):
        cfg = _random_session_config(rng)
        first = run_session(cfg)
        second = run_session(cfg)
        assert _canonical_bytes(first) == _canonical_bytes(second), cfg
        realized = sum(first.profits.values())
        ceiling = sum(b - s for b, s in first.trade_limits)
        assert realized == ceiling, cfg
        for trade, (b_limit, s_limit) in zip(first.tape, first.trade_limits):
            assert s_limit <= trade.price <= b_limit, cfg
    elapsed = time.monotonic() - t0
    _verdict(8, "market invariants under fuzz", elapsed < 60.0,
             f"2x10^4 cases, 0 violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Allocative efficiency of a balanced all-ZIC market: realized
#    surplus / equilibrium surplus >= 0.9 on average over 100 seeds.
# ---------------------------------------------------------------------------

def _ladder(p_min, p_max, n):
    return [p_min + round(i * (p_max - p_min) / (n - 1)) for i in range(n)]


def test_zic_market_is_allocatively_efficient():
    t0 = time.monotonic()
    zic = parse_strategy("ZIC")
    roster = tuple([RosterEntry(f"B{i}", BID, zic) for i in range(5)]
                   + [RosterEntry(f"S{i}", ASK, zic) for i in range(5)])
    schedules = (Schedule(BID, 100, 200, mode="fixed", interval=500),
                 Schedule(ASK, 50, 150, mode="fixed", interval=500))
    per_sweep, _ = equilibrium_surplus(_ladder(100, 200, 5),
                                       _ladder(50, 150, 5))
    available = per_sweep * 5  # five replenishment sweeps per session
    efficiencies = []
    for seed in range(100):
        cfg = SessionConfig(duration=2500, roster=roster,
                            schedules=schedules, seed=seed, log_interval=0)
        result = run_session(cfg)
        efficiencies.append(sum(result.profits.values()) / available)
    mean_eff = statistics.mean(efficiencies)
    elapsed = time.monotonic() - t0
    _verdict(9, "zic allocative efficiency", mean_eff >= 0.9,
             f"mean={mean_eff:.4f} over 100 seeds, {elapsed:.1f}s")
