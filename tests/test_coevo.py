"""Adaptive climber lifecycle and quiver-field sampling/detection."""

import math
import random

import numpy as np
import pytest
from scipy import stats

from coevomarket.coevo import (QuiverField, convergence_score,
                               detect_attractors, export_quiver,
                               origin_plateau, quiver_sample)
from coevomarket.harness import RosterEntry, Schedule, SessionConfig
from coevomarket.lob import ASK, BID
from coevomarket.traders import AdaptiveClimber, Strategy, mutate_strategy


class _FixedDraw:
    """rng stub whose uniform() returns a preset value."""

    def __init__(self, value):
        self.value = value

    def uniform(self, a, b):
        return self.value


# --- mutation ---

def test_mutate_clips_at_bounds():
    assert mutate_strategy(0.98, 0.05, _FixedDraw(0.05)) == 1.0
    assert mutate_strategy(-0.98, 0.05, _FixedDraw(-0.05)) == -1.0
    assert mutate_strategy(0.0, 0.05, _FixedDraw(-0.03)) == -0.03


def test_mutate_zero_width_is_identity():
    rng = random.Random(0)
    assert mutate_strategy(0.4, 0.0, rng) == 0.4


def test_mutate_draws_uniformly_over_width():
    rng = random.Random(808)
    n = 10 ** 5
    draws = [mutate_strategy(0.0, 0.05, rng) for _ in range(n)]
    assert all(-0.05 <= d <= 0.05 for d in draws)
    counts, _ = np.histogram(draws, bins=20, range=(-0.05, 0.05))
    chi2 = stats.chisquare(counts)
    assert chi2.pvalue > 0.01


# --- climber lifecycle ---

def test_climber_validates_arguments():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        AdaptiveClimber(1.5, rng)
    with pytest.raises(ValueError):
        AdaptiveClimber(0.0, rng, k=1)
    with pytest.raises(ValueError):
        AdaptiveClimber(0.0, rng, n_trades=0)


def test_window_completion_flips_active_slot():
    ac = AdaptiveClimber(0.0, random.Random(2), n_trades=2)
    assert ac.active == 0
    assert ac.observe_trade(5) is False
    assert ac.observe_trade(0) is False  # zero profit still counts
    assert ac.active == 1


def test_full_cycle_emits_exactly_one_adoption():
    ac = AdaptiveClimber(0.0, random.Random(3), n_trades=2)
    adoptions = [ac.observe_trade(1) for _ in range(4)]
    assert adoptions == [False, False, False, True]
    assert ac.adoptions == 1
    assert ac.active == 0
    assert ac.counts == [0, 0]


def test_better_dev_replaces_prod():
    ac = AdaptiveClimber(0.0, random.Random(4), n_trades=1)
    dev = ac.slots[1]
    ac.observe_trade(5)  # P earns 5
    ac.observe_trade(7)  # D earns 7
    assert ac.prod_s == dev


def test_worse_dev_keeps_prod_and_regenerates():
    ac = AdaptiveClimber(0.2, random.Random(5), n_trades=1)
    old_dev = ac.slots[1]
    ac.observe_trade(7)
    ac.observe_trade(5)
    assert ac.prod_s == 0.2
    assert ac.slots[1] != old_dev


def test_tie_keeps_incumbent():
    ac = AdaptiveClimber(0.2, random.Random(6), n_trades=1)
    ac.observe_trade(5)
    ac.observe_trade(5)
    assert ac.prod_s == 0.2


def test_k3_adopts_argmax_with_incumbent_tie_win():
    ac = AdaptiveClimber(0.0, random.Random(7), k=3, n_trades=1)
    d2 = ac.slots[2]
    ac.observe_trade(5)   # P
    ac.observe_trade(5)   # D1 ties P: must not win
    ac.observe_trade(9)   # D2 wins
    assert ac.prod_s == d2
    assert ac.counts == [0, 0, 0]
    assert len(ac.slots) == 3


def test_strategy_values_never_leave_range():
    rng = random.Random(9)
    ac = AdaptiveClimber(0.9, rng, n_trades=1, width=0.3)
    for step in range(5000):
        ac.observe_trade(rng.random())
        assert all(-1.0 <= s <= 1.0 for s in ac.slots)


def test_prod_converges_on_frozen_unimodal_oracle():
    # miniature of the acceptance criterion: deterministic profit f(s)
    s_opt = 0.6
    hits = 0
    for seed in range(20):
        rng = random.Random(seed)
        ac = AdaptiveClimber(rng.uniform(-1, 1), rng, n_trades=1)
        for _ in range(500):
            ac.observe_trade(1.0 - (ac.current_s - s_opt) ** 2)
            ac.observe_trade(1.0 - (ac.current_s - s_opt) ** 2)
            if abs(ac.prod_s - s_opt) <= 0.1:
                hits += 1
                break
    assert hits >= 19


# --- quiver sampling ---

def _pair_template(n_trades=2, width=0.05):
    roster = tuple(
        [RosterEntry("AB", BID, Strategy("PRZI_SHC", s=0.0,
                                         n_trades=n_trades, width=width))] +
        [RosterEntry(f"B{i}", BID, Strategy("PRZI", s=0.0)) for i in range(3)] +
        [RosterEntry("AS", ASK, Strategy("PRZI_SHC", s=0.0,
                                         n_trades=n_trades, width=width))] +
        [RosterEntry(f"S{i}", ASK, Strategy("PRZI", s=0.0)) for i in range(3)]
    )
    schedules = (Schedule(BID, 100, 200, "uniform", 25),
                 Schedule(ASK, 50, 150, "uniform", 25))
    return SessionConfig(duration=300, roster=roster, schedules=schedules,
                         seed=0, log_interval=0)


def test_quiver_zero_mutation_width_gives_zero_field():
    field = quiver_sample(_pair_template(width=0.0), grid_res=3, horizon=200,
                          reps=1, seed=4)
    assert np.all(field.d_sb == 0.0)
    assert np.all(field.d_ss == 0.0)


def test_quiver_requires_one_adaptive_trader_per_side():
    template = _pair_template()
    broken = SessionConfig(
        duration=100,
        roster=tuple(e for e in template.roster if e.tid != "AS"),
        schedules=template.schedules)
    with pytest.raises(ValueError):
        quiver_sample(broken, grid_res=3, horizon=100, reps=1, seed=0)
    with pytest.raises(ValueError):
        quiver_sample(template, grid_res=1, horizon=100, reps=1, seed=0)
    with pytest.raises(ValueError):
        quiver_sample(template, grid_res=3, horizon=100, reps=0, seed=0)


def test_quiver_same_seed_is_bit_identical():
    a = quiver_sample(_pair_template(), grid_res=3, horizon=200, reps=2, seed=11)
    b = quiver_sample(_pair_template(), grid_res=3, horizon=200, reps=2, seed=11)
    assert np.array_equal(a.d_sb, b.d_sb)
    assert np.array_equal(a.d_ss, b.d_ss)


def test_quiver_worker_pool_matches_serial():
    serial = quiver_sample(_pair_template(), grid_res=3, horizon=150, reps=1,
                           seed=2, workers=1)
    pooled = quiver_sample(_pair_template(), grid_res=3, horizon=150, reps=1,
                           seed=2, workers=2)
    assert np.array_equal(serial.d_sb, pooled.d_sb)
    assert np.array_equal(serial.d_ss, pooled.d_ss)


# --- synthetic-field detection ---

def _field_from(fn, res=15, reps=1):
    grid = np.linspace(-1, 1, res)
    d_sb = np.zeros((res, res))
    d_ss = np.zeros((res, res))
    for i in range(res):
        for j in range(res):
            d_sb[i, j], d_ss[i, j] = fn(grid[i], grid[j])
    return QuiverField(grid=grid, d_sb=d_sb, d_ss=d_ss, reps=reps)


def test_detects_single_radial_sink():
    sink = (-0.5, 0.5)

    def inflow(sb, ss):
        return 0.1 * (sink[0] - sb), 0.1 * (sink[1] - ss)

    field = _field_from(inflow)
    found = detect_attractors(field, threshold=0.6)
    assert len(found) == 1
    sb, ss = found[0].centroid
    assert abs(sb - sink[0]) < 0.2 and abs(ss - sink[1]) < 0.2


def test_uniform_flow_has_no_attractor():
    field = _field_from(lambda sb, ss: (0.08, 0.03))
    assert detect_attractors(field, threshold=0.6) == []


def test_two_sinks_detected_separately():
    def two(sb, ss):
        target = (-0.6, -0.6) if sb + ss < 0 else (0.6, 0.6)
        return 0.1 * (target[0] - sb), 0.1 * (target[1] - ss)

    field = _field_from(two)
    found = detect_attractors(field, threshold=0.55)
    assert len(found) == 2


def test_origin_plateau_found_when_center_is_calm():
    def calm_center(sb, ss):
        r = math.hypot(sb, ss)
        scale = 0.0 if r < 0.4 else 0.2 * r
        return scale * sb, scale * ss

    field = _field_from(calm_center)
    cells = origin_plateau(field, frac=0.25)
    assert cells is not None
    o = len(field.grid) // 2
    assert (o, o) in cells


def test_origin_plateau_absent_when_center_is_fast():
    field = _field_from(lambda sb, ss: (0.3, 0.0))  # uniform fast drift
    assert origin_plateau(field, frac=0.25) is None


def test_convergence_score_needs_enough_neighbors():
    field = _field_from(lambda sb, ss: (0.0, 0.0))
    assert np.all(convergence_score(field) == 0.0)


def test_export_quiver_normalizes_but_keeps_magnitude():
    field = _field_from(lambda sb, ss: (0.3, 0.4), res=2)
    import io

    buf = io.StringIO()
    export_quiver(field, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "s_b,s_s,d_sb,d_ss,magnitude,reps"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert (float(first[2]), float(first[3])) == (0.6, 0.8)
    assert float(first[4]) == 0.5
    assert first[5] == "1"

    zero = _field_from(lambda sb, ss: (0.0, 0.0), res=2)
    buf = io.StringIO()
    export_quiver(zero, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert (float(row[2]), float(row[3]), float(row[4])) == (0.0, 0.0, 0.0)
