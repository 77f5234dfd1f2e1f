"""Session orchestration: the market clock, customer-order assignment,
trader polling, profit accounting, and experiment configuration.

A session is fully deterministic in (config, seed): every trader, every
schedule, and the poll selector draw from their own hash-derived RNG
stream, so no component's consumption perturbs another's.
"""

import json
import random
from dataclasses import dataclass, field

from .analysis import StateSeries
from .lob import (ASK, BID, SIDES, Order, OrderBook, OrderReplaced,
                  OrderRested, PriceBounds, TradeExecuted)
from .seeds import derive_seed
from .traders import CustomerOrder, Strategy, TraderState, parse_strategy


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Schedule:
    """Supply or demand side of the market: where customer limit prices
    come from and how often the side is replenished."""

    side: str
    p_min: int
    p_max: int
    mode: str = "uniform"  # "uniform" or "fixed" (evenly stepped limits)
    interval: int = 100


@dataclass(frozen=True)
class RosterEntry:
    tid: str
    side: str
    strategy: Strategy


@dataclass(frozen=True)
class SessionConfig:
    duration: int
    roster: tuple
    schedules: tuple
    bounds: PriceBounds = PriceBounds()
    seed: int = 0
    log_interval: int = 100  # strategy-log sampling interval tau; 0 = off
    quote_mode: str = "raw"
    shave: int = 1


@dataclass
class SessionResult:
    tape: list
    profits: dict
    strategy_log: StateSeries | None
    event_counts: dict
    trade_limits: list  # (buyer limit, seller limit) per trade, tape order
    final_strategies: dict  # adaptive trader id -> final prod s


def validate_config(cfg: SessionConfig, template: bool = False):
    """Reject a malformed config before t=0; never errors mid-run.

    ``template`` relaxes the STGP-genome requirement for configs that
    serve as evolution templates, where genomes are seated later.
    """
    if cfg.duration < 0:
        raise ConfigError(f"duration must be >= 0, got {cfg.duration}")
    if cfg.log_interval < 0:
        raise ConfigError(f"log_interval must be >= 0, got {cfg.log_interval}")
    if cfg.quote_mode not in ("raw", "improvement"):
        raise ConfigError(f"unknown quote_mode {cfg.quote_mode!r}")
    if cfg.shave < 1:
        raise ConfigError(f"shave must be >= 1, got {cfg.shave}")
    if len(cfg.roster) < 2:
        raise ConfigError("roster needs at least 2 traders")
    seen = set()
    sides = set()
    for entry in cfg.roster:
        if entry.tid in seen:
            raise ConfigError(f"duplicate trader id {entry.tid!r}")
        seen.add(entry.tid)
        if entry.side not in SIDES:
            raise ConfigError(f"trader {entry.tid}: unknown side {entry.side!r}")
        sides.add(entry.side)
        if (not template and entry.strategy.kind == "STGP"
                and entry.strategy.tree is None):
            raise ConfigError(f"trader {entry.tid}: STGP seat has no genome")
    if sides != {BID, ASK}:
        raise ConfigError("roster needs at least one trader per side")
    covered = set()
    for sched in cfg.schedules:
        if sched.side not in SIDES:
            raise ConfigError(f"schedule has unknown side {sched.side!r}")
        if not (cfg.bounds.sys_min <= sched.p_min <= sched.p_max
                <= cfg.bounds.sys_max):
            raise ConfigError(f"schedule range [{sched.p_min}, {sched.p_max}] "
                              f"invalid within system bounds")
        if sched.interval < 1:
            raise ConfigError(f"replenishment interval must be >= 1, "
                              f"got {sched.interval}")
        if sched.mode not in ("uniform", "fixed"):
            raise ConfigError(f"unknown assignment mode {sched.mode!r}")
        covered.add(sched.side)
    if sides - covered:
        raise ConfigError(f"no schedule covers side(s) {sorted(sides - covered)}")


def assign_customer_orders(schedule: Schedule, roster, t: int, rng) -> list:
    """Fresh customer orders for every roster member on the schedule's
    side, in roster order.

    Fixed mode steps limits evenly from p_min to p_max across the
    members; uniform mode draws each limit independently from the
    range.
    """
    members = [e.tid for e in roster if e.side == schedule.side]
    out = []
    if schedule.mode == "fixed":
        n = len(members)
        span = schedule.p_max - schedule.p_min
        for i, tid in enumerate(members):
            limit = schedule.p_min + (round(i * span / (n - 1)) if n > 1 else 0)
            out.append((tid, CustomerOrder(side=schedule.side, limit=limit,
                                           issue_time=t)))
    else:
        for tid in members:
            limit = rng.randint(schedule.p_min, schedule.p_max)
            out.append((tid, CustomerOrder(side=schedule.side, limit=limit,
                                           issue_time=t)))
    return out


def run_session(cfg: SessionConfig) -> SessionResult:
    """Run one market session to completion.

    Per time step: replenish any schedule that is due (replacing
    assignments and cancelling the resting orders of reassigned
    traders), sample the strategy log if due, then poll one trader
    uniformly at random among those holding an assignment and submit
    its quote.  Trades credit both parties' profit against their limit
    prices and consume both assignments.
    """
    validate_config(cfg)
    traders = {}
    for entry in cfg.roster:
        rng = random.Random(derive_seed(cfg.seed, "trader", entry.tid))
        traders[entry.tid] = TraderState(id=entry.tid, side=entry.side,
                                         strategy=entry.strategy, rng=rng,
                                         quote_mode=cfg.quote_mode,
                                         shave=cfg.shave)
    book = OrderBook(bounds=cfg.bounds,
                     eligible=lambda tid: traders[tid].current is not None)
    sched_rngs = [random.Random(derive_seed(cfg.seed, "schedule", k))
                  for k in range(len(cfg.schedules))]
    poll_rng = random.Random(derive_seed(cfg.seed, "poll"))

    log_ids = [e.tid for e in cfg.roster if e.strategy.kind == "PRZI_SHC"]
    samples = []
    times = []
    active = []  # assignment holders, deterministic insertion order
    active_set = set()
    trade_limits = []
    counts = {"trades": 0, "rests": 0, "replacements": 0, "cancels": 0}

    for t in range(cfg.duration):
        for k, sched in enumerate(cfg.schedules):
            if t % sched.interval:
                continue
            for tid, co in assign_customer_orders(sched, cfg.roster, t,
                                                  sched_rngs[k]):
                traders[tid].current = co
                if book.cancel(tid) is not None:
                    counts["cancels"] += 1
                if tid not in active_set:
                    active_set.add(tid)
                    active.append(tid)
        if cfg.log_interval and log_ids and t % cfg.log_interval == 0:
            times.append(t)
            samples.append([traders[tid].climber.prod_s for tid in log_ids])
        if not active:
            continue
        tid = active[poll_rng.randrange(len(active))]
        trader = traders[tid]
        price = trader.quote(book)
        events = book.submit_order(Order(trader_id=tid, side=trader.side,
                                         price=price, quantity=1,
                                         submit_time=t))
        for ev in events:
            if isinstance(ev, TradeExecuted):
                trade = ev.trade
                buyer = traders[trade.buyer_id]
                seller = traders[trade.seller_id]
                b_limit = buyer.current.limit
                s_limit = seller.current.limit
                buyer.record_fill(trade, b_limit - trade.price)
                seller.record_fill(trade, trade.price - s_limit)
                trade_limits.append((b_limit, s_limit))
                for pid in (trade.buyer_id, trade.seller_id):
                    traders[pid].current = None
                    active_set.discard(pid)
                    active.remove(pid)
                counts["trades"] += 1
            elif isinstance(ev, OrderRested):
                counts["rests"] += 1
            elif isinstance(ev, OrderReplaced):
                counts["replacements"] += 1

    strategy_log = None
    if samples:
        strategy_log = StateSeries(samples, times=times,
                                   tau=cfg.log_interval)
    final = {tid: traders[tid].climber.prod_s for tid in log_ids}
    return SessionResult(tape=book.tape,
                         profits={e.tid: traders[e.tid].profit
                                  for e in cfg.roster},
                         strategy_log=strategy_log,
                         event_counts=counts,
                         trade_limits=trade_limits,
                         final_strategies=final)


def equilibrium_surplus(buyer_limits, seller_limits):
    """Maximum total surplus and competitive equilibrium price range.

    Buyers sorted descending meet sellers sorted ascending; pairs match
    greedily while the buyer limit covers the seller limit.  Returns
    (surplus, (low, high)) with the marginal-pair price interval, or
    (0, None) when no pair overlaps.
    """
    buyers = sorted(buyer_limits, reverse=True)
    sellers = sorted(seller_limits)
    k = 0
    surplus = 0
    while k < len(buyers) and k < len(sellers) and buyers[k] >= sellers[k]:
        surplus += buyers[k] - sellers[k]
        k += 1
    if k == 0:
        return 0, None
    lo = sellers[k - 1]
    hi = buyers[k - 1]
    if k < len(buyers):
        lo = max(lo, buyers[k])
    if k < len(sellers):
        hi = min(hi, sellers[k])
    return surplus, (lo, hi)


# --- config documents ---

def load_config(path) -> dict:
    """Read a JSON config document; all failures are ConfigError."""
    try:
        with open(path, encoding="utf8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


REQUIRED = object()  # read_fields default marker: the key must be present

_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def read_fields(doc, where: str, fields: dict) -> dict:
    """Read a config object against ``{key: (type, default)}``.

    Unknown keys, missing REQUIRED keys and values of the wrong type are
    ConfigErrors.  A float field also takes an int; a bool never counts
    as a number.  Values come back as written, absent keys as their
    default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")
    out = {}
    for key, (kind, default) in fields.items():
        if key not in doc:
            if default is REQUIRED:
                raise ConfigError(f"{where} needs {key!r}")
            out[key] = default
            continue
        value = doc[key]
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"{where} key {key!r} must be "
                              f"{_TYPE_NAMES[kind]}, got {value!r}")
        out[key] = value
    return out


def parse_session_config(doc: dict, seed=None,
                         template: bool = False) -> SessionConfig:
    """Build a SessionConfig from a plain dict (reference encoding:
    JSON).  Field names mirror SessionConfig; unknown keys are errors.
    ``seed`` overrides the document's seed when given."""
    f = read_fields(doc, "session config", {
        "duration": (int, REQUIRED), "seed": (int, 0),
        "sys_min": (int, 1), "sys_max": (int, 500),
        "log_interval": (int, 100), "quote_mode": (str, "raw"),
        "shave": (int, 1), "roster": (list, []), "schedules": (list, []),
    })
    try:
        bounds = PriceBounds(sys_min=f["sys_min"], sys_max=f["sys_max"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = SessionConfig(
        duration=f["duration"],
        roster=tuple(_parse_roster(f["roster"])),
        schedules=tuple(_parse_schedule(e) for e in f["schedules"]),
        bounds=bounds,
        seed=seed if seed is not None else f["seed"],
        log_interval=f["log_interval"],
        quote_mode=f["quote_mode"],
        shave=f["shave"],
    )
    validate_config(cfg, template=template)
    return cfg


def _parse_roster(entries) -> list:
    out = []
    for entry in entries:
        f = read_fields(entry, "roster entry", {
            "id": (str, None), "count": (int, None), "prefix": (str, "T"),
            "side": (str, REQUIRED), "strategy": (str, REQUIRED),
        })
        try:
            strategy = parse_strategy(f["strategy"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if f["count"] is not None:
            for i in range(f["count"]):
                out.append(RosterEntry(tid=f"{f['prefix']}{i:03d}",
                                       side=f["side"], strategy=strategy))
        elif f["id"] is not None:
            out.append(RosterEntry(tid=f["id"], side=f["side"],
                                   strategy=strategy))
        else:
            raise ConfigError(f"roster entry needs 'id' or 'count': {entry!r}")
    return out


def _parse_schedule(entry) -> Schedule:
    return Schedule(**read_fields(entry, "schedule", {
        "side": (str, REQUIRED), "p_min": (int, REQUIRED),
        "p_max": (int, REQUIRED), "mode": (str, "uniform"),
        "interval": (int, 100),
    }))
