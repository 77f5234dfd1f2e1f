"""Quote-price generators: ZIC, GVWY, SHVR, PRZI, and their adaptive
and evolved wrappers, including the PRZI_SHC hill-climber.

Every generator is a pure function of (customer order, visible book,
rng); rng instances are per-trader and never shared.  All strategies
are loss-avoiding by construction: a buyer never quotes above its limit
price, a seller never below.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

from . import stgp
from .lob import BID, PriceBounds

SNAP = 0.995  # |s| at or beyond this quotes the degenerate endpoint exactly
EPS_THETA = 0.01


@dataclass(frozen=True)
class CustomerOrder:
    """An instruction to buy or sell one unit at limit price no worse
    than ``limit``."""

    side: str
    limit: int
    issue_time: int


def zic_quote(co: CustomerOrder, bounds: PriceBounds, rng) -> int:
    """Uniform draw over the whole no-loss range (constrained ZI)."""
    if co.side == BID:
        return rng.randint(bounds.sys_min, co.limit)
    return rng.randint(co.limit, bounds.sys_max)


def gvwy_quote(co: CustomerOrder) -> int:
    """Quote the limit price itself: zero margin, trades greedily."""
    return co.limit


def shvr_quote(co: CustomerOrder, book, shave: int = 1) -> int:
    """Improve the best same-side price by ``shave`` ticks, capped at
    the limit; quote the own-side stub price if that side is empty."""
    if co.side == BID:
        best = book.best_bid()
        if best is None:
            return book.bounds.sys_min
        return min(best + shave, co.limit)
    best = book.best_ask()
    if best is None:
        return book.bounds.sys_max
    return max(best - shave, co.limit)


@dataclass(frozen=True)
class PrziPmf:
    """Quote distribution of a PRZI trader over its support prices.

    ``mass[k]`` is the probability of quoting price ``p_lo + k``;
    ``cum`` is its running sum, precomputed for inverse-CDF sampling.
    """

    side: str
    p_lo: int
    p_hi: int
    s: float
    mass: tuple
    cum: tuple


def przi_pmf(s: float, co: CustomerOrder, book, shave: int = 1) -> PrziPmf:
    """Build the PRZI quote distribution for strategy value s.

    The support runs from the SHVR anchor price to the limit (mirrored
    for sellers), so both behavioral extremes lie in-support.  Mass is
    shaped as exp(theta(s) * u(p)) where u maps the support linearly
    onto [0, 1] with u = 1 at the GVWY end, and theta(s) =
    tan(pi/2 * s * (1 - EPS_THETA)):

    * s = 0 gives theta = 0, exactly uniform, matching ZIC restricted
      to the support;
    * s -> +1 piles mass onto the limit price (GVWY); s -> -1 onto the
      anchor (SHVR); at |s| >= SNAP the distribution snaps to exactly
      degenerate so the endpoint identities hold with equality.
    """
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"strategy value {s} outside [-1, +1]")
    anchor = shvr_quote(co, book, shave)
    if co.side == BID:
        p_lo, p_hi = min(anchor, co.limit), co.limit
        rising = True  # GVWY endpoint (the limit) is at the top of support
    else:
        p_lo, p_hi = co.limit, max(anchor, co.limit)
        rising = False
    return _pmf_cached(s, co.side, p_lo, p_hi, rising)


@lru_cache(maxsize=4096)
def _pmf_cached(s: float, side: str, p_lo: int, p_hi: int,
                rising: bool) -> PrziPmf:
    n = p_hi - p_lo + 1
    mass = _przi_mass(s, n, rising)
    cum = list(mass)
    for k in range(1, n):
        cum[k] += cum[k - 1]
    cum[-1] = 1.0
    return PrziPmf(side=side, p_lo=p_lo, p_hi=p_hi, s=s,
                   mass=mass, cum=tuple(cum))


def _przi_mass(s: float, n: int, rising: bool) -> tuple:
    if n == 1:
        return (1.0,)
    if s >= SNAP:
        point = n - 1 if rising else 0
        return tuple(1.0 if k == point else 0.0 for k in range(n))
    if s <= -SNAP:
        point = 0 if rising else n - 1
        return tuple(1.0 if k == point else 0.0 for k in range(n))
    if s == 0.0:
        return (1.0 / n,) * n
    theta = math.tan(0.5 * math.pi * s * (1.0 - EPS_THETA))
    hi = max(theta, 0.0)  # stabilizer: largest exponent becomes 0
    if rising:
        weights = [math.exp(theta * k / (n - 1) - hi) for k in range(n)]
    else:
        weights = [math.exp(theta * (n - 1 - k) / (n - 1) - hi) for k in range(n)]
    total = math.fsum(weights)
    return tuple(w / total for w in weights)


def przi_quote(pmf: PrziPmf, rng) -> int:
    """Inverse-CDF sample of a quote price from the PMF."""
    k = bisect_right(pmf.cum, rng.random())
    return pmf.p_lo + min(k, len(pmf.cum) - 1)


# --- adaptive strategy (PRZI_SHC) ---

def mutate_strategy(p: float, width: float, rng) -> float:
    """Propose a nearby strategy value: p + U(-width, +width), clipped
    to [-1, +1]."""
    return min(1.0, max(-1.0, p + rng.uniform(-width, width)))


class AdaptiveClimber:
    """k-point stochastic hill-climber over PRZI strategy values.

    Slot 0 holds the prod value P, slots 1..k-1 hold dev candidates.
    The active slot supplies the trader's quoting behavior until it has
    completed ``n_trades`` trades, then the next slot takes over; when
    the last slot finishes, the most profitable value is installed as
    the new P (the incumbent wins ties) and every other slot is refilled
    with a fresh mutant of it.

    A trader that never trades never adapts: windows are counted in
    trades, not time.
    """

    def __init__(self, s0: float, rng, k: int = 2, n_trades: int = 4,
                 width: float = 0.05):
        if not -1.0 <= s0 <= 1.0:
            raise ValueError(f"initial s {s0} outside [-1, +1]")
        if k < 2:
            raise ValueError(f"need at least 2 strategy slots, got k={k}")
        if n_trades < 1:
            raise ValueError(f"evaluation window must be >= 1 trade, got {n_trades}")
        self.k = k
        self.n_trades = n_trades
        self.width = width
        self.rng = rng
        self.slots = [s0] + [mutate_strategy(s0, width, rng) for _ in range(k - 1)]
        self.counts = [0] * k
        self.profits = [0.0] * k
        self.active = 0
        self.adoptions = 0

    @property
    def prod_s(self) -> float:
        return self.slots[0]

    @property
    def current_s(self) -> float:
        return self.slots[self.active]

    def observe_trade(self, profit) -> bool:
        """Credit one completed trade to the active slot.

        Zero-profit trades still advance the window.  Returns True when
        this trade completed the last window and an adoption happened.
        """
        self.profits[self.active] += profit
        self.counts[self.active] += 1
        if self.counts[self.active] < self.n_trades:
            return False
        if self.active < self.k - 1:
            self.active += 1
            return False
        best = 0
        for i in range(1, self.k):
            if self.profits[i] > self.profits[best]:
                best = i
        p = self.slots[best]
        self.slots[0] = p
        for i in range(1, self.k):
            self.slots[i] = mutate_strategy(p, self.width, self.rng)
        self.counts = [0] * self.k
        self.profits = [0.0] * self.k
        self.active = 0
        self.adoptions += 1
        return True


# --- strategy specifications ---

@dataclass(frozen=True)
class Strategy:
    """Parsed strategy spec for one roster entry.

    ``s`` is the (initial) PRZI strategy value, ``tree`` the STGP
    genome; ``k``, ``n_trades`` and ``width`` configure the adaptive
    climber for PRZI_SHC entries.  Irrelevant fields keep defaults.
    """

    kind: str
    s: float = 0.0
    tree: object = None
    k: int = 2
    n_trades: int = 4
    width: float = 0.05


FIXED_KINDS = ("ZIC", "GVWY", "SHVR")


def parse_strategy(text: str) -> Strategy:
    """Parse the textual strategy form used in configs and logs.

    Accepts ZIC | GVWY | SHVR | PRZI(s) | PRZI_SHC(s[,k=..][,nt=..][,w=..])
    | STGP(genome) | STGP (a seat to be filled by the GP driver).
    """
    text = text.strip()
    if text in FIXED_KINDS:
        return Strategy(kind=text)
    if text == "STGP":
        return Strategy(kind="STGP")
    if text.startswith("PRZI(") and text.endswith(")"):
        return Strategy(kind="PRZI", s=_parse_s(text[5:-1], text))
    if text.startswith("STGP(") and text.endswith(")"):
        return Strategy(kind="STGP", tree=stgp.parse_tree(text[5:-1]))
    if text.startswith("PRZI_SHC(") and text.endswith(")"):
        parts = [p.strip() for p in text[9:-1].split(",")]
        spec = Strategy(kind="PRZI_SHC", s=_parse_s(parts[0], text))
        fields = {"kind": "PRZI_SHC", "s": spec.s}
        for part in parts[1:]:
            key, _, value = part.partition("=")
            if key == "k":
                fields["k"] = int(value)
            elif key == "nt":
                fields["n_trades"] = int(value)
            elif key == "w":
                fields["width"] = float(value)
            else:
                raise ValueError(f"unknown PRZI_SHC parameter {part!r} in {text!r}")
        return Strategy(**fields)
    raise ValueError(f"unknown strategy spec {text!r}")


def _parse_s(token: str, text: str) -> float:
    try:
        s = float(token)
    except ValueError:
        raise ValueError(f"bad strategy value in {text!r}") from None
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"strategy value {s} outside [-1, +1] in {text!r}")
    return s


def format_strategy(spec: Strategy) -> str:
    if spec.kind in FIXED_KINDS:
        return spec.kind
    if spec.kind == "PRZI":
        return f"PRZI({spec.s!r})"
    if spec.kind == "STGP":
        if spec.tree is None:
            return "STGP"
        return f"STGP({stgp.format_tree(spec.tree)})"
    if spec.kind == "PRZI_SHC":
        return (f"PRZI_SHC({spec.s!r},k={spec.k},nt={spec.n_trades},"
                f"w={spec.width!r})")
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


# --- per-session trader runtime ---

@dataclass
class TraderState:
    """One trader's session state: assignment, blotter, profit, and any
    adaptive machinery its strategy needs."""

    id: str
    side: str
    strategy: Strategy
    rng: object
    quote_mode: str = "raw"
    shave: int = 1
    current: CustomerOrder | None = None
    blotter: list = field(default_factory=list)
    profit: int = 0
    climber: AdaptiveClimber | None = None

    def __post_init__(self):
        if self.strategy.kind == "PRZI_SHC":
            self.climber = AdaptiveClimber(self.strategy.s, self.rng,
                                           k=self.strategy.k,
                                           n_trades=self.strategy.n_trades,
                                           width=self.strategy.width)
        elif self.strategy.kind == "STGP" and self.strategy.tree is None:
            raise ValueError(f"trader {self.id}: STGP seat has no genome")

    def quote(self, book) -> int:
        """Quote price for the current assignment given the book view."""
        co = self.current
        kind = self.strategy.kind
        if kind == "ZIC":
            return zic_quote(co, book.bounds, self.rng)
        if kind == "GVWY":
            return gvwy_quote(co)
        if kind == "SHVR":
            return shvr_quote(co, book, self.shave)
        if kind == "PRZI":
            return przi_quote(przi_pmf(self.strategy.s, co, book, self.shave),
                              self.rng)
        if kind == "PRZI_SHC":
            return przi_quote(przi_pmf(self.climber.current_s, co, book,
                                       self.shave), self.rng)
        # STGP
        if self.side == BID:
            best_same = book.best_bid()
            stub = book.bounds.sys_min
        else:
            best_same = book.best_ask()
            stub = book.bounds.sys_max
        ctx = stgp.EvalContext(best_same=best_same, limit=co.limit,
                               bounds=book.bounds, best_same_fallback=stub)
        return stgp.quote_from_tree(self.strategy.tree, ctx, self.side,
                                    self.quote_mode)

    def record_fill(self, trade, own_profit: int):
        """Book a completed trade: blotter, profit, adaptive window."""
        self.blotter.append(trade)
        self.profit += own_profit
        if self.climber is not None:
            self.climber.observe_trade(own_profit)
