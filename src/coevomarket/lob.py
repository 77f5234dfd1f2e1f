"""Limit order book with price-time priority and immediate matching.

The book holds at most one resting order per trader: submitting a new
order first removes any previous one from the same trader.  Orders are
for one unit each.  An incoming order that crosses the opposite side
executes at the *resting* order's price, so the spread goes to
whichever party arrived second.  Prices are integer ticks on a fixed
system range.
"""

import csv
from bisect import bisect_left, insort
from dataclasses import dataclass

BID = "Bid"
ASK = "Ask"
SIDES = (BID, ASK)


@dataclass(frozen=True)
class PriceBounds:
    """System-wide price limits, in ticks."""

    sys_min: int = 1
    sys_max: int = 500

    def __post_init__(self):
        if self.sys_min < 0 or self.sys_max <= self.sys_min:
            raise ValueError(f"bad price bounds [{self.sys_min}, {self.sys_max}]")

    def clamp(self, price: int) -> int:
        return min(max(price, self.sys_min), self.sys_max)

    def contains(self, price: int) -> bool:
        return self.sys_min <= price <= self.sys_max


@dataclass
class Order:
    trader_id: str
    side: str
    price: int
    quantity: int
    submit_time: int
    seq: int = -1  # arrival number, assigned by the book


@dataclass(frozen=True)
class Trade:
    time: int
    price: int
    buyer_id: str
    seller_id: str
    quantity: int


@dataclass(frozen=True)
class OrderRested:
    order: Order


@dataclass(frozen=True)
class OrderReplaced:
    """A trader's previous resting order was removed on resubmit."""

    order: Order


@dataclass(frozen=True)
class TradeExecuted:
    trade: Trade


class OrderRejected(ValueError):
    pass


class _BookSide:
    """One side of the book: orders sorted best-first.

    Sort keys are (signed price, seq) so price ties resolve by arrival
    order.  Lookup by trader id is a dict; the sorted list only holds
    key tuples, which keeps insertion and removal at bisect cost.
    """

    def __init__(self, side: str):
        self.side = side
        self._sign = -1 if side == BID else 1
        self._entries: list = []  # (signed_price, seq, trader_id)
        self._orders: dict = {}  # trader_id -> Order

    def __len__(self):
        return len(self._entries)

    def __contains__(self, trader_id):
        return trader_id in self._orders

    def add(self, order: Order):
        self._orders[order.trader_id] = order
        insort(self._entries, (self._sign * order.price, order.seq, order.trader_id))

    def remove(self, trader_id: str):
        order = self._orders.pop(trader_id)
        entry = (self._sign * order.price, order.seq, trader_id)
        i = bisect_left(self._entries, entry)
        del self._entries[i]
        return order

    def best(self):
        if not self._entries:
            return None
        return self._orders[self._entries[0][2]]

    def get(self, trader_id: str):
        return self._orders.get(trader_id)


class OrderBook:
    """Continuous double auction book over a fixed price range.

    ``eligible`` is an optional hook called with the submitting trader's
    id; it lets the session layer reject quotes from traders that hold
    no live customer assignment without the book knowing about
    assignments.
    """

    def __init__(self, bounds: PriceBounds = PriceBounds(), eligible=None):
        self.bounds = bounds
        self.eligible = eligible
        self.tape: list[Trade] = []
        self._bids = _BookSide(BID)
        self._asks = _BookSide(ASK)
        self._next_seq = 0

    def best_bid(self):
        order = self._bids.best()
        return None if order is None else order.price

    def best_ask(self):
        order = self._asks.best()
        return None if order is None else order.price

    def depth(self, side: str) -> int:
        return len(self._bids) if side == BID else len(self._asks)

    def order_of(self, trader_id: str):
        return self._bids.get(trader_id) or self._asks.get(trader_id)

    def is_crossed(self) -> bool:
        bid, ask = self.best_bid(), self.best_ask()
        return bid is not None and ask is not None and bid >= ask

    def cancel(self, trader_id: str):
        """Remove the trader's resting order, returning it (or None)."""
        for book_side in (self._bids, self._asks):
            if trader_id in book_side:
                return book_side.remove(trader_id)
        return None

    def submit_order(self, order: Order) -> list:
        """Match-or-rest an incoming unit order, returning the event list.

        Events appear in causal order: OrderReplaced for any prior order
        by the same trader, then TradeExecuted if the order crosses the
        best opposite order, else OrderRested.  Raises OrderRejected for
        bad side, off-range price, a quantity other than 1, or an
        ineligible trader.
        """
        self._validate(order)
        events = []
        prior = self.cancel(order.trader_id)
        if prior is not None:
            events.append(OrderReplaced(prior))
        order.seq = self._next_seq
        self._next_seq += 1

        own, opp = (self._bids, self._asks) if order.side == BID else (self._asks, self._bids)
        best = opp.best()
        if best is None or not self._crosses(order.side, order.price, best.price):
            own.add(order)
            events.append(OrderRested(order))
            return events
        if order.side == BID:
            buyer_id, seller_id = order.trader_id, best.trader_id
        else:
            buyer_id, seller_id = best.trader_id, order.trader_id
        trade = Trade(time=order.submit_time, price=best.price,
                      buyer_id=buyer_id, seller_id=seller_id, quantity=1)
        self.tape.append(trade)
        events.append(TradeExecuted(trade))
        opp.remove(best.trader_id)
        return events

    @staticmethod
    def _crosses(side: str, price: int, opp_price: int) -> bool:
        return price >= opp_price if side == BID else price <= opp_price

    def _validate(self, order: Order):
        if order.side not in SIDES:
            raise OrderRejected(f"unknown side {order.side!r}")
        if not isinstance(order.price, int) or not self.bounds.contains(order.price):
            raise OrderRejected(f"price {order.price!r} outside "
                                f"[{self.bounds.sys_min}, {self.bounds.sys_max}]")
        if order.quantity != 1:
            raise OrderRejected(f"quantity {order.quantity} != 1: the book "
                                f"trades unit orders only")
        if self.eligible is not None and not self.eligible(order.trader_id):
            raise OrderRejected(f"trader {order.trader_id} has no live assignment")


def export_tape(trades, fileobj):
    """Write trades as CSV: time,price,buyer_id,seller_id,qty."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["time", "price", "buyer_id", "seller_id", "qty"])
    for t in trades:
        writer.writerow([t.time, t.price, t.buyer_id, t.seller_id, t.quantity])
