"""Order book mechanics: priority, matching, events, rejections."""

import io
import random

import pytest

from coevomarket.lob import (ASK, BID, Order, OrderBook, OrderRejected,
                             OrderReplaced, OrderRested, PriceBounds, Trade,
                             TradeExecuted, export_tape)


def _order(tid, side, price, t=0, qty=1):
    return Order(trader_id=tid, side=side, price=price, quantity=qty,
                 submit_time=t)


def test_empty_book_has_no_best_prices():
    book = OrderBook()
    assert book.best_bid() is None
    assert book.best_ask() is None
    assert not book.is_crossed()


def test_resting_orders_set_best_prices():
    book = OrderBook()
    events = book.submit_order(_order("b1", BID, 100))
    assert [type(e) for e in events] == [OrderRested]
    book.submit_order(_order("s1", ASK, 110))
    assert book.best_bid() == 100
    assert book.best_ask() == 110
    assert book.depth(BID) == 1 and book.depth(ASK) == 1


def test_better_price_takes_over_best():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100))
    book.submit_order(_order("b2", BID, 105))
    book.submit_order(_order("s1", ASK, 120))
    book.submit_order(_order("s2", ASK, 115))
    assert book.best_bid() == 105
    assert book.best_ask() == 115


def test_price_tie_resolved_by_arrival_order():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100, t=0))
    book.submit_order(_order("b2", BID, 100, t=1))
    # an incoming ask at 100 must hit b1, the earlier arrival
    events = book.submit_order(_order("s1", ASK, 100, t=2))
    trades = [e.trade for e in events if isinstance(e, TradeExecuted)]
    assert len(trades) == 1
    assert trades[0].buyer_id == "b1"
    assert book.order_of("b2") is not None


def test_incoming_bid_executes_at_resting_ask_price():
    book = OrderBook()
    book.submit_order(_order("s1", ASK, 105, t=0))
    events = book.submit_order(_order("b1", BID, 120, t=3))
    trades = [e.trade for e in events if isinstance(e, TradeExecuted)]
    assert trades == [Trade(time=3, price=105, buyer_id="b1", seller_id="s1",
                            quantity=1)]
    assert book.depth(BID) == 0 and book.depth(ASK) == 0
    assert book.tape == trades


def test_incoming_ask_executes_at_resting_bid_price():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 120, t=0))
    events = book.submit_order(_order("s1", ASK, 105, t=1))
    trades = [e.trade for e in events if isinstance(e, TradeExecuted)]
    assert trades[0].price == 120
    assert trades[0].buyer_id == "b1" and trades[0].seller_id == "s1"


def test_equal_prices_cross():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100))
    events = book.submit_order(_order("s1", ASK, 100, t=1))
    assert any(isinstance(e, TradeExecuted) for e in events)


def test_non_crossing_orders_rest():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100))
    events = book.submit_order(_order("s1", ASK, 101, t=1))
    assert [type(e) for e in events] == [OrderRested]
    assert not book.is_crossed()


def test_resubmit_replaces_prior_order():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100, t=0))
    events = book.submit_order(_order("b1", BID, 90, t=1))
    assert isinstance(events[0], OrderReplaced)
    assert events[0].order.price == 100
    assert book.depth(BID) == 1
    assert book.best_bid() == 90


def test_replace_event_precedes_trade_events():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 90, t=0))
    book.submit_order(_order("s1", ASK, 100, t=1))
    events = book.submit_order(_order("b1", BID, 100, t=2))
    assert [type(e) for e in events] == [OrderReplaced, TradeExecuted]
    assert book.depth(BID) == 0


def test_side_switch_still_replaces():
    # one order per trader holds across sides
    book = OrderBook()
    book.submit_order(_order("t1", BID, 100, t=0))
    book.submit_order(_order("t1", ASK, 120, t=1))
    assert book.depth(BID) == 0
    assert book.depth(ASK) == 1


def test_cancel_removes_and_returns_order():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100))
    cancelled = book.cancel("b1")
    assert cancelled.trader_id == "b1"
    assert book.depth(BID) == 0
    assert book.cancel("b1") is None
    assert book.cancel("nobody") is None


@pytest.mark.parametrize("price", [0, -5, 501, 1000])
def test_rejects_out_of_range_price(price):
    book = OrderBook(bounds=PriceBounds(1, 500))
    with pytest.raises(OrderRejected):
        book.submit_order(_order("b1", BID, price))


def test_rejects_unknown_side_and_bad_quantity():
    book = OrderBook()
    with pytest.raises(OrderRejected):
        book.submit_order(_order("b1", "Buy", 100))
    with pytest.raises(OrderRejected):
        book.submit_order(_order("b1", BID, 100, qty=0))
    with pytest.raises(OrderRejected):
        book.submit_order(_order("b1", BID, 100, qty=2))


def test_rejection_leaves_book_unchanged():
    book = OrderBook()
    book.submit_order(_order("b1", BID, 100))
    with pytest.raises(OrderRejected):
        book.submit_order(_order("b1", BID, 9999))
    assert book.best_bid() == 100


def test_eligibility_hook_rejects_unlisted_trader():
    book = OrderBook(eligible=lambda tid: tid == "allowed")
    book.submit_order(_order("allowed", BID, 100))
    with pytest.raises(OrderRejected):
        book.submit_order(_order("other", ASK, 120))


def test_multi_unit_disabled_by_default():
    book = OrderBook()
    with pytest.raises(OrderRejected):
        book.submit_order(_order("b1", BID, 100, qty=3))


def test_book_never_crossed_under_random_flow():
    rng = random.Random(90125)
    book = OrderBook()
    traders = [f"t{i}" for i in range(12)]
    for step in range(3000):
        tid = rng.choice(traders)
        if rng.random() < 0.1:
            book.cancel(tid)
        else:
            side = BID if rng.random() < 0.5 else ASK
            price = rng.randint(1, 500)
            book.submit_order(_order(tid, side, price, t=step))
        assert not book.is_crossed()
        assert book.depth(BID) + book.depth(ASK) <= len(traders)


def test_tape_accumulates_in_execution_order():
    book = OrderBook()
    book.submit_order(_order("s1", ASK, 100, t=0))
    book.submit_order(_order("b1", BID, 100, t=1))
    book.submit_order(_order("s2", ASK, 90, t=2))
    book.submit_order(_order("b2", BID, 95, t=3))
    assert [t.price for t in book.tape] == [100, 90]


def test_export_tape_format():
    trades = [Trade(time=5, price=104, buyer_id="b1", seller_id="s2",
                    quantity=1),
              Trade(time=9, price=99, buyer_id="b3", seller_id="s1",
                    quantity=1)]
    buf = io.StringIO()
    export_tape(trades, buf)
    assert buf.getvalue() == ("time,price,buyer_id,seller_id,qty\n"
                              "5,104,b1,s2,1\n"
                              "9,99,b3,s1,1\n")


def test_price_bounds_validation():
    with pytest.raises(ValueError):
        PriceBounds(10, 10)
    with pytest.raises(ValueError):
        PriceBounds(-1, 100)
    bounds = PriceBounds(1, 500)
    assert bounds.clamp(0) == 1
    assert bounds.clamp(501) == 500
    assert bounds.clamp(77) == 77
