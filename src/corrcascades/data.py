"""Event records and sorted adoption logs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Event:
    """A single adoption: user picked product at time."""

    time: float
    user: int
    product: int


class EventLog:
    """Time-sorted sequence of adoption events over a finite horizon.

    Stores the events as parallel numpy arrays (times, users, products) for
    fast vectorized scans.  Immutable after construction; restriction views
    return new logs that preserve the original order.
    """

    __slots__ = ("times", "users", "products", "horizon", "n_users", "n_products")

    def __init__(
        self,
        events: Iterable[Event] | Iterable[tuple],
        horizon: float,
        n_users: int,
        n_products: int,
    ):
        if n_users < 1 or n_products < 1:
            raise ValueError("n_users and n_products must be >= 1")
        # NaN passes every comparison below, so finiteness is checked first
        if not np.isfinite(horizon):
            raise ValueError("horizon must be finite")
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        rows = [(e.time, e.user, e.product) if isinstance(e, Event) else tuple(e) for e in events]
        if rows:
            times = np.array([r[0] for r in rows], dtype=float)
            users = np.array([r[1] for r in rows], dtype=np.int64)
            products = np.array([r[2] for r in rows], dtype=np.int64)
        else:
            times = np.empty(0, dtype=float)
            users = np.empty(0, dtype=np.int64)
            products = np.empty(0, dtype=np.int64)
        if times.size:
            if not np.all(np.isfinite(times)):
                raise ValueError("event times must be finite")
            if np.any(np.diff(times) < 0):
                raise ValueError("events must be sorted nondecreasing by time")
            if times[0] < 0:
                raise ValueError("event times must be nonnegative")
            if times[-1] > horizon:
                raise ValueError("event times must not exceed the horizon")
            if users.min() < 0 or users.max() >= n_users:
                raise ValueError("user id out of range")
            if products.min() < 0 or products.max() >= n_products:
                raise ValueError("product id out of range")
        self.times = times
        self.users = users
        self.products = products
        self.horizon = float(horizon)
        self.n_users = int(n_users)
        self.n_products = int(n_products)
        self.times.setflags(write=False)
        self.users.setflags(write=False)
        self.products.setflags(write=False)

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self) -> Iterator[Event]:
        for t, u, p in zip(self.times, self.users, self.products):
            yield Event(float(t), int(u), int(p))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return (
            self.horizon == other.horizon
            and self.n_users == other.n_users
            and self.n_products == other.n_products
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.users, other.users)
            and np.array_equal(self.products, other.products)
        )

    def _mask(self, mask: np.ndarray) -> "EventLog":
        return EventLog(
            zip(self.times[mask], self.users[mask], self.products[mask]),
            self.horizon,
            self.n_users,
            self.n_products,
        )

    def restrict_user(self, user: int) -> "EventLog":
        """D_u: the events of one user, order preserved."""
        return self._mask(self.users == user)

    def restrict_product(self, product: int) -> "EventLog":
        """D^q: the events carrying one product, order preserved."""
        return self._mask(self.products == product)

    def before(self, s: float) -> "EventLog":
        """D(s): events strictly before time s (left-limit convention)."""
        return self._mask(self.times < s)

    def with_horizon(self, horizon: float) -> "EventLog":
        """Same events re-wrapped with a different horizon."""
        return EventLog(zip(self.times, self.users, self.products), horizon, self.n_users, self.n_products)


def concat_logs(head: EventLog, tail: EventLog) -> EventLog:
    """Concatenate two logs over adjacent windows into one over the union."""
    if head.n_users != tail.n_users or head.n_products != tail.n_products:
        raise ValueError("logs have mismatched dimensions")
    if tail.times.size and head.times.size and tail.times[0] < head.times[-1]:
        raise ValueError("tail events start before head events end")
    events = list(zip(head.times, head.users, head.products)) + list(
        zip(tail.times, tail.users, tail.products)
    )
    return EventLog(events, max(head.horizon, tail.horizon), head.n_users, head.n_products)
