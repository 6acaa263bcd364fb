"""Sorted adoption logs."""

from __future__ import annotations

from typing import Iterable

import numpy as np


class EventLog:
    """Time-sorted sequence of adoption events over a finite horizon.

    Stores the events, (time, user, product) rows, as parallel numpy arrays
    for fast vectorized scans.  Immutable after construction; `before` and
    `with_horizon` return new logs that preserve the original order.
    """

    __slots__ = ("times", "users", "products", "horizon", "n_users", "n_products")

    def __init__(
        self,
        events: Iterable[tuple],
        horizon: float,
        n_users: int,
        n_products: int,
    ):
        rows = list(events)
        times, users, products = zip(*rows) if rows else ((), (), ())
        self._assign(times, users, products, horizon, n_users, n_products)

    @classmethod
    def from_arrays(cls, times, users, products, horizon, n_users, n_products) -> "EventLog":
        """A log from parallel time, user and product arrays (copied)."""
        log = cls.__new__(cls)
        log._assign(times, users, products, horizon, n_users, n_products)
        return log

    def _assign(self, times, users, products, horizon, n_users, n_products) -> None:
        # a fractional count would pass the id checks below, then be truncated
        for count in (n_users, n_products):
            if isinstance(count, (bool, np.bool_)) or not (count >= 1 and float(count).is_integer()):
                raise ValueError(
                    f"n_users and n_products must be integers >= 1, got {n_users!r} and {n_products!r}"
                )
        # NaN passes every comparison below, so finiteness is checked first
        if not np.isfinite(horizon):
            raise ValueError("horizon must be finite")
        if horizon < 0:
            raise ValueError("horizon must be nonnegative")
        times = np.array(times, dtype=float)
        users = np.array(users, dtype=np.int64)
        products = np.array(products, dtype=np.int64)
        if times.ndim != 1 or users.shape != times.shape or products.shape != times.shape:
            raise ValueError("times, users and products must be equal-length vectors")
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

    def before(self, s: float) -> "EventLog":
        """D(s): events strictly before time s (left-limit convention)."""
        mask = self.times < s
        return EventLog.from_arrays(
            self.times[mask], self.users[mask], self.products[mask], self.horizon, self.n_users, self.n_products
        )

    def with_horizon(self, horizon: float) -> "EventLog":
        """Same events re-wrapped with a different horizon."""
        return EventLog.from_arrays(
            self.times, self.users, self.products, horizon, self.n_users, self.n_products
        )


def concat_logs(head: EventLog, tail: EventLog) -> EventLog:
    """Concatenate two logs over adjacent windows into one over the union;
    a tail that starts before the head ends fails the log's sortedness check."""
    if head.n_users != tail.n_users or head.n_products != tail.n_products:
        raise ValueError("logs have mismatched dimensions")
    return EventLog.from_arrays(
        np.concatenate([head.times, tail.times]),
        np.concatenate([head.users, tail.users]),
        np.concatenate([head.products, tail.products]),
        max(head.horizon, tail.horizon),
        head.n_users,
        head.n_products,
    )
