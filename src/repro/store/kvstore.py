"""In-memory key-value store (the Redis stand-in's data plane).

Pure and synchronous: no simulation dependencies, so it is unit-testable
and reusable outside the simulator.  Values may carry real payload bytes
(functional mode, used by the file-system tests) or be size-only (simulation
mode, where shipping 256 GB of real bytes would be pointless).  Either way
the store accounts memory: payload size plus a per-key overhead, against a
fixed capacity.
"""

from __future__ import annotations

from typing import Hashable, Iterator

__all__ = ["KVStore", "StoreFull", "KeyMissing"]


class StoreFull(RuntimeError):
    """A put would exceed the store's memory capacity.

    Carries structured fields — the store's id, the requested payload
    bytes and the free bytes at rejection time — so spill and degradation
    logic never parses the message.  When only the fields are given, the
    message is synthesized as
    ``"put of X B would exceed capacity (Y B free)"``.
    """

    def __init__(self, message: str = "", *, store: str | None = None,
                 requested: float | None = None, free: float | None = None):
        if not message and requested is not None:
            message = (f"put of {requested:.3g} B would exceed capacity "
                       f"({(free if free is not None else 0.0):.3g} B free)")
        super().__init__(message)
        self.message = message
        self.store = store
        self.requested = requested
        self.free = free

    def __reduce__(self):
        # Keyword-only fields would be dropped by default exception
        # pickling (which replays positional args only).
        return (type(self), (self.message,),
                {"store": self.store, "requested": self.requested,
                 "free": self.free})

    def details(self) -> dict:
        """The structured fields as a JSON-safe dict (empty ones omitted)."""
        out: dict = {}
        if self.store is not None:
            out["store"] = self.store
        if self.requested is not None:
            out["requested_bytes"] = float(self.requested)
        if self.free is not None:
            out["free_bytes"] = float(self.free)
        return out


class KeyMissing(KeyError):
    """GET/DELETE on an absent key."""


class _Entry:
    __slots__ = ("nbytes", "payload")

    def __init__(self, nbytes: float, payload: bytes | None):
        self.nbytes = nbytes
        self.payload = payload


class KVStore:
    """Capacity-accounted dictionary of keys to (size, optional payload)."""

    def __init__(self, capacity: float, key_overhead: float = 128.0,
                 name: str = ""):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if key_overhead < 0:
            raise ValueError("key_overhead must be non-negative")
        self.name = name
        self.capacity = float(capacity)
        self.key_overhead = float(key_overhead)
        self._data: dict[Hashable, _Entry] = {}
        self._used = 0.0
        # Lifetime counters for INFO.
        self.puts = 0
        self.gets = 0
        self.deletes = 0
        self.bytes_in = 0.0
        self.bytes_out = 0.0

    # -- capacity ---------------------------------------------------------------
    @property
    def used_bytes(self) -> float:
        return self._used

    @property
    def free_bytes(self) -> float:
        return self.capacity - self._used

    def _cost(self, nbytes: float) -> float:
        return nbytes + self.key_overhead

    # -- operations ---------------------------------------------------------------
    def put(self, key: Hashable, nbytes: float | None = None,
            payload: bytes | None = None) -> None:
        """Store *key*.  Size comes from *payload* if given, else *nbytes*.

        Overwriting an existing key first releases its old footprint.
        """
        if payload is not None:
            size = float(len(payload))
            if nbytes is not None and float(nbytes) != size:
                raise ValueError("nbytes disagrees with len(payload)")
        elif nbytes is not None:
            size = float(nbytes)
            if size < 0:
                raise ValueError("nbytes must be non-negative")
        else:
            raise ValueError("put needs nbytes or payload")
        old = self._data.get(key)
        released = self._cost(old.nbytes) if old is not None else 0.0
        if self._used - released + self._cost(size) > self.capacity:
            raise StoreFull(store=self.name or None, requested=size,
                            free=self.free_bytes + released)
        self._used += self._cost(size) - released
        self._data[key] = _Entry(size, payload)
        self.puts += 1
        self.bytes_in += size

    def get(self, key: Hashable) -> tuple[float, bytes | None]:
        """Return ``(nbytes, payload_or_None)``; raises :class:`KeyMissing`."""
        entry = self._data.get(key)
        if entry is None:
            raise KeyMissing(key)
        self.gets += 1
        self.bytes_out += entry.nbytes
        return entry.nbytes, entry.payload

    def size_of(self, key: Hashable) -> float:
        entry = self._data.get(key)
        if entry is None:
            raise KeyMissing(key)
        return entry.nbytes

    def contains(self, key: Hashable) -> bool:
        return key in self._data

    __contains__ = contains

    def delete(self, key: Hashable) -> float:
        """Remove *key*, returning the payload bytes released."""
        entry = self._data.pop(key, None)
        if entry is None:
            raise KeyMissing(key)
        self._used -= self._cost(entry.nbytes)
        self.deletes += 1
        return entry.nbytes

    def flush(self) -> float:
        """Drop everything; returns the payload bytes released."""
        total = sum(e.nbytes for e in self._data.values())
        self._data.clear()
        self._used = 0.0
        return total

    # -- set values (Redis SADD/SREM/SMEMBERS) ------------------------------------
    # Directory entries are server-side sets so concurrent create/unlink on
    # the same parent directory stay atomic, exactly as Redis sets do for
    # the real MemFSS metadata.

    def sadd(self, key: Hashable, member: str) -> bool:
        """Add *member* to the set at *key* (created on demand).

        Returns True if the member was new.  Accounting charges the
        member's string length plus the per-key overhead once.
        """
        entry = self._data.get(key)
        if entry is None:
            cost = self._cost(0.0)
            if self._used + cost > self.capacity:
                raise StoreFull("sadd: no room for new set",
                                store=self.name or None, requested=cost,
                                free=self.free_bytes)
            entry = _Entry(0.0, set())
            self._data[key] = entry
            self._used += cost
        if not isinstance(entry.payload, set):
            raise TypeError(f"key {key!r} does not hold a set")
        if member in entry.payload:
            return False
        size = float(len(member))
        if self._used + size > self.capacity:
            raise StoreFull("sadd: over capacity",
                            store=self.name or None, requested=size,
                            free=self.free_bytes)
        entry.payload.add(member)
        entry.nbytes += size
        self._used += size
        return True

    def srem(self, key: Hashable, member: str) -> bool:
        """Remove *member*; returns True if it was present."""
        entry = self._data.get(key)
        if entry is None:
            return False
        if not isinstance(entry.payload, set):
            raise TypeError(f"key {key!r} does not hold a set")
        if member not in entry.payload:
            return False
        entry.payload.discard(member)
        size = float(len(member))
        entry.nbytes -= size
        self._used -= size
        return True

    def smembers(self, key: Hashable) -> frozenset:
        """Members of the set at *key* (empty if absent)."""
        entry = self._data.get(key)
        if entry is None:
            return frozenset()
        if not isinstance(entry.payload, set):
            raise TypeError(f"key {key!r} does not hold a set")
        return frozenset(entry.payload)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict[str, float]:
        return {
            "keys": float(len(self._data)),
            "used_bytes": self._used,
            "capacity": self.capacity,
            "puts": float(self.puts),
            "gets": float(self.gets),
            "deletes": float(self.deletes),
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }
