"""Redis stand-in: capacity-accounted KV stores served at simulated cost."""

from .kvstore import KVStore, KeyMissing, StoreFull
from .auth import AuthError, AuthPolicy
from .protocol import (NO_RETRY, Op, RateTracker, Request, RetryPolicy,
                       StoreCostModel, StoreError, StoreErrorCode)
from .server import StoreServer
from .client import StoreClient

__all__ = [
    "KVStore", "KeyMissing", "StoreFull",
    "AuthPolicy", "AuthError",
    "Op", "Request", "StoreCostModel", "RateTracker",
    "StoreErrorCode", "StoreError", "RetryPolicy", "NO_RETRY",
    "StoreServer", "StoreClient",
]
