"""Elastic scavenging marketplace: leased victim memory with live α retuning.

The paper fixes the victim fraction α per deployment; this package turns
victim memory into a *market* (Memtrade at cluster scale): victim nodes
publish :class:`~repro.market.book.MarketOffer`\\ s with explicit terms
(size, lease duration, revocation-notice period), consumers submit byte
demands, and a seeded :class:`~repro.market.controller.MarketController`
clears the book each epoch — recomputing class weights from the new
target fractions and migrating only the stripes whose placement
actually changed (the :class:`~repro.fs.placement.StripePlan` diff).
Revocation risk is priced (:mod:`repro.market.risk`) into both the
controller's α and the admission predictor's store budgets, and victims
reclaim with *notice* — an announced drain, not a surprise crash.
"""

from .book import MarketBook, MarketOffer, TenantDemand
from .controller import MarketController
from .risk import (DEFAULT_RISK_HORIZON, DEFAULT_SHORT_NOTICE,
                   discounted_supply, lease_discount, node_discounts)
from .scenario import (ChurnEvent, build_churn_schedule, market_mode_specs,
                       market_spec, run_market)
from .stats import MarketStats, market_stats

__all__ = [
    "MarketBook", "MarketOffer", "TenantDemand",
    "MarketController",
    "lease_discount", "discounted_supply", "node_discounts",
    "DEFAULT_RISK_HORIZON", "DEFAULT_SHORT_NOTICE",
    "MarketStats", "market_stats",
    "ChurnEvent", "build_churn_schedule",
    "market_spec", "market_mode_specs", "run_market",
]
