"""Campus address space: internal subnets, external pools, NAT."""

from __future__ import annotations

import ipaddress
import random

# The address math lives in the analysis core; ``subnet24`` is
# re-exported for callers that import it from the simulator.
from repro.core.addresses import INTERNAL_PREFIXES, is_internal, subnet24  # noqa: F401

#: External (rest of the Internet) pool used for simulated peers.
EXTERNAL_PREFIX = ipaddress.ip_network("198.18.0.0/15")


class AddressSpace:
    """Deterministic IP assignment plus internal/external predicates."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._internal_counter = 0
        self._external_counter = 0
        self._assigned: dict[str, str] = {}

    def is_internal(self, ip: str) -> bool:
        return is_internal(ip)

    def internal_ip(self, key: str, prefix_index: int = 0) -> str:
        """Stable internal address for a logical entity key."""
        cache_key = f"in:{prefix_index}:{key}"
        if cache_key not in self._assigned:
            self._internal_counter += 1
            prefix = INTERNAL_PREFIXES[prefix_index]
            offset = self._internal_counter % (prefix.num_addresses - 2) + 1
            self._assigned[cache_key] = str(prefix.network_address + offset)
        return self._assigned[cache_key]

    def external_ip(self, key: str) -> str:
        """Stable external address for a logical entity key."""
        cache_key = f"ex:{key}"
        if cache_key not in self._assigned:
            self._external_counter += 1
            offset = self._external_counter % (EXTERNAL_PREFIX.num_addresses - 2) + 1
            self._assigned[cache_key] = str(EXTERNAL_PREFIX.network_address + offset)
        return self._assigned[cache_key]

    def ephemeral_port(self) -> int:
        return self._rng.randint(32768, 60999)
