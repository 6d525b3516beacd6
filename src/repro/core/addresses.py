"""Address math the analyses share: /24 subnets and the campus prefixes.

Both helpers are pure functions of one address string, and capture logs
repeat endpoint addresses heavily (the campus scenario has ~2.6k
distinct addresses over ~34.6k connections), so each is the plain
``ipaddress`` computation behind a bounded LRU cache. The cache stores
return values only: a malformed address raises ``ValueError`` on every
call.
"""

from __future__ import annotations

import functools
import ipaddress

#: University-owned prefixes (internal). The health system has its own
#: prefix, mirroring the paper's distinct 'University Health' servers.
INTERNAL_PREFIXES = (
    ipaddress.ip_network("10.16.0.0/16"),   # general campus
    ipaddress.ip_network("10.32.0.0/16"),   # health system
    ipaddress.ip_network("10.48.0.0/16"),   # residential / NAT pools
)

_CACHE_SIZE = 65536


@functools.lru_cache(maxsize=_CACHE_SIZE)
def subnet24(ip: str) -> str:
    """The /24 prefix of an address (Table 6's sharing granularity);
    IPv6 addresses map to their /56."""
    address = ipaddress.ip_address(ip)
    if address.version == 4:
        network = ipaddress.ip_network(f"{ip}/24", strict=False)
        return str(network)
    network = ipaddress.ip_network(f"{ip}/56", strict=False)
    return str(network)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def is_internal(ip: str) -> bool:
    """True when the address lies in one of the campus prefixes (§3.2's
    inbound/outbound split)."""
    address = ipaddress.ip_address(ip)
    return any(address in prefix for prefix in INTERNAL_PREFIXES)
