"""The cached address helpers equal plain ``ipaddress`` arithmetic.

The oracles below are the uncached computations, written out here so a
later rewrite of the helpers is still checked against ``ipaddress``.
"""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addresses import INTERNAL_PREFIXES, is_internal, subnet24


def _oracle_subnet24(ip):
    address = ipaddress.ip_address(ip)
    if address.version == 4:
        return str(ipaddress.ip_network(f"{ip}/24", strict=False))
    return str(ipaddress.ip_network(f"{ip}/56", strict=False))


def _oracle_is_internal(ip):
    address = ipaddress.ip_address(ip)
    return any(address in prefix for prefix in INTERNAL_PREFIXES)


def _outcome(fn, ip):
    try:
        return ("ok", fn(ip))
    except ValueError as exc:
        return ("ValueError", str(exc))


_ipv4 = st.ip_addresses(v=4).map(str)
_campus = st.sampled_from(INTERNAL_PREFIXES).flatmap(
    lambda net: st.integers(0, net.num_addresses - 1).map(
        lambda offset: str(net.network_address + offset)
    )
)
_ipv6 = st.ip_addresses(v=6).map(lambda a: a.compressed)
_ipv6_exploded = st.ip_addresses(v=6).map(lambda a: a.exploded)
_malformed = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="0123456789.:abcdefABCDEF/%", max_size=45),
    st.lists(st.integers(0, 999), min_size=1, max_size=6).map(
        lambda parts: ".".join(map(str, parts))
    ),
    st.sampled_from(
        ["", " 10.16.0.1", "10.16.0.1 ", "010.16.0.1", "10.16.0.256",
         "10.16.0.1/24", "::ffff:10.16.0.1", "fe80::1%eth0", "1:2:3:4:5:6:7:8:9"]
    ),
)
_addresses = st.one_of(_ipv4, _campus, _ipv6, _ipv6_exploded, _malformed)


@settings(max_examples=400, deadline=None)
@given(ip=_addresses)
def test_helpers_match_oracle(ip):
    for helper, oracle in ((subnet24, _oracle_subnet24), (is_internal, _oracle_is_internal)):
        expected = _outcome(oracle, ip)
        # Twice: the second call may be answered by the cache.
        assert _outcome(helper, ip) == expected
        assert _outcome(helper, ip) == expected


@pytest.mark.parametrize("ip", ["not-an-ip", "10.16.0.300", "", "1::2::3"])
def test_malformed_raises_every_call(ip):
    for helper in (subnet24, is_internal):
        messages = []
        for _ in range(3):
            with pytest.raises(ValueError) as info:
                helper(ip)
            messages.append(str(info.value))
        assert len(set(messages)) == 1


def test_campus_examples():
    assert subnet24("10.16.3.77") == "10.16.3.0/24"
    assert subnet24("2001:db8:aa:bbcc::1") == "2001:db8:aa:bb00::/56"
    assert is_internal("10.32.255.1")
    assert not is_internal("198.18.0.1")
    assert not is_internal("2001:db8::1")
