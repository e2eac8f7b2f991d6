"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import contextlib
from collections import namedtuple

import pytest

from repro.core.tcp_punch import TcpStream
from repro.core.udp_punch import UdpSession
from repro.netsim.addresses import Endpoint
from repro.netsim.link import Link
from repro.netsim.network import Network
from repro.netsim.packet import IpProtocol
from repro.transport.stack import attach_stack
from repro.transport.tcp import TcpStyle


@pytest.fixture
def net():
    """A fresh deterministic network."""
    return Network(seed=1234)


@pytest.fixture
def lan_pair(net):
    """Two hosts with transport stacks on one zero-NAT segment."""
    link = net.create_link("wire")
    a = net.add_host("hostA", ip="192.0.2.1", network="192.0.2.0/24", link=link)
    b = net.add_host("hostB", ip="192.0.2.2", network="192.0.2.0/24", link=link)
    attach_stack(a, rng=net.rng.child("a"))
    attach_stack(b, rng=net.rng.child("b"))
    return net, a, b


def make_lan_pair(seed=1, style_a=TcpStyle.BSD, style_b=TcpStyle.BSD):
    """Two stacked hosts on one segment (non-fixture variant for subtests)."""
    net = Network(seed=seed)
    link = net.create_link("wire")
    a = net.add_host("hostA", ip="192.0.2.1", network="192.0.2.0/24", link=link)
    b = net.add_host("hostB", ip="192.0.2.2", network="192.0.2.0/24", link=link)
    attach_stack(a, tcp_style=style_a, rng=net.rng.child("a"))
    attach_stack(b, tcp_style=style_b, rng=net.rng.child("b"))
    return net, a, b


def ep(text: str) -> Endpoint:
    return Endpoint.parse(text)


def run_until(net: Network, predicate, timeout: float = 30.0) -> bool:
    """Drive the network until predicate() is true or timeout elapses."""
    return net.scheduler.run_while(lambda: not predicate(), net.scheduler.now + timeout)


def detach_stack(host) -> None:
    """Unplug *host*'s transport stack mid-run: locally addressed packets
    drop afterwards, as on a host that never attached one — packets already
    in flight included, since every delivery looks its handler up when it
    fires."""
    for proto in (IpProtocol.UDP, IpProtocol.TCP, IpProtocol.ICMP):
        host.register_protocol(proto, None)
    host.stack = None


WireRecord = namedtuple("WireRecord", "time link sender receiver event packet")


@contextlib.contextmanager
def wire_tap(net: Network):
    """Record *net*'s wire events in order (``event``: ``"sent"``, ``"duplicated"`` or a
    drop reason); links take the per-packet route, which never recycles a held packet."""
    records, wire_one, drop, prior = [], Link._wire_one, Link._drop, Link.fast_path_enabled

    def record(link, packet, sender, receiver_name, event):
        if link.scheduler is net.scheduler:
            records.append(
                WireRecord(net.now, link.name, sender.name, receiver_name, event, packet))

    def tapped_wire_one(link, packet, sender, receiver, extra_delay, dup):
        placed = wire_one(link, packet, sender, receiver, extra_delay, dup)
        if placed:
            record(link, packet, sender, receiver.name, "duplicated" if dup else "sent")
        return placed

    def tapped_drop(link, packet, sender, receiver, reason):
        drop(link, packet, sender, receiver, reason)
        record(link, packet, sender, receiver and receiver.name, reason)

    def install(wire, dropper, fast):
        Link._wire_one, Link._drop, Link.fast_path_enabled = wire, dropper, fast
        for link in net.links.values():
            link._refresh_fast_path()

    install(tapped_wire_one, tapped_drop, False)
    try:
        yield records
    finally:
        install(wire_one, drop, prior)


# -- §3.6 on demand: the application re-punches, the library only detects -------


def repunch_on_break(session, on_session, attempts, backoff, cap, on_give_up=None):
    """The application's re-punch: when *session* breaks, re-run
    ``connect_udp`` toward its peer up to *attempts* times, *backoff* seconds
    after the break and after each failure, doubling up to *cap*.
    *on_session* gets the fresh session; *on_give_up* fires when the budget
    is spent."""
    client = session.client

    def retry(tries):
        if tries >= attempts:
            if on_give_up is not None:
                on_give_up()
            return
        client.scheduler.call_later(min(backoff * 2 ** tries, cap), punch, tries)

    def punch(tries):
        if not client.udp_registered:  # registration is itself healing
            retry(tries + 1)
            return
        client.connect_udp(
            session.peer_id,
            on_session=on_session,
            on_failure=lambda _error: retry(tries + 1),
            config=session.config,
        )

    session.on_broken = lambda: retry(0)


def rerun_ladder_on_break(connector, peer_id, on_result, retries, backoff, cap):
    """The application's ladder re-run: connect through *connector*, and
    each time the won channel breaks, run the ladder again after *backoff*
    seconds, doubling up to *cap*, at most *retries* times.  *on_result*
    sees every result, the first connect's first; returns that list."""
    results = []

    def landed(result):
        results.append(result)
        channel, reruns = result.channel, len(results) - 1
        if channel is not None and reruns < retries:
            tripped = []

            def trip(*_args):
                if tripped:  # S may bounce several queued relay payloads at once
                    return
                tripped.append(True)
                connector.client.scheduler.call_later(
                    min(backoff * 2 ** reruns, cap), connector.connect, peer_id, landed
                )

            if isinstance(channel, UdpSession):
                channel.on_broken = trip
            elif isinstance(channel, TcpStream):
                channel.on_close = trip
            else:
                channel.on_error = trip
        on_result(result)

    connector.connect(peer_id, landed)
    return results
