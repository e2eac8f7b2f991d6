"""NAT Check's wire codec (``natcheck/messages.py``) as properties: every
message round-trips, ``unpack`` is total over garbage, and the TCP framing
reassembles any chunking — the checks ``core/protocol.py`` already has.

The NAT Check servers parse whatever arrives on their ports, and the clients
they model (SNIPPETS 1–3) do almost no error handling, so the only acceptable
failure on bad input is ``ProtocolError``."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.natcheck import messages as m
from repro.netsim.addresses import Endpoint
from repro.transport.tcp import FrameBuffer
from repro.util.errors import ProtocolError

tokens = st.integers(0, 0xFFFFFFFF)
u8 = st.integers(0, 0xFF)
endpoints = st.builds(Endpoint, st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFF))

PROBE_TYPES = [
    m.UDP_PROBE, m.TCP_PROBE, m.UDP_HAIRPIN, m.TCP_HAIRPIN, m.UDP_PROBE_ALT_PORT,
    m.UDP_PROBE_ALT_IP,
]
#: One strategy per message class, over every type byte it may carry.
MESSAGES = {
    "Probe": st.builds(m.Probe, st.sampled_from(PROBE_TYPES), tokens),
    "Echo": st.builds(m.Echo, st.sampled_from([m.UDP_ECHO, m.TCP_ECHO]), tokens, endpoints, u8),
    "Forward": st.builds(
        m.Forward, st.sampled_from([m.UDP_FORWARD, m.TCP_FORWARD]), tokens, endpoints
    ),
    "From3": st.builds(m.From3, tokens),
    "Report": st.builds(m.Report, tokens, u8),
}
any_message = st.one_of(*MESSAGES.values())


@pytest.mark.parametrize("name", sorted(MESSAGES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_message_round_trips(name, data):
    message = data.draw(MESSAGES[name])
    assert m.unpack(message.pack()) == message


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=16))
def test_unpack_is_total_over_garbage(data):
    """A message or ``ProtocolError`` — never ``struct.error``,
    ``IndexError``, ``AddressError`` or anything else."""
    try:
        message = m.unpack(data)
    except ProtocolError:
        assert m.try_unpack(data) is None
    else:
        assert isinstance(message, (m.Probe, m.Echo, m.Forward, m.From3, m.Report))


@settings(max_examples=100, deadline=None)
@given(st.lists(any_message, min_size=1, max_size=12), st.integers(1, 17))
def test_tcp_buffer_reassembles_any_chunking(messages, chunk_size):
    stream = b"".join(m.frame_tcp(message) for message in messages)
    buffer = FrameBuffer(m.unpack)
    out = []
    for i in range(0, len(stream), chunk_size):
        out.extend(buffer.feed(stream[i : i + chunk_size]))
    assert out == messages


def test_garbage_frame_discards_the_good_message_before_it_in_the_chunk():
    """Documents current behaviour: ``feed`` raises on the first frame that
    does not parse, and the messages it already parsed from the same chunk
    are lost with it.  No simulated path sends garbage on a NAT Check
    stream, so this is pinned, not fixed."""
    good = m.Probe(m.TCP_PROBE, 7)
    buffer = FrameBuffer(m.unpack)
    with pytest.raises(ProtocolError):
        buffer.feed(m.frame_tcp(good) + b"\x00\x00")  # an empty frame
    # Both frames were consumed: the stream carries on after them.
    assert buffer.feed(m.frame_tcp(good)) == [good]
