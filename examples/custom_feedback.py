#!/usr/bin/env python
"""Extending the library: custom router-feedback policies and TCP variants.

The paper's §6 future work asks for richer DRAI formulas.  This example
shows the extension points a downstream user has:

1. a custom :class:`AdvicePolicy` registered under its own name and
   installed on every node with ``install_drai(policy=...)`` (the shipped
   ECN-style ``binary-feedback`` ablation, and an inline "optimist" that
   never recommends braking — deliberately bad, to show the cost);
2. a custom TCP sender registered under its own variant name (an inline
   Muzha that halves on timeout instead of collapsing to one segment).

The scenario is a lossy 6-hop chain (8% random frame loss), where feedback
quality visibly matters.

Run:  python examples/custom_feedback.py
"""

from repro.core import AdvicePolicy, TcpMuzha, compute_drai, install_drai, register_policy
from repro.phy import PacketErrorRate
from repro.routing import install_aodv_routing
from repro.topology import build_chain
from repro.traffic import start_ftp
from repro.transport import register_variant


class OptimistPolicy(AdvicePolicy):
    """Never recommends deceleration or holding (floors the DRAI at 4).

    Deliberately bad: it removes the feedback loop's braking half, so the
    window drifts to the advertised cap and self-inflicts contention.  The
    family-wide saturation clamp still applies to it, as to every
    registered policy: while the sampled MAC server or queue is saturated
    ``AdvicePolicy.advise`` caps the published level at 3 ("hold").
    """

    name = "optimist"

    def _advise(self, signals):
        fine = compute_drai(
            signals.queue_len, signals.utilization, signals.occupancy,
            self.drai_params,
        )
        return max(fine, 4)


register_policy(OptimistPolicy.name, OptimistPolicy)


class TcpMuzhaGentle(TcpMuzha):
    """A Muzha that halves on timeouts instead of collapsing to 1."""

    variant = "muzha-gentle"

    def _on_timeout(self) -> None:
        self._set_cwnd(max(self.cwnd / 2.0, 1.0))
        self.in_recovery = False
        self._adjust_barrier = self.snd_una


register_variant("muzha-gentle", TcpMuzhaGentle)


def run(policy, variant):
    net = build_chain(6, seed=3, error_model=PacketErrorRate(0.08))
    install_aodv_routing(net.nodes, net.sim)
    install_drai(net.nodes, net.sim, policy=policy)
    flow = start_ftp(net.sim, net.nodes[0], net.nodes[-1], variant=variant, window=16)
    net.sim.run(until=15.0)
    return flow


def main() -> None:
    print("Lossy 6-hop chain (8% frame loss), 15 s, window_=16:\n")
    for label, policy, variant in [
        ("stock five-level DRAI", "fuzzy", "muzha"),
        ("binary ECN-style DRAI", "binary-feedback", "muzha"),
        ("optimist DRAI (no braking)", "optimist", "muzha"),
        ("stock DRAI + gentle timeouts", "fuzzy", "muzha-gentle"),
    ]:
        flow = run(policy, variant)
        print(
            f"  {label:30s}: {flow.goodput_kbps(15.0):8.1f} kbps, "
            f"{flow.sender.stats.retransmits} retx, "
            f"{flow.sender.stats.timeouts} timeouts"
        )
    print(
        "\nEach row swaps exactly one policy; use these hooks to prototype"
        "\nyour own router-assist formula (the paper's §6 future work)."
    )


if __name__ == "__main__":
    main()
