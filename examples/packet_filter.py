"""An XDP-style firewall in both frameworks (the paper's networking
motivation [23]), driven through the simulated data plane.

Policy: drop TCP packets to blocked ports and rate-limit by source
(every 4th packet from the noisy source is dropped).  The same policy
is implemented twice:

* eBPF — :func:`repro.net.programs.firewall_prog`: note the
  contortions — explicit packet bounds checks before every access, no
  real loops, verifier-friendly control flow.  It attaches to a
  simulated NIC and sees traffic the way real XDP does: batched NAPI
  polls off per-CPU RX queues, with PASS packets delivered through
  per-CPU ring buffers.
* SafeLang — the bounds checks live in the kcrate's ``load_*``
  methods and the rate limiter is a plain loop over state.

The run has two acts: a seeded load-generator profile pushed through
the data plane (verdict counters, tail latencies), then the canonical
hand-written traffic through *both* frameworks to assert they enforce
the same policy.

Run: ``python examples/packet_filter.py``
"""

import struct

from repro.core import SafeExtensionFramework
from repro.ebpf import BpfSubsystem, ProgType
from repro.kernel import Kernel
from repro.net import DataPlane, LoadGen
from repro.net.programs import BLOCKED_PORT, XDP_DROP, firewall_prog

#: packet model: [dst_port u16][src_id u8][payload...]
def make_packet(dst_port: int, src_id: int, payload: bytes) -> bytes:
    return struct.pack("<HB", dst_port, src_id) + payload


TRAFFIC = (
    [make_packet(80, 1, b"GET /")] * 5
    + [make_packet(BLOCKED_PORT, 2, b"telnet!")] * 3
    + [make_packet(443, 3, b"tls")] * 8
)

SAFELANG_FIREWALL = """
fn prog(ctx: XdpCtx) -> i64 {
    let port = match_u16(&ctx, 0);
    if port == 23 {
        count(1);
        return 1;   // drop: blocked port
    }
    match ctx.load_u8(2) {
        Some(src) => {
            if src == 3 {
                // rate limit: drop every 4th packet of source 3
                match map_lookup(0, 2) {
                    Some(seen) => {
                        map_update(0, 2, seen + 1);
                        if (seen + 1) & 3 == 0 {
                            count(1);
                            return 1;
                        }
                    },
                    None => { map_update(0, 2, 1); },
                }
            }
        },
        None => { },
    }
    count(0);
    return 2;       // pass
}

fn match_u16(ctx: &XdpCtx, off: u64) -> u64 {
    match ctx.load_u16(off) {
        Some(v) => { return v; },
        None => { return 0; },
    }
    return 0;
}

fn count(slot: u64) -> i64 {
    match map_lookup(0, slot) {
        Some(v) => { return map_update(0, slot, v + 1); },
        None => { return map_update(0, slot, 1); },
    }
    return 0;
}
"""


def build_plane(kernel: Kernel):
    """Stand up NIC + data plane with the firewall attached."""
    bpf = BpfSubsystem(kernel)
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    plane = DataPlane(kernel, bpf)
    nic = plane.create_nic(1, "fw0", queue_depth=512)
    prog = bpf.load_program(firewall_prog(stats.map_fd),
                            ProgType.XDP, "ebpf_firewall")
    plane.attach(prog, nic)
    return bpf, plane, nic, prog


def safelang_firewall(kernel: Kernel):
    """The same policy in the proposed framework."""
    framework = SafeExtensionFramework(kernel)
    bpf = BpfSubsystem(kernel)
    stats = bpf.create_map("array", key_size=4, value_size=8,
                           max_entries=4)
    loaded = framework.install(SAFELANG_FIREWALL, "sl_firewall",
                               maps=[stats])
    return framework, loaded, stats


def main() -> None:
    kernel = Kernel()
    bpf, plane, nic, prog = build_plane(kernel)

    # act 1: a seeded profile through the batched pipeline
    gen = LoadGen(kernel, "heavy_hitter", seed=42)
    gen.drive(nic, 5000, plane=plane)
    plane.process_all()
    delivered = len(plane.drain())
    hist = kernel.telemetry.net_latency_histogram(nic.name)
    print(f"[dataplane] heavy_hitter x5000 via {nic.name}: "
          + ", ".join(f"{name}={count}" for name, count
                      in sorted(plane.verdicts.items()) if count))
    print(f"[dataplane] delivered {delivered} to userspace rings "
          f"({plane.delivery_drops} dropped at full rings); "
          f"latency p50={hist.quantile(0.5):.0f}ns "
          f"p99={hist.quantile(0.99):.0f}ns "
          f"p999={hist.quantile(0.999):.0f}ns "
          f"(program: {len(prog.insns)} insns, verified in "
          f"{prog.verifier_stats.insns_processed} steps)")

    # act 2: the canonical traffic through both frameworks
    verdict_base = dict(plane.verdicts)
    for pkt in TRAFFIC:
        nic.receive(pkt)
    plane.process_all()
    dropped = plane.verdicts["drop"] - verdict_base["drop"]
    print(f"[ebpf]     {len(TRAFFIC)} packets: {dropped} dropped, "
          f"{len(TRAFFIC) - dropped} passed")

    framework, loaded, sl_stats = safelang_firewall(kernel)
    results = [framework.run_on_packet(loaded, pkt).value
               for pkt in TRAFFIC]
    sl_dropped = sum(1 for v in results if v == XDP_DROP)
    drops = struct.unpack("<Q", sl_stats.read_value(1))[0]
    print(f"[safelang] {len(TRAFFIC)} packets: {sl_dropped} dropped, "
          f"{len(TRAFFIC) - sl_dropped} passed "
          f"(per-map drop counter: {drops})")

    assert dropped == sl_dropped, "the two implementations disagree"
    print(f"both frameworks enforce the same policy; "
          f"kernel healthy: {kernel.healthy}")


if __name__ == "__main__":
    main()
