#include "mem/remote_port.hh"

#include <algorithm>

#include "sim/sync.hh"

namespace dsasim
{

RemotePort::RemotePort(Simulation &src_sim,
                       PartitionChannel &tx_channel, double wire_gbps,
                       Tick wire_latency, std::string port_name)
    : sim(src_sim), tx(tx_channel),
      wire(src_sim, wire_gbps, port_name + ".wire"),
      wireLat(wire_latency), name(std::move(port_name))
{
    fatal_if(wire_latency == 0,
             "RemotePort '%s': zero wire latency (the partition "
             "lookahead would vanish)",
             name.c_str());
    // Telemetry: UPI link traffic as supplier-backed counters under
    // the port's own name (e.g. upi.s0-s1.bytes_pushed).
    stats::Registry &reg = src_sim.stats();
    reg.counter(name + ".bytes_pushed", [this] { return pushed; });
    reg.counter(name + ".bytes_pulled", [this] { return pulled; });
    reg.counter(name + ".round_trips", [this] { return trips; });
}

void
RemotePort::attachRemote(const RemoteEnd &end)
{
    fatal_if(!end.sim || !end.node || !end.ack,
             "RemotePort '%s': incomplete remote end", name.c_str());
    remote = end;
    // The ack must itself be postable on its channel; a caller-chosen
    // notification latency below the channel's declared floor would
    // trip the lookahead panic on every completion.
    remote.ackLatency =
        std::max(remote.ackLatency, end.ack->minLatency());
}

Tick
RemotePort::sendAt(Tick when) const
{
    // Defer into the channel's latency floor when the cluster raised
    // it above the bare wire latency (send-side aggregation).
    return std::max(when, sim.now() + tx.minLatency());
}

CoTask
RemotePort::push(std::uint64_t bytes)
{
    fatal_if(!remote.sim, "RemotePort '%s': remote end not attached",
             name.c_str());
    pushed += bytes;
    ++trips;
    const Tick depart = wire.occupy(bytes);
    Trigger done(sim);
    tx.post(sendAt(depart + wireLat), [this, bytes, &done]() {
        // Destination domain, at the data's arrival tick: the write
        // contends with the remote socket's own traffic on its real
        // DRAM write link.
        Simulation &dsim = *remote.sim;
        const Tick fin = remote.node->writeLink.occupy(bytes);
        const Tick at = std::max(fin, dsim.now());
        remote.ack->post(at + remote.ackLatency,
                         [&done]() { done.fire(); });
    });
    co_await done.wait();
}

CoTask
RemotePort::pull(std::uint64_t bytes)
{
    fatal_if(!remote.sim, "RemotePort '%s': remote end not attached",
             name.c_str());
    pulled += bytes;
    ++trips;
    const Tick depart = wire.occupy(requestBytes);
    Trigger done(sim);
    tx.post(sendAt(depart + wireLat), [this, bytes, &done]() {
        Simulation &dsim = *remote.sim;
        const Tick fin = remote.node->readLink.occupy(bytes);
        // The payload streams back over the destination-owned
        // reverse wire direction once the read completes.
        const Tick out = remote.returnWire
                             ? remote.returnWire->occupyAt(fin, bytes)
                             : fin;
        const Tick at = std::max(out, dsim.now());
        remote.ack->post(at + remote.ackLatency,
                         [&done]() { done.fire(); });
    });
    co_await done.wait();
}

} // namespace dsasim
