/**
 * @file
 * SocketCluster: a multi-socket platform partitioned along its UPI
 * links into per-socket simulation domains.
 *
 * Each socket gets its own Simulation kernel and its own Platform
 * (cores, DSA devices, memory nodes, fault injector), registered as
 * one domain of a PartitionSet; sockets interact only through
 * RemotePorts riding PartitionChannels whose minimum latency is the
 * UPI hop — exactly the link-delimited decomposition conservative
 * parallel DES needs (DESIGN.md §11). The decomposition is fixed by
 * `ClusterConfig::sockets`, never by the worker-thread count, so a
 * cluster's event streams (and stream hashes) are identical for any
 * worker-thread count.
 *
 * Snapshots compose per domain: capture() refuses with a hint naming
 * *which* domain's calendar or work queue still holds work, and a
 * ClusterSnapshot restores into any same-shaped cluster.
 */

#ifndef DSASIM_DRIVER_CLUSTER_HH
#define DSASIM_DRIVER_CLUSTER_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "driver/platform.hh"
#include "driver/snapshot.hh"
#include "mem/remote_port.hh"
#include "sim/partition.hh"

namespace dsasim
{

struct ClusterConfig
{
    unsigned sockets = 4;

    /** Per-socket platform shape. Set socket.dsaTopology so freshly
     * built clusters (including snapshot-restore targets) come up
     * with configured devices. */
    PlatformConfig socket;

    /** UPI hop between adjacent sockets; the latency is the channel
     * lookahead floor. */
    double upiGBps = 60.0;
    Tick upiLatency = fromNs(60);

    /** false: bidirectional ring (socket s <-> s+1 mod n);
     * true: every ordered socket pair gets a port. */
    bool fullMesh = false;

    std::size_t channelCapacity = PartitionSet::defaultCapacity;

    /**
     * Raise every channel's latency floor by the serialization time
     * of this many bytes at upiGBps. Protocols that ship large
     * blocks can buy epochs long enough to amortize the barrier cost
     * (RemotePort defers smaller sends into the floor — send-side
     * aggregation). 0 = bare wire latency.
     */
    std::uint64_t lookaheadBytes = 0;

    /** Completion-notification latency for acks (0 = upiLatency);
     * clamped up to the channel floor. */
    Tick ackLatency = 0;
};

class SocketCluster
{
  public:
    explicit SocketCluster(const ClusterConfig &cfg);

    unsigned socketCount() const
    {
        return static_cast<unsigned>(doms.size());
    }
    const ClusterConfig &cfg() const { return config; }

    Simulation &domainSim(unsigned s) { return *doms.at(s).sim; }
    Platform &plat(unsigned s) { return *doms.at(s).plat; }

    /** The src->dst UPI port; fatal if the pair is not linked. */
    RemotePort &port(unsigned src, unsigned dst);
    bool linked(unsigned src, unsigned dst) const
    {
        return ports.count({src, dst}) != 0;
    }

    PartitionSet &partitions() { return set; }

    /** Fold (when, seq) of every executed event, per domain. */
    void enableStreamHash(bool on);

    /** Run all domains to completion on @p threads workers (1 =
     * serial). Simulated behavior is identical for any thread
     * count. */
    void run(unsigned threads);

    /** Cross-domain fingerprint (PartitionSet::combinedStreamHash). */
    std::uint64_t streamHash() const
    {
        return set.combinedStreamHash();
    }
    std::uint64_t eventsExecuted() const
    {
        return set.eventsExecuted();
    }
    Tick endTick() const { return set.maxNow(); }

    /** Every domain idle and quiescent, every channel empty. */
    bool quiescent() const;

    /**
     * Per-domain checkpoint of a fully drained cluster. Fatal with a
     * domain-naming drain hint ("domain 2 (socket 2): dsa0.wq1 holds
     * 3 descriptor(s)") otherwise.
     */
    struct ClusterSnapshot
    {
        std::vector<Snapshot> sockets;
        /** RemotePort wire state in (src,dst) port order — the UPI
         * wires live in the cluster, outside any one platform, but
         * their readyAt horizon is simulated state all the same. */
        std::vector<LinkResource::State> portWires;
    };

    ClusterSnapshot capture();

    /**
     * Rewind this cluster to @p snap in place. Shape must match and
     * this cluster's devices must carry the same topology the
     * captured ones did (build both from the same ClusterConfig).
     */
    void restore(const ClusterSnapshot &snap);

  private:
    struct SocketDomain
    {
        std::unique_ptr<Simulation> sim;
        std::unique_ptr<Platform> plat;
    };

    ClusterConfig config;
    std::vector<SocketDomain> doms;
    PartitionSet set;
    /** Ordered (src,dst) -> channel/port; std::map iteration keeps
     * construction and teardown deterministic. */
    std::map<std::pair<unsigned, unsigned>, PartitionChannel *> chans;
    std::map<std::pair<unsigned, unsigned>,
             std::unique_ptr<RemotePort>>
        ports;
};

} // namespace dsasim

#endif // DSASIM_DRIVER_CLUSTER_HH
