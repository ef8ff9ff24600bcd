/**
 * @file
 * Conservative parallel execution of link-partitioned simulations.
 *
 * A PartitionSet groups independent Simulation kernels ("domains",
 * one per socket in practice) and advances them together in
 * barrier-synchronized epochs. The partition boundary is the set of
 * PartitionChannels — bounded SPSC rings carrying timestamped
 * callbacks across domains — and every channel declares the minimum
 * latency of the link it models (a UPI or CXL hop, see sim/link.hh).
 * The classical conservative-lookahead argument then bounds each
 * epoch: if the earliest pending event anywhere is at tick lb, no
 * cross-domain message can take effect before lb + min(link
 * latencies), so every domain may execute all events strictly below
 * that horizon without ever receiving a message from its past.
 *
 * Determinism contract (DESIGN.md §11). The domain decomposition is
 * fixed by the modeled topology, never by the worker-thread count:
 * the caller's thread count only chooses how many host threads
 * execute the epochs. Each domain keeps its own clock, sequence
 * counter and FNV-1a stream hash, and inbound messages are delivered
 * between epochs in a canonical order — (tick, source domain,
 * channel, channel-FIFO sequence) — so the (when, seq) stream each domain
 * executes is bit-identical whether the epochs run on one thread or
 * sixteen. combinedStreamHash() folds the per-domain hashes in
 * domain-id order into the cross-domain fingerprint that
 * tools/determinism_check gates on.
 *
 * Host threading lives entirely in this file (and is whitelisted by
 * simlint's cross-domain rule): model code never sees a lock or an
 * atomic, it only posts to channels.
 */

#ifndef DSASIM_SIM_PARTITION_HH
#define DSASIM_SIM_PARTITION_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/callback.hh"
#include "sim/logging.hh"
#include "sim/simulation.hh"
#include "sim/ticks.hh"

namespace dsasim
{

class PartitionSet;

/**
 * One direction of a cross-domain link: a bounded single-producer /
 * single-consumer ring of (tick, callback) messages. The producer is
 * the source domain's worker thread (during the execute phase), the
 * consumer is the destination domain's worker thread (during the
 * delivery phase); the epoch barriers provide the happens-before
 * edges, the atomics merely keep the index handoff data-race-free.
 */
class PartitionChannel
{
  public:
    using Callback = InlineCallback;

    PartitionChannel(const PartitionChannel &) = delete;
    PartitionChannel &operator=(const PartitionChannel &) = delete;

    /**
     * Enqueue @p fn for execution in the destination domain at
     * absolute tick @p when. Only legal from the source domain while
     * it executes an epoch, and @p when must respect the declared
     * link latency: when >= source now() + minLatency(). Posting into
     * the lookahead window is a model bug (it would let delivery
     * depend on epoch scheduling) and panics.
     */
    void
    post(Tick when, Callback fn)
    {
        panic_if(when < srcSim.now() + lookahead,
                 "partition channel %u->%u: message at %llu violates "
                 "lookahead (now %llu + min link latency %llu)",
                 src, dst, static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(srcSim.now()),
                 static_cast<unsigned long long>(lookahead));
        const std::size_t t = tail.load(std::memory_order_relaxed);
        const std::size_t h = head.load(std::memory_order_acquire);
        fatal_if(t - h >= ring.size(),
                 "partition channel %u->%u overflow (capacity %zu "
                 "messages in flight) — raise the channel capacity or "
                 "throttle the cross-link protocol",
                 src, dst, ring.size());
        Item &it = ring[t % ring.size()];
        it.when = when;
        it.seq = nextSeq++;
        it.fn = std::move(fn);
        tail.store(t + 1, std::memory_order_release);
    }

    /** Declared minimum latency of the modeled link (the lookahead). */
    Tick minLatency() const { return lookahead; }
    unsigned source() const { return src; }
    unsigned destination() const { return dst; }
    std::size_t capacity() const { return ring.size(); }

    /** Messages ever posted (producer-side counter, for tests). */
    std::uint64_t messagesSent() const { return nextSeq; }

    bool
    empty() const
    {
        return head.load(std::memory_order_acquire) ==
               tail.load(std::memory_order_acquire);
    }

  private:
    friend class PartitionSet;

    PartitionChannel(Simulation &source_sim, unsigned src_id,
                     unsigned dst_id, unsigned chan_id,
                     Tick min_latency, std::size_t cap)
        : srcSim(source_sim), ring(cap), src(src_id), dst(dst_id),
          id(chan_id), lookahead(min_latency)
    {}

    struct Item
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Callback fn;
    };

    Simulation &srcSim;
    std::vector<Item> ring;
    /** Monotonic positions; slot = position % capacity. tail is
     * producer-owned, head consumer-owned. */
    std::atomic<std::size_t> head{0}, tail{0};
    std::uint64_t nextSeq = 0; ///< producer-owned FIFO sequence
    const unsigned src, dst, id;
    const Tick lookahead;
};

/**
 * A set of domains plus the channels connecting them, with the
 * barrier-epoch runner. Usage:
 *
 *   PartitionSet set;
 *   unsigned a = set.addDomain(simA, "socket 0");
 *   unsigned b = set.addDomain(simB, "socket 1");
 *   auto &ab = set.connect(a, b, fromNs(60));
 *   auto &ba = set.connect(b, a, fromNs(60));
 *   ... schedule work, handlers post() to ab/ba ...
 *   set.run(threads);            // until every domain drains
 */
class PartitionSet
{
  public:
    static constexpr std::size_t defaultCapacity = 1 << 14;

    PartitionSet() = default;
    PartitionSet(const PartitionSet &) = delete;
    PartitionSet &operator=(const PartitionSet &) = delete;

    /** Register a domain; ids are dense and assignment-ordered. */
    unsigned addDomain(Simulation &sim, std::string name = {});

    /**
     * Create the src->dst channel for a link with the given minimum
     * latency (must be positive: a zero-latency link admits no
     * lookahead and no parallelism).
     */
    PartitionChannel &connect(unsigned src, unsigned dst,
                              Tick min_latency,
                              std::size_t capacity = defaultCapacity);

    /**
     * Run every domain to completion under barrier-epoch
     * synchronization. @p threads <= 1 runs the identical epoch
     * schedule on the calling thread. The thread count is a
     * host-execution knob: it never changes simulated behavior.
     * Worker t owns domains {t, t+T, t+2T, ...} — a fixed assignment,
     * though any assignment yields the same event streams.
     *
     * On return every domain's clock sits at the same tick (the
     * latest event executed anywhere), so phase-structured scenarios
     * may inject new work afterwards and post across channels from
     * any domain without violating causality.
     */
    void run(unsigned threads);

    unsigned domainCount() const
    {
        return static_cast<unsigned>(domains.size());
    }
    Simulation &domainSim(unsigned id) { return *domains.at(id).sim; }
    const std::string &
    domainName(unsigned id) const
    {
        return domains.at(id).name;
    }

    /** min over channels of minLatency (maxTick with no channels). */
    Tick lookahead() const { return minLat; }

    /** All domains drained and all channels empty. */
    bool idle() const;

    /**
     * Cross-domain fingerprint: FNV-1a over the per-domain stream
     * hashes in domain-id order. Identical for any worker-thread
     * count by the determinism contract above.
     */
    std::uint64_t combinedStreamHash() const; // simlint:observer

    std::uint64_t eventsExecuted() const; // simlint:observer

    /** Latest domain clock (the scenario's end time). */
    Tick maxNow() const; // simlint:observer

    /** Barrier epochs executed by the last run() (telemetry). */
    std::uint64_t epochsRun() const { return epochs; }

  private:
    struct Delivery
    {
        Tick when;
        unsigned srcDomain;
        unsigned channel;
        std::uint64_t seq;
        InlineCallback fn;
    };

    struct Domain
    {
        Simulation *sim;
        std::string name;
        std::vector<PartitionChannel *> inbound;
    };

    /**
     * Delivery phase for one domain: drain its inbound channels,
     * schedule the messages in canonical (when, srcDomain, channel,
     * seq) order, then publish the domain's next-event lower bound.
     */
    void deliverAndBound(unsigned d, std::vector<Delivery> &scratch);

    /**
     * Epoch reduction (single-threaded: barrier completion or the
     * serial loop): min-reduce the bounds into the next horizon.
     * Returns false when everything is drained.
     */
    bool computeEpoch();

    void runSerial();
    void runThreaded(unsigned threads);

    std::vector<Domain> domains;
    std::vector<std::unique_ptr<PartitionChannel>> channels;
    Tick minLat = maxTick;

    /// @name Epoch state: written only in single-threaded phases
    /// (barrier completion) or by the owning worker (bounds[d]);
    /// the barriers publish it.
    /// @{
    std::vector<Tick> bounds;
    Tick epochEnd = 0;
    bool running = false;
    std::uint64_t epochs = 0;
    /// @}
};

} // namespace dsasim

#endif // DSASIM_SIM_PARTITION_HH
