#include "sim/partition.hh"

#include <algorithm>
#include <atomic>
#include <thread>

namespace dsasim
{

unsigned
PartitionSet::addDomain(Simulation &sim, std::string name)
{
    const unsigned id = static_cast<unsigned>(domains.size());
    if (name.empty())
        name = "domain " + std::to_string(id);
    domains.push_back(Domain{&sim, std::move(name), {}});
    bounds.push_back(maxTick);
    return id;
}

PartitionChannel &
PartitionSet::connect(unsigned src, unsigned dst, Tick min_latency,
                      std::size_t capacity)
{
    fatal_if(src >= domains.size() || dst >= domains.size(),
             "PartitionSet::connect: unknown domain (%u->%u of %zu)",
             src, dst, domains.size());
    fatal_if(src == dst,
             "PartitionSet::connect: a domain needs no channel to "
             "itself (%u)",
             src);
    fatal_if(min_latency == 0,
             "PartitionSet::connect: zero-latency link %u->%u admits "
             "no lookahead; schedule directly or model the real link "
             "latency",
             src, dst);
    fatal_if(capacity == 0, "PartitionSet::connect: zero capacity");
    const unsigned id = static_cast<unsigned>(channels.size());
    // make_unique cannot reach the private ctor; ownership transfers
    // on the same statement.
    // simlint:allow(raw-alloc)
    channels.emplace_back(new PartitionChannel(
        *domains[src].sim, src, dst, id, min_latency, capacity));
    PartitionChannel &ch = *channels.back();
    // Inbound lists stay ordered by channel id: connect() order is
    // program order, part of the canonical delivery key.
    domains[dst].inbound.push_back(&ch);
    minLat = std::min(minLat, min_latency);
    return ch;
}

void
PartitionSet::deliverAndBound(unsigned d,
                              std::vector<Delivery> &scratch)
{
    Domain &dom = domains[d];
    scratch.clear();
    for (PartitionChannel *ch : dom.inbound) {
        const std::size_t t =
            ch->tail.load(std::memory_order_acquire);
        std::size_t h = ch->head.load(std::memory_order_relaxed);
        for (; h != t; ++h) {
            PartitionChannel::Item &it =
                ch->ring[h % ch->ring.size()];
            scratch.push_back(Delivery{it.when, ch->src, ch->id,
                                       it.seq, std::move(it.fn)});
        }
        ch->head.store(t, std::memory_order_release);
    }
    // Canonical cross-domain order: tick, then source domain, then
    // channel, then channel-FIFO sequence. The destination kernel
    // assigns its own (when, seq) keys in this call order, so the
    // merged stream — and with it the stream hash — is independent
    // of how many worker threads ran the producing epoch.
    std::sort(scratch.begin(), scratch.end(),
              [](const Delivery &a, const Delivery &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.srcDomain != b.srcDomain)
                      return a.srcDomain < b.srcDomain;
                  if (a.channel != b.channel)
                      return a.channel < b.channel;
                  return a.seq < b.seq;
              });
    for (Delivery &m : scratch)
        dom.sim->scheduleAt(m.when, std::move(m.fn));
    bounds[d] = dom.sim->nextEventBound();
}

bool
PartitionSet::computeEpoch()
{
    Tick lb = maxTick;
    for (Tick b : bounds)
        lb = std::min(lb, b);
    if (lb == maxTick) {
        // Every channel was drained in the delivery phase just
        // completed and nothing ran since, so empty bounds mean the
        // whole set is idle.
        running = false;
        return false;
    }
    const Tick la = channels.empty() ? maxTick : minLat;
    epochEnd = lb >= maxTick - la ? maxTick : lb + la;
    ++epochs;
    running = true;
    return true;
}

void
PartitionSet::runSerial()
{
    std::vector<Delivery> scratch;
    for (;;) {
        for (unsigned d = 0; d < domains.size(); ++d)
            deliverAndBound(d, scratch);
        if (!computeEpoch())
            return;
        for (unsigned d = 0; d < domains.size(); ++d)
            domains[d].sim->runWithin(epochEnd - 1);
    }
}

namespace
{

/**
 * Generation barrier for the epoch runner. An epoch carries only a
 * few hundred events, so parking threads in the kernel at every
 * barrier (as std::barrier does) costs more than the work between
 * barriers. Waiters spin for about an epoch's load imbalance, then
 * yield. They never sleep: a sleeping waiter lets its vCPU halt, and
 * on a busy VM host waking it again costs more than an epoch. The
 * last thread to arrive runs the completion step while every other
 * thread waits, then opens the next generation. The acq_rel arrival
 * count and the release/acquire generation word order each thread's
 * phase work before the completion, and the completion before
 * everyone's next phase.
 */
class EpochBarrier
{
  public:
    explicit EpochBarrier(unsigned threads) : count(threads) {}

    template <typename Completion>
    void
    arriveAndWait(Completion &&completion)
    {
        const unsigned gen =
            generation.load(std::memory_order_acquire);
        if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            count) {
            completion();
            arrived.store(0, std::memory_order_relaxed);
            generation.store(gen + 1, std::memory_order_release);
            return;
        }
        for (unsigned spins = 0;
             generation.load(std::memory_order_acquire) == gen;) {
            if (spins < kSpins)
                ++spins;
            else
                std::this_thread::yield();
        }
    }

  private:
    static constexpr unsigned kSpins = 1u << 18;

    const unsigned count;
    std::atomic<unsigned> arrived{0};
    std::atomic<unsigned> generation{0};
};

} // namespace

void
PartitionSet::runThreaded(unsigned threads)
{
    // Two barriers per epoch. The bound barrier's completion step
    // runs the min-reduction on one thread while everyone waits,
    // which both publishes the horizon and keeps the reduction out of
    // racy territory; the deliver barrier separates event execution
    // from the next delivery phase, so a channel is never drained
    // while its producer is still running.
    EpochBarrier bound_barrier(threads);
    EpochBarrier deliver_barrier(threads);

    const unsigned n = domainCount();
    auto worker = [&](unsigned tid) {
        std::vector<Delivery> scratch;
        for (;;) {
            for (unsigned d = tid; d < n; d += threads)
                deliverAndBound(d, scratch);
            bound_barrier.arriveAndWait([this] { computeEpoch(); });
            if (!running)
                return;
            for (unsigned d = tid; d < n; d += threads)
                domains[d].sim->runWithin(epochEnd - 1);
            deliver_barrier.arriveAndWait([] {});
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker, t);
    worker(0);
    for (std::thread &t : pool)
        t.join();
}

void
PartitionSet::run(unsigned threads)
{
    fatal_if(domains.empty(), "PartitionSet::run: no domains");
    threads = std::min(threads, domainCount());
    epochs = 0;
    if (threads <= 1)
        runSerial();
    else
        runThreaded(threads);
    // Domains drain at different clocks (each stops at its own last
    // event). Align them to the cluster-wide end time — executing
    // nothing — so a later phase may inject fresh work from any
    // domain and its cross-channel sends (stamped source-now + link
    // latency) can never land in another domain's past. The end time
    // is a max of deterministic values, so this keeps fingerprints
    // thread-count-independent too.
    const Tick end = maxNow();
    for (Domain &d : domains)
        d.sim->runUntil(end);
}

bool
PartitionSet::idle() const
{
    for (const Domain &d : domains)
        if (!d.sim->idle())
            return false;
    for (const auto &ch : channels)
        if (!ch->empty())
            return false;
    return true;
}

std::uint64_t
PartitionSet::combinedStreamHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Domain &d : domains)
        h = (h ^ d.sim->streamHash()) * 0x100000001b3ull;
    return h;
}

std::uint64_t
PartitionSet::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const Domain &d : domains)
        n += d.sim->eventsExecuted();
    return n;
}

Tick
PartitionSet::maxNow() const
{
    Tick t = 0;
    for (const Domain &d : domains)
        t = std::max(t, d.sim->now());
    return t;
}

} // namespace dsasim
