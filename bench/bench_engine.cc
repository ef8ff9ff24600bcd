/**
 * @file
 * Host-side throughput of the engine timing walk — the code that
 * charges LLC/DDIO hits, misses, evictions and writebacks while a
 * descriptor streams through `Engine::process`. This is a
 * self-benchmark (host seconds, not simulated ticks): every figure
 * sweep, forked sweep and serving scenario funnels through this walk,
 * so its host throughput bounds how many scenarios a run can cover.
 *
 * Scenarios cover the walk's three span paths across hit/miss/DDIO
 * mixes:
 *   memmove_1m_gbps       1 MiB moves, cache-control on: DDIO-way
 *                         fills + cold source misses (ring flushed
 *                         per pass).
 *   memmove_1m_nocc_gbps  cache-control off: non-allocating dest
 *                         evictions + memory writes.
 *   memmove_1m_warm_gbps  no flushing: the source hit path (lines
 *                         stay resident between passes).
 *   fill_1m_gbps          FILL descriptors (write-only stream).
 *   crc_1m_gbps           CRC32 descriptors (read-only stream).
 *   engine_desc_per_sec   4 KiB moves: per-descriptor overhead.
 *   engine_gbps           alias of memmove_1m_gbps, the headline
 *                         bulk-walk number (ROADMAP target: >=5x the
 *                         pre-batching 1.0 GB/s).
 *
 * stream_hash is the event-stream fingerprint of a fixed mixed run
 * (sizes, opcodes and flags pinned): the timing walk must produce
 * byte-identical event streams no matter how the accounting is
 * implemented, so --check asserts it exactly — a regression gate for
 * the batched-vs-line equivalence contract (DESIGN.md §13) as well as
 * for accidental timing changes.
 *
 * Usage:
 *   bench_engine [--json=PATH] [--check=PATH]
 *
 * --json writes the metrics as a JSON object. --check loads a
 * previously committed JSON and exits nonzero if any throughput
 * metric fell more than 20% below it or the stream hash differs —
 * the CI regression gate (bench/gate.hh).
 */

#include <chrono>
#include <vector>

#include "bench/common.hh"
#include "bench/gate.hh"

namespace dsasim::bench
{
namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Async driver mirroring detail::asyncHwLoop but with per-pass cache
 * flushing optional — the warm scenario needs lines to stay resident
 * so the walk takes the hit-classification path.
 */
SimTask
ringLoop(Rig &rig, const std::vector<WorkDescriptor> &ring, int total,
         int depth, bool flush_per_pass)
{
    Core &core = rig.plat.core(0);
    Semaphore window(rig.sim, static_cast<std::uint64_t>(depth));
    Latch all(rig.sim, static_cast<std::uint64_t>(total));

    struct Waiter
    {
        static SimTask
        drain(std::unique_ptr<dml::Job> job, Semaphore &win,
              Latch &done)
        {
            if (!job->cr.isDone())
                co_await job->cr.done.wait();
            win.release();
            done.arrive();
        }
    };

    for (int i = 0; i < total; ++i) {
        const WorkDescriptor &d =
            ring[static_cast<std::size_t>(i) % ring.size()];
        if (flush_per_pass && i > 0 &&
            static_cast<std::size_t>(i) % ring.size() == 0)
            rig.plat.mem().cache().invalidateAll();
        co_await window.acquire();
        auto job = rig.exec->prepare(d);
        co_await rig.exec->submit(core, *job);
        Waiter::drain(std::move(job), window, all);
    }
    co_await all.wait();
}

enum class Op { MemMove, Fill, Crc };

std::vector<WorkDescriptor>
buildRing(Rig &rig, Op op, std::uint64_t size, int count,
          bool cache_control)
{
    AddressSpace &as = *rig.as;
    std::uint64_t n = static_cast<std::uint64_t>(count);
    Addr src = as.alloc(size * n);
    Addr dst = as.alloc(size * n);
    std::vector<WorkDescriptor> ring;
    for (int i = 0; i < count; ++i) {
        Addr s = src + static_cast<Addr>(i) * size;
        Addr t = dst + static_cast<Addr>(i) * size;
        WorkDescriptor d;
        switch (op) {
          case Op::MemMove:
            d = dml::Executor::memMove(as, t, s, size);
            break;
          case Op::Fill:
            d = dml::Executor::fill(as, t, 0x5a5a5a5a5a5a5a5aull,
                                    size);
            break;
          case Op::Crc:
            d = dml::Executor::crc32(as, s, size);
            break;
        }
        if (!cache_control)
            d.flags &= ~descflags::cacheControl;
        ring.push_back(d);
    }
    return ring;
}

/**
 * Wall-clock seconds for @p total descriptors of one scenario on a
 * fresh rig; best of three fresh-rig trials (damps scheduler noise —
 * peak sustained rate is the stable capability number).
 */
double
run(Op op, std::uint64_t size, int total, bool cache_control,
    bool flush_per_pass, int ring_count = 8, int depth = 32)
{
    double best = 1e99;
    for (int trial = 0; trial < 3; ++trial) {
        Rig::Options o;
        Rig rig(o);
        auto ring =
            buildRing(rig, op, size, ring_count, cache_control);
        auto t0 = Clock::now();
        ringLoop(rig, ring, total, depth, flush_per_pass);
        rig.sim.run();
        best = std::min(best, seconds(t0));
    }
    return best;
}

struct Metrics
{
    double memmove1m = 0;
    double memmove1mNocc = 0;
    double memmove1mWarm = 0;
    double fill1m = 0;
    double crc1m = 0;
    double descPerSec = 0;
    std::uint64_t streamHash = 0;
};

/**
 * Fixed mixed workload with event-stream hashing on: 4 KiB / 64 KiB
 * MEMMOVE (with and without cache control), FILL and CRC descriptors
 * interleaved over one rig. Everything is pinned, so the resulting
 * fingerprint is host-independent and must never move unless the
 * timing model intentionally changes.
 */
std::uint64_t
fingerprint()
{
    Rig::Options o;
    Rig rig(o);
    rig.sim.enableStreamHash(true);
    std::vector<WorkDescriptor> ring;
    for (const auto &r : {
             buildRing(rig, Op::MemMove, 4096, 4, true),
             buildRing(rig, Op::MemMove, 64 << 10, 4, false),
             buildRing(rig, Op::Fill, 64 << 10, 4, true),
             buildRing(rig, Op::Crc, 64 << 10, 4, true),
         })
        ring.insert(ring.end(), r.begin(), r.end());
    ringLoop(rig, ring, 96, 16, true);
    rig.sim.run();
    return rig.sim.streamHash();
}

Metrics
measure()
{
    Metrics m;
    const std::uint64_t mb = 1 << 20;
    auto gbps = [](std::uint64_t size, int total, double el) {
        return static_cast<double>(size) * total / el / 1e9;
    };

    m.memmove1m = gbps(mb, 192, run(Op::MemMove, mb, 192, true, true));
    m.memmove1mNocc =
        gbps(mb, 192, run(Op::MemMove, mb, 192, false, true));
    m.memmove1mWarm =
        gbps(mb, 192, run(Op::MemMove, mb, 192, true, false));
    m.fill1m = gbps(mb, 192, run(Op::Fill, mb, 192, true, true));
    m.crc1m = gbps(mb, 192, run(Op::Crc, mb, 192, true, true));
    {
        const int total = 16384;
        m.descPerSec =
            total / run(Op::MemMove, 4096, total, true, true, 16);
    }
    m.streamHash = fingerprint();
    return m;
}

/**
 * Throughput rows are host floors; the stream hash is exact: any
 * drift means the timing walk's event stream changed, which a
 * performance-only change must never do.
 */
gate::Table
table(const Metrics &m)
{
    gate::Table t("engine");
    t.floor("memmove_1m_gbps", m.memmove1m, 3)
        .floor("memmove_1m_nocc_gbps", m.memmove1mNocc, 3)
        .floor("memmove_1m_warm_gbps", m.memmove1mWarm, 3)
        .floor("fill_1m_gbps", m.fill1m, 3)
        .floor("crc_1m_gbps", m.crc1m, 3)
        .floor("engine_desc_per_sec", m.descPerSec, 0)
        .floor("engine_gbps", m.memmove1m, 3)
        .exactHash("stream_hash", m.streamHash);
    return t;
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    gate::Args args;
    for (int i = 1; i < argc; ++i)
        args.parse(argv[i]);
    return gate::finish(table(measure()), args, 0.20);
}
