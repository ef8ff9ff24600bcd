/**
 * @file
 * The benchmark's four workloads. Each builds its platform through
 * the simulator's public entry points, warms it up, runs a measured
 * phase, checks the simulated outputs and reports per-layer counts
 * when traced. README.md says why each workload exists.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "apps/minicache.hh"
#include "apps/vhost.hh"
#include "bench/common.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "dsa/qos.hh"
#include "dto/dto.hh"
#include "harness.hh"
#include "sim/random.hh"
#include "sim/traffic.hh"

namespace dsasim::perfbench
{

using bench::Rig;
using bench::Scenario;

namespace
{

/** Registry reading of one simulation, under a stats.read span. */
StatsReading
readStats(IterContext &ctx, const Simulation &sim)
{
    auto span = ctx.tracer.span("stats.read");
    StatsReading r;
    r.read(sim.stats());
    return r;
}

std::string
fmtError(const char *fmt, unsigned long long a, unsigned long long b = 0)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

// ---------------------------------------------------------------- vhost

/** Simulated length of the measured vhost window per packet size. */
constexpr double kVhostWindowUs = 8000;

} // namespace

void
runVhost(IterContext &ctx)
{
    IterResult &out = ctx.out;
    LayerDelta ld;
    std::uint64_t packets = 0;
    std::uint64_t errors = 0;

    // 256 B: per-descriptor overhead dominates; 1518 B: copying does.
    for (std::uint32_t bytes : {256u, 1518u}) {
        // The seed moves where in the steady state the window opens.
        const Tick warm =
            fromUs(300) + fromNs(mixSeed(ctx.seed, bytes) % 16000);
        const Tick horizon = warm + fromUs(kVhostWindowUs);

        std::unique_ptr<apps::Virtqueue> vq;
        std::unique_ptr<apps::VhostSwitch> host;
        std::unique_ptr<apps::GuestDriver> guest;
        Rig::Options o;
        o.devices = 1;
        o.engines = 2;
        Scenario sc(o, [&](Rig &rig) {
            vq = std::make_unique<apps::Virtqueue>(1024);
            apps::VhostSwitch::Config cfg;
            cfg.useDsa = true;
            cfg.packetBytes = bytes;
            host = std::make_unique<apps::VhostSwitch>(
                rig.plat, *rig.as, rig.plat.core(0), rig.exec.get(),
                *vq, cfg);
            guest = std::make_unique<apps::GuestDriver>(
                rig.plat, *rig.as, rig.plat.core(1), *vq, 2048, 512);
            host->run(horizon);
            guest->run(horizon);
            rig.sim.runUntil(warm);
        });

        // Declared after the app objects: the rig (and the coroutine
        // frames on its calendar) goes first.
        std::unique_ptr<Rig> rig;
        {
            auto setup = ctx.tracer.span("bench.setup", &out.setupS);
            {
                auto span = ctx.tracer.span("driver.build");
                rig = std::make_unique<Rig>(sc.options());
            }
            rig->sim.enableStreamHash(true);
            auto span = ctx.tracer.span("apps.warmup");
            sc.warmup(*rig);
        }

        auto measure = ctx.tracer.span("bench.measure", &out.wallS);
        StatsReading before;
        if (ctx.traced())
            before = readStats(ctx, rig->sim);
        const CoreTime core0 = CoreTime::of(rig->plat);
        const std::uint64_t ev0 = rig->sim.eventsExecuted();
        const std::uint64_t pkts0 = host->packetsForwarded();
        const Tick t0 = rig->sim.now();
        {
            auto span = ctx.tracer.span("sim.run", &ld.runS);
            rig->sim.runUntil(horizon);
        }
        const std::uint64_t window = host->packetsForwarded() - pkts0;
        out.sim.emplace_back(
            "apps.vhost.sim_mpps_" + std::to_string(bytes),
            static_cast<double>(window) / toUs(rig->sim.now() - t0));

        const std::uint64_t bad =
            guest->orderViolations() + guest->payloadErrors();
        packets += window;
        errors += bad;
        out.attempted += host->packetsForwarded();
        out.failed += bad;
        if (bad) {
            out.errors.push_back(fmtError(
                "vhost %lluB: %llu misordered or corrupt packet(s)",
                bytes, bad));
        }
        if (guest->received() == 0)
            out.errors.push_back(
                fmtError("vhost %lluB: guest received nothing", bytes));
        out.fp.add(rig->sim.streamHash(), rig->sim.eventsExecuted(),
                   rig->sim.now());

        if (ctx.traced()) {
            ld.add(before, readStats(ctx, rig->sim));
            ld.core += CoreTime::of(rig->plat) - core0;
            ld.events += rig->sim.eventsExecuted() - ev0;
        }
    }

    if (ctx.traced()) {
        fillLayers(out.layer, ld);
        out.layer["apps.vhost.packets"] = static_cast<double>(packets);
        out.layer["apps.vhost.errors"] = static_cast<double>(errors);
    }
}

// ----------------------------------------------------------- cachebench

namespace
{

constexpr std::uint64_t kCacheKeys = 16384;
constexpr unsigned kCacheThreads = 4;
constexpr std::uint64_t kCacheOpsPerThread = 4000;

/** Fisher-Yates shuffle of @p v driven by @p seed. */
void
shuffle(std::vector<std::uint64_t> &v, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t k = v.size() - 1; k > 0; --k)
        std::swap(v[k], v[rng.range(0, k)]);
}

/**
 * Value size per key: ~95.2% small (256 B-4 KiB), ~4.8% large
 * (8 KiB-2 MiB), log-uniform within each class. The sizes are the
 * distribution's quantiles, so every seed caches the same bytes; the
 * seed only shuffles which key gets which size.
 */
std::vector<std::uint64_t>
valueSizes(std::uint64_t seed)
{
    const std::uint64_t large = kCacheKeys * 48 / 1000;
    std::vector<std::uint64_t> sizes(kCacheKeys);
    for (std::uint64_t k = 0; k < kCacheKeys; ++k) {
        const bool big = k < large;
        const double f = big ? (k + 0.5) / large
                             : (k - large + 0.5) / (kCacheKeys - large);
        const double lg = big ? 13.0 + f * 8.0 : 8.0 + f * 4.0;
        sizes[k] = static_cast<std::uint64_t>(std::pow(2.0, lg));
    }
    shuffle(sizes, mixSeed(seed, 0));
    return sizes;
}

/**
 * Closed-loop client over its share of a seeded key permutation:
 * 90% gets, 10% sets that rewrite the value at its size. Each key is
 * visited about once, so the bytes copied barely depend on the seed.
 */
SimTask
cacheClient(Platform &plat, AddressSpace &as, apps::MiniCache &cache,
            int core_id, std::vector<std::uint64_t> keys,
            const std::vector<std::uint64_t> &sizes, Rng rng,
            Histogram &lat, Latch &done)
{
    Core &core = plat.core(static_cast<std::size_t>(core_id));
    Simulation &sim = plat.sim();
    const Addr scratch = as.alloc(2 << 20);
    for (std::uint64_t key : keys) {
        const Tick t0 = sim.now();
        if (rng.chance(0.1)) {
            co_await cache.set(core, key, scratch, sizes[key]);
        } else {
            std::uint64_t len = 0;
            bool hit = false;
            co_await cache.get(core, key, scratch, len, hit);
            if (!hit)
                co_await cache.set(core, key, scratch, sizes[key]);
        }
        lat.add(toUs(sim.now() - t0));
    }
    done.arrive();
}

} // namespace

void
runCachebench(IterContext &ctx)
{
    IterResult &out = ctx.out;

    // Four shared WQs, one per DSA instance, each with one engine.
    Rig::Options o;
    o.devices = 4;
    o.wqSize = 16;
    o.engines = 1;
    o.wqMode = WorkQueue::Mode::Shared;

    const std::vector<std::uint64_t> sizes = valueSizes(ctx.seed);
    std::unique_ptr<Dto> dto;
    std::unique_ptr<apps::MiniCache> cache;
    std::uint64_t populated = 0;
    // Warm-up: one client populates every key; copies run cold
    // because the cached bytes dwarf the modelled LLC.
    Scenario sc(o, [&](Rig &rig) {
        Dto::Config dc;
        dc.threshold = 8192;
        dto = std::make_unique<Dto>(*rig.exec, rig.plat.kernels(), dc);
        apps::MiniCache::Config cc;
        cc.capacityBytes = 4ull << 30;
        cache = std::make_unique<apps::MiniCache>(rig.plat, *rig.as,
                                                  *dto, cc);
        // Populate in key order, every value written once.
        std::vector<std::uint64_t> all(kCacheKeys);
        std::iota(all.begin(), all.end(), 0);
        Histogram warm;
        Latch done(rig.sim, 1);
        cacheClient(rig.plat, *rig.as, *cache, 0, all, sizes,
                    Rng(mixSeed(ctx.seed, 1)), warm, done);
        rig.sim.run();
        populated = warm.count();
    });

    std::unique_ptr<Rig> rig;
    {
        auto setup = ctx.tracer.span("bench.setup", &out.setupS);
        {
            auto span = ctx.tracer.span("driver.build");
            rig = std::make_unique<Rig>(sc.options());
        }
        rig->sim.enableStreamHash(true);
        auto span = ctx.tracer.span("apps.warmup");
        sc.warmup(*rig);
    }
    // Set-up and measured phase last ~1 s each: sample host speed
    // between them too.
    ctx.probe.pace(ctx.tracer);

    auto measure = ctx.tracer.span("bench.measure", &out.wallS);
    LayerDelta ld;
    StatsReading before;
    if (ctx.traced())
        before = readStats(ctx, rig->sim);
    const CoreTime core0 = CoreTime::of(rig->plat);
    const std::uint64_t ev0 = rig->sim.eventsExecuted();
    const std::uint64_t offloaded0 = dto->bytesOffloaded;
    const std::uint64_t onCpu0 = dto->bytesOnCpu;

    // Client t takes the t-th slice of one seeded key permutation.
    std::vector<std::uint64_t> order(kCacheKeys);
    std::iota(order.begin(), order.end(), 0);
    shuffle(order, mixSeed(ctx.seed, 2));
    Histogram lat;
    Latch done(rig->sim, kCacheThreads);
    const Tick t0 = rig->sim.now();
    for (unsigned t = 0; t < kCacheThreads; ++t) {
        const auto first = order.begin() + t * kCacheOpsPerThread;
        cacheClient(rig->plat, *rig->as, *cache, static_cast<int>(t),
                    {first, first + kCacheOpsPerThread}, sizes,
                    Rng(mixSeed(ctx.seed, 3 + t)), lat, done);
    }
    {
        auto span = ctx.tracer.span("sim.run", &ld.runS);
        rig->sim.run();
    }
    const Tick elapsed = rig->sim.now() - t0;
    out.sim.emplace_back("apps.minicache.sim_mops",
                         static_cast<double>(lat.count()) / toUs(elapsed));
    out.sim.emplace_back("apps.minicache.sim_p99_us", lat.percentile(99));

    // Every DSA completion that was not Success shows up as a DTO
    // fallback; a client that never finished is a hang.
    out.attempted += populated + lat.count();
    out.failed += dto->cpuFallbacks + done.pending();
    if (dto->cpuFallbacks) {
        out.errors.push_back(fmtError(
            "cachebench: %llu offload(s) completed with an error",
            dto->cpuFallbacks));
    }
    if (populated != kCacheKeys || !done.done()) {
        out.errors.push_back(fmtError(
            "cachebench: %llu client(s) hung, %llu keys populated",
            done.pending(), populated));
    }
    out.fp.add(rig->sim.streamHash(), rig->sim.eventsExecuted(),
               rig->sim.now());

    if (ctx.traced()) {
        ld.add(before, readStats(ctx, rig->sim));
        ld.core = CoreTime::of(rig->plat) - core0;
        ld.events = rig->sim.eventsExecuted() - ev0;
        fillLayers(out.layer, ld);
        const double offloaded =
            static_cast<double>(dto->bytesOffloaded - offloaded0);
        const double onCpu = static_cast<double>(dto->bytesOnCpu - onCpu0);
        out.layer["dto.offload_byte_share"] =
            offloaded + onCpu > 0 ? offloaded / (offloaded + onCpu) : 0.0;
    }
}

// -------------------------------------------------------------- serving

namespace
{

constexpr unsigned kServingTenants = 1024;
constexpr std::uint64_t kServingRequests = 16; ///< per tenant
/**
 * Host threads stepping the two socket domains. One: on the shared
 * 4-vCPU tuning host, two threads ran the same simulation 3x slower
 * (barrier waits) with a 36% run-to-run spread, far past wall_s's
 * bound; the simulated results are identical for any thread count.
 */
constexpr unsigned kServingThreads = 1;

/** Poisson victims plus bursty large-payload aggressors. */
constexpr const char *kServingMix =
    "poisson:rate=1200,weight=14,bytes=2048;"
    "bursty:rate=2500,factor=24,period=32,duty=0.25,weight=2,"
    "bytes=32768";

/** Two sockets, one DSA each, two shared WQs in one group. */
ClusterConfig
servingCluster()
{
    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 4;
    cc.socket.numDsaDevices = 1;
    // WQ0: high-priority portal kept for victims; WQ1: low-priority
    // bulk portal with a reduced ENQCMD threshold for aggressors.
    DsaTopology topo;
    topo.groups = {{}};
    topo.wqs = {{0, WorkQueue::Mode::Shared, 32, 8, 0},
                {0, WorkQueue::Mode::Shared, 32, 1, 24}};
    topo.engines = {0, 0};
    cc.socket.dsaTopology = topo;
    for (auto &node : cc.socket.mem.nodes)
        node.capacityBytes = 1ull << 30;
    cc.lookaheadBytes = 16 << 10;
    return cc;
}

dml::ServingConfig
servingLadder(std::uint64_t seed)
{
    dml::ServingConfig sc;
    sc.maxRetries = 3;
    sc.backoffBase = fromNs(200);
    sc.backoffCap = fromUs(2);
    sc.backoffJitter = 0.5;
    sc.outstandingCap = 24;
    sc.cpuFallback = true;
    sc.breaker.window = 16;
    sc.breaker.openThreshold = 0.5;
    sc.breaker.cooldown = fromUs(150);
    sc.breaker.probes = 4;
    sc.seed = seed;
    return sc;
}

/** Cross-socket digest stream: UPI traffic during the overload. */
SimTask
digestLoad(Simulation &sim, RemotePort &port, int blocks)
{
    for (int i = 0; i < blocks; ++i) {
        co_await sim.delay(fromUs(120));
        co_await port.push(16 << 10);
    }
}

struct ServingSocket
{
    std::unique_ptr<dml::Executor> exec;
    std::unique_ptr<dml::ServingNode> node;
    std::unique_ptr<WqAdmission> admission;
    std::unique_ptr<Latch> done;
};

} // namespace

void
runServing(IterContext &ctx)
{
    IterResult &out = ctx.out;
    const ArrivalMix mix = ArrivalMix::parse(kServingMix);
    const dml::ServingConfig ladder = servingLadder(ctx.seed);

    std::unique_ptr<SocketCluster> cl;
    std::vector<ServingSocket> socks;
    {
        auto setup = ctx.tracer.span("bench.setup", &out.setupS);
        {
            auto span = ctx.tracer.span("driver.build");
            cl = std::make_unique<SocketCluster>(servingCluster());
            cl->enableStreamHash(true);
            socks.resize(cl->socketCount());
            for (unsigned s = 0; s < cl->socketCount(); ++s) {
                Platform &plat = cl->plat(s);
                ServingSocket &sk = socks[s];
                dml::ExecutorConfig ec;
                ec.path = dml::Path::Hardware;
                sk.exec = std::make_unique<dml::Executor>(
                    cl->domainSim(s), plat.mem(), plat.kernels(),
                    std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
                sk.node = std::make_unique<dml::ServingNode>(
                    cl->domainSim(s), *sk.exec, ladder);
                // qos arm: aggressors run Opportunistic under a token
                // bucket on the bulk portal.
                WqAdmission::Config ac;
                ac.bucket = {1500, 6};
                ac.defaultClass = QosClass::Opportunistic;
                ac.opportunisticFraction = 0.5;
                sk.admission = std::make_unique<WqAdmission>(ac);
                plat.dsa(0).installAdmission(1, sk.admission.get());
            }
        }

        auto span = ctx.tracer.span("apps.warmup");
        const unsigned n = cl->socketCount();
        for (unsigned s = 0; s < n; ++s) {
            const std::uint64_t onSocket =
                (kServingTenants - s + n - 1) / n;
            socks[s].done = std::make_unique<Latch>(
                cl->domainSim(s), onSocket * kServingRequests);
        }
        for (unsigned t = 0; t < kServingTenants; ++t) {
            Platform &plat = cl->plat(t % n);
            ServingSocket &sk = socks[t % n];
            const ArrivalClass &cls = mix.classFor(t);
            const bool aggressor =
                cls.pattern == ArrivalPattern::Bursty;
            AddressSpace &as = plat.mem().createSpace();
            const std::uint64_t bytes = cls.payloadBytes;
            const Addr src = as.alloc(bytes);
            const Addr dst = as.alloc(bytes);
            // Value copy / integrity scan / pattern scan, by request.
            auto make = [&as, src, dst,
                         bytes](std::uint64_t k) -> WorkDescriptor {
                switch (k % 3) {
                  case 0:
                    return dml::Executor::memMove(as, dst, src, bytes);
                  case 1:
                    return dml::Executor::crc32(as, src, bytes);
                  default:
                    return dml::Executor::comparePattern(as, src, 0,
                                                         bytes);
                }
            };
            WorkQueue &wq = plat.dsa(0).wq(aggressor ? 1 : 0);
            dml::TenantSession &sess = sk.node->addTenant(
                as.pasid(), plat.core(t % 4), plat.dsa(0), wq, make);
            sk.node->openLoop(sess, ArrivalStream(ctx.seed, t, cls),
                              kServingRequests, *sk.done);
        }
        for (unsigned s = 0; s < n; ++s)
            digestLoad(cl->domainSim(s), cl->port(s, (s + 1) % n), 48);
    }

    auto measure = ctx.tracer.span("bench.measure", &out.wallS);
    const unsigned n = cl->socketCount();
    LayerDelta ld;
    StatsReading before;
    CoreTime core0;
    for (unsigned s = 0; s < n; ++s) {
        core0 += CoreTime::of(cl->plat(s));
        if (ctx.traced()) {
            auto span = ctx.tracer.span("stats.read");
            before.read(cl->domainSim(s).stats(),
                        "socket" + std::to_string(s) + ".");
        }
    }
    {
        auto span = ctx.tracer.span("sim.run", &ld.runS);
        cl->run(kServingThreads);
    }

    dml::TenantStats total;
    Histogram victims;
    std::uint64_t hung = 0;
    for (unsigned s = 0; s < n; ++s) {
        hung += socks[s].done->pending();
        total.merge(socks[s].node->aggregate());
    }
    for (unsigned t = 0; t < kServingTenants; ++t) {
        if (mix.classFor(t).pattern != ArrivalPattern::Bursty)
            victims.merge(
                socks[t % n].node->sessions()[t / n]->stats.latencyUs);
    }
    out.sim.emplace_back("dml.serving.sim_victim_p99_us",
                         victims.percentile(99));
    out.sim.emplace_back("dml.serving.sim_goodput_mbps",
                         static_cast<double>(total.goodputBytes) / 1e6 /
                             toSec(cl->endTick()));

    // Zero-hang latch: every offered request must reach a terminal
    // state; drops and terminal failures count as failed.
    const std::uint64_t offered =
        std::uint64_t{kServingTenants} * kServingRequests;
    out.attempted += offered;
    out.failed += total.dropped + total.failures + hung;
    if (hung || total.arrivals != offered ||
        total.completed() + total.dropped != offered) {
        out.errors.push_back(fmtError(
            "serving: %llu request(s) hung, %llu arrival(s) offered",
            hung, total.arrivals));
    }
    if (total.dropped + total.failures) {
        out.errors.push_back(fmtError(
            "serving: %llu dropped, %llu failed request(s)",
            total.dropped, total.failures));
    }
    out.fp.add(cl->streamHash(), cl->eventsExecuted(), cl->endTick());

    if (ctx.traced()) {
        StatsReading after;
        CoreTime core1;
        for (unsigned s = 0; s < n; ++s) {
            core1 += CoreTime::of(cl->plat(s));
            auto span = ctx.tracer.span("stats.read");
            after.read(cl->domainSim(s).stats(),
                       "socket" + std::to_string(s) + ".");
        }
        ld.add(before, after);
        ld.core = core1 - core0;
        ld.events = cl->eventsExecuted();
        fillLayers(out.layer, ld);
        const double epochs =
            static_cast<double>(cl->partitions().epochsRun());
        out.layer["sim.partition.epochs"] = epochs;
        out.layer["sim.partition.events_per_epoch"] =
            epochs > 0 ? static_cast<double>(ld.events) / epochs : 0.0;
        out.layer["dml.serving.hw_ratio"] =
            total.completed() ? static_cast<double>(total.hwOk) /
                                    static_cast<double>(total.completed())
                              : 0.0;
    }
}

// --------------------------------------------------------- opcode sweep

namespace
{

constexpr int kSlots = 8;                                 ///< async ring
constexpr std::uint64_t kStride = (2ull << 20) + (64 << 10); ///< per slot
constexpr std::uint64_t kMaxSize = 1 << 20;
constexpr std::uint32_t kDifBlock = 512;
constexpr int kAsyncDepth = 32;
const std::vector<std::uint64_t> kSweepSizes = {256, 4 << 10, 64 << 10,
                                                1 << 20};

/**
 * Buffers of the sweep, kSlots slots of kStride bytes per region:
 * a random source, its mutated copy (delta), a pattern region and
 * its copy (compare), the DIF-protected source, the destination, the
 * delta records and the delta-apply target.
 */
struct SweepLayout
{
    Addr src = 0, mutated = 0, pat = 0, patCopy = 0, prot = 0, dst = 0,
         rec = 0, target = 0;
    std::uint64_t pattern = 0;
    std::uint16_t appTag = 0, newAppTag = 0;
    std::uint32_t refTag = 0, newRefTag = 0;
    /** Delta record length per (slot, size index). */
    std::uint64_t recordBytes[kSlots][4] = {};

    static Addr at(Addr base, int slot)
    {
        return base + static_cast<Addr>(slot) * kStride;
    }
    Addr record(int slot, std::size_t size_idx) const
    {
        return at(rec, slot) + size_idx * (128 << 10);
    }
};

/** A byte range a sweep op writes (compared DSA vs CPU). */
struct Output
{
    Addr va = 0;
    std::uint64_t len = 0;
};

struct SweepOp
{
    const char *name;
    std::uint64_t minSize, maxSize;
    WorkDescriptor (*make)(AddressSpace &, const SweepLayout &, int slot,
                           std::size_t size_idx);
    std::vector<Output> (*outputs)(const SweepLayout &, std::size_t size_idx);
};

std::uint64_t
difBytes(std::uint64_t n)
{
    return n + n / kDifBlock * 8;
}

using E = dml::Executor;
using L = SweepLayout;

std::uint64_t
sz(std::size_t i)
{
    return kSweepSizes[i];
}

std::vector<Output>
noOutput(const L &, std::size_t)
{
    return {};
}

std::vector<Output>
dstOutput(const L &l, std::size_t i)
{
    return {{l.dst, sz(i)}};
}

std::vector<Output>
difDstOutput(const L &l, std::size_t i)
{
    return {{l.dst, difBytes(sz(i))}};
}

/** Every data opcode of Table 1 (cache flush moves no data). */
const std::vector<SweepOp> &
sweepOps()
{
    static const std::vector<SweepOp> ops = {
        {"memmove", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::memMove(as, L::at(l.dst, s), L::at(l.src, s), sz(i));
         },
         dstOutput},
        {"dualcast", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             // Both destinations share address bits 11:0.
             return E::dualcast(as, L::at(l.dst, s),
                                L::at(l.dst, s) + kMaxSize,
                                L::at(l.src, s), sz(i));
         },
         [](const L &l, std::size_t i) {
             return std::vector<Output>{{l.dst, sz(i)},
                                        {l.dst + kMaxSize, sz(i)}};
         }},
        {"crc", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::crc32(as, L::at(l.src, s), sz(i));
         },
         noOutput},
        {"copy_crc", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::copyCrc(as, L::at(l.dst, s), L::at(l.src, s),
                               sz(i));
         },
         dstOutput},
        {"fill", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             WorkDescriptor w = E::fill(as, L::at(l.dst, s), l.pattern,
                                        sz(i));
             w.flags |= descflags::cacheControl;
             return w;
         },
         dstOutput},
        {"nt_fill", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             WorkDescriptor w = E::fill(as, L::at(l.dst, s), l.pattern,
                                        sz(i));
             w.flags &= ~descflags::cacheControl;
             return w;
         },
         dstOutput},
        {"compare", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             // Equal inputs: both paths scan the full length.
             return E::compare(as, L::at(l.pat, s), L::at(l.patCopy, s),
                               sz(i));
         },
         noOutput},
        {"compare_pattern", 256, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::comparePattern(as, L::at(l.pat, s), l.pattern,
                                      sz(i));
         },
         noOutput},
        {"delta_create", 256, 64 << 10,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::createDelta(as, L::at(l.src, s),
                                   L::at(l.mutated, s), sz(i),
                                   l.record(s, i), 2 * sz(i));
         },
         [](const L &l, std::size_t i) {
             return std::vector<Output>{{l.record(0, i), 2 * sz(i)}};
         }},
        {"delta_apply", 256, 64 << 10,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::applyDelta(as, L::at(l.target, s), l.record(s, i),
                                  l.recordBytes[s][i], sz(i));
         },
         [](const L &l, std::size_t i) {
             return std::vector<Output>{{l.target, sz(i)}};
         }},
        {"dif_insert", 4 << 10, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::difInsert(as, L::at(l.src, s), L::at(l.dst, s),
                                 kDifBlock, sz(i), l.appTag, l.refTag);
         },
         difDstOutput},
        {"dif_check", 4 << 10, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::difCheck(as, L::at(l.prot, s), kDifBlock, sz(i),
                                l.appTag, l.refTag);
         },
         noOutput},
        {"dif_strip", 4 << 10, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::difStrip(as, L::at(l.prot, s), L::at(l.dst, s),
                                kDifBlock, sz(i));
         },
         dstOutput},
        {"dif_update", 4 << 10, kMaxSize,
         [](AddressSpace &as, const L &l, int s, std::size_t i) {
             return E::difUpdate(as, L::at(l.prot, s), L::at(l.dst, s),
                                 kDifBlock, sz(i), l.appTag, l.refTag,
                                 l.newAppTag, l.newRefTag);
         },
         difDstOutput},
    };
    return ops;
}

/** Seeded sweep inputs, written through the host-side memory API. */
void
prepareSweep(Rig &rig, SweepLayout &l, std::uint64_t seed)
{
    AddressSpace &as = *rig.as;
    const std::uint64_t region = kSlots * kStride;
    for (Addr *base : {&l.src, &l.mutated, &l.pat, &l.patCopy, &l.prot,
                       &l.dst, &l.rec, &l.target})
        *base = as.alloc(region);

    Rng rng(mixSeed(seed, 1));
    l.pattern = (std::uint64_t{rng.next32()} << 32) | rng.next32();
    l.appTag = static_cast<std::uint16_t>(rng.next32());
    l.refTag = rng.next32();
    l.newAppTag = static_cast<std::uint16_t>(rng.next32());
    l.newRefTag = rng.next32();

    std::vector<std::uint8_t> buf(kMaxSize);
    std::vector<std::uint8_t> pat(kMaxSize);
    for (std::size_t i = 0; i < pat.size(); ++i)
        pat[i] = static_cast<std::uint8_t>(l.pattern >> (8 * (i % 8)));
    Core &core = rig.plat.core(2);
    SwKernels &k = rig.plat.kernels();
    for (int s = 0; s < kSlots; ++s) {
        for (std::size_t i = 0; i < buf.size(); i += 4) {
            const std::uint32_t w = rng.next32();
            std::memcpy(&buf[i], &w, 4);
        }
        as.write(L::at(l.src, s), buf.data(), buf.size());
        as.write(L::at(l.target, s), buf.data(), buf.size());
        // About one changed byte per 2 KiB: sparse delta records.
        for (std::size_t off = 0; off < buf.size(); off += 1024) {
            if (rng.chance(0.5))
                buf[off + rng.range(0, 1023)] ^= 0x5a;
        }
        as.write(L::at(l.mutated, s), buf.data(), buf.size());
        as.write(L::at(l.pat, s), pat.data(), pat.size());
        as.write(L::at(l.patCopy, s), pat.data(), pat.size());
        k.difInsertOp(core, as, L::at(l.src, s), L::at(l.prot, s),
                      kDifBlock, kMaxSize / kDifBlock, l.appTag,
                      l.refTag);
        for (std::size_t i = 0; i < kSweepSizes.size(); ++i) {
            if (sz(i) > (64 << 10))
                continue;
            l.recordBytes[s][i] =
                k.deltaCreateOp(core, as, L::at(l.src, s),
                                L::at(l.mutated, s), sz(i),
                                l.record(s, i), 2 * sz(i))
                    .recordBytes;
        }
    }
}

/** One-shot execution of @p d on the hardware or software path. */
SimTask
runOnce(Rig &rig, WorkDescriptor d, bool hw, dml::OpResult &out)
{
    if (hw)
        co_await rig.exec->executeHardware(rig.plat.core(0), d, out);
    else
        co_await rig.exec->executeSoftware(rig.plat.core(1), d, out);
}

/** Completion fields and written bytes of one execution. */
struct Outcome
{
    dml::OpResult r;
    std::vector<std::uint8_t> bytes;

    bool operator==(const Outcome &o) const
    {
        return r.status == o.r.status && r.ok == o.r.ok &&
               r.crc == o.r.crc && r.recordBytes == o.r.recordBytes &&
               r.result == o.r.result && bytes == o.bytes;
    }
};

/** Zero the outputs, run @p d once, and read back what it wrote. */
Outcome
runChecked(Rig &rig, const WorkDescriptor &d, bool hw,
           const std::vector<Output> &outs)
{
    for (const Output &o : outs) {
        const std::vector<std::uint8_t> zero(o.len, 0);
        rig.as->write(o.va, zero.data(), o.len);
    }
    Outcome res;
    runOnce(rig, d, hw, res.r);
    rig.sim.run();
    for (const Output &o : outs) {
        const std::size_t at = res.bytes.size();
        res.bytes.resize(at + o.len);
        rig.as->read(o.va, res.bytes.data() + at, o.len);
    }
    return res;
}

/** Run one sync point of @p op on DSA and on the CPU and compare. */
bool
dsaMatchesCpu(Rig &rig, const SweepOp &op, const SweepLayout &l,
              std::size_t size_idx)
{
    const WorkDescriptor d = op.make(*rig.as, l, 0, size_idx);
    const std::vector<Output> outs = op.outputs(l, size_idx);
    return runChecked(rig, d, true, outs) == runChecked(rig, d, false, outs);
}

} // namespace

void
runOpcodeSweep(IterContext &ctx)
{
    IterResult &out = ctx.out;
    SweepLayout layout;
    std::shared_ptr<const bench::RigSnapshot> snap;
    {
        auto setup = ctx.tracer.span("bench.setup", &out.setupS);
        std::unique_ptr<Rig> rig;
        {
            auto span = ctx.tracer.span("driver.build");
            rig = std::make_unique<Rig>(Rig::Options{});
        }
        rig->sim.enableStreamHash(true);
        {
            auto span = ctx.tracer.span("apps.warmup");
            prepareSweep(*rig, layout, ctx.seed);
            rig->sim.run(); // capture precondition: idle calendar
        }
        auto span = ctx.tracer.span("driver.capture");
        snap = bench::snapRig(*rig);
    }

    LayerDelta ld;
    double logSum = 0;
    std::uint64_t points = 0, mismatches = 0;
    for (const SweepOp &op : sweepOps()) {
        for (bool async : {false, true}) {
            for (std::size_t i = 0; i < kSweepSizes.size(); ++i) {
                if (sz(i) < op.minSize || sz(i) > op.maxSize)
                    continue;
                // One fork per (opcode, size, mode) point; the cache
                // is flushed before every iteration inside
                // syncHw/syncSw/asyncHw (§4.1).
                std::unique_ptr<Rig> rig;
                double speedup = 0;
                {
                    auto measure =
                        ctx.tracer.span("bench.measure", &out.wallS);
                    {
                        auto span = ctx.tracer.span("driver.fork");
                        rig = std::make_unique<Rig>(*snap);
                    }
                    StatsReading before;
                    if (ctx.traced())
                        before = readStats(ctx, rig->sim);
                    const CoreTime core0 = CoreTime::of(rig->plat);
                    const std::uint64_t ev0 = rig->sim.eventsExecuted();
                    {
                        auto span = ctx.tracer.span("sim.run", &ld.runS);
                        if (async) {
                            std::vector<WorkDescriptor> ring;
                            for (int s = 0; s < kSlots; ++s)
                                ring.push_back(
                                    op.make(*rig->as, layout, s, i));
                            const bench::Measure hw = bench::asyncHw(
                                *rig, ring, 0, kAsyncDepth);
                            const bench::Measure sw =
                                bench::syncSw(*rig, ring.front());
                            speedup = hw.gbps / sw.gbps;
                        } else {
                            const WorkDescriptor d =
                                op.make(*rig->as, layout, 0, i);
                            const bench::Measure hw =
                                bench::syncHw(*rig, d);
                            const bench::Measure sw =
                                bench::syncSw(*rig, d);
                            speedup = sw.meanNs / hw.meanNs;
                        }
                    }
                    out.fp.add(rig->sim.streamHash(),
                               rig->sim.eventsExecuted(), rig->sim.now());
                    if (ctx.traced()) {
                        ld.add(before, readStats(ctx, rig->sim));
                        ld.core += CoreTime::of(rig->plat) - core0;
                        ld.events += rig->sim.eventsExecuted() - ev0;
                    }
                }
                logSum += std::log(speedup);
                ++points;
                // Outside the timed phase: the DSA result must equal
                // the CPU kernel's, bit for bit.
                if (!async && !dsaMatchesCpu(*rig, op, layout, i)) {
                    ++mismatches;
                    out.errors.push_back(
                        std::string("opcode_sweep: ") + op.name + " at " +
                        bench::fmtSize(sz(i)) +
                        ": DSA result differs from the CPU kernel's");
                }
                {
                    // Tearing the fork down is part of the point's cost.
                    auto measure =
                        ctx.tracer.span("bench.measure", &out.wallS);
                    rig.reset();
                }
                // An iteration lasts seconds: sample host speed within.
                ctx.probe.pace(ctx.tracer);
            }
        }
    }
    out.sim.emplace_back("ops.sim_speedup_geomean",
                         std::exp(logSum / static_cast<double>(points)));
    out.attempted += points;
    out.failed += mismatches;

    if (ctx.traced()) {
        fillLayers(out.layer, ld);
        out.layer["ops.points"] = static_cast<double>(points);
        out.layer["ops.mismatches"] = static_cast<double>(mismatches);
    }
}

} // namespace dsasim::perfbench
