/**
 * @file
 * Open-loop multi-tenant serving under overload: the "millions of
 * users" scenario the ROADMAP names, on a 2-socket cluster.
 *
 * DSASIM_TENANTS tenants (default 1024) split across the sockets,
 * each PASID-isolated in its own address space, submit to one shared
 * (ENQCMD) WQ per socket through the dml::ServingNode degradation
 * ladder (serving.hh). The arrival mix (DSASIM_ARRIVALS) blends a
 * large population of small poisson "victim" tenants with a few
 * bursty large-payload aggressors whose on-phases overload the SWQ:
 * ENQCMD retry storms, bounded jittered backoff, circuit-breaker
 * sheds and CPU fallback all happen mid-run, while a cross-socket
 * UPI digest stream keeps the partition barrier honest.
 *
 * Two policy arms run back to back:
 *   no-qos: the bare SWQ threshold (the paper's Fig. 9 world) —
 *           aggressor bursts collapse victim tail latency;
 *   qos:    WqAdmission installed (per-tenant token buckets +
 *           Opportunistic class for aggressors) — victims keep
 *           their tail while aggressors throttle/shed.
 *
 * Each arm runs at 1 and 4 worker threads; the simulated fingerprint
 * (events, end_us, stream_hash) must be bit-identical across thread
 * counts even mid-overload — asserted on every run. --check compares
 * fingerprints and counters exactly against the committed JSON,
 * latency/goodput metrics within 25%, and enforces the robustness
 * invariants (zero hangs, degradation actually engaged, retries
 * bounded, qos arm protects the victim tail).
 *
 * Usage:
 *   bench_serving [--n=REQ/TENANT] [--tenants=N] [--seed=S]
 *                 [--json=PATH] [--check=PATH]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hh"
#include "bench/gate.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "dsa/qos.hh"
#include "sim/traffic.hh"

namespace dsasim::bench
{
namespace
{

using Clock = std::chrono::steady_clock;

constexpr const char *kDefaultMix =
    "poisson:rate=1200,weight=14,bytes=2048;"
    "bursty:rate=2500,factor=24,period=32,duty=0.25,weight=2,"
    "bytes=32768";

struct Params
{
    unsigned tenants = 1024; ///< across the cluster
    std::uint64_t requests = 16; ///< per tenant
    std::uint64_t seed = 1;
    std::string mixSpec = kDefaultMix;
};

ClusterConfig
clusterConfig()
{
    ClusterConfig cc;
    cc.sockets = 2;
    cc.socket = PlatformConfig::spr();
    cc.socket.numCores = 4;
    cc.socket.numDsaDevices = 1;
    // Two shared WQs in one group, deliberately modest so overload
    // is provable, not theoretical: WQ0 is the high-priority portal
    // (the qos arm reserves it for victims), WQ1 the low-priority
    // bulk portal with a reduced ENQCMD threshold. The no-qos arm
    // sends every tenant through WQ0, so the second portal idles
    // there and both arms share one hardware capacity.
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
servingConfig(const Params &p)
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
    sc.seed = p.seed;
    return sc;
}

/** Cross-socket digest stream: keeps UPI traffic mid-overload. */
SimTask
digestLoad(Simulation &sim, RemotePort &port, int blocks)
{
    for (int i = 0; i < blocks; ++i) {
        co_await sim.delay(fromUs(120));
        co_await port.push(16 << 10);
    }
}

/** Per-socket serving rig (host-side bookkeeping). */
struct SocketRig
{
    std::unique_ptr<dml::Executor> exec;
    std::unique_ptr<dml::ServingNode> node;
    std::unique_ptr<WqAdmission> admission;
    std::unique_ptr<Latch> done;
};

struct ArmResult
{
    double secs = 0;
    std::uint64_t streamHash = 0;
    std::uint64_t events = 0;
    Tick endTick = 0;

    dml::TenantStats total;
    std::uint64_t breakerOpens = 0;
    std::uint64_t breakerCloses = 0;
    std::uint64_t breakerShed = 0;
    std::uint64_t admissionThrottled = 0;
    std::uint64_t admissionBusy = 0;

    double p50 = 0, p99 = 0, p999 = 0; ///< all tenants, us
    double victimP99 = 0;              ///< poisson class
    double aggressorP99 = 0;           ///< bursty class
    double goodputMBps = 0;
};

/**
 * Build and run the scenario once. Tenant t lives on socket t%2,
 * its arrival stream and backoff jitter are counter-based functions
 * of (seed, t), so nothing here depends on the worker thread count.
 */
ArmResult
runArm(const Params &p, bool qos, unsigned threads)
{
    const ArrivalMix mix = ArrivalMix::parse(p.mixSpec);
    SocketCluster cl(clusterConfig());
    cl.enableStreamHash(true);

    std::vector<SocketRig> rigs(cl.socketCount());
    const dml::ServingConfig sc = servingConfig(p);

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        Platform &plat = cl.plat(s);
        SocketRig &rig = rigs[s];
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        rig.exec = std::make_unique<dml::Executor>(
            cl.domainSim(s), plat.mem(), plat.kernels(),
            std::vector<DsaDevice *>{&plat.dsa(0)}, ec);
        rig.node = std::make_unique<dml::ServingNode>(cl.domainSim(s),
                                                      *rig.exec, sc);
        if (qos) {
            // Admission on the bulk portal only: every tenant routed
            // there runs Opportunistic under a token bucket sized
            // below the aggressors' burst appetite.
            WqAdmission::Config ac;
            ac.bucket = {1500, 6};
            ac.defaultClass = QosClass::Opportunistic;
            ac.opportunisticFraction = 0.5;
            rig.admission = std::make_unique<WqAdmission>(ac);
            plat.dsa(0).installAdmission(1, rig.admission.get());
        }
    }

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        // Socket s hosts tenants {s, s+K, s+2K, ...}.
        const std::uint64_t onSocket =
            (p.tenants - s + cl.socketCount() - 1) /
            cl.socketCount();
        rigs[s].done = std::make_unique<Latch>(
            cl.domainSim(s), onSocket * p.requests);
    }

    for (unsigned t = 0; t < p.tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        Platform &plat = cl.plat(s);
        SocketRig &rig = rigs[s];
        const ArrivalClass &cls = mix.classFor(t);
        const bool aggressor = cls.pattern == ArrivalPattern::Bursty;

        AddressSpace &as = plat.mem().createSpace();
        const std::uint64_t bytes = cls.payloadBytes;
        Addr src = as.alloc(bytes);
        Addr dst = as.alloc(bytes);

        // Tenant workload: KV value copy / integrity scan / columnar
        // pattern scan, cycling by request index (the span opcode
        // kernels of src/ops, per the ROADMAP's serving item).
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

        // qos arm: aggressors route to the low-priority admitted
        // bulk portal; victims keep the high-priority WQ to
        // themselves. no-qos arm: everyone fights over WQ0.
        WorkQueue &wq =
            plat.dsa(0).wq(qos && aggressor ? 1 : 0);
        dml::TenantSession &sess = rig.node->addTenant(
            as.pasid(), plat.core(t % 4), plat.dsa(0), wq, make);

        rig.node->openLoop(sess, ArrivalStream(p.seed, t, cls),
                           p.requests, *rig.done);
    }

    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        digestLoad(cl.domainSim(s),
                   cl.port(s, (s + 1) % cl.socketCount()), 48);
    }

    const auto t0 = Clock::now();
    cl.run(threads);
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();

    ArmResult r;
    r.secs = secs;
    r.streamHash = cl.streamHash();
    r.events = cl.eventsExecuted();
    r.endTick = cl.endTick();

    Histogram victims;
    Histogram aggressors;
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        const SocketRig &rig = rigs[s];
        if (!rig.done->done()) {
            std::fprintf(stderr,
                         "bench_serving: HANG — socket %u finished "
                         "with %llu request(s) unaccounted\n",
                         s,
                         static_cast<unsigned long long>(
                             rig.done->pending()));
            std::exit(1);
        }
        r.total.merge(rig.node->aggregate());
        for (const auto &sess : rig.node->sessions()) {
            r.breakerOpens += sess->breaker.opens;
            r.breakerCloses += sess->breaker.closes;
            r.breakerShed += sess->breaker.shed;
        }
        if (rig.admission) {
            r.admissionThrottled += rig.admission->totalThrottled;
            r.admissionBusy += rig.admission->totalBusy;
        }
    }
    // Per-class tails: tenant t's class is mix.classFor(t); sessions
    // were added in tenant order, socket-interleaved.
    for (unsigned t = 0; t < p.tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        const auto &sess =
            *rigs[s].node->sessions()[t / cl.socketCount()];
        const bool aggressor =
            mix.classFor(t).pattern == ArrivalPattern::Bursty;
        (aggressor ? aggressors : victims)
            .merge(sess.stats.latencyUs);
    }

    r.p50 = r.total.latencyUs.percentile(50);
    r.p99 = r.total.latencyUs.percentile(99);
    r.p999 = r.total.latencyUs.percentile(99.9);
    r.victimP99 = victims.percentile(99);
    r.aggressorP99 = aggressors.percentile(99);
    r.goodputMBps = static_cast<double>(r.total.goodputBytes) /
                    1e6 / toSec(r.endTick);
    return r;
}

struct Metrics
{
    unsigned hwThreads = 0;
    unsigned tenants = 0;
    ArmResult noqos;
    ArmResult qos;
    double rate1 = 0; ///< serial events/sec (no-qos arm)
};

/** Run one arm at 1 and 4 threads; the fingerprints must agree. */
ArmResult
runArmChecked(const Params &p, bool qos)
{
    ArmResult r1 = runArm(p, qos, 1);
    ArmResult r4 = runArm(p, qos, 4);
    if (r1.streamHash != r4.streamHash || r1.events != r4.events ||
        r1.endTick != r4.endTick) {
        std::fprintf(stderr,
                     "bench_serving: FAIL — the worker-thread count "
                     "changed the %s simulation mid-overload "
                     "(hash %016llx vs %016llx, events %llu vs "
                     "%llu)\n",
                     qos ? "qos" : "no-qos",
                     static_cast<unsigned long long>(r1.streamHash),
                     static_cast<unsigned long long>(r4.streamHash),
                     static_cast<unsigned long long>(r1.events),
                     static_cast<unsigned long long>(r4.events));
        std::exit(1);
    }
    return r1;
}

Metrics
measure(const Params &p)
{
    Metrics m;
    m.hwThreads =
        std::max(1u, std::thread::hardware_concurrency());
    m.tenants = p.tenants;
    m.noqos = runArmChecked(p, false);
    m.qos = runArmChecked(p, true);
    m.rate1 =
        static_cast<double>(m.noqos.events) / m.noqos.secs;
    return m;
}

/** Latency/goodput band tolerance and the victim-tail slack. */
constexpr double kTol = 0.25;

/**
 * One arm's rows: fingerprints and counters are exact, tail latency
 * and goodput are simulated too but banded for cross-compiler slack.
 */
void
addArm(gate::Table &t, const std::string &prefix, const ArmResult &r)
{
    const std::string k = prefix + "_";
    t.exactHash(k + "stream_hash", r.streamHash)
        .exact(k + "events", r.events)
        .report(k + "end_us", toUs(r.endTick), 3)
        .exact(k + "arrivals", r.total.arrivals)
        .exact(k + "completed", r.total.completed())
        .exact(k + "hw_ok", r.total.hwOk)
        .exact(k + "fallbacks", r.total.fallbacks)
        .exact(k + "dropped", r.total.dropped)
        .exact(k + "retries", r.total.retries)
        .report(k + "give_ups", r.total.giveUps, 0)
        .report(k + "shed_breaker", r.total.shedBreaker, 0)
        .exact(k + "breaker_opens", r.breakerOpens)
        .report(k + "breaker_closes", r.breakerCloses, 0)
        .report(k + "admission_throttled", r.admissionThrottled, 0)
        .report(k + "admission_busy", r.admissionBusy, 0)
        .report(k + "p50_us", r.p50, 3)
        .band(k + "p99_us", r.p99, 3)
        .report(k + "p999_us", r.p999, 3)
        .band(k + "victim_p99_us", r.victimP99, 3)
        .report(k + "aggressor_p99_us", r.aggressorP99, 3)
        .band(k + "goodput_mbps", r.goodputMBps, 1);
}

/**
 * The arms' rows, the host rate (report only), then the robustness
 * invariants, which hold independent of the committed file.
 */
gate::Table
table(const Params &p, const Metrics &m)
{
    gate::Table t("serving");
    t.report("sockets", 2, 0)
        .report("tenants", m.tenants, 0)
        .report("hw_threads", m.hwThreads, 0);
    addArm(t, "noqos", m.noqos);
    addArm(t, "qos", m.qos);
    t.report("serial_events_per_sec", m.rate1, 0)
        .text("note",
              "all *_stream_hash/*_events/counters are simulated "
              "quantities, bit-identical for any worker-thread count "
              "(asserted at 1 vs 4 threads every run); "
              "latency/goodput are simulated too but gated within "
              "25% for cross-compiler slack; serial_events_per_sec "
              "is host wall-clock");

    const std::uint64_t offered =
        static_cast<std::uint64_t>(p.tenants) * p.requests;
    for (const ArmResult *r : {&m.noqos, &m.qos}) {
        const std::string tag = r == &m.qos ? "qos" : "noqos";
        t.invariant(tag + ": every arrival terminal (zero hangs)",
                    r->total.arrivals == offered &&
                        r->total.completed() + r->total.dropped ==
                            offered)
            .invariant(tag + ": overload engaged degradation",
                       r->total.fallbacks > 0 &&
                           r->total.retries > 0 &&
                           r->breakerOpens > 0)
            .invariant(tag + ": retries bounded by policy",
                       r->total.retries <=
                           r->total.issued *
                               servingConfig(p).maxRetries);
    }
    t.invariant("qos: admission policy exercised",
                m.qos.admissionThrottled + m.qos.admissionBusy > 0)
        .invariant("qos: victim p99 no worse than no-qos",
                   m.qos.victimP99 <= m.noqos.victimP99 * (1.0 + kTol));
    return t;
}

} // namespace
} // namespace dsasim::bench

int
main(int argc, char **argv)
{
    using namespace dsasim::bench;
    Params p;
    p.tenants = dsasim::tenantCountFromEnv(1024);
    {
        dsasim::ArrivalMix probe =
            dsasim::ArrivalMix::fromEnv(kDefaultMix);
        (void)probe; // parse errors surface before the run
    }
    if (const char *s = std::getenv("DSASIM_ARRIVALS"); s && *s)
        p.mixSpec = s;

    gate::Args args;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (args.parse(a))
            continue;
        if (a.rfind("--n=", 0) == 0)
            p.requests = std::strtoull(a.c_str() + 4, nullptr, 0);
        else if (a.rfind("--tenants=", 0) == 0)
            p.tenants = static_cast<unsigned>(
                std::strtoul(a.c_str() + 10, nullptr, 0));
        else if (a.rfind("--seed=", 0) == 0)
            p.seed = std::strtoull(a.c_str() + 7, nullptr, 0);
        else {
            std::fprintf(
                stderr,
                "usage: bench_serving [--n=REQ] [--tenants=N] "
                "[--seed=S] [--json=PATH] [--check=PATH]\n");
            return 2;
        }
    }
    if (p.tenants < 2) {
        std::fprintf(stderr,
                     "bench_serving: need at least 2 tenants\n");
        return 2;
    }

    return gate::finish(table(p, measure(p)), args, kTol);
}
