/**
 * @file
 * determinism_check — end-to-end guard for the determinism contract
 * (DESIGN.md §9): a scenario rerun, forked from a snapshot, run on
 * more worker threads or under another host-side knob must execute
 * the exact same event stream.
 *
 * Each run is one cell of the scenario × variant table kCells (DESIGN.md
 * §9 lists the cells, the contract each guards and its ctests). A
 * scenario is a rig (mix, cluster, serving); a variant is a list of
 * arms whose fingerprints — event-stream hash, completion hash, event
 * count, end tick — must all equal the first arm's. --faults=SPEC
 * installs fault injectors in every cell. Exit status: 0 when the
 * arms agree, 1 on a divergence, 2 on a malformed value or a flag
 * combination that is not a cell.
 *
 * Usage: determinism_check [--n=2000] [--seed=42] [--faults=SPEC]
 *                          [--fork] [--partitions=K] [--serving]
 *                          [--acct] [--telemetry]
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dml/dml.hh"
#include "dml/serving.hh"
#include "driver/cluster.hh"
#include "driver/snapshot.hh"
#include "dsa/qos.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/traffic.hh"
#include "tools/cli.hh"

using namespace dsasim;

namespace
{

struct Options
{
    std::uint64_t n = 2000;
    std::uint64_t seed = 42;
    std::string faults;      ///< empty = no injection
    unsigned partitions = 0; ///< K, the threads arm's worker count
};

struct Fingerprint
{
    std::uint64_t streamHash = 0;
    std::uint64_t completionHash = 0;
    std::uint64_t eventsExecuted = 0;
    Tick endTick = 0;
    bool operator==(const Fingerprint &) const = default;
};

/** One named arm of a variant and the fingerprint it produced. */
struct Arm
{
    std::string label;
    Fingerprint fp;
};
using Arms = std::vector<Arm>;

void
fnv1a(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

/** One mix socket: SPR with 2 cores, 1 DSA and 1 GiB per node. */
PlatformConfig
socketConfig()
{
    PlatformConfig cfg = PlatformConfig::spr();
    cfg.numCores = 2;
    cfg.numDsaDevices = 1;
    for (auto &node : cfg.mem.nodes)
        node.capacityBytes = 1ull << 30;
    return cfg;
}

/** A cluster of @p sockets mix sockets, devices configured up front
 *  so a freshly built cluster is a valid ClusterSnapshot target. */
ClusterConfig
clusterConfig(unsigned sockets, WorkQueue::Mode mode)
{
    ClusterConfig cc;
    cc.sockets = sockets;
    cc.socket = socketConfig();
    cc.socket.dsaTopology = DsaTopology::basic(32, 2, mode);
    return cc;
}

/** Cross-domain fingerprint of a drained cluster. */
Fingerprint
stamp(const SocketCluster &cl)
{
    return {cl.streamHash(), 0, cl.eventsExecuted(), cl.endTick()};
}

void
inject(Platform &p, const Options &opt, std::uint64_t seed)
{
    if (!opt.faults.empty())
        p.setFaultInjector(FaultInjector::fromSpec(opt.faults, seed));
}

constexpr std::uint64_t kSpan = 1 << 20; ///< bytes per mix buffer

SimTask
driver(Platform &plat, dml::Executor &exec, AddressSpace &as,
       std::uint64_t seed, std::uint64_t count, Addr src, Addr dst,
       std::uint64_t &completion_hash, RemotePort *remote = nullptr)
{
    Rng rng(seed);
    Core &core = plat.core(0);
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!plat.dsa(0).enabled())
            plat.dsa(0).enable();
        if (remote && rng.chance(0.2)) {
            // Cross-socket traffic over the UPI ring, interleaved
            // with the local descriptor mix so link events race
            // against DSA completions in both domains.
            if (rng.chance(0.3))
                co_await remote->pull(rng.range(1 << 10, 1 << 14));
            else
                co_await remote->push(rng.range(1 << 10, 1 << 16));
        }
        std::uint64_t n = rng.range(64, 64 << 10);
        std::uint64_t so = rng.range(0, kSpan - n);
        std::uint64_t dof = rng.range(0, kSpan - n);
        unsigned kind = static_cast<unsigned>(rng.below(4));
        if (rng.chance(0.05))
            as.evictPage(src + rng.below(kSpan / 4096) * 4096);
        using X = dml::Executor;
        WorkDescriptor d =
            kind == 0   ? X::memMove(as, dst + dof, src + so, n)
            : kind == 1 ? X::fill(as, dst + dof, rng.next64(), n)
            : kind == 2 ? X::crc32(as, src + so, n)
                        : X::compare(as, src + so, dst + dof, n);
        d.flags &= ~descflags::blockOnFault;
        dml::OpResult r;
        co_await exec.executeRecover(core, d, r);
        const std::uint64_t fields[] = {
            static_cast<std::uint64_t>(r.status), r.bytesCompleted, r.crc,
            r.result, r.latency};
        for (std::uint64_t v : fields)
            fnv1a(completion_hash, v);
    }
}

std::unique_ptr<dml::Executor>
hwExecutor(Simulation &sim, Platform &p,
           Tick grace = dml::ExecutorConfig{}.watchdogGrace)
{
    return std::make_unique<dml::Executor>(
        sim, p.mem(), p.kernels(), std::vector<DsaDevice *>{&p.dsa(0)},
        dml::ExecutorConfig{.path = dml::Path::Hardware,
                            .watchdogTimeout = fromUs(500),
                            .watchdogGrace = grace});
}

/** A fresh space holding a source and a destination buffer, equal. */
std::pair<Addr, Addr>
buffers(Platform &p, std::uint64_t seed)
{
    AddressSpace &as = p.mem().createSpace();
    const Addr src = as.alloc(kSpan);
    const Addr dst = as.alloc(kSpan);
    Rng init(seed);
    std::vector<std::uint8_t> buf(kSpan);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(init.next32());
    as.write(src, buf.data(), kSpan);
    as.write(dst, buf.data(), kSpan);
    return {src, dst};
}

/** Drive @p count mix descriptors and run the calendar dry. */
Fingerprint
play(Simulation &sim, Platform &plat, dml::Executor &exec,
     std::pair<Addr, Addr> buf, std::uint64_t seed, std::uint64_t count)
{
    std::uint64_t chash = 0;
    driver(plat, exec, plat.mem().space(1), seed, count, buf.first,
           buf.second, chash);
    sim.run();
    return {sim.streamHash(), chash, sim.eventsExecuted(), sim.now()};
}

/** The mix rig: one SPR socket driving the seeded descriptor mix. */
struct MixRig
{
    Simulation sim;
    Platform plat{sim, socketConfig()};
    std::unique_ptr<dml::Executor> exec;
    std::pair<Addr, Addr> buf;

    explicit MixRig(const Options &opt)
    {
        sim.enableStreamHash(true);
        DsaTopology::basic(32, 2).apply(plat.dsa(0));
        inject(plat, opt, opt.seed);
        exec = hwExecutor(sim, plat);
        buf = buffers(plat, opt.seed ^ 0x9e3779b97f4a7c15ull);
    }

    Fingerprint
    phase(std::uint64_t seed, std::uint64_t count)
    {
        return play(sim, plat, *exec, buf, seed, count);
    }
};

/** The cluster rig: the mix on each socket of a 4-socket cluster. */
struct ClusterRig
{
    SocketCluster cl;
    std::vector<std::unique_ptr<dml::Executor>> execs;
    std::vector<std::pair<Addr, Addr>> bufs;

    /** A @p restore_target gets spaces, buffers and injectors (RNG
     *  position included) from a ClusterSnapshot. */
    explicit ClusterRig(const Options &opt, bool restore_target = false)
        : cl(clusterConfig(4, WorkQueue::Mode::Dedicated))
    {
        cl.enableStreamHash(true);
        if (restore_target)
            return;
        for (unsigned s = 0; s < cl.socketCount(); ++s) {
            inject(cl.plat(s), opt, opt.seed + s);
            bufs.push_back(buffers(
                cl.plat(s), opt.seed ^ 0x9e3779b97f4a7c15ull ^ s));
        }
        buildExecutors();
    }

    void
    buildExecutors()
    {
        execs.clear();
        for (unsigned s = 0; s < cl.socketCount(); ++s)
            execs.push_back(hwExecutor(cl.domainSim(s), cl.plat(s)));
    }

    /** Drive @p per_socket descriptors per socket (own seed lane, a
     *  RemotePort to the ring neighbor) on @p threads workers. */
    Fingerprint
    phase(std::uint64_t seed, std::uint64_t per_socket, unsigned threads)
    {
        const unsigned n = cl.socketCount();
        std::vector<std::uint64_t> chash(n, 0);
        for (unsigned s = 0; s < n; ++s) {
            driver(cl.plat(s), *execs[s], cl.plat(s).mem().space(1),
                   seed ^ (s * 0x9e3779b97f4a7c15ull), per_socket,
                   bufs[s].first, bufs[s].second, chash[s],
                   &cl.port(s, (s + 1) % n));
        }
        cl.run(threads);
        Fingerprint fp = stamp(cl);
        for (std::uint64_t h : chash)
            fnv1a(fp.completionHash, h);
        return fp;
    }
};

Fingerprint
clusterRun(const Options &opt, unsigned threads)
{
    return ClusterRig(opt).phase(
        opt.seed, std::max<std::uint64_t>(1, opt.n / 4), threads);
}

/**
 * The serving rig: 64 open-loop PASID-isolated tenants on 2 sockets
 * through WQ admission, jittered ENQCMD backoff, breakers and CPU
 * fallback. Per-socket terminal counters fold into the completion
 * hash, so one retry or shed decided differently fails the check.
 */
Fingerprint
servingRun(const Options &opt, unsigned threads)
{
    const unsigned tenants = 64;
    const std::uint64_t requests = std::max<std::uint64_t>(1, opt.n / tenants);
    ClusterConfig cc = clusterConfig(2, WorkQueue::Mode::Shared);
    cc.socket.numCores = 4;
    SocketCluster cl(cc);
    cl.enableStreamHash(true);

    const dml::ServingConfig sc{
        .maxRetries = 4, .backoffBase = fromNs(200),
        .backoffCap = fromUs(2), .outstandingCap = 12,
        .breaker = {.window = 16, .cooldown = fromUs(150)},
        .seed = opt.seed};
    std::vector<std::unique_ptr<dml::Executor>> execs;
    std::deque<dml::ServingNode> nodes;
    std::deque<WqAdmission> admission;
    std::deque<Latch> done;
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        Platform &p = cl.plat(s);
        inject(p, opt, opt.seed + s);
        execs.push_back(hwExecutor(cl.domainSim(s), p,
                                   /*grace=*/fromUs(50)));
        nodes.emplace_back(cl.domainSim(s), *execs.back(), sc);
        admission.emplace_back(WqAdmission::Config{.bucket = {3000, 8}});
        p.dsa(0).installAdmission(0, &admission.back());
        const unsigned on_socket =
            (tenants - s + cl.socketCount() - 1) / cl.socketCount();
        done.emplace_back(cl.domainSim(s), on_socket * requests);
    }

    const ArrivalMix mix = ArrivalMix::parse(
        "poisson:rate=2000,weight=3,bytes=1024;"
        "bursty:rate=4000,factor=16,period=24,duty=0.25,weight=1,"
        "bytes=16384");
    for (unsigned t = 0; t < tenants; ++t) {
        const unsigned s = t % cl.socketCount();
        Platform &p = cl.plat(s);
        const ArrivalClass &cls = mix.classFor(t);
        AddressSpace &as = p.mem().createSpace();
        const std::uint64_t bytes = cls.payloadBytes;
        Addr src = as.alloc(bytes);
        Addr dst = as.alloc(bytes);
        auto make = [&as, src, dst, bytes](std::uint64_t k) -> WorkDescriptor {
            using X = dml::Executor;
            return k % 3 == 0   ? X::memMove(as, dst, src, bytes)
                   : k % 3 == 1 ? X::crc32(as, src, bytes)
                                : X::comparePattern(as, src, 0, bytes);
        };
        dml::TenantSession &sess = nodes[s].addTenant(
            as.pasid(), p.core(t % 4), p.dsa(0), p.dsa(0).wq(0), make);
        nodes[s].openLoop(sess, ArrivalStream(opt.seed, t, cls),
                          requests, done[s]);
    }
    cl.run(threads);
    Fingerprint fp = stamp(cl);
    for (unsigned s = 0; s < cl.socketCount(); ++s) {
        if (!done[s].done()) {
            std::fprintf(stderr, "FAIL: socket %u hung (%" PRIu64
                         " request(s) unaccounted)\n", s, done[s].pending());
            std::exit(1);
        }
        const dml::TenantStats t = nodes[s].aggregate();
        const std::uint64_t fields[] = {
            t.completed(), t.retries, t.giveUps, t.fallbacks, t.dropped,
            t.shedBreaker,
            admission[s].totalThrottled + admission[s].totalBusy};
        for (std::uint64_t v : fields)
            fnv1a(fp.completionHash, v);
    }
    return fp;
}

// Variants: each returns its arms in print order, reference first.

Arms
mixRerun(const Options &opt)
{
    auto run = [&] { return MixRig(opt).phase(opt.seed, opt.n); };
    return {{"run 1", run()}, {"run 2", run()}};
}

/** 1 worker thread vs K on a cluster-shaped rig. */
template <Fingerprint (*run)(const Options &, unsigned)>
Arms
threads(const Options &opt)
{
    const unsigned k = opt.partitions;
    return {{"1 thread ", run(opt, 1)},
            {strfmt("%u threads", k), run(opt, k)}};
}

/** Half the mix, a snapshot, then the rest on a fork, cold, and on a
 *  second fork taken after both wrote their copy-on-write pages. */
Arms
mixFork(const Options &opt)
{
    const std::uint64_t n_b = opt.n - opt.n / 2;
    const std::uint64_t seed_b = opt.seed ^ 0xb5c0ffeeull;
    MixRig rig(opt);
    rig.phase(opt.seed, opt.n / 2);
    const Snapshot snap = Snapshot::capture(rig.plat);
    const dml::Executor::State est = rig.exec->saveState();
    auto forked = [&] {
        auto f = snap.fork();
        auto exec = hwExecutor(f->sim, f->plat());
        exec->restoreState(est);
        return play(f->sim, f->plat(), *exec, rig.buf, seed_b, n_b);
    };
    const Fingerprint fork1 = forked();
    const Fingerprint cold = rig.phase(seed_b, n_b);
    return {{"cold  ", cold}, {"fork 1", fork1}, {"fork 2", forked()}};
}

/** Phase A on K threads, a ClusterSnapshot, then phase B restored
 *  into a fresh cluster (K), cold (1 thread) and rewound in place (K). */
Arms
clusterFork(const Options &opt)
{
    const std::uint64_t per = std::max<std::uint64_t>(1, opt.n / 4);
    const std::uint64_t per_b = per - per / 2;
    const std::uint64_t seed_b = opt.seed ^ 0xb5c0ffeeull;
    const unsigned k = opt.partitions;
    ClusterRig rig(opt);
    rig.phase(opt.seed, per / 2, k);
    const SocketCluster::ClusterSnapshot snap = rig.cl.capture();
    std::vector<dml::Executor::State> est;
    for (auto &e : rig.execs)
        est.push_back(e->saveState());
    auto resume = [&](ClusterRig &r) {
        for (unsigned s = 0; s < r.cl.socketCount(); ++s)
            r.execs[s]->restoreState(est[s]);
        return r.phase(seed_b, per_b, k);
    };
    ClusterRig fresh(opt, /*restore_target=*/true);
    fresh.cl.restore(snap);
    fresh.bufs = rig.bufs;
    fresh.buildExecutors();
    const Fingerprint restored = resume(fresh);
    const Fingerprint cold = rig.phase(seed_b, per_b, 1);
    rig.cl.restore(snap);
    const Fingerprint rewound = resume(rig);
    return {{"cold    ", cold}, {"restored", restored},
            {"rewound ", rewound}};
}

/** Environment settings of one env arm; a null value unsets. */
using EnvVars = std::vector<std::pair<const char *, const char *>>;

/** Play the mix under @p vars, tear the rig (and any stats exporter)
 *  down, then put every variable named back to its prior value. */
Fingerprint
mixUnder(const Options &opt, const EnvVars &vars)
{
    std::vector<std::pair<const char *, std::optional<std::string>>> prior;
    for (const auto &[name, value] : vars) {
        const char *old = std::getenv(name);
        prior.emplace_back(name, old ? old : std::optional<std::string>());
        value ? setenv(name, value, 1) : unsetenv(name);
    }
    const Fingerprint fp = MixRig(opt).phase(opt.seed, opt.n);
    for (auto it = prior.rbegin(); it != prior.rend(); ++it)
        it->second ? setenv(it->first, it->second->c_str(), 1)
                   : unsetenv(it->first);
    return fp;
}

Arms
mixAcct(const Options &opt)
{
    return {{"batched", mixUnder(opt, {{"DSASIM_CACHE_ACCT", "batched"}})},
            {"line   ", mixUnder(opt, {{"DSASIM_CACHE_ACCT", "line"}})}};
}

/** Sampling off, at 1 ns and at 1 us. Each sampled arm's teardown
 *  must export one .csv into a private temporary directory. */
Arms
mixTelemetry(const Options &opt)
{
    namespace fs = std::filesystem;
    std::string dir = fs::temp_directory_path() / "determinism-tele-XXXXXX";
    if (mkdtemp(dir.data()) == nullptr) {
        std::perror(dir.c_str());
        std::exit(1);
    }
    const std::string stem = dir + "/run-";
    auto sampled = [&](const char *period) {
        return mixUnder(opt, {{"DSASIM_STATS", stem.c_str()},
                              {"DSASIM_STATS_PERIOD", period}});
    };
    Arms arms = {{"stats off   ", mixUnder(opt, {{"DSASIM_STATS", nullptr}})},
                 {"period 1ns  ", sampled("1")},
                 {"period 1us  ", sampled("1000")}};
    std::error_code ec;
    const std::uintmax_t removed = fs::remove_all(dir, ec);
    if (ec || removed != 3) {
        std::fprintf(stderr,
                     "FAIL: the sampled arms did not export one "
                     ".csv each (%s held %ju entries)\n",
                     dir.c_str(), removed);
        std::exit(1);
    }
    return arms;
}

/** Print every arm's fingerprint; each must equal the first's. */
int
compare(const std::string &check, const Arms &arms, const char *why)
{
    for (const Arm &a : arms) {
        std::printf("%s: stream=%016" PRIx64 " completions=%016" PRIx64
                    " events=%" PRIu64 " end=%" PRIu64 "ps\n",
                    a.label.c_str(), a.fp.streamHash, a.fp.completionHash,
                    a.fp.eventsExecuted, a.fp.endTick);
    }
    for (const Arm &a : arms) {
        if (a.fp != arms.front().fp) {
            const auto len = static_cast<int>(a.label.find_last_not_of(' '));
            std::fprintf(stderr, "FAIL: %s: arm '%.*s' diverged — %s\n",
                         check.c_str(), len + 1, a.label.c_str(), why);
            return 1;
        }
    }
    std::printf("%s: PASS (%zu arms agree)\n", check.c_str(), arms.size());
    return 0;
}

/** One scenario × variant cell and the mode flags selecting it. */
struct Cell
{
    std::set<std::string> modes;
    const char *name;
    Arms (*arms)(const Options &);
    const char *why; ///< what a divergence means
};

const Cell kCells[] = {
    {{}, "mix/rerun", mixRerun,
     "non-deterministic input (host time, entropy, order, addresses)"},
    {{"--fork"}, "mix/fork", mixFork,
     "Snapshot::fork() missed some platform state (DESIGN.md §10)"},
    {{"--acct"}, "mix/env(acct)", mixAcct,
     "a span op is not tick-equal to its per-line walk (DESIGN.md §13)"},
    {{"--telemetry"}, "mix/env(telemetry)", mixTelemetry,
     "the sample hook perturbed the schedule (DESIGN.md §15)"},
    {{"--partitions"}, "cluster/threads", threads<clusterRun>,
     "the thread count leaked into cross-domain order (DESIGN.md §11)"},
    {{"--fork", "--partitions"}, "cluster/fork", clusterFork,
     "ClusterSnapshot missed state, or the thread count leaked (§11)"},
    {{"--serving", "--partitions"}, "serving/threads", threads<servingRun>,
     "a serving decision depended on the thread count (DESIGN.md §12)"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: determinism_check [--n=N] [--seed=S] "
                 "[--faults=SPEC] [--fork]\n"
                 "         [--partitions=K] [--serving] [--acct] "
                 "[--telemetry]\n"
                 "N, K > 0; the mode flags select one cell (DESIGN.md §9)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::set<std::string> modes;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        bool ok = true;
        if (const char *v1 = cli::flagValue(a, "--n="))
            ok = cli::parseCount(v1, opt.n);
        else if (const char *v2 = cli::flagValue(a, "--seed="))
            ok = cli::parseCount(v2, opt.seed, /*allow_zero=*/true);
        else if (const char *v3 = cli::flagValue(a, "--faults="))
            opt.faults = v3;
        else if (const char *v4 = cli::flagValue(a, "--partitions=")) {
            ok = cli::parseCount(v4, opt.partitions);
            modes.insert("--partitions");
        } else if (a == "--fork" || a == "--serving" || a == "--acct" ||
                   a == "--telemetry")
            modes.insert(a);
        else
            ok = false;
        if (!ok)
            return usage();
    }
    if (modes == std::set<std::string>{"--serving"}) {
        modes.insert("--partitions");
        opt.partitions = 4;
    }

    for (const Cell &c : kCells) {
        if (modes == c.modes) {
            return compare(strfmt("determinism_check %s (n=%" PRIu64
                                  ", seed %" PRIu64 "%s)",
                                  c.name, opt.n, opt.seed,
                                  opt.faults.empty() ? "" : ", faulted"),
                           c.arms(opt), c.why);
        }
    }
    return usage();
}
