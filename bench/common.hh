/**
 * @file
 * Shared benchmark harness.
 *
 * Mirrors the paper's methodology (§4.1): operations run for many
 * iterations; source/destination data and descriptors are flushed
 * from the cache hierarchy between iterations; asynchronous
 * experiments keep a queue depth of 32 unless stated otherwise;
 * descriptor allocation/preparation time is excluded.
 *
 * Output format: every bench prints one table per paper panel with
 * the same rows/series the figure reports, so EXPERIMENTS.md can
 * compare shapes directly.
 */

#ifndef DSASIM_BENCH_COMMON_HH
#define DSASIM_BENCH_COMMON_HH

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dml/dml.hh"
#include "driver/platform.hh"
#include "driver/snapshot.hh"
#include "driver/submitter.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace dsasim::bench
{

/// @name Formatting helpers.
/// @{
inline std::string
fmtSize(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0)
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(bytes >> 20));
    else if (bytes >= 1024 && bytes % 1024 == 0)
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(bytes >> 10));
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

/** Fixed-width table printer (plain text, machine-greppable). */
class Table
{
  public:
    Table(std::string title, std::vector<std::string> columns)
        : name(std::move(title)), cols(std::move(columns))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows.push_back(std::move(cells));
    }

    void
    print() const
    {
        // Any non-empty DSASIM_CSV value other than "0" switches to
        // machine-readable output for post-processing/plotting.
        if (const char *csv = std::getenv("DSASIM_CSV");
            csv && csv[0] != '\0' && std::string_view(csv) != "0") {
            printCsv();
            return;
        }
        std::printf("\n== %s ==\n", name.c_str());
        std::vector<std::size_t> width(cols.size());
        for (std::size_t c = 0; c < cols.size(); ++c)
            width[c] = cols[c].size();
        for (const auto &r : rows)
            for (std::size_t c = 0; c < r.size() && c < width.size();
                 ++c)
                width[c] = std::max(width[c], r[c].size());
        auto line = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            cells[c].c_str());
            std::printf("\n");
        };
        line(cols);
        for (const auto &r : rows)
            line(r);
    }

    void
    printCsv() const
    {
        auto cell = [](const std::string &c) {
            std::string out = c;
            for (auto &ch : out)
                if (ch == ',')
                    ch = ';';
            return out;
        };
        std::printf("\n# %s\n", name.c_str());
        for (std::size_t c = 0; c < cols.size(); ++c)
            std::printf("%s%s", cell(cols[c]).c_str(),
                        c + 1 < cols.size() ? "," : "\n");
        for (const auto &r : rows) {
            for (std::size_t c = 0; c < r.size(); ++c)
                std::printf("%s%s", cell(r[c]).c_str(),
                            c + 1 < r.size() ? "," : "\n");
        }
    }

  private:
    std::string name;
    std::vector<std::string> cols;
    std::vector<std::vector<std::string>> rows;
};

inline std::string
fmt(double v, int prec = 2)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}
/// @}

/**
 * Worker count for parallel benchmark sweeps: DSASIM_JOBS when it is
 * a positive integer, else the hardware concurrency (EXPERIMENTS.md).
 */
inline unsigned
sweepJobs()
{
    if (const char *env = std::getenv("DSASIM_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<unsigned>(v);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Runs independent sweep points concurrently on a small thread pool.
 *
 * Each point must be self-contained — build its own Rig (Platform +
 * Simulation), measure, and return a result. Nothing in the simulator
 * is shared between Rigs, so points are safe to run on separate
 * threads. Results come back indexed by point, so tables print in the
 * same deterministic order regardless of the worker count or
 * scheduling; with jobs=1 the output is identical to a serial loop.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs = sweepJobs())
        : jobCount(jobs ? jobs : 1)
    {}

    unsigned jobs() const { return jobCount; }

    /**
     * Evaluate @p fn(i) for i in [0, n) and return the results in
     * index order. @p fn must not touch shared mutable state.
     */
    template <typename Fn>
    auto
    run(std::size_t n, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{}))>
    {
        using R = decltype(fn(std::size_t{}));
        std::vector<R> results(n);
        if (n == 0)
            return results;
        const unsigned workers =
            static_cast<unsigned>(std::min<std::size_t>(jobCount, n));
        if (workers <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                results[i] = fn(i);
            return results;
        }
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                results[i] = fn(i);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w)
            pool.emplace_back(worker);
        worker();
        for (auto &t : pool)
            t.join();
        return results;
    }

  private:
    unsigned jobCount;
};

struct RigSnapshot;

/**
 * A measurement rig: a platform with one or more DSA devices in a
 * chosen topology, plus an executor and an address space.
 */
class Rig
{
  public:
    struct Options
    {
        PlatformConfig platform = PlatformConfig::spr();
        unsigned devices = 1;
        unsigned engines = 1;
        unsigned wqSize = 32;
        WorkQueue::Mode wqMode = WorkQueue::Mode::Dedicated;
        bool useUmwait = true;

        bool operator==(const Options &) const = default;
    };

    /** @p statsStem names the telemetry file (Platform). */
    explicit Rig(const Options &o, std::string statsStem = {})
        : opt(o), plat(sim, o.platform, std::move(statsStem)),
          as(&plat.mem().createSpace())
    {
        std::vector<DsaDevice *> devs;
        for (unsigned i = 0; i < o.devices; ++i) {
            DsaTopology::basic(o.wqSize, o.engines, o.wqMode)
                .apply(plat.dsa(i));
            devs.push_back(&plat.dsa(i));
        }
        dml::ExecutorConfig ec;
        ec.path = dml::Path::Hardware;
        ec.useUmwait = o.useUmwait;
        exec = std::make_unique<dml::Executor>(
            sim, plat.mem(), plat.kernels(), devs, ec);
    }

    /**
     * Fork: rebuild the shape the options describe, then restore the
     * captured state on top (defined after RigSnapshot below).
     */
    explicit Rig(const RigSnapshot &snap, std::string statsStem = {});

    Options opt;
    Simulation sim;
    Platform plat;
    AddressSpace *as;
    std::unique_ptr<dml::Executor> exec;
};

/**
 * Everything needed to fork a Rig: the platform snapshot plus the
 * executor's plain-data state (the executor sits above the platform,
 * so Snapshot::capture does not see it) and the options that rebuild
 * the rig's shape. Immutable once captured; forking from one
 * RigSnapshot on several threads at once is safe (memory chunks are
 * shared copy-on-write behind atomically refcounted pointers).
 */
struct RigSnapshot
{
    Snapshot platform;
    dml::Executor::State exec;
    Rig::Options options;
};

/** Capture a quiesced rig (Snapshot::capture states preconditions). */
inline std::shared_ptr<const RigSnapshot>
snapRig(Rig &rig)
{
    return std::make_shared<const RigSnapshot>(RigSnapshot{
        Snapshot::capture(rig.plat), rig.exec->saveState(), rig.opt});
}

inline Rig::Rig(const RigSnapshot &snap, std::string statsStem)
    : opt(snap.options),
      plat(sim, snap.options.platform, std::move(statsStem)),
      as(nullptr)
{
    std::vector<DsaDevice *> devs;
    for (unsigned i = 0; i < opt.devices; ++i) {
        DsaTopology::basic(opt.wqSize, opt.engines, opt.wqMode)
            .apply(plat.dsa(i));
        devs.push_back(&plat.dsa(i));
    }
    // restoreInto re-anchors the simulation clock/sequence and
    // recreates the address spaces in creation order; PASID 1 is the
    // space the source rig's constructor created.
    snap.platform.restoreInto(plat);
    as = &plat.mem().space(1);
    dml::ExecutorConfig ec;
    ec.path = dml::Path::Hardware;
    ec.useUmwait = opt.useUmwait;
    exec = std::make_unique<dml::Executor>(sim, plat.mem(),
                                           plat.kernels(), devs, ec);
    exec->restoreState(snap.exec);
}

/** Scale iteration counts down as transfer sizes grow. */
inline int
itersFor(std::uint64_t size, int base = 120)
{
    std::uint64_t budget = 24ull << 20; // total bytes per measurement
    std::uint64_t by_bytes = budget / std::max<std::uint64_t>(size, 1);
    return static_cast<int>(std::max<std::uint64_t>(
        8, std::min<std::uint64_t>(static_cast<std::uint64_t>(base),
                                   by_bytes)));
}

/** Result of a latency/throughput measurement. */
struct Measure
{
    double meanNs = 0;
    double gbps = 0;
    std::uint64_t iterations = 0;
};

namespace detail
{

inline SimTask
syncHwLoop(Rig &rig, WorkDescriptor d, int iters, bool flush,
           Measure &out)
{
    Core &core = rig.plat.core(0);
    Histogram lat;
    for (int i = 0; i < iters; ++i) {
        if (flush)
            rig.plat.mem().cache().invalidateAll();
        dml::OpResult r;
        co_await rig.exec->executeHardware(core, d, r);
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(d.size) / out.meanNs;
    out.iterations = lat.count();
}

inline SimTask
syncSwLoop(Rig &rig, WorkDescriptor d, int iters, bool flush,
           Measure &out)
{
    Core &core = rig.plat.core(1 % rig.plat.coreCount());
    Histogram lat;
    for (int i = 0; i < iters; ++i) {
        if (flush)
            rig.plat.mem().cache().invalidateAll();
        dml::OpResult r;
        co_await rig.exec->executeSoftware(core, d, r);
        lat.add(toNs(r.latency));
    }
    out.meanNs = lat.mean();
    out.gbps = static_cast<double>(d.size) / out.meanNs;
    out.iterations = lat.count();
}

inline SimTask
asyncHwLoop(Rig &rig, std::vector<WorkDescriptor> ring, int total,
            int depth, Measure &out)
{
    Core &core = rig.plat.core(0);
    Semaphore window(rig.sim, static_cast<std::uint64_t>(depth));
    Latch all(rig.sim, static_cast<std::uint64_t>(total));
    std::uint64_t bytes = 0;
    Tick t0 = rig.sim.now();

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
        // Refresh coldness once per pass over the ring, mirroring
        // the paper's per-iteration flushes.
        if (i > 0 &&
            static_cast<std::size_t>(i) % ring.size() == 0)
            rig.plat.mem().cache().invalidateAll();
        co_await window.acquire();
        auto job = rig.exec->prepare(d);
        bytes += d.size;
        co_await rig.exec->submit(core, *job);
        Waiter::drain(std::move(job), window, all);
    }
    co_await all.wait();
    Tick elapsed = rig.sim.now() - t0;
    out.meanNs = toNs(elapsed) / total;
    out.gbps = achievedGBps(bytes, elapsed);
    out.iterations = static_cast<std::uint64_t>(total);
}

} // namespace detail

/** Mean sync-offload latency/throughput of @p d over iterations. */
inline Measure
syncHw(Rig &rig, const WorkDescriptor &d, int iters = 0,
       bool flush = true)
{
    Measure out;
    if (iters == 0)
        iters = itersFor(d.size);
    detail::syncHwLoop(rig, d, iters, flush, out);
    rig.sim.run();
    return out;
}

/** Mean software (CPU core) latency/throughput of @p d. */
inline Measure
syncSw(Rig &rig, const WorkDescriptor &d, int iters = 0,
       bool flush = true)
{
    Measure out;
    if (iters == 0)
        iters = itersFor(d.size);
    detail::syncSwLoop(rig, d, iters, flush, out);
    rig.sim.run();
    return out;
}

/**
 * Async throughput at @p depth outstanding descriptors, cycling over
 * @p ring distinct descriptors (so data stays cold pass to pass).
 */
inline Measure
asyncHw(Rig &rig, std::vector<WorkDescriptor> ring, int total = 0,
        int depth = 32)
{
    Measure out;
    if (total == 0 && !ring.empty())
        total = itersFor(ring.front().size, 320);
    detail::asyncHwLoop(rig, std::move(ring), total, depth, out);
    rig.sim.run();
    return out;
}

/**
 * Build a ring of @p count memMove descriptors striding through two
 * freshly allocated regions.
 */
inline std::vector<WorkDescriptor>
memMoveRing(Rig &rig, std::uint64_t size, int count = 16,
            MemKind src_kind = MemKind::DramLocal,
            MemKind dst_kind = MemKind::DramLocal)
{
    Addr src = rig.as->alloc(size * static_cast<std::uint64_t>(count),
                             src_kind);
    Addr dst = rig.as->alloc(size * static_cast<std::uint64_t>(count),
                             dst_kind);
    std::vector<WorkDescriptor> ring;
    for (int i = 0; i < count; ++i) {
        ring.push_back(dml::Executor::memMove(
            *rig.as, dst + static_cast<Addr>(i) * size,
            src + static_cast<Addr>(i) * size, size));
    }
    return ring;
}

/**
 * Snapshot sharing is on by default; DSASIM_SNAPSHOT=0 forces every
 * sweep point to build and warm its rig cold, through the same code
 * path (the determinism story: both arms must agree bit for bit).
 */
inline bool
snapshotsEnabled()
{
    const char *v = std::getenv("DSASIM_SNAPSHOT");
    return !(v && std::string_view(v) == "0");
}

/**
 * A Scenario splits a benchmark into the phases the snapshot
 * subsystem cares about:
 *
 *   warmup  — builds the state worth sharing: allocations, cache/TLB
 *             warming, background-traffic ramp. Runs once per
 *             distinct configuration in a sweep.
 *   measure — the per-point measurement, supplied to sweepScenarios
 *             (grids) or runScenario (single-rig benches).
 *
 * In a sweep, points with matching setups (sameSetup) share one
 * warmed rig: it is snapshotted after warm-up and forked per point,
 * so N points pay for one warm-up instead of N. A forked point's
 * event stream is bit-identical to a cold point's (the snapshot
 * contract, DESIGN.md §10), so results do not depend on the gate.
 *
 * Sweep warm-ups must leave the rig quiesced — drained devices, idle
 * calendar; Snapshot::capture fatals otherwise. runScenario captures
 * nothing, so its warm-up may stop mid-stream (e.g. fig16's
 * steady-state window).
 */
class Scenario
{
  public:
    using SetupFn = std::function<void(Rig &)>;

    Scenario() = default;
    explicit Scenario(Rig::Options o, SetupFn warmup_fn = nullptr,
                      std::string warmup_key = "")
        : opts(std::move(o)), warm(std::move(warmup_fn)),
          key(std::move(warmup_key))
    {}

    const Rig::Options &options() const { return opts; }

    /** Run the warm-up phase on @p rig (no-op without one). */
    void
    warmup(Rig &rig) const
    {
        if (warm)
            warm(rig);
    }

    /** Build a cold rig and run the warm-up phase on it. */
    std::unique_ptr<Rig>
    warmRig(std::string statsStem = {}) const
    {
        auto rig = std::make_unique<Rig>(opts, std::move(statsStem));
        warmup(*rig);
        return rig;
    }

    /**
     * Two scenarios may share one warmed rig: identical options and
     * identically-keyed warm-ups. Anonymous (empty-key) warm-ups
     * never match — naming the warm-up is the opt-in that asserts it
     * computes the same thing across points.
     */
    bool
    sameSetup(const Scenario &o) const
    {
        if (!(opts == o.opts))
            return false;
        if (!warm && !o.warm)
            return true;
        if (static_cast<bool>(warm) != static_cast<bool>(o.warm))
            return false;
        return !key.empty() && key == o.key;
    }

  private:
    Rig::Options opts;
    SetupFn warm;
    std::string key;
};

/**
 * Single-rig scenario: build, warm up, then measure — the uniform
 * entry point for benches that drive one platform through a time
 * window rather than sweeping a grid.
 */
template <typename MeasureFn>
auto
runScenario(const Scenario &sc, MeasureFn &&measure)
{
    auto rig = sc.warmRig();
    return measure(*rig);
}

/**
 * Process-wide sweep sequence number, shared by every instantiation
 * of sweepScenarios (a static inside the template would count per
 * measure type). Sweeps start on the main thread, so it is fixed.
 */
inline unsigned
nextSweepId()
{
    static std::atomic<unsigned> next{0};
    return next++;
}

/**
 * Evaluate measure(rig, i) for each point's scenario, in index
 * order. Points with matching setups share one warmed, snapshotted
 * rig and fork from it; with DSASIM_SNAPSHOT=0 every point warms a
 * cold rig instead. Either way the warm-up runs to an idle calendar
 * before measurement.
 */
template <typename MeasureFn>
auto
sweepScenarios(SweepRunner &sweep, const std::vector<Scenario> &pts,
               MeasureFn &&measure)
    -> std::vector<decltype(measure(std::declval<Rig &>(),
                                    std::size_t{}))>
{
    using R = decltype(measure(std::declval<Rig &>(), std::size_t{}));
    const std::size_t n = pts.size();
    // Telemetry files are named by sweep and point, so which file
    // holds which point does not depend on which worker thread built
    // its platform first.
    const std::string sweepTag = "-s" + std::to_string(nextSweepId());
    auto statsStem = [&](std::size_t i, const char *role) {
        return pts[i].options().platform.name + sweepTag + role +
               std::to_string(i);
    };
    if (!snapshotsEnabled()) {
        return sweep.run(n, [&](std::size_t i) -> R {
            auto rig = pts[i].warmRig(statsStem(i, "-p"));
            rig->sim.run();
            return measure(*rig, i);
        });
    }
    // Group points by shared setup; the group's first point is the
    // leader whose warmed rig everyone forks.
    std::vector<std::size_t> group(n);
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < n; ++i) {
        bool found = false;
        for (std::size_t g = 0; g < leaders.size() && !found; ++g) {
            if (pts[leaders[g]].sameSetup(pts[i])) {
                group[i] = g;
                found = true;
            }
        }
        if (!found) {
            group[i] = leaders.size();
            leaders.push_back(i);
        }
    }
    auto snaps = sweep.run(
        leaders.size(),
        [&](std::size_t g) -> std::shared_ptr<const RigSnapshot> {
            auto rig = pts[leaders[g]].warmRig(
                statsStem(leaders[g], "-warm"));
            rig->sim.run(); // drain to idle: capture precondition
            return snapRig(*rig);
        });
    return sweep.run(n, [&](std::size_t i) -> R {
        Rig rig(*snaps[group[i]], statsStem(i, "-p"));
        return measure(rig, i);
    });
}

/** All points share one scenario: the homogeneous-grid case. */
template <typename MeasureFn>
auto
sweepScenario(SweepRunner &sweep, const Scenario &sc, std::size_t n,
              MeasureFn &&measure)
{
    return sweepScenarios(sweep, std::vector<Scenario>(n, sc),
                          std::forward<MeasureFn>(measure));
}

} // namespace dsasim::bench

#endif // DSASIM_BENCH_COMMON_HH
