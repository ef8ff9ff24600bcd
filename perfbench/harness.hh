/**
 * @file
 * Benchmark harness shared by the four workloads: host-time spans,
 * the per-iteration result record, and the registry reads that turn
 * simulator counters into per-layer metrics.
 *
 * Everything here sits outside the simulator. Spans wrap the
 * benchmark's own calls into each layer (driver build, app warm-up,
 * snapshot capture/fork, Simulation::run, registry reads); time spent
 * inside Simulation::run is not split further.
 */

#ifndef DSASIM_PERFBENCH_HARNESS_HH
#define DSASIM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/platform.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace dsasim::perfbench
{

using Clock = std::chrono::steady_clock;

/**
 * Host-time span recorder. Every span measures its duration (the
 * untraced run needs setup and measured-phase seconds too); only an
 * enabled tracer keeps the span records.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        int id = 0;
        int parent = -1; ///< -1 for a root span
        double startS = 0, endS = 0; ///< seconds since the tracer began
    };

    /** RAII span: ends at scope exit, adding its length to @p accum. */
    class Span
    {
      public:
        Span(Tracer &t, const char *name, double *accum);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &tracer;
        double *accum;
        int index = -1; ///< into records, or -1 when not recorded
        Clock::time_point start;
    };

    Tracer() : origin(Clock::now()) {}

    /** Record spans from now on (durations are always measured). */
    bool enabled = false;

    Span span(const char *name, double *accum = nullptr)
    {
        return Span(*this, name, accum);
    }

    const std::vector<Record> &records() const { return recs; }

    /**
     * Self time per span name over records [from, end): a span's
     * duration minus the part its direct children cover.
     */
    std::map<std::string, double> selfTimes(std::size_t from) const;

  private:
    Clock::time_point origin;
    std::vector<Record> recs;
    std::vector<int> open; ///< ids of the spans currently open
};

/**
 * Host-speed reference. On a shared host the same simulation runs up
 * to ~1.5x slower for minutes at a time, and every process on the host
 * slows together. The probe is a fixed CPU-bound task (sort, hash map,
 * binary heap; no simulator code) run between timed phases; its mean
 * chunk time over a run measures how fast the host ran, and host times
 * are reported rescaled to a host where one chunk takes kRefS.
 */
class HostProbe
{
  public:
    /** Chunk time of the reference host the reports are scaled to. */
    static constexpr double kRefS = 0.04;

    HostProbe();

    /**
     * Run one chunk if kIntervalS of host time has passed since the
     * last one ended; a traced run records it as span host.probe.
     */
    void pace(Tracer &tracer);

    /** Mean chunk seconds over the run (0 before the first chunk). */
    double meanS() const;
    std::size_t samples() const { return chunks.size(); }

    /** kRefS over the mean chunk time: host seconds times this. */
    double scale() const;

  private:
    /** Host seconds between chunks: at most ~10% of a run probes. */
    static constexpr double kIntervalS = 0.4;

    double chunk();

    std::vector<double> chunks;
    Clock::time_point last;
    std::uint64_t sink = 0;
};

/** The exact simulated identity of one iteration. */
struct Fingerprint
{
    std::uint64_t hash = 0xcbf29ce484222325ULL; ///< FNV fold
    std::uint64_t events = 0;
    std::vector<Tick> endTicks; ///< one per simulation, in run order

    /** Fold one simulation's stream hash, event count and end tick. */
    void add(std::uint64_t stream_hash, std::uint64_t ev, Tick end);
};

/** Everything one iteration of a workload reports. */
struct IterResult
{
    double setupS = 0; ///< build + warm-up + capture, host seconds
    double wallS = 0;  ///< measured phase, host seconds
    Fingerprint fp;
    /** Simulated result values (sim_*), exact for a given seed. */
    std::vector<std::pair<std::string, double>> sim;
    std::uint64_t attempted = 0; ///< simulated operations
    std::uint64_t failed = 0;    ///< failed simulated operations
    std::vector<std::string> errors; ///< functional-check failures
    /** Per-layer metrics (traced iterations only). */
    std::map<std::string, double> layer;
};

/** Per-iteration context handed to a workload. */
struct IterContext
{
    std::uint64_t seed = 1;
    Tracer &tracer;
    IterResult &out;
    HostProbe &probe;

    bool traced() const { return tracer.enabled; }
};

/**
 * Counter and gauge values of one or more registries, keyed by
 * metric name (a cluster prefixes each domain with "socket<d>.").
 * Histograms are skipped.
 */
struct StatsReading
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;

    void read(const stats::Registry &reg, const std::string &prefix = "");
};

/** Simulated core time (busy, umwait, spin) over a set of cores. */
struct CoreTime
{
    Tick busy = 0, umwait = 0, spin = 0;

    static CoreTime of(Platform &plat);
    CoreTime &operator+=(const CoreTime &o);
    CoreTime operator-(const CoreTime &o) const;
};

/**
 * What the measured phase did to the simulator, summed over every
 * simulation it ran: counter deltas, the last gauge values, core
 * time, events and host seconds inside Simulation::run.
 */
struct LayerDelta
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    CoreTime core;
    std::uint64_t events = 0;
    double runS = 0;

    void add(const StatsReading &before, const StatsReading &after);
};

/**
 * Fill the registry-derived layer metrics (sim.*, mem.*, cpu.*,
 * dsa.*, dml.serving.*, dto.fallbacks, apps.minicache.*) of @p out.
 */
void fillLayers(std::map<std::string, double> &out, const LayerDelta &d);

/** Per-layer metric names every traced run reports (0 when unused). */
const std::vector<std::string> &layerMetricNames();

/** SplitMix64 finalizer: decorrelates (seed, stream) pairs. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/// @name The four workloads (workloads.cc).
/// @{
void runVhost(IterContext &ctx);
void runCachebench(IterContext &ctx);
void runServing(IterContext &ctx);
void runOpcodeSweep(IterContext &ctx);
/// @}

} // namespace dsasim::perfbench

#endif // DSASIM_PERFBENCH_HARNESS_HH
