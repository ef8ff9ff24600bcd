/**
 * @file
 * Telemetry registry, deterministic sampler and CSV export
 * (DESIGN.md §15). See sim/stats.hh for the architecture.
 */

#include "sim/stats.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace dsasim
{
namespace stats
{

// --------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> upper_bounds)
    : ubounds(std::move(upper_bounds))
{
    for (std::size_t i = 1; i < ubounds.size(); ++i)
        fatal_if(ubounds[i] <= ubounds[i - 1],
                 "stats::Histogram: bucket bounds must be strictly "
                 "ascending (%f then %f)",
                 ubounds[i - 1], ubounds[i]);
    counts.assign(ubounds.size() + 1, 0);
}

double
Histogram::quantile(double q) const
{
    if (n == 0)
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * static_cast<double>(n);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        const std::uint64_t prev = cum;
        cum += counts[b];
        if (static_cast<double>(cum) < target || counts[b] == 0)
            continue;
        if (b >= ubounds.size()) // +Inf bucket: clamp to last bound
            return ubounds.empty() ? 0.0 : ubounds.back();
        const double lo = b == 0 ? 0.0 : ubounds[b - 1];
        const double hi = ubounds[b];
        const double frac = (target - static_cast<double>(prev)) /
                            static_cast<double>(counts[b]);
        return lo + frac * (hi - lo);
    }
    return ubounds.empty() ? 0.0 : ubounds.back();
}

// --------------------------------------------------------------------
// Registry

Registry::Metric &
Registry::add(const std::string &name, Kind kind)
{
    fatal_if(name.empty(), "stats::Registry: empty metric name");
    auto [it, inserted] = metrics.try_emplace(name);
    fatal_if(!inserted,
             "stats::Registry: duplicate metric name '%s' (use "
             "Registry::scope() for multi-instance components)",
             name.c_str());
    it->second.kind = kind;
    return it->second;
}

Counter &
Registry::counter(const std::string &name)
{
    Metric &m = add(name, Kind::Counter);
    if (auto it = pendingCounters.find(name);
        it != pendingCounters.end()) {
        m.ctr.cell = it->second;
        pendingCounters.erase(it);
    }
    return m.ctr;
}

Counter &
Registry::counter(const std::string &name,
                  std::function<std::uint64_t()> supplier)
{
    Metric &m = add(name, Kind::Counter);
    m.ctr.fn = std::move(supplier);
    // Supplier-backed views restore through their owning component;
    // a parked value for this name is stale by definition.
    pendingCounters.erase(name);
    return m.ctr;
}

Gauge &
Registry::gauge(const std::string &name)
{
    Metric &m = add(name, Kind::Gauge);
    if (auto it = pendingGauges.find(name); it != pendingGauges.end()) {
        m.gau.cell = it->second;
        pendingGauges.erase(it);
    }
    return m.gau;
}

Gauge &
Registry::gauge(const std::string &name,
                std::function<double()> supplier)
{
    Metric &m = add(name, Kind::Gauge);
    m.gau.fn = std::move(supplier);
    pendingGauges.erase(name);
    return m.gau;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<double> upper_bounds)
{
    Metric &m = add(name, Kind::Histogram);
    m.hist = Histogram(std::move(upper_bounds));
    if (auto it = pendingHistograms.find(name);
        it != pendingHistograms.end()) {
        const HistogramState &hs = it->second;
        fatal_if(hs.buckets.size() != m.hist.counts.size(),
                 "stats::Registry: histogram '%s' restored with %zu "
                 "buckets but registered with %zu",
                 name.c_str(), hs.buckets.size(),
                 m.hist.counts.size());
        m.hist.counts = hs.buckets;
        m.hist.n = hs.count;
        m.hist.total = hs.sum;
        pendingHistograms.erase(it);
    }
    return m.hist;
}

std::string
Registry::scope(const std::string &stem)
{
    unsigned &n = scopes[stem];
    return stem + std::to_string(n++);
}

bool
Registry::has(const std::string &name) const // simlint:observer
{
    return metrics.find(name) != metrics.end();
}

std::uint64_t
Registry::counterValue(const std::string &name) const // simlint:observer
{
    const auto it = metrics.find(name);
    fatal_if(it == metrics.end(),
             "stats::Registry: no metric named '%s'", name.c_str());
    fatal_if(it->second.kind != Kind::Counter,
             "stats::Registry: metric '%s' is not a counter",
             name.c_str());
    return it->second.ctr.value();
}

Registry::Snapshot
Registry::snapshot() const // simlint:observer
{
    Snapshot snap;
    snap.entries.reserve(metrics.size());
    for (const auto &[name, m] : metrics) {
        SnapshotEntry e;
        e.name = name;
        e.kind = m.kind;
        switch (m.kind) {
          case Kind::Counter:
            e.value = static_cast<double>(m.ctr.value());
            break;
          case Kind::Gauge:
            e.value = m.gau.value();
            break;
          case Kind::Histogram:
            e.value = static_cast<double>(m.hist.count());
            break;
        }
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

Registry::State
Registry::saveState() const
{
    State st;
    for (const auto &[name, m] : metrics) {
        switch (m.kind) {
          case Kind::Counter:
            if (!m.ctr.supplierBacked())
                st.counters.emplace_back(name, m.ctr.cell);
            break;
          case Kind::Gauge:
            if (!m.gau.supplierBacked())
                st.gauges.emplace_back(name, m.gau.cell);
            break;
          case Kind::Histogram:
            st.histograms.emplace_back(
                name, HistogramState{m.hist.counts, m.hist.n,
                                     m.hist.total});
            break;
        }
    }
    // Values restored before their metric registered still belong to
    // the logical state (Snapshot::fork re-anchors the kernel before
    // the platform re-registers); carry them forward. Names are
    // disjoint from the live set — registration consumes the parked
    // value — so a plain append keeps each vector name-sorted only
    // after a merge; sort for a canonical order.
    for (const auto &[name, v] : pendingCounters)
        st.counters.emplace_back(name, v);
    for (const auto &[name, v] : pendingGauges)
        st.gauges.emplace_back(name, v);
    for (const auto &[name, v] : pendingHistograms)
        st.histograms.emplace_back(name, v);
    auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(st.counters.begin(), st.counters.end(), byName);
    std::sort(st.gauges.begin(), st.gauges.end(), byName);
    std::sort(st.histograms.begin(), st.histograms.end(), byName);
    return st;
}

void
Registry::restoreState(const State &st)
{
    for (const auto &[name, v] : st.counters) {
        const auto it = metrics.find(name);
        if (it == metrics.end()) {
            pendingCounters[name] = v;
        } else if (it->second.kind == Kind::Counter &&
                   !it->second.ctr.supplierBacked()) {
            it->second.ctr.cell = v;
        }
    }
    for (const auto &[name, v] : st.gauges) {
        const auto it = metrics.find(name);
        if (it == metrics.end()) {
            pendingGauges[name] = v;
        } else if (it->second.kind == Kind::Gauge &&
                   !it->second.gau.supplierBacked()) {
            it->second.gau.cell = v;
        }
    }
    for (const auto &[name, hs] : st.histograms) {
        const auto it = metrics.find(name);
        if (it == metrics.end()) {
            pendingHistograms[name] = hs;
        } else if (it->second.kind == Kind::Histogram &&
                   it->second.hist.counts.size() ==
                       hs.buckets.size()) {
            it->second.hist.counts = hs.buckets;
            it->second.hist.n = hs.count;
            it->second.hist.total = hs.sum;
        }
    }
}

// --------------------------------------------------------------------
// Export knobs

bool
samplingEnabled()
{
    const char *v = std::getenv("DSASIM_STATS");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

std::string
exportPrefix()
{
    const char *v = std::getenv("DSASIM_STATS");
    if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0)
        return "";
    if (std::strcmp(v, "1") == 0)
        return "dsasim-stats-";
    return v;
}

Tick
samplePeriodTicks()
{
    const char *v = std::getenv("DSASIM_STATS_PERIOD");
    double ns = 1000.0;
    if (v != nullptr && *v != '\0') {
        ns = std::atof(v);
        fatal_if(ns <= 0.0,
                 "DSASIM_STATS_PERIOD: expected a positive "
                 "nanosecond count, got '%s'",
                 v);
    }
    return fromNs(ns);
}

// --------------------------------------------------------------------
// Sampler

namespace
{

/** Integers print exactly; anything else round-trips via %.17g. */
void
printDouble(std::FILE *out, double v)
{
    if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        std::fprintf(out, "%lld",
                     static_cast<long long>(v));
        return;
    }
    std::fprintf(out, "%.17g", v);
}

} // namespace

Sampler::Sampler(Simulation &s, Tick period)
    : sim(s), tickPeriod(period)
{
    fatal_if(period == 0, "stats::Sampler: zero sampling period");
    sim.setSampleHook(period, [this] { sample(); });
}

Sampler::~Sampler()
{
    sim.clearSampleHook();
}

void
Sampler::lockColumns()
{
    const Registry &reg =
        static_cast<const Simulation &>(sim).stats();
    columns.reserve(reg.metrics.size());
    for (const auto &[name, m] : reg.metrics) {
        Column c;
        c.name = name;
        c.kind = m.kind;
        c.ctr = &m.ctr;
        c.gau = &m.gau;
        c.hist = &m.hist;
        valuesPerRow +=
            m.kind == Registry::Kind::Histogram ? 4 : 1;
        columns.push_back(std::move(c));
    }
    lockedMetricCount = reg.metrics.size();
}

void
Sampler::decimate() // simlint:observer
{
    // Keep the later row of each pair so the series still ends at
    // the newest sample, and double the cadence: memory stays
    // bounded on arbitrarily long runs, the surviving spacing stays
    // uniform, and the kept ticks are a function of simulated time
    // only — identical runs decimate identically.
    std::size_t w = 0;
    for (std::size_t r = 1; r < rows.size(); r += 2)
        rows[w++] = std::move(rows[r]);
    rows.resize(w);
    tickPeriod *= 2;
    // Retuning the hook cadence schedules no event and hashes
    // nothing (Simulation::setSamplePeriod): fingerprints are
    // untouched.
    // simlint:allow(observer-purity)
    sim.setSamplePeriod(tickPeriod);
}

void
Sampler::sample() // simlint:observer
{
    if (columns.empty()) {
        lockColumns();
    } else if (!warnedNewMetrics &&
               static_cast<const Simulation &>(sim).stats().size() !=
                   lockedMetricCount) {
        std::fprintf(stderr,
                     "dsasim: stats: metrics registered after the "
                     "first sample are omitted from the CSV (columns "
                     "are locked); they stay readable in the live "
                     "registry\n");
        warnedNewMetrics = true;
    }

    // The hot path: straight reads through the locked metric
    // references — no name lookups, no snapshot rebuild.
    Row row;
    row.when = sim.now();
    row.values.reserve(valuesPerRow);
    for (const Column &c : columns) {
        switch (c.kind) {
          case Registry::Kind::Counter:
            row.values.push_back(
                static_cast<double>(c.ctr->value()));
            break;
          case Registry::Kind::Gauge:
            row.values.push_back(c.gau->value());
            break;
          case Registry::Kind::Histogram:
            row.values.push_back(
                static_cast<double>(c.hist->count()));
            row.values.push_back(c.hist->sum());
            row.values.push_back(c.hist->quantile(0.99));
            row.values.push_back(c.hist->quantile(0.999));
            break;
        }
    }
    rows.push_back(std::move(row));
    if (rows.size() >= maxRows)
        decimate();
}

bool
Sampler::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "tick_ps");
    for (const Column &c : columns) {
        if (c.kind == Registry::Kind::Histogram)
            std::fprintf(f, ",%s.count,%s.sum,%s.p99,%s.p999",
                         c.name.c_str(), c.name.c_str(),
                         c.name.c_str(), c.name.c_str());
        else
            std::fprintf(f, ",%s", c.name.c_str());
    }
    std::fprintf(f, "\n");
    for (const Row &r : rows) {
        std::fprintf(f, "%llu",
                     static_cast<unsigned long long>(r.when));
        for (const double v : r.values) {
            std::fprintf(f, ",");
            printDouble(f, v);
        }
        std::fprintf(f, "\n");
    }
    std::fclose(f);
    return true;
}

} // namespace stats
} // namespace dsasim
