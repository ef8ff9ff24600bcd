#include "harness.hh"

#include <algorithm>
#include <numeric>
#include <queue>
#include <regex>
#include <unordered_map>

namespace dsasim::perfbench
{

namespace
{

/** 64-bit FNV-1a over @p len bytes, continuing from @p h. */
std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

Tracer::Span::Span(Tracer &t, const char *name, double *acc)
    : tracer(t), accum(acc), start(Clock::now())
{
    if (!tracer.enabled)
        return;
    Record r;
    r.name = name;
    r.id = static_cast<int>(tracer.recs.size());
    r.parent = tracer.open.empty() ? -1 : tracer.open.back();
    r.startS =
        std::chrono::duration<double>(start - tracer.origin).count();
    index = r.id;
    tracer.recs.push_back(std::move(r));
    tracer.open.push_back(index);
}

Tracer::Span::~Span()
{
    const Clock::time_point end = Clock::now();
    if (accum)
        *accum += std::chrono::duration<double>(end - start).count();
    if (index < 0)
        return;
    tracer.recs[static_cast<std::size_t>(index)].endS =
        std::chrono::duration<double>(end - tracer.origin).count();
    tracer.open.pop_back();
}

std::map<std::string, double>
Tracer::selfTimes(std::size_t from) const
{
    std::map<int, double> childTime;
    for (std::size_t i = from; i < recs.size(); ++i) {
        const Record &r = recs[i];
        if (r.parent >= 0)
            childTime[r.parent] += r.endS - r.startS;
    }
    std::map<std::string, double> self;
    for (std::size_t i = from; i < recs.size(); ++i) {
        const Record &r = recs[i];
        self[r.name] += r.endS - r.startS - childTime[r.id];
    }
    return self;
}

HostProbe::HostProbe()
{
    chunk(); // warm-up: allocator and code pages, not recorded
    last = Clock::now();
}

void
HostProbe::pace(Tracer &tracer)
{
    if (std::chrono::duration<double>(Clock::now() - last).count() <
        kIntervalS)
        return;
    auto span = tracer.span("host.probe");
    chunks.push_back(chunk());
    last = Clock::now();
}

double
HostProbe::meanS() const
{
    return chunks.empty() ? 0.0
                          : std::accumulate(chunks.begin(), chunks.end(),
                                            0.0) /
                                static_cast<double>(chunks.size());
}

double
HostProbe::scale() const
{
    return chunks.empty() ? 1.0 : kRefS / meanS();
}

double
HostProbe::chunk()
{
    const Clock::time_point start = Clock::now();
    // A fixed sequence (not --seed): every chunk does the same work.
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    {
        std::vector<std::uint64_t> v(1u << 17);
        for (std::uint64_t &e : v)
            e = next();
        std::sort(v.begin(), v.end());
        sink += v[v.size() / 2];
    }
    {
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        for (std::uint64_t k = 0; k < (1u << 15); ++k)
            m[next() & 0xfffff] = k;
        for (std::uint64_t k = 0; k < (3u << 17); ++k) {
            const auto it = m.find(next() & 0xfffff);
            if (it != m.end())
                sink += it->second;
        }
    }
    {
        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            heap;
        for (int k = 0; k < 4096; ++k)
            heap.push(next());
        for (std::uint64_t k = 0; k < (3u << 16); ++k) {
            sink += heap.top();
            heap.pop();
            heap.push(next());
        }
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Fingerprint::add(std::uint64_t stream_hash, std::uint64_t ev, Tick end)
{
    const std::uint64_t parts[3] = {stream_hash, ev,
                                    static_cast<std::uint64_t>(end)};
    hash = fnv1a(parts, sizeof(parts), hash);
    events += ev;
    endTicks.push_back(end);
}

void
StatsReading::read(const stats::Registry &reg, const std::string &prefix)
{
    for (const auto &e : reg.snapshot().entries) {
        if (e.kind == stats::Registry::Kind::Counter)
            counters[prefix + e.name] = e.value;
        else if (e.kind == stats::Registry::Kind::Gauge)
            gauges[prefix + e.name] = e.value;
    }
}

void
LayerDelta::add(const StatsReading &before, const StatsReading &after)
{
    for (const auto &[name, v] : after.counters) {
        auto it = before.counters.find(name);
        counters[name] += v - (it == before.counters.end() ? 0.0
                                                           : it->second);
    }
    for (const auto &[name, v] : after.gauges)
        gauges[name] = v;
}

CoreTime
CoreTime::of(Platform &plat)
{
    CoreTime t;
    for (std::size_t i = 0; i < plat.coreCount(); ++i) {
        Core &c = plat.core(i);
        t.busy += c.busyTicks();
        t.umwait += c.umwaitTicks();
        t.spin += c.spinTicks();
    }
    return t;
}

CoreTime &
CoreTime::operator+=(const CoreTime &o)
{
    busy += o.busy;
    umwait += o.umwait;
    spin += o.spin;
    return *this;
}

CoreTime
CoreTime::operator-(const CoreTime &o) const
{
    return CoreTime{busy - o.busy, umwait - o.umwait, spin - o.spin};
}

namespace
{

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Sum of the values whose name matches @p pattern. */
double
sumMatching(const std::map<std::string, double> &view,
            const char *pattern)
{
    const std::regex re(pattern);
    double total = 0;
    for (const auto &[name, v] : view)
        if (std::regex_search(name, re))
            total += v;
    return total;
}

/** Mean of the values whose name matches @p pattern (0 if none). */
double
meanMatching(const std::map<std::string, double> &view,
             const char *pattern)
{
    const std::regex re(pattern);
    double total = 0;
    std::size_t n = 0;
    for (const auto &[name, v] : view) {
        if (std::regex_search(name, re)) {
            total += v;
            ++n;
        }
    }
    return ratio(total, static_cast<double>(n));
}

} // namespace

void
fillLayers(std::map<std::string, double> &out, const LayerDelta &d)
{
    auto delta = [&](const char *pattern) {
        return sumMatching(d.counters, pattern);
    };

    const double hit = delta(R"((^|\.)llc\.hit_bytes$)");
    const double miss = delta(R"((^|\.)llc\.miss_bytes$)");
    out["mem.llc.hit_bytes"] = hit;
    out["mem.llc.miss_bytes"] = miss;
    out["mem.llc.writeback_bytes"] =
        delta(R"((^|\.)llc\.writeback_bytes$)");
    out["mem.llc.hit_ratio"] = ratio(hit, hit + miss);
    out["mem.iommu.translations"] =
        delta(R"((^|\.)iommu\.translations$)");
    out["mem.upi.bytes"] = delta(R"((^|\.)upi\d+to\d+\.bytes_pu(sh|ll)ed$)");

    out["cpu.busy_us"] = toUs(d.core.busy);
    out["cpu.umwait_us"] = toUs(d.core.umwait);
    out["cpu.spin_us"] = toUs(d.core.spin);

    // Accepted submissions over all portal attempts (ENQCMD retries
    // included): the share of submit work that was not wasted.
    const double descs = delta(R"((^|\.)dsa\d+\.descriptors_submitted$)");
    const double retries =
        delta(R"((^|\.)dsa\d+\.descriptors_retried$)");
    out["dsa.descriptors"] = descs;
    out["dsa.retries"] = retries;
    out["dsa.accept_ratio"] = ratio(descs, descs + retries);
    out["dsa.bytes"] = delta(R"(\.eng\d+\.bytes_(read|written)$)");
    out["dsa.page_faults"] = delta(R"(\.eng\d+\.page_faults$)");
    out["dsa.atc_misses"] = delta(R"(\.eng\d+\.atc_misses$)");
    out["dsa.engine_util"] =
        meanMatching(d.gauges, R"(\.eng\d+\.utilization$)");
    out["dsa.host_ns_per_desc"] = ratio(d.runS * 1e9, descs);
    out["dsa.qos.admitted"] = delta(R"(\.qos\.admitted$)");
    out["dsa.qos.throttled"] = delta(R"(\.qos\.throttled$)");
    out["dsa.qos.busy"] = delta(R"(\.qos\.busy$)");

    out["dml.serving.retries"] = delta(R"((^|\.)serving\d+\.retries$)");
    out["dml.serving.fallbacks"] =
        delta(R"((^|\.)serving\d+\.fallbacks$)");
    out["dml.serving.sheds"] = delta(R"((^|\.)serving\d+\.sheds$)");
    out["dml.serving.breaker_opens"] =
        delta(R"((^|\.)serving\d+\.breaker_opens$)");

    out["dto.fallbacks"] = delta(R"((^|\.)dto\d+\.fallback_\w+$)");

    const double lookups = delta(R"((^|\.)minicache\d+\.lookups$)");
    out["apps.minicache.ops"] =
        lookups + delta(R"((^|\.)minicache\d+\.sets$)");
    out["apps.minicache.hit_ratio"] =
        ratio(delta(R"((^|\.)minicache\d+\.hits$)"), lookups);
    out["apps.minicache.copied_bytes"] =
        delta(R"((^|\.)minicache\d+\.bytes_copied$)");

    out["sim.run_s"] = d.runS;
    out["sim.events"] = static_cast<double>(d.events);
    out["sim.host_ns_per_event"] =
        ratio(d.runS * 1e9, static_cast<double>(d.events));
}

const std::vector<std::string> &
layerMetricNames()
{
    static const std::vector<std::string> names = {
        "driver.build_s",
        "driver.capture_s",
        "driver.fork_ms_p50",
        "driver.fork_ms_p99",
        "driver.fork_samples",
        "apps.warmup_s",
        "sim.run_s",
        "sim.events",
        "sim.host_ns_per_event",
        "sim.partition.epochs",
        "sim.partition.events_per_epoch",
        "mem.llc.hit_bytes",
        "mem.llc.miss_bytes",
        "mem.llc.writeback_bytes",
        "mem.llc.hit_ratio",
        "mem.iommu.translations",
        "mem.upi.bytes",
        "cpu.busy_us",
        "cpu.umwait_us",
        "cpu.spin_us",
        "dsa.descriptors",
        "dsa.retries",
        "dsa.accept_ratio",
        "dsa.bytes",
        "dsa.page_faults",
        "dsa.atc_misses",
        "dsa.engine_util",
        "dsa.host_ns_per_desc",
        "dsa.qos.admitted",
        "dsa.qos.throttled",
        "dsa.qos.busy",
        "dml.serving.retries",
        "dml.serving.fallbacks",
        "dml.serving.sheds",
        "dml.serving.breaker_opens",
        "dml.serving.hw_ratio",
        "dto.offload_byte_share",
        "dto.fallbacks",
        "apps.vhost.packets",
        "apps.vhost.errors",
        "apps.minicache.ops",
        "apps.minicache.hit_ratio",
        "apps.minicache.copied_bytes",
        "ops.points",
        "ops.mismatches",
        "stats.read_s",
        "self.bench.iteration_s",
        "self.bench.setup_s",
        "self.bench.measure_s",
        "self.driver.build_s",
        "self.apps.warmup_s",
        "self.driver.capture_s",
        "self.driver.fork_s",
        "self.sim.run_s",
        "self.stats.read_s",
        "apps.vhost.sim_mpps_256",
        "apps.vhost.sim_mpps_1518",
        "apps.minicache.sim_mops",
        "apps.minicache.sim_p99_us",
        "dml.serving.sim_victim_p99_us",
        "dml.serving.sim_goodput_mbps",
        "ops.sim_speedup_geomean",
    };
    return names;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace dsasim::perfbench
