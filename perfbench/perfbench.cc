/**
 * @file
 * Benchmark driver: runs one workload for a fixed host-time budget,
 * repeating whole iterations (set-up + measured phase), and writes a
 * JSON summary for run.py.
 *
 * Usage:
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --out FILE [--trace-out FILE]
 *
 * wall_s and setup_s are means over every iteration of the run: the
 * host alternates between faster and slower periods lasting seconds,
 * and the mean moves smoothly with the share of each where a median
 * jumps between them. Slower shifts last minutes and slow every
 * process on the host alike, so both are rescaled by the HostProbe
 * run between timed phases (harness.hh); the raw means are reported
 * too.
 *
 * Every iteration of one seed must reproduce the same simulated
 * fingerprint and result values; a divergence is reported as an
 * error. With --trace 1, even iterations record spans and registry
 * reads and odd ones run untraced, so the summary can report the
 * tracing overhead; per-layer metrics come from traced iterations.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace dsasim::perfbench
{
namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0; ///< required: run.py passes run_seconds
    bool trace = false;
    std::string out;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::string(v) == "1";
        else if (k == "--out")
            a.out = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
           a.seconds > 0;
}

/**
 * Refuse host timings from builds whose speed says nothing about the
 * simulator: unoptimized or sanitizer-instrumented.
 */
const char *
buildProblem()
{
#if !defined(__OPTIMIZE__)
    return "unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#else
    if (PERFBENCH_SANITIZED)
        return "sanitizer build";
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug")
        return "Debug build";
    return nullptr;
#endif
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

/** Nearest-rank percentile of @p v (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** JSON string literal (names and messages here are plain ASCII). */
std::string
quote(const std::string &s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            q += '\\';
        q += c;
    }
    return q + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeObject(std::FILE *f, const std::vector<std::pair<std::string, double>> &kv)
{
    std::fprintf(f, "{");
    for (std::size_t i = 0; i < kv.size(); ++i)
        std::fprintf(f, "%s%s: %s", i ? ", " : "", quote(kv[i].first).c_str(),
                     num(kv[i].second).c_str());
    std::fprintf(f, "}");
}

/** Chrome trace-event JSON (loads in Perfetto / chrome://tracing). */
bool
writeTrace(const std::string &path, const Tracer &tracer)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    const auto &recs = tracer.records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const Tracer::Record &r = recs[i];
        std::fprintf(f,
                     "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %s, \"dur\": %s, \"args\": "
                     "{\"id\": %d, \"parent\": %d}}",
                     i ? ",\n" : "", quote(r.name).c_str(),
                     num(r.startS * 1e6).c_str(),
                     num((r.endS - r.startS) * 1e6).c_str(), r.id,
                     r.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

#ifdef __clang__
constexpr const char *kCompiler = __VERSION__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

using WorkloadFn = void (*)(IterContext &);

WorkloadFn
workloadByName(const std::string &name)
{
    if (name == "vhost")
        return runVhost;
    if (name == "cachebench")
        return runCachebench;
    if (name == "serving")
        return runServing;
    if (name == "opcode_sweep")
        return runOpcodeSweep;
    return nullptr;
}

} // namespace
} // namespace dsasim::perfbench

int
main(int argc, char **argv)
{
    using namespace dsasim::perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --out FILE "
                     "[--trace-out FILE]\n");
        return 2;
    }
    if (const char *why = buildProblem()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report host metrics from "
                     "a %s (build type %s)\n",
                     why, PERFBENCH_BUILD_TYPE);
        return 3;
    }
    const WorkloadFn fn = workloadByName(args.workload);
    if (!fn) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    // Untraced runs need two iterations to compare; traced runs
    // alternate traced/untraced and need two of each.
    const std::size_t minIters = args.trace ? 4 : 2;
    Tracer tracer;
    HostProbe probe;
    std::vector<IterResult> iters;
    std::vector<double> tracedWall, plainWall, forkMs;
    std::map<std::string, std::vector<double>> layer;
    // Start another iteration only if it should end within the budget
    // (judged by the slowest so far), so a run lasts about --seconds.
    const Clock::time_point start = Clock::now();
    double longest = 0;
    for (;;) {
        probe.pace(tracer);
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (iters.size() >= minIters && elapsed + longest > args.seconds)
            break;
        tracer.enabled = args.trace && iters.size() % 2 == 0;
        const std::size_t from = tracer.records().size();
        IterResult &r = iters.emplace_back();
        double iterS = 0;
        {
            IterContext ctx{args.seed, tracer, r, probe};
            auto root = tracer.span("bench.iteration", &iterS);
            fn(ctx);
        }
        longest = std::max(longest, iterS);
        if (!tracer.enabled) {
            plainWall.push_back(r.wallS);
            continue;
        }
        tracedWall.push_back(r.wallS);
        std::map<std::string, double> total;
        const auto &recs = tracer.records();
        for (std::size_t i = from; i < recs.size(); ++i) {
            const double len = recs[i].endS - recs[i].startS;
            total[recs[i].name] += len;
            if (recs[i].name == "driver.fork")
                forkMs.push_back(len * 1e3);
        }
        r.layer["driver.build_s"] = total["driver.build"];
        r.layer["driver.capture_s"] = total["driver.capture"];
        r.layer["apps.warmup_s"] = total["apps.warmup"];
        r.layer["stats.read_s"] = total["stats.read"];
        for (const auto &[name, self] : tracer.selfTimes(from))
            r.layer["self." + name + "_s"] = self;
        for (const auto &[name, v] : r.layer)
            layer[name].push_back(v);
    }

    // Determinism: every iteration re-simulates the same seed.
    std::vector<std::string> errors;
    const IterResult &first = iters.front();
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> setup, wall;
    for (std::size_t i = 0; i < iters.size(); ++i) {
        const IterResult &r = iters[i];
        attempted += r.attempted;
        failed += r.failed;
        setup.push_back(r.setupS);
        wall.push_back(r.wallS);
        for (const std::string &e : r.errors)
            if (std::find(errors.begin(), errors.end(), e) == errors.end())
                errors.push_back(e);
        if (r.fp.hash != first.fp.hash || r.fp.events != first.fp.events ||
            r.fp.endTicks != first.fp.endTicks || r.sim != first.sim) {
            errors.push_back("iteration " + std::to_string(i) +
                             " diverged from iteration 0 (simulated "
                             "fingerprint or results differ)");
        }
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;

    std::FILE *f = std::fopen(args.out.c_str(), "w");
    if (!f) {
        std::perror("perfbench: --out");
        return 2;
    }
    std::fprintf(f, "{\n\"workload\": %s,\n\"seed\": %llu,\n",
                 quote(args.workload).c_str(),
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f,
                 "\"host\": {\"cpu\": %s, \"nproc\": %u, \"compiler\": "
                 "%s, \"build_type\": %s},\n",
                 quote(cpuModel()).c_str(),
                 std::max(1u, std::thread::hardware_concurrency()),
                 quote(kCompiler).c_str(),
                 quote(PERFBENCH_BUILD_TYPE).c_str());
    std::fprintf(f, "\"iterations\": %zu,\n", iters.size());
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(first.fp.hash));
    std::fprintf(f,
                 "\"fingerprint\": {\"stream_hash\": \"%s\", "
                 "\"events\": %llu, \"end_ticks\": [",
                 hash, static_cast<unsigned long long>(first.fp.events));
    for (std::size_t i = 0; i < first.fp.endTicks.size(); ++i)
        std::fprintf(f, "%s%llu", i ? ", " : "",
                     static_cast<unsigned long long>(first.fp.endTicks[i]));
    std::fprintf(f, "]},\n\"sim\": ");
    writeObject(f, first.sim);
    std::fprintf(f, ",\n\"attempted\": %llu,\n\"failed\": %llu,\n",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    std::fprintf(f, "\"errors\": [");
    for (std::size_t i = 0; i < errors.size(); ++i)
        std::fprintf(f, "%s%s", i ? ", " : "", quote(errors[i]).c_str());
    std::fprintf(f, "],\n\"raw\": ");
    writeObject(f, {{"wall_s", mean(wall)},
                    {"setup_s", mean(setup)},
                    {"probe_ms", probe.meanS() * 1e3},
                    {"probe_samples", static_cast<double>(probe.samples())}});
    std::fprintf(f, ",\n\"end_to_end\": ");
    writeObject(f, {{"wall_s", mean(wall) * probe.scale()},
                    {"setup_s", mean(setup) * probe.scale()},
                    {"peak_rss_mb", peakRssMb}});
    std::fprintf(f, ",\n\"per_layer\": ");
    std::map<std::string, double> perLayer;
    if (args.trace) {
        for (const std::string &name : layerMetricNames())
            perLayer[name] = median(layer[name]);
        perLayer["driver.fork_ms_p50"] = percentile(forkMs, 50);
        perLayer["driver.fork_ms_p99"] = percentile(forkMs, 99);
        perLayer["driver.fork_samples"] =
            static_cast<double>(forkMs.size());
        for (const auto &[name, v] : first.sim)
            perLayer[name] = v;
        perLayer["trace.overhead_s"] = mean(tracedWall) - mean(plainWall);
        perLayer["host.probe_ms"] = probe.meanS() * 1e3;
        perLayer["host.wall_raw_s"] = mean(wall);
        perLayer["host.setup_raw_s"] = mean(setup);
        // Per-layer, not end-to-end: it reads 0 on a passing run.
        perLayer["fail_frac"] = attempted ? static_cast<double>(failed) /
                                                static_cast<double>(attempted)
                                          : 0.0;
    }
    writeObject(f, {perLayer.begin(), perLayer.end()});
    std::fprintf(f, "\n}\n");
    if (std::fclose(f) != 0) {
        std::perror("perfbench: --out");
        return 2;
    }
    if (!args.traceOut.empty() && !writeTrace(args.traceOut, tracer)) {
        std::perror("perfbench: --trace-out");
        return 2;
    }
    return 0;
}
