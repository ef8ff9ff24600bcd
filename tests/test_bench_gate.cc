/**
 * @file
 * The --check gate of the BENCH_*.json benches (bench/gate.hh): each
 * row kind's verdict against in-memory committed JSON, the skip
 * rules, the exit codes, and the emitter's byte format.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "bench/gate.hh"

using dsasim::bench::gate::Args;
using dsasim::bench::gate::Table;

namespace
{

constexpr double kTol = 0.20;

std::string
emitted(const Table &t)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    t.emit(f);
    std::rewind(f);
    std::string out;
    char buf[256];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

} // namespace

TEST(BenchGate, ExactHashMismatchFails)
{
    Table t("x");
    t.exactHash("stream_hash", 0x4835edb291b81fe5ull);
    EXPECT_EQ(t.check(R"({"stream_hash": "4835edb291b81fe5"})", kTol),
              0);
    EXPECT_EQ(t.check(R"({"stream_hash": "4835edb291b81fe6"})", kTol),
              1);
}

TEST(BenchGate, ExactCountMismatchFails)
{
    Table t("x");
    t.exact("events", 139044);
    EXPECT_EQ(t.check(R"({"events": 139044})", kTol), 0);
    EXPECT_EQ(t.check(R"({"events": 139045})", kTol), 1);
}

TEST(BenchGate, ExactZeroIsStillCompared)
{
    Table dropped("x");
    dropped.exact("dropped", 1);
    EXPECT_EQ(dropped.check(R"({"dropped": 0})", kTol), 1);
}

TEST(BenchGate, FloorFailsBelowAndPassesAtTheFloor)
{
    const double want = 5.648;
    const std::string committed = R"({"memmove_1m_gbps": 5.648})";
    Table at("x");
    at.floor("memmove_1m_gbps", want * (1.0 - kTol), 3);
    EXPECT_EQ(at.check(committed, kTol), 0);

    Table below("x");
    below.floor("memmove_1m_gbps", want * (1.0 - kTol) * 0.999, 3);
    EXPECT_EQ(below.check(committed, kTol), 1);

    Table above("x");
    above.floor("memmove_1m_gbps", want * 10, 3);
    EXPECT_EQ(above.check(committed, kTol), 0);
}

TEST(BenchGate, BandFailsOutsideEitherEdge)
{
    const std::string committed = R"({"qos_p99_us": 16.534})";
    for (double scale : {0.76, 1.0, 1.24}) {
        Table t("x");
        t.band("qos_p99_us", 16.534 * scale, 3);
        EXPECT_EQ(t.check(committed, 0.25), 0) << scale;
    }
    for (double scale : {0.74, 1.26}) {
        Table t("x");
        t.band("qos_p99_us", 16.534 * scale, 3);
        EXPECT_EQ(t.check(committed, 0.25), 1) << scale;
    }
}

TEST(BenchGate, MinimumIsGatedOnlyWhenItsConditionHolds)
{
    Table skipped("x");
    skipped.minimum("speedup_4", 0.9, 3, 2.5,
                    "host has 1 hardware thread(s)");
    EXPECT_EQ(skipped.check("{}", kTol), 0);

    Table slow("x");
    slow.minimum("speedup_4", 0.9, 3, 2.5);
    EXPECT_EQ(slow.check("{}", kTol), 1);

    Table fast("x");
    fast.minimum("speedup_4", 2.5, 3, 2.5);
    EXPECT_EQ(fast.check("{}", kTol), 0);
}

TEST(BenchGate, MissingOrNonPositiveCommittedValueIsSkipped)
{
    Table t("x");
    t.floor("rate", 1.0, 3)
        .band("p99_us", 1.0, 3)
        .exact("events", 7)
        .exactHash("stream_hash", 1);
    EXPECT_EQ(t.check("{}", kTol), 0);
    EXPECT_EQ(t.check(R"({"rate": 0, "p99_us": -1.5})", kTol), 0);
    EXPECT_EQ(t.check(R"({"rate": 100, "p99_us": -1.5})", kTol), 1);
}

TEST(BenchGate, InvariantFailsWhenViolated)
{
    Table t("x");
    t.invariant("every arrival terminal", true);
    EXPECT_EQ(t.check("{}", kTol), 0);
    t.invariant("retries bounded", false);
    EXPECT_EQ(t.check("{}", kTol), 1);
}

TEST(BenchGate, UnreadableCommittedFileReturnsTwo)
{
    Table t("x");
    t.floor("rate", 1.0, 3);
    EXPECT_EQ(dsasim::bench::gate::check(
                  t, "no_such_dir/BENCH_missing.json", kTol),
              2);
}

TEST(BenchGate, EmitsRowsInOrderWithTheirPrecision)
{
    Table t("parallel");
    t.report("hw_threads", 4, 0)
        .exact("events", 139044)
        .report("end_us", 3448.6812, 3)
        .exactHash("stream_hash", 0x4835edb291b81fe5ull)
        .floor("serial_events_per_sec", 137030.4, 0)
        .minimum("speedup_4", 1.0514, 3, 2.5)
        .invariant("not written", true)
        .literal("replay_consistent", "true")
        .text("note", "simulated");
    EXPECT_EQ(emitted(t), "{\n"
                          "  \"benchmark\": \"parallel\",\n"
                          "  \"hw_threads\": 4,\n"
                          "  \"events\": 139044,\n"
                          "  \"end_us\": 3448.681,\n"
                          "  \"stream_hash\": \"4835edb291b81fe5\",\n"
                          "  \"serial_events_per_sec\": 137030,\n"
                          "  \"speedup_4\": 1.051,\n"
                          "  \"replay_consistent\": true,\n"
                          "  \"note\": \"simulated\"\n"
                          "}\n");
}

TEST(BenchGate, ArgsTakeOnlyJsonAndCheck)
{
    Args a;
    EXPECT_TRUE(a.parse("--json=out.json"));
    EXPECT_TRUE(a.parse("--check=BENCH_engine.json"));
    EXPECT_FALSE(a.parse("--tol=0.5"));
    EXPECT_FALSE(a.parse("--n=10"));
    EXPECT_EQ(a.json, "out.json");
    EXPECT_EQ(a.check, "BENCH_engine.json");
}
