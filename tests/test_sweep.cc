/**
 * @file
 * Tests for the parallel benchmark sweep harness: worker-count
 * selection from DSASIM_JOBS and — the property the figure benches
 * rely on — byte-identical results whether a sweep runs serially or
 * on a thread pool.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "bench/common.hh"

namespace dsasim::bench
{
namespace
{

/**
 * One small real bench config (async memcpy over a few transfer
 * sizes), each point with its own Rig, formatted exactly like a
 * table row.
 */
std::vector<std::string>
measureSweep(unsigned jobs)
{
    const std::vector<std::uint64_t> sizes = {1 << 10, 4 << 10,
                                              16 << 10, 64 << 10};
    SweepRunner sweep(jobs);
    return sweep.run(sizes.size(), [&](std::size_t i) {
        Rig rig{Rig::Options{}};
        auto ring = memMoveRing(rig, sizes[i], 4);
        Measure m = asyncHw(rig, ring, /*total=*/32, /*depth=*/8);
        return fmtSize(sizes[i]) + "," + fmt(m.gbps) + "," +
               std::to_string(m.iterations);
    });
}

TEST(SweepRunner, ParallelMatchesSerialByteForByte)
{
    auto serial = measureSweep(1);
    auto threaded = measureSweep(4);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], threaded[i]) << "row " << i;
}

TEST(SweepRunner, ResultsComeBackInIndexOrder)
{
    SweepRunner sweep(8);
    auto out = sweep.run(100, [](std::size_t i) {
        return static_cast<int>(i) * 3;
    });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(SweepRunner, EmptyAndSingleItemRuns)
{
    SweepRunner sweep(4);
    EXPECT_TRUE(sweep.run(0, [](std::size_t) { return 1; }).empty());
    auto one = sweep.run(1, [](std::size_t) { return 42; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 42);
}

TEST(SweepRunner, JobsEnvOverride)
{
    setenv("DSASIM_JOBS", "3", 1);
    EXPECT_EQ(sweepJobs(), 3u);
    EXPECT_EQ(SweepRunner{}.jobs(), 3u);
    // Garbage or non-positive values fall back to the hardware count.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setenv("DSASIM_JOBS", "0", 1);
    EXPECT_EQ(sweepJobs(), hw);
    setenv("DSASIM_JOBS", "abc", 1);
    EXPECT_EQ(sweepJobs(), hw);
    setenv("DSASIM_JOBS", "", 1);
    EXPECT_EQ(sweepJobs(), hw);
    unsetenv("DSASIM_JOBS");
    EXPECT_EQ(sweepJobs(), hw);
}

} // namespace
} // namespace dsasim::bench
