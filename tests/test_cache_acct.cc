/**
 * @file
 * Differential tests for the batched span-granular cache accounting
 * (DESIGN.md §13): the batched implementation and the line-at-a-time
 * oracle kept behind `DSASIM_CACHE_ACCT=line` must both be
 * state-identical — per-line directory contents, LRU clock values,
 * occupancy gauges and returned aggregates — to a mask-free
 * reference LLC defined here. Also covers the closed-form per-set
 * span geometry (set wrap, start-offset corrections), owner-id
 * accounting and the stale-epoch victim reclaim gauge regression.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <vector>

#include "mem/cache.hh"
#include "sim/random.hh"

namespace dsasim
{
namespace
{

using Acct = CacheModel::AcctMode;

CacheModel::Config
smallCfg(unsigned sets, unsigned ways, unsigned ddio)
{
    CacheModel::Config cfg;
    cfg.sizeBytes =
        static_cast<std::uint64_t>(sets) * ways * cacheLineSize;
    cfg.ways = ways;
    cfg.ddioWays = ddio;
    return cfg;
}

/** Closed-form lines-per-set for a span of @p n lines from set s0. */
std::uint64_t
spanLinesInSet(std::uint64_t s, std::uint64_t s0, std::uint64_t n,
               std::uint64_t sets)
{
    std::uint64_t d = (s + sets - s0) % sets;
    return n / sets + (d < n % sets ? 1 : 0);
}

/** Valid-line count per set, recovered from the sparse state. */
std::vector<std::uint64_t>
residentPerSet(const CacheModel &c)
{
    std::vector<std::uint64_t> per(c.numSets(), 0);
    for (const auto &[idx, line] : c.saveState().validLines)
        ++per[idx / c.numWays()];
    return per;
}

/** Owner ids the fuzz draws from: cores 0..3 and two DSA devices. */
constexpr int fuzzOwners[] = {0, 1, 2, 3, 1000, 1003};

/**
 * Mask-free reference LLC: a plain array of lines with their own
 * valid and dirty flags, a full way scan per lookup, CacheModel's
 * victim rule (the highest free way in range, else the LRU minimum)
 * and the same LRU clock. invalidateAll() clears every line, and the
 * span ops are the scalar ops per line. It shares no code or state
 * layout with CacheModel, so a set-mask bug there diverges from it
 * instead of validating itself.
 */
class RefLlc
{
  public:
    using Line = CacheModel::Line;

    explicit RefLlc(const CacheModel::Config &cfg)
        : ways(cfg.ways),
          ddioWays(cfg.ddioWays > 0 ? cfg.ddioWays : cfg.ways),
          sets(cfg.sizeBytes / cacheLineSize / cfg.ways),
          lines(sets * ways)
    {
    }

    CacheModel::AccessResult
    cpuAccess(Addr pa, int owner, bool is_write)
    {
        CacheModel::AccessResult r;
        if (Line *l = find(pa)) {
            r.hit = true;
            hitBytes += cacheLineSize;
            l->lastUse = ++useClock;
            l->dirty = l->dirty || is_write;
            l->owner = owner;
            return r;
        }
        missBytes += cacheLineSize;
        install(pa, ways, owner, is_write, r);
        return r;
    }

    CacheModel::AccessResult
    deviceRead(Addr pa)
    {
        CacheModel::AccessResult r;
        if (Line *l = find(pa)) {
            r.hit = true;
            hitBytes += cacheLineSize;
            l->lastUse = ++useClock;
        } else {
            missBytes += cacheLineSize;
        }
        return r;
    }

    CacheModel::AccessResult
    deviceWrite(Addr pa, int owner, bool alloc_hint)
    {
        CacheModel::AccessResult r;
        Line *l = find(pa);
        if (!alloc_hint) {
            if (l)
                l->valid = false;
            return r;
        }
        if (l) {
            r.hit = true;
            hitBytes += cacheLineSize;
            l->lastUse = ++useClock;
            l->dirty = true;
            l->owner = owner;
            return r;
        }
        missBytes += cacheLineSize;
        install(pa, ddioWays, owner, true, r);
        return r;
    }

    bool
    flushLine(Addr pa)
    {
        Line *l = find(pa);
        if (!l)
            return false;
        l->valid = false;
        if (l->dirty)
            writebackBytes += cacheLineSize;
        return l->dirty;
    }

    CacheModel::SpanResult
    probeSpan(Addr pa, std::uint64_t size)
    {
        CacheModel::SpanResult r;
        for (Addr a : spanLines(pa, size))
            (deviceRead(a).hit ? r.hitBytes : r.missBytes) +=
                cacheLineSize;
        return r;
    }

    CacheModel::SpanResult
    fillSpan(Addr pa, std::uint64_t size, int owner)
    {
        CacheModel::SpanResult r;
        for (Addr a : spanLines(pa, size)) {
            CacheModel::AccessResult res = deviceWrite(a, owner, true);
            (res.hit ? r.hitBytes : r.missBytes) += cacheLineSize;
            if (res.evictedDirty) {
                r.writebackBytes += cacheLineSize;
                r.lastEvictedPa = res.evictedPa;
            }
        }
        return r;
    }

    CacheModel::SpanResult
    evictSpan(Addr pa, std::uint64_t size)
    {
        for (Addr a : spanLines(pa, size))
            deviceWrite(a, 0, false);
        return {};
    }

    CacheModel::SpanResult
    flushSpan(Addr pa, std::uint64_t size)
    {
        CacheModel::SpanResult r;
        for (Addr a : spanLines(pa, size))
            if (flushLine(a))
                r.writebackBytes += cacheLineSize;
        return r;
    }

    bool
    probe(Addr pa)
    {
        return find(pa) != nullptr;
    }

    void
    invalidateAll()
    {
        for (Line &l : lines)
            l.valid = false;
    }

    std::uint64_t
    occupancyBytes(int owner) const
    {
        std::uint64_t n = 0;
        for (const Line &l : lines)
            n += l.valid && l.owner == owner;
        return n * cacheLineSize;
    }

    std::uint64_t
    totalOccupancyBytes() const
    {
        std::uint64_t n = 0;
        for (const Line &l : lines)
            n += l.valid;
        return n * cacheLineSize;
    }

    /** Same format as CacheModel's, except the epoch field. */
    CacheModel::State
    saveState() const
    {
        CacheModel::State st;
        st.useClock = useClock;
        st.hitBytes = hitBytes;
        st.missBytes = missBytes;
        st.writebackBytes = writebackBytes;
        for (std::uint64_t i = 0; i < lines.size(); ++i)
            if (lines[i].valid)
                st.validLines.emplace_back(i, lines[i]);
        return st;
    }

  private:
    static std::vector<Addr>
    spanLines(Addr pa, std::uint64_t size)
    {
        std::vector<Addr> v;
        for (Addr a = lineAlignDown(pa); a < lineAlignUp(pa + size);
             a += cacheLineSize)
            v.push_back(a);
        return v;
    }

    Line *
    set(Addr pa)
    {
        return &lines[(pa >> 6) % sets * ways];
    }

    Line *
    find(Addr pa)
    {
        Line *s = set(pa);
        for (unsigned w = 0; w < ways; ++w)
            if (s[w].valid && s[w].tag == pa >> 6)
                return &s[w];
        return nullptr;
    }

    void
    install(Addr pa, unsigned way_hi, int owner, bool dirty,
            CacheModel::AccessResult &r)
    {
        Line *s = set(pa);
        Line *v = nullptr;
        for (unsigned w = way_hi; w-- > 0 && !v;)
            if (!s[w].valid)
                v = &s[w];
        if (!v) {
            v = &s[0];
            for (unsigned w = 1; w < way_hi; ++w)
                if (s[w].lastUse < v->lastUse)
                    v = &s[w];
            r.evictedOther = v->owner != owner;
            r.evictedDirty = v->dirty;
            r.evictedPa = v->tag << 6;
            if (v->dirty)
                writebackBytes += cacheLineSize;
        }
        *v = Line{pa >> 6, ++useClock, 0, owner, true, dirty};
        r.allocated = true;
    }

    unsigned ways;
    unsigned ddioWays;
    std::uint64_t sets;
    std::vector<Line> lines;
    std::uint64_t useClock = 0;
    std::uint64_t hitBytes = 0;
    std::uint64_t missBytes = 0;
    std::uint64_t writebackBytes = 0;
};

/** @p a holds exactly the state of @p ref. */
void
expectSameState(const CacheModel &a, const RefLlc &ref)
{
    CacheModel::State sa = a.saveState();
    CacheModel::State sb = ref.saveState();
    ASSERT_EQ(sa.useClock, sb.useClock);
    EXPECT_EQ(sa.hitBytes, sb.hitBytes);
    EXPECT_EQ(sa.missBytes, sb.missBytes);
    EXPECT_EQ(sa.writebackBytes, sb.writebackBytes);
    ASSERT_EQ(sa.validLines.size(), sb.validLines.size());
    for (std::size_t i = 0; i < sa.validLines.size(); ++i) {
        const auto &[ia, la] = sa.validLines[i];
        const auto &[ib, lb] = sb.validLines[i];
        ASSERT_EQ(ia, ib) << "way index diverged at entry " << i;
        EXPECT_EQ(la.tag, lb.tag);
        EXPECT_EQ(la.lastUse, lb.lastUse);
        EXPECT_EQ(la.owner, lb.owner);
        EXPECT_EQ(la.valid, lb.valid);
        EXPECT_EQ(la.dirty, lb.dirty);
    }
    EXPECT_EQ(a.totalOccupancyBytes(), ref.totalOccupancyBytes());
    for (int owner : fuzzOwners)
        EXPECT_EQ(a.occupancyBytes(owner), ref.occupancyBytes(owner))
            << "owner " << owner;
}

TEST(CacheAcct, DefaultModeIsBatched)
{
    if (std::getenv("DSASIM_CACHE_ACCT"))
        GTEST_SKIP() << "mode pinned by environment";
    CacheModel c(smallCfg(64, 4, 2));
    EXPECT_EQ(c.acctMode(), Acct::Batched);
}

// Span geometry: a contiguous span touches each set floor(n/sets) or
// ceil(n/sets) times, offset from the starting set. ways are sized so
// every touched line installs, making per-set occupancy the count.
TEST(CacheAcct, SpanSetDistributionGolden)
{
    const unsigned sets = 96, ways = 8;
    struct Case
    {
        std::uint64_t start_line;
        std::uint64_t n;
    } cases[] = {
        {0, 1},          // single line
        {5, 40},         // interior, no wrap
        {94, 5},         // wraps past the last set
        {17, 96},        // exactly one full revolution
        {90, 2 * 96 + 7} // multiple revolutions + remainder
    };
    for (const Case &tc : cases) {
        CacheModel c(smallCfg(sets, ways, 0));
        c.setAcctMode(Acct::Batched);
        Addr pa = tc.start_line * cacheLineSize;
        CacheModel::SpanResult r =
            c.fillSpan(pa, tc.n * cacheLineSize, 1);
        EXPECT_EQ(r.missBytes, tc.n * cacheLineSize);
        EXPECT_EQ(r.hitBytes, 0u);
        auto per = residentPerSet(c);
        std::uint64_t s0 = tc.start_line % sets;
        for (std::uint64_t s = 0; s < sets; ++s) {
            // Same tag never installs twice, so residency counts
            // distinct lines: exactly the closed-form touch count
            // (n <= ways * sets in every case here).
            EXPECT_EQ(per[s], spanLinesInSet(s, s0, tc.n, sets))
                << "set " << s << " start " << tc.start_line
                << " n " << tc.n;
        }
    }
}

// Unaligned spans cover [lineAlignDown(pa), lineAlignUp(pa+size)):
// partial head/tail lines count exactly once.
TEST(CacheAcct, StartOffsetCorrection)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(64, 4, 2));
        c.setAcctMode(mode);
        // Bytes [100, 130) straddle lines 1 and 2.
        CacheModel::SpanResult r = c.probeSpan(100, 30);
        EXPECT_EQ(r.missBytes, 2 * cacheLineSize);
        EXPECT_EQ(r.hitBytes, 0u);
        // One byte, mid-line: exactly one line.
        r = c.fillSpan(999, 1, 0);
        EXPECT_EQ(r.missBytes, 1 * cacheLineSize);
        EXPECT_TRUE(c.probe(lineAlignDown(999)));
        // Aligned end: no phantom tail line.
        r = c.probeSpan(0, 2 * cacheLineSize);
        EXPECT_EQ(r.hitBytes + r.missBytes, 2 * cacheLineSize);
    }
}

TEST(CacheAcct, FlushSpanReportsDirtyWritebacks)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(64, 4, 2));
        c.setAcctMode(mode);
        c.fillSpan(0, 10 * cacheLineSize, 1); // dirty DDIO fills
        CacheModel::SpanResult r = c.flushSpan(0, 10 * cacheLineSize);
        EXPECT_EQ(r.writebackBytes, 10 * cacheLineSize);
        EXPECT_EQ(c.totalOccupancyBytes(), 0u);
        // Second flush: nothing present, nothing owed.
        r = c.flushSpan(0, 10 * cacheLineSize);
        EXPECT_EQ(r.writebackBytes, 0u);
    }
}

TEST(CacheAcct, EvictSpanDropsDirtyLinesSilently)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(64, 4, 2));
        c.setAcctMode(mode);
        c.fillSpan(0, 6 * cacheLineSize, 1);
        CacheModel::SpanResult r = c.evictSpan(0, 6 * cacheLineSize);
        // The device write updates memory itself: dropped dirty
        // copies owe no writeback (matches deviceWrite !alloc_hint).
        EXPECT_EQ(r.writebackBytes, 0u);
        EXPECT_EQ(c.totalOccupancyBytes(), 0u);
    }
}

// Regression: after invalidateAll every way of a stale-epoch set is
// free space, so installs there report no eviction and the
// validLines/ownerLines gauges never drift across epochs.
TEST(CacheAcct, StaleEpochVictimReclaimKeepsGaugesExact)
{
    for (Acct mode : {Acct::Batched, Acct::Line}) {
        CacheModel c(smallCfg(8, 4, 2));
        c.setAcctMode(mode);
        // Fill every way of every set with dirty CPU lines.
        for (unsigned s = 0; s < 8; ++s)
            for (unsigned w = 0; w < 4; ++w)
                c.cpuAccess((s + w * 8ull) * cacheLineSize, 7, true);
        ASSERT_EQ(c.totalOccupancyBytes(),
                  8 * 4 * std::uint64_t{cacheLineSize});
        c.invalidateAll();
        ASSERT_EQ(c.totalOccupancyBytes(), 0u);
        ASSERT_EQ(c.occupancyBytes(7), 0u);
        // Every install now reclaims a raw-valid stale way.
        for (unsigned s = 0; s < 8; ++s) {
            auto res = c.deviceWrite(s * cacheLineSize, 3, true);
            EXPECT_TRUE(res.allocated);
            // The stale victim is free space, not an eviction.
            EXPECT_FALSE(res.evictedDirty);
            EXPECT_FALSE(res.evictedOther);
        }
        EXPECT_EQ(c.totalOccupancyBytes(),
                  8 * std::uint64_t{cacheLineSize});
        EXPECT_EQ(c.occupancyBytes(3),
                  8 * std::uint64_t{cacheLineSize});
        EXPECT_EQ(c.occupancyBytes(7), 0u);
        // CPU path reclaims stale ways too; then real LRU evictions
        // at full occupancy keep the gauges balanced.
        for (unsigned s = 0; s < 8; ++s)
            for (unsigned w = 0; w < 6; ++w)
                c.cpuAccess((s + (w + 1) * 8ull) * cacheLineSize, 5,
                            true);
        EXPECT_EQ(c.totalOccupancyBytes(),
                  8 * 4 * std::uint64_t{cacheLineSize});
        EXPECT_EQ(c.occupancyBytes(5) + c.occupancyBytes(3),
                  c.totalOccupancyBytes());
        // Stale lines never appear in a checkpoint.
        for (const auto &[idx, line] : c.saveState().validLines)
            EXPECT_TRUE(line.valid);
    }
}

void
expectSame(const CacheModel::SpanResult &a,
           const CacheModel::SpanResult &b)
{
    EXPECT_EQ(a.hitBytes, b.hitBytes);
    EXPECT_EQ(a.missBytes, b.missBytes);
    EXPECT_EQ(a.writebackBytes, b.writebackBytes);
    EXPECT_EQ(a.lastEvictedPa, b.lastEvictedPa);
}

void
expectSame(const CacheModel::AccessResult &a,
           const CacheModel::AccessResult &b)
{
    EXPECT_EQ(a.hit, b.hit);
    EXPECT_EQ(a.allocated, b.allocated);
    EXPECT_EQ(a.evictedOther, b.evictedOther);
    EXPECT_EQ(a.evictedDirty, b.evictedDirty);
    EXPECT_EQ(a.evictedPa, b.evictedPa);
}

void
expectSame(bool a, bool b)
{
    EXPECT_EQ(a, b);
}

// The oracle contract: randomized span/scalar op sequences leave the
// batched and line-mode models in the reference model's state and
// return its results.
void
differentialFuzz(std::uint32_t seed, CacheModel::Config cfg)
{
    CacheModel batched(cfg), line(cfg);
    batched.setAcctMode(Acct::Batched);
    line.setAcctMode(Acct::Line);
    RefLlc ref(cfg);
    Rng rng(seed);
    const std::uint64_t sets = batched.numSets();
    // A PA window ~2x the cache forces conflicts and LRU churn;
    // spans up to ~3 revolutions exercise the set wrap.
    const std::uint64_t window = 2 * cfg.sizeBytes;
    const std::uint64_t max_span = 3 * sets * cacheLineSize;

    // One op on all three models; both modes must match the reference.
    auto apply = [&](auto &&op) {
        auto want = op(ref);
        expectSame(op(batched), want);
        expectSame(op(line), want);
    };

    for (int op = 0; op < 4000; ++op) {
        Addr pa = rng.range(0, window);
        std::uint64_t size = rng.range(1, max_span);
        int owner = fuzzOwners[rng.range(0, std::size(fuzzOwners) - 1)];
        Addr ln = lineAlignDown(pa);
        switch (rng.range(0, 10)) {
          case 0:
          case 1:
            apply([&](auto &c) { return c.probeSpan(pa, size); });
            break;
          case 2:
          case 3:
            apply([&](auto &c) { return c.fillSpan(pa, size, owner); });
            break;
          case 4:
            apply([&](auto &c) { return c.evictSpan(pa, size); });
            break;
          case 5:
            apply([&](auto &c) { return c.flushSpan(pa, size); });
            break;
          case 6: {
            bool wr = rng.range(0, 2) == 0;
            apply([&](auto &c) { return c.cpuAccess(ln, owner, wr); });
            break;
          }
          case 7: {
            bool hint = rng.range(0, 2) == 0;
            apply([&](auto &c) {
                return c.deviceWrite(ln, owner, hint);
            });
            break;
          }
          case 8: {
            if (rng.range(0, 8) == 0) {
                batched.invalidateAll();
                line.invalidateAll();
                ref.invalidateAll();
            } else {
                apply([&](auto &c) { return c.deviceRead(ln); });
            }
            break;
          }
          case 9: {
            // Checkpoint round-trip mid-stream: masks and gauges
            // must rebuild to the unchanged reference state.
            if (rng.range(0, 16) == 0) {
                batched.restoreState(batched.saveState());
                line.restoreState(line.saveState());
            } else {
                apply([&](auto &c) { return c.probe(ln); });
            }
            break;
          }
        }
        if (op % 50 == 0) {
            expectSameState(batched, ref);
            expectSameState(line, ref);
        }
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "diverged at op " << op << " seed "
                          << seed;
            return;
        }
    }
    expectSameState(batched, ref);
    expectSameState(line, ref);
}

TEST(CacheAcct, DifferentialFuzzSprShape)
{
    // SPR-like associativity, scaled-down set count, DDIO partition.
    differentialFuzz(1, smallCfg(64, 15, 2));
}

TEST(CacheAcct, DifferentialFuzzNoDdio)
{
    // ddioWays == 0: device fills may use every way.
    differentialFuzz(2, smallCfg(96, 5, 0));
}

TEST(CacheAcct, DifferentialFuzzTinySets)
{
    // Tiny set count: nearly every span wraps multiple times.
    differentialFuzz(3, smallCfg(8, 4, 2));
}

// Occupancy is a flat per-owner-id count: cores and DSA devices
// (1000+id) keep separate gauges, and an id never seen reads zero.
TEST(CacheAcct, OwnerIdOccupancy)
{
    CacheModel c(smallCfg(64, 4, 2));
    c.cpuAccess(0, 2, false);
    c.fillSpan(cacheLineSize, 3 * cacheLineSize, 1003);
    EXPECT_EQ(c.occupancyBytes(2), cacheLineSize);
    EXPECT_EQ(c.occupancyBytes(1003), 3 * cacheLineSize);
    EXPECT_EQ(c.occupancyBytes(1000), 0u);
    EXPECT_EQ(c.occupancyBytes(5000), 0u);
    EXPECT_EQ(c.occupancyBytes(-1), 0u);
    // A hit moves the line to its latest toucher.
    c.cpuAccess(cacheLineSize, 0, false);
    EXPECT_EQ(c.occupancyBytes(0), cacheLineSize);
    EXPECT_EQ(c.occupancyBytes(1003), 2 * cacheLineSize);
}

TEST(CacheAcctDeathTest, NegativeOwnerPanics)
{
    CacheModel c(smallCfg(64, 4, 2));
    EXPECT_DEATH(c.cpuAccess(0, -1, false), "negative cache owner");
    EXPECT_DEATH(c.fillSpan(0, cacheLineSize, -7),
                 "negative cache owner");
}

} // namespace
} // namespace dsasim
