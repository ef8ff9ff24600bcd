#include "mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>

#include "sim/logging.hh"

namespace dsasim
{
namespace
{

CacheModel::AcctMode
acctModeFromEnv()
{
    const char *v = std::getenv("DSASIM_CACHE_ACCT");
    if (!v || v[0] == '\0' || std::string_view(v) == "batched")
        return CacheModel::AcctMode::Batched;
    fatal_if(std::string_view(v) != "line",
             "DSASIM_CACHE_ACCT must be 'batched' or 'line' (got "
             "'%s')", v);
    return CacheModel::AcctMode::Line;
}

} // namespace

CacheModel::CacheModel(const Config &cfg)
    : config(cfg), mode(acctModeFromEnv())
{
    fatal_if(cfg.ways == 0, "LLC must have at least one way");
    fatal_if(cfg.ways > 64,
             "LLC ways (%u) exceed the 64-bit set presence mask",
             cfg.ways);
    fatal_if(cfg.ddioWays > cfg.ways,
             "DDIO ways (%u) exceed total ways (%u)",
             cfg.ddioWays, cfg.ways);
    std::uint64_t line_count = cfg.sizeBytes / cacheLineSize;
    sets = static_cast<unsigned>(line_count / cfg.ways);
    fatal_if(sets == 0, "LLC too small for %u ways", cfg.ways);
    // Never zeroed: a clear presence bit means the entry is not read.
    const std::size_t n = static_cast<std::size_t>(sets) * cfg.ways;
    tags = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    lastUse = std::make_unique_for_overwrite<std::uint64_t[]>(n);
    owners = std::make_unique_for_overwrite<int[]>(n);
    setMeta.resize(sets);
}

unsigned
CacheModel::findWay(std::size_t set, std::uint64_t mask,
                    std::uint64_t tag) const
{
    const std::uint64_t *row = &tags[at(set, 0)];
    for (std::uint64_t m = mask; m; m &= m - 1) {
        const auto w = static_cast<unsigned>(std::countr_zero(m));
        if (row[w] == tag)
            return w;
    }
    return noWay;
}

/**
 * Prefer free ways from the top so CPU fills gravitate away from the
 * DDIO ways (0..ddioWays) while those are free — avoiding an
 * artificial placement pathology where demand lines keep landing in
 * the device-churned partition. With no free way, evict the LRU line
 * (use-clock values are unique, so the minimum is unambiguous).
 */
unsigned
CacheModel::victimWay(std::size_t set, std::uint64_t mask,
                      unsigned way_lo, unsigned way_hi) const
{
    const std::uint64_t hi_mask =
        way_hi >= 64 ? ~0ull : (1ull << way_hi) - 1;
    const std::uint64_t range = hi_mask & ~((1ull << way_lo) - 1);
    if (std::uint64_t free = ~mask & range)
        return 63 - static_cast<unsigned>(std::countl_zero(free));
    const std::uint64_t *row = &lastUse[at(set, 0)];
    unsigned best = way_lo;
    for (unsigned w = way_lo + 1; w < way_hi; ++w) {
        if (row[w] < row[best])
            best = w;
    }
    return best;
}

void
CacheModel::countOwner(int owner)
{
    panic_if(owner < 0, "negative cache owner id %d", owner);
    const auto i = static_cast<std::size_t>(owner);
    if (i >= ownerLines.size())
        ownerLines.resize(i + 1, 0);
    ++ownerLines[i];
}

void
CacheModel::uncountOwner(int owner)
{
    const auto i = static_cast<std::size_t>(owner);
    panic_if(i >= ownerLines.size() || ownerLines[i] == 0,
             "owner occupancy underflow (owner=%d)", owner);
    --ownerLines[i];
}

void
CacheModel::dropLine(std::size_t set, unsigned w)
{
    SetMeta &m = setMeta[set];
    const std::uint64_t bit = 1ull << w;
    m.mask &= ~bit;
    m.dirty &= ~bit;
    --validLines;
    uncountOwner(owners[at(set, w)]);
}

void
CacheModel::installLine(std::size_t set, unsigned w, std::uint64_t tag,
                        int owner, bool dirty, AccessResult &result)
{
    SetMeta &m = metaFor(set);
    const std::uint64_t bit = 1ull << w;
    const std::size_t i = at(set, w);
    if (m.mask & bit) {
        result.evictedOther = owners[i] != owner;
        result.evictedDirty = (m.dirty & bit) != 0;
        result.evictedPa = tags[i] << 6;
        dropLine(set, w);
    }
    tags[i] = tag;
    owners[i] = owner;
    lastUse[i] = ++useClock;
    m.mask |= bit;
    if (dirty)
        m.dirty |= bit;
    ++validLines;
    countOwner(owner);
    result.allocated = true;
}

void
CacheModel::touchLine(std::size_t set, unsigned w, int owner,
                      bool dirty)
{
    const std::size_t i = at(set, w);
    lastUse[i] = ++useClock;
    if (dirty)
        setMeta[set].dirty |= 1ull << w;
    // Occupancy follows the most recent toucher, as CMT's RMID
    // accounting effectively does for shared lines.
    if (owners[i] != owner) {
        uncountOwner(owners[i]);
        countOwner(owner);
        owners[i] = owner;
    }
}

CacheModel::AccessResult
CacheModel::cpuAccess(Addr pa, int owner, bool is_write)
{
    AccessResult result;
    const std::uint64_t tag = tagOf(pa);
    const std::size_t set = setIndex(pa);
    const std::uint64_t mask = metaFor(set).mask;
    if (unsigned w = findWay(set, mask, tag); w != noWay) {
        result.hit = true;
        hitBytesTally += cacheLineSize;
        touchLine(set, w, owner, is_write);
        return result;
    }
    missBytesTally += cacheLineSize;
    installLine(set, victimWay(set, mask, 0, config.ways), tag, owner,
                is_write, result);
    if (result.evictedDirty)
        writebackBytesTally += cacheLineSize;
    return result;
}

CacheModel::AccessResult
CacheModel::deviceRead(Addr pa)
{
    AccessResult result;
    const std::size_t set = setIndex(pa);
    if (unsigned w = findWay(set, maskOf(set), tagOf(pa)); w != noWay) {
        result.hit = true;
        hitBytesTally += cacheLineSize;
        lastUse[at(set, w)] = ++useClock;
    } else {
        missBytesTally += cacheLineSize;
    }
    return result;
}

CacheModel::AccessResult
CacheModel::deviceWrite(Addr pa, int owner, bool alloc_hint)
{
    AccessResult result;
    const std::uint64_t tag = tagOf(pa);
    const std::size_t set = setIndex(pa);
    const std::uint64_t mask = metaFor(set).mask;
    const unsigned w = findWay(set, mask, tag);
    if (!alloc_hint) {
        // Non-allocating write: update memory, invalidate any copy.
        if (w != noWay)
            dropLine(set, w);
        return result;
    }
    if (w != noWay) {
        result.hit = true;
        hitBytesTally += cacheLineSize;
        touchLine(set, w, owner, true);
        return result;
    }
    // DDIO-style allocating write: restricted to the DDIO ways.
    missBytesTally += cacheLineSize;
    unsigned hi = config.ddioWays > 0 ? config.ddioWays : config.ways;
    installLine(set, victimWay(set, mask, 0, hi), tag, owner, true,
                result);
    if (result.evictedDirty)
        writebackBytesTally += cacheLineSize;
    return result;
}

CacheModel::SpanResult
CacheModel::probeSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    if (size == 0)
        return r;
    if (mode == AcctMode::Line) {
        for (Addr a = lineAlignDown(pa); a < lineAlignUp(pa + size);
             a += cacheLineSize) {
            if (deviceRead(a).hit)
                r.hitBytes += cacheLineSize;
            else
                r.missBytes += cacheLineSize;
        }
        return r;
    }
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        const unsigned w = findWay(set, maskOf(set), tag);
        if (w != noWay) {
            lastUse[at(set, w)] = ++useClock;
            r.hitBytes += cacheLineSize;
        } else {
            r.missBytes += cacheLineSize;
        }
        if (++set == sets)
            set = 0;
    }
    hitBytesTally += r.hitBytes;
    missBytesTally += r.missBytes;
    return r;
}

CacheModel::SpanResult
CacheModel::fillSpan(Addr pa, std::uint64_t size, int owner)
{
    SpanResult r;
    if (size == 0)
        return r;
    if (mode == AcctMode::Line) {
        for (Addr a = lineAlignDown(pa); a < lineAlignUp(pa + size);
             a += cacheLineSize) {
            AccessResult res = deviceWrite(a, owner, true);
            if (res.hit)
                r.hitBytes += cacheLineSize;
            else
                r.missBytes += cacheLineSize;
            if (res.evictedDirty) {
                r.writebackBytes += cacheLineSize;
                r.lastEvictedPa = res.evictedPa;
            }
        }
        return r;
    }
    const unsigned hi =
        config.ddioWays > 0 ? config.ddioWays : config.ways;
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        const std::uint64_t mask = metaFor(set).mask;
        if (unsigned w = findWay(set, mask, tag); w != noWay) {
            r.hitBytes += cacheLineSize;
            touchLine(set, w, owner, true);
        } else {
            r.missBytes += cacheLineSize;
            AccessResult res;
            installLine(set, victimWay(set, mask, 0, hi), tag, owner,
                        true, res);
            if (res.evictedDirty) {
                r.writebackBytes += cacheLineSize;
                r.lastEvictedPa = res.evictedPa;
            }
        }
        if (++set == sets)
            set = 0;
    }
    hitBytesTally += r.hitBytes;
    missBytesTally += r.missBytes;
    writebackBytesTally += r.writebackBytes;
    return r;
}

CacheModel::SpanResult
CacheModel::evictSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    if (size == 0)
        return r;
    if (mode == AcctMode::Line) {
        for (Addr a = lineAlignDown(pa); a < lineAlignUp(pa + size);
             a += cacheLineSize)
            invalidate(a);
        return r;
    }
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        if (unsigned w = findWay(set, maskOf(set), tag); w != noWay)
            dropLine(set, w);
        if (++set == sets)
            set = 0;
    }
    return r;
}

CacheModel::SpanResult
CacheModel::flushSpan(Addr pa, std::uint64_t size)
{
    SpanResult r;
    if (size == 0)
        return r;
    if (mode == AcctMode::Line) {
        for (Addr a = lineAlignDown(pa); a < lineAlignUp(pa + size);
             a += cacheLineSize) {
            if (flushLine(a))
                r.writebackBytes += cacheLineSize;
        }
        return r;
    }
    const std::uint64_t n = linesCovered(pa, size);
    std::uint64_t tag = tagOf(pa);
    std::size_t set = static_cast<std::size_t>(tag % sets);
    for (std::uint64_t i = 0; i < n; ++i, ++tag) {
        if (unsigned w = findWay(set, maskOf(set), tag); w != noWay) {
            if (setMeta[set].dirty & (1ull << w))
                r.writebackBytes += cacheLineSize;
            dropLine(set, w);
        }
        if (++set == sets)
            set = 0;
    }
    writebackBytesTally += r.writebackBytes;
    return r;
}

bool
CacheModel::probe(Addr pa) const
{
    const std::size_t set = setIndex(pa);
    return findWay(set, maskOf(set), tagOf(pa)) != noWay;
}

void
CacheModel::invalidate(Addr pa)
{
    const std::size_t set = setIndex(pa);
    if (unsigned w = findWay(set, maskOf(set), tagOf(pa)); w != noWay)
        dropLine(set, w);
}

bool
CacheModel::flushLine(Addr pa)
{
    const std::size_t set = setIndex(pa);
    const unsigned w = findWay(set, maskOf(set), tagOf(pa));
    if (w == noWay)
        return false;
    const bool was_dirty = setMeta[set].dirty & (1ull << w);
    if (was_dirty)
        writebackBytesTally += cacheLineSize;
    dropLine(set, w);
    return was_dirty;
}

void
CacheModel::flushRange(Addr addr, std::uint64_t size)
{
    evictSpan(addr, size);
}

void
CacheModel::invalidateAll()
{
    // Epoch bump: every set's masks go stale in O(1).
    ++flushEpoch;
    validLines = 0;
    ownerLines.clear();
}

CacheModel::State
CacheModel::saveState() const
{
    State st;
    st.useClock = useClock;
    st.hitBytes = hitBytesTally;
    st.missBytes = missBytesTally;
    st.writebackBytes = writebackBytesTally;
    st.validLines.reserve(validLines);
    for (std::size_t set = 0; set < sets; ++set) {
        const std::uint64_t mask = maskOf(set);
        for (std::uint64_t m = mask; m; m &= m - 1) {
            const auto w = static_cast<unsigned>(std::countr_zero(m));
            const std::size_t i = at(set, w);
            Line l;
            l.tag = tags[i];
            l.lastUse = lastUse[i];
            l.epoch = flushEpoch;
            l.owner = owners[i];
            l.valid = true;
            l.dirty = (setMeta[set].dirty & (1ull << w)) != 0;
            st.validLines.emplace_back(i, l);
        }
    }
    return st;
}

void
CacheModel::restoreState(const State &st)
{
    std::fill(setMeta.begin(), setMeta.end(), SetMeta{});
    ownerLines.clear();
    flushEpoch = 0;
    useClock = st.useClock;
    hitBytesTally = st.hitBytes;
    missBytesTally = st.missBytes;
    writebackBytesTally = st.writebackBytes;
    validLines = st.validLines.size();
    const std::uint64_t capacity =
        static_cast<std::uint64_t>(sets) * config.ways;
    for (const auto &[idx, saved] : st.validLines) {
        panic_if(idx >= capacity,
                 "CacheModel::restoreState: line index %llu out of "
                 "range — geometry mismatch with snapshot",
                 static_cast<unsigned long long>(idx));
        const auto i = static_cast<std::size_t>(idx);
        tags[i] = saved.tag;
        lastUse[i] = saved.lastUse;
        owners[i] = saved.owner;
        SetMeta &m = setMeta[i / config.ways];
        const std::uint64_t bit = 1ull << (i % config.ways);
        m.mask |= bit;
        if (saved.dirty)
            m.dirty |= bit;
        countOwner(saved.owner);
    }
}

} // namespace dsasim
