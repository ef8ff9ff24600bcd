/**
 * @file
 * Shared last-level cache model with a DDIO way partition.
 *
 * A set-associative directory (tags only — data lives in the
 * PhysicalMemory backing store) with per-owner occupancy accounting,
 * mirroring what Intel's pqos/CMT exposes and what the paper uses for
 * its Fig. 12 occupancy plots.
 *
 * The DDIO mechanism is modeled the way the paper describes it
 * (§4.5, §6.2): CPU demand fills may allocate in any way; I/O-device
 * writes with the cache-control hint set may only allocate within the
 * first `ddioWays` ways of each set, and device reads never allocate.
 * This single rule produces both the cache-pollution immunity
 * (Fig. 12/13) and the "leaky DMA" throughput cliff (Fig. 10).
 *
 * The directory is a structure of arrays (DESIGN.md §13): per-line
 * tags, LRU stamps and owners in three `sets × ways` row-major arrays,
 * and per set a presence mask plus a dirty mask. The presence mask is
 * the only validity record, so every tag match walks the mask bits
 * over one contiguous tag row, and the arrays are never zeroed — an
 * entry whose mask bit is clear is never read. Construction and
 * restoreState() cost O(sets + valid lines), not O(capacity).
 *
 * Device-side streaming traffic uses the span API (probeSpan /
 * fillSpan / evictSpan / flushSpan): one call covers every line a
 * physically contiguous run touches and returns aggregate byte
 * counts, so the engine timing walk charges per chunk instead of per
 * line. The batched implementation is tick-equivalent by
 * construction to the line-at-a-time scalar ops — it walks the same
 * lines in the same (ascending-address) order, makes the identical
 * victim choice per set, and assigns the same LRU clock values — and
 * the scalar loop stays alive behind `DSASIM_CACHE_ACCT=line` as the
 * oracle a differential harness checks it against; a mask-free
 * reference model in the tests checks both (DESIGN.md §13).
 */

#ifndef DSASIM_MEM_CACHE_HH
#define DSASIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/types.hh"

namespace dsasim
{

class CacheModel
{
  public:
    struct Config
    {
        std::uint64_t sizeBytes = 105ull << 20; ///< SPR: 105 MB LLC
        unsigned ways = 15;
        unsigned ddioWays = 2;

        bool operator==(const Config &) const = default;
    };

    struct AccessResult
    {
        bool hit = false;
        bool allocated = false;
        /** A valid line belonging to another owner was evicted. */
        bool evictedOther = false;
        /**
         * The evicted victim was dirty: the caller owes a writeback
         * to memory (the "leaky DMA" traffic of Fig. 10).
         */
        bool evictedDirty = false;
        /** PA of the dirty victim line (valid when evictedDirty). */
        Addr evictedPa = 0;
    };

    /**
     * Aggregate outcome of a span operation over the lines covering
     * [pa, pa+size) — exactly the sums the engine walk used to
     * accumulate line by line.
     */
    struct SpanResult
    {
        std::uint64_t hitBytes = 0;
        std::uint64_t missBytes = 0;
        /** Dirty-victim (fillSpan) or dirty-flushed (flushSpan)
         *  bytes owed to memory. */
        std::uint64_t writebackBytes = 0;
        /** PA of the last dirty victim (fillSpan, writebackBytes>0):
         *  the node the engine charges the aggregate writeback to. */
        Addr lastEvictedPa = 0;
    };

    /**
     * Accounting implementation. Batched is the default; Line keeps
     * the original line-at-a-time loops as the equivalence oracle.
     * Selected at construction from `DSASIM_CACHE_ACCT`
     * (unset/"batched" -> Batched, "line" -> Line) and overridable
     * per instance for differential tests.
     */
    enum class AcctMode { Batched, Line };

    explicit CacheModel(const Config &cfg);

    unsigned numWays() const { return config.ways; }
    unsigned numSets() const { return sets; }
    std::uint64_t sizeBytes() const { return config.sizeBytes; }

    AcctMode acctMode() const { return mode; }
    void setAcctMode(AcctMode m) { mode = m; }

    /**
     * CPU load/store. Allocates on miss (any way). @p owner feeds the
     * occupancy accounting; stores mark the line dirty.
     */
    AccessResult cpuAccess(Addr pa, int owner, bool is_write = false);

    /** Device read: hits are served from LLC; misses do not allocate. */
    AccessResult deviceRead(Addr pa);

    /**
     * Device write. With @p alloc_hint (cache-control flag = 1) the
     * line allocates within the DDIO ways; otherwise any present copy
     * is invalidated and the write targets memory.
     */
    AccessResult deviceWrite(Addr pa, int owner, bool alloc_hint);

    /// @name Span operations (device-side streaming, DESIGN.md §13).
    /// Each covers every line overlapping [pa, pa+size) in ascending
    /// address order and is state-identical to the matching scalar
    /// op applied per line.
    /// @{

    /** Device read classification: deviceRead() per line. */
    SpanResult probeSpan(Addr pa, std::uint64_t size);

    /** DDIO allocating write: deviceWrite(alloc_hint=true) per line. */
    SpanResult fillSpan(Addr pa, std::uint64_t size, int owner);

    /**
     * Non-allocating device write: invalidates any present copies
     * (deviceWrite(alloc_hint=false) per line). Dropped dirty copies
     * are not reported — the device write itself updates memory.
     */
    SpanResult evictSpan(Addr pa, std::uint64_t size);

    /** clflush: flushLine() per line, dirty bytes in writebackBytes. */
    SpanResult flushSpan(Addr pa, std::uint64_t size);
    /// @}

    /** True if the line holding @p pa is present (no state change). */
    bool probe(Addr pa) const;

    /** Invalidate the line holding @p pa, if present. */
    void invalidate(Addr pa);

    /**
     * clflush-style invalidate: returns true when the line was
     * present *and dirty* (the caller owes a memory writeback).
     */
    bool flushLine(Addr pa);

    /** Invalidate every line overlapping [addr, addr+size). */
    void flushRange(Addr addr, std::uint64_t size);

    /** Drop every valid line (test scaffolding between iterations). */
    void invalidateAll();

    /** Bytes currently occupied by lines allocated by @p owner. */
    std::uint64_t
    occupancyBytes(int owner) const
    {
        const auto i = static_cast<std::size_t>(owner);
        return owner >= 0 && i < ownerLines.size()
            ? ownerLines[i] * cacheLineSize
            : 0;
    }

    /** Bytes currently valid across all owners. */
    std::uint64_t
    totalOccupancyBytes() const
    {
        return validLines * cacheLineSize;
    }

    /** Capacity of the DDIO partition in bytes. */
    std::uint64_t
    ddioCapacityBytes() const
    {
        return static_cast<std::uint64_t>(sets) * config.ddioWays *
               cacheLineSize;
    }

    /// @name Cumulative traffic tallies (telemetry, DESIGN.md §15).
    /// Identical in Batched and Line accounting modes: scalar ops
    /// tally themselves, batched span bodies tally their aggregate
    /// result (the Line-mode span loops route through the scalar
    /// ops). MemSystem exposes these as llc.* registry counters.
    /// @{
    std::uint64_t hitBytesTotal() const { return hitBytesTally; }
    std::uint64_t missBytesTotal() const { return missBytesTally; }
    std::uint64_t
    writebackBytesTotal() const
    {
        return writebackBytesTally;
    }
    /// @}

    /**
     * One directory line as a checkpoint record; public only for
     * Checkpointable::State. The live directory keeps these fields in
     * separate arrays and set masks.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t epoch = 0;
        int owner = 0;
        bool valid = false;
        bool dirty = false;
    };

    /**
     * Checkpointable (sim/checkpoint.hh): the currently-valid lines,
     * stored sparsely as (way index, line) pairs — O(occupied), not
     * O(capacity) — plus the LRU use clock they are ordered by.
     * Epoch-stale lines are not saved and restore as free ways, so
     * replacement decisions are unchanged. Set masks and occupancy
     * accounting are rebuilt from the lines.
     */
    struct State
    {
        std::vector<std::pair<std::uint64_t, Line>> validLines;
        std::uint64_t useClock = 0;
        std::uint64_t hitBytes = 0;
        std::uint64_t missBytes = 0;
        std::uint64_t writebackBytes = 0;
    };

    State saveState() const;
    void restoreState(const State &st);

  private:

    /**
     * Per-set presence and dirty bitmasks (bit w <=> way w holds a
     * valid / a valid dirty line), versioned by the flush epoch so
     * invalidateAll() stays O(1). A stale-epoch set holds no valid
     * lines, so normalization just zeroes both masks. The presence
     * mask is the only validity record: tags/lastUse/owners entries
     * whose bit is clear are garbage and never read. dirty is always
     * a subset of mask.
     */
    struct SetMeta
    {
        std::uint64_t mask = 0;
        std::uint64_t dirty = 0;
        std::uint64_t epoch = 0;
    };

    /** No way of the set holds the tag. */
    static constexpr unsigned noWay = ~0u;

    /** The set's masks, normalized to the current epoch. */
    SetMeta &
    metaFor(std::size_t set)
    {
        SetMeta &m = setMeta[set];
        if (m.epoch != flushEpoch)
            m = SetMeta{0, 0, flushEpoch};
        return m;
    }

    /** The set's presence mask under the current epoch (no update). */
    std::uint64_t
    maskOf(std::size_t set) const
    {
        const SetMeta &m = setMeta[set];
        return m.epoch == flushEpoch ? m.mask : 0;
    }

    /** Row-major index of way @p w of @p set in the line arrays. */
    std::size_t
    at(std::size_t set, unsigned w) const
    {
        return set * config.ways + w;
    }

    /** Way of @p set whose tag is @p tag among @p mask, or noWay. */
    unsigned findWay(std::size_t set, std::uint64_t mask,
                     std::uint64_t tag) const;
    /** Pick the LRU way in [way_lo, way_hi) of @p set. */
    unsigned victimWay(std::size_t set, std::uint64_t mask,
                       unsigned way_lo, unsigned way_hi) const;
    /** Install @p tag into way @p w of @p set, evicting its line. */
    void installLine(std::size_t set, unsigned w, std::uint64_t tag,
                     int owner, bool dirty, AccessResult &result);
    void dropLine(std::size_t set, unsigned w);
    /** Refresh a hit line's LRU stamp, dirty bit and owner. */
    void touchLine(std::size_t set, unsigned w, int owner, bool dirty);
    void countOwner(int owner);
    void uncountOwner(int owner);

    std::uint64_t setIndex(Addr pa) const { return (pa >> 6) % sets; }
    std::uint64_t tagOf(Addr pa) const { return pa >> 6; }

    Config config;
    unsigned sets;
    AcctMode mode;
    // sets * ways, row-major by set; allocated uninitialized.
    std::unique_ptr<std::uint64_t[]> tags;
    std::unique_ptr<std::uint64_t[]> lastUse;
    std::unique_ptr<int[]> owners;
    std::vector<SetMeta> setMeta;
    /** Valid lines per owner id (cores 0..N, devices 1000+id). */
    std::vector<std::uint64_t> ownerLines;
    std::uint64_t validLines = 0;
    std::uint64_t useClock = 0;
    std::uint64_t flushEpoch = 0;
    std::uint64_t hitBytesTally = 0;
    std::uint64_t missBytesTally = 0;
    std::uint64_t writebackBytesTally = 0;
};

} // namespace dsasim

#endif // DSASIM_MEM_CACHE_HH
