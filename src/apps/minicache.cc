#include "apps/minicache.hh"

#include "sim/logging.hh"

namespace dsasim::apps
{

MiniCache::MiniCache(Platform &p, AddressSpace &space, Dto &dto,
                     const Config &cfg)
    : MiniCache(p, space, dto, cfg,
                p.sim().stats().scope("minicache") + ".")
{}

MiniCache::MiniCache(Platform &p, AddressSpace &space, Dto &dto,
                     const Config &cfg, const std::string &scope)
    : plat(p), as(space), dtoLib(dto), config(cfg),
      getOpsCtr(p.sim().stats().counter(scope + "lookups")),
      getHitsCtr(p.sim().stats().counter(scope + "hits")),
      setOpsCtr(p.sim().stats().counter(scope + "sets")),
      // Value bytes moved through DTO by get() and set().
      copiedBytesCtr(p.sim().stats().counter(scope + "bytes_copied"))
{
    fatal_if(config.sizeClasses.empty(), "no slab size classes");
    freelists.resize(config.sizeClasses.size());
}

std::uint32_t
MiniCache::classFor(std::uint64_t len) const
{
    for (std::uint32_t c = 0; c < config.sizeClasses.size(); ++c) {
        if (len <= config.sizeClasses[c])
            return c;
    }
    fatal("value of %llu bytes exceeds the largest slab class",
          static_cast<unsigned long long>(len));
}

Addr
MiniCache::allocSlab(std::uint32_t cls)
{
    auto &fl = freelists[cls];
    if (!fl.empty()) {
        Addr a = fl.back();
        fl.pop_back();
        return a;
    }
    return as.alloc(config.sizeClasses[cls]);
}

void
MiniCache::freeSlab(std::uint32_t cls, Addr a)
{
    freelists[cls].push_back(a);
}

void
MiniCache::evictOne()
{
    while (fifoHead < fifo.size()) {
        std::uint64_t victim = fifo[fifoHead++];
        auto it = index.find(victim);
        if (it == index.end())
            continue; // overwritten since queued
        usedBytes -= config.sizeClasses[it->second.slabClass];
        freeSlab(it->second.slabClass, it->second.addr);
        index.erase(it);
        ++evicted;
        return;
    }
}

CoTask
MiniCache::get(Core &core, std::uint64_t key, Addr out_buf,
               std::uint64_t &value_len, bool &hit)
{
    getOpsCtr.inc();
    co_await core.busyFor(
        core.cpuParams().cyclesToTicks(config.indexCyclesPerOp),
        "cache-index");
    auto it = index.find(key);
    if (it == index.end()) {
        hit = false;
        value_len = 0;
        co_return;
    }
    hit = true;
    getHitsCtr.inc();
    value_len = it->second.len;
    copiedBytesCtr.add(it->second.len);
    co_await dtoLib.memcpyCall(core, as, out_buf, it->second.addr,
                               it->second.len);
}

CoTask
MiniCache::set(Core &core, std::uint64_t key, Addr src_buf,
               std::uint64_t len)
{
    setOpsCtr.inc();
    copiedBytesCtr.add(len);
    co_await core.busyFor(
        core.cpuParams().cyclesToTicks(config.indexCyclesPerOp),
        "cache-index");
    std::uint32_t cls = classFor(len);
    auto it = index.find(key);
    if (it != index.end()) {
        if (it->second.slabClass != cls) {
            usedBytes -= config.sizeClasses[it->second.slabClass];
            freeSlab(it->second.slabClass, it->second.addr);
            it->second.addr = allocSlab(cls);
            it->second.slabClass = cls;
            usedBytes += config.sizeClasses[cls];
        }
        it->second.len = static_cast<std::uint32_t>(len);
    } else {
        while (usedBytes + config.sizeClasses[cls] >
               config.capacityBytes)
            evictOne();
        Item item;
        item.addr = allocSlab(cls);
        item.len = static_cast<std::uint32_t>(len);
        item.slabClass = cls;
        usedBytes += config.sizeClasses[cls];
        index.emplace(key, item);
        fifo.push_back(key);
    }
    co_await dtoLib.memcpyCall(core, as, index[key].addr, src_buf,
                               len);
}

} // namespace dsasim::apps
