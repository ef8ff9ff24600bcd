#include "dsa/qos.hh"

#include <algorithm>

#include "sim/stats.hh"

namespace dsasim
{

const char *
qosClassName(QosClass c)
{
    switch (c) {
      case QosClass::Guaranteed: return "guaranteed";
      case QosClass::Standard: return "standard";
      case QosClass::Opportunistic: return "opportunistic";
    }
    return "?";
}

WqAdmission::Entry &
WqAdmission::entryFor(Pasid tenant, Tick now)
{
    auto [it, inserted] = tenants.try_emplace(tenant);
    if (inserted) {
        it->second.cls = cfg.defaultClass;
        if (cfg.bucket.ratePerSec > 0) {
            it->second.bucket = TokenBucket(cfg.bucket, now);
            it->second.hasBucket = true;
        }
    }
    return it->second;
}

void
WqAdmission::setClass(Pasid tenant, QosClass c)
{
    entryFor(tenant, 0).cls = c;
}

void
WqAdmission::setBucket(Pasid tenant, TokenBucket::Config c)
{
    Entry &e = entryFor(tenant, 0);
    e.bucket = TokenBucket(c, 0);
    e.hasBucket = c.ratePerSec > 0;
}

std::size_t
WqAdmission::classLimit(QosClass c, std::size_t threshold) const
{
    double frac = 1.0;
    switch (c) {
      case QosClass::Guaranteed:
        return threshold;
      case QosClass::Standard:
        frac = cfg.standardFraction;
        break;
      case QosClass::Opportunistic:
        frac = cfg.opportunisticFraction;
        break;
    }
    auto limit = static_cast<std::size_t>(
        static_cast<double>(threshold) * frac);
    return std::max<std::size_t>(1, std::min(limit, threshold));
}

WqAdmission::Verdict
WqAdmission::admit(Pasid tenant, Tick now, std::size_t occupancy,
                   std::size_t threshold)
{
    Entry &e = entryFor(tenant, now);
    if (occupancy >= classLimit(e.cls, threshold)) {
        ++e.stats.busy;
        ++totalBusy;
        return Verdict::Busy;
    }
    if (e.hasBucket && !e.bucket.tryTake(now)) {
        ++e.stats.throttled;
        ++totalThrottled;
        return Verdict::Throttle;
    }
    ++e.stats.admitted;
    ++totalAdmitted;
    return Verdict::Admit;
}

void
WqAdmission::registerStats(stats::Registry &reg,
                           const std::string &prefix) const
{
    // Submissions passed to the portal, bounced by a tenant token
    // bucket, or bounced at a class occupancy limit.
    reg.counter(prefix + "admitted", [this] { return totalAdmitted; });
    reg.counter(prefix + "throttled",
                [this] { return totalThrottled; });
    reg.counter(prefix + "busy", [this] { return totalBusy; });
}

const WqAdmission::TenantStats &
WqAdmission::stats(Pasid tenant) const
{
    static const TenantStats zero;
    auto it = tenants.find(tenant);
    return it == tenants.end() ? zero : it->second.stats;
}

} // namespace dsasim
