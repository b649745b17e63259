#include "support/fault_injector.hh"

namespace hotpath
{
namespace fault
{

const char *
siteName(Site site)
{
    switch (site) {
    case Site::WireBitFlip:
        return "bitflip";
    case Site::WireTruncate:
        return "truncate";
    case Site::FrameDrop:
        return "drop";
    case Site::FrameDelay:
        return "delay";
    case Site::WorkerStall:
        return "stall";
    case Site::AllocFail:
        return "allocfail";
    case Site::SockPartialWrite:
        return "partialwrite";
    case Site::ConnReset:
        return "connreset";
    case Site::AcceptFail:
        return "acceptfail";
    }
    return "unknown";
}

bool
FaultPlan::enabled() const
{
    for (const SitePlan &plan : sites) {
        if (plan.armed())
            return true;
    }
    return false;
}

FaultInjector::FaultInjector(FaultPlan plan) : cfg(plan) {}

namespace
{

// Distinct per-site key streams so arming one site never perturbs
// another site's draw sequence. Any odd constants work; these are
// splitmix-style increments.
constexpr std::uint64_t kSiteKey[kSiteCount] = {
    0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull, 0x94d049bb133111ebull,
    0xd6e8feb86659fd93ull, 0xa0761d6478bd642full, 0xe7037ed1a0b428dbull,
    0x8ebc6af09c88c6e3ull, 0x589965cc75374cc3ull, 0x1d8e4e27c47d124full,
};

// SplitMix64 finalizer: a strong 64-bit bijective mixer.
std::uint64_t
mixBits(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
draw(std::uint64_t seed, Site site, std::uint64_t opportunity)
{
    const std::uint64_t key = kSiteKey[static_cast<std::size_t>(site)];
    return mixBits(seed ^ key ^ (opportunity * 0x2545f4914f6cdd1dull));
}

} // namespace

bool
FaultInjector::shouldInject(Site site, std::uint64_t *aux)
{
    const SitePlan &plan = cfg.site(site);
    if (!plan.armed())
        return false;

    SiteState &st = state[static_cast<std::size_t>(site)];
    const std::uint64_t n =
        st.opportunities.fetch_add(1, std::memory_order_relaxed);

    bool fire = false;
    if (plan.everyN != 0 && (n + 1) % plan.everyN == 0)
        fire = true;
    if (!fire && plan.probability > 0.0) {
        const std::uint64_t h = draw(cfg.seed, site, n);
        // Top 53 bits -> uniform double in [0, 1).
        const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
        fire = u < plan.probability;
    }
    if (!fire)
        return false;

    st.injected.fetch_add(1, std::memory_order_relaxed);
    if (aux != nullptr)
        *aux = draw(cfg.seed ^ 0x5851f42d4c957f2dull, site, n);
    return true;
}

SiteCounters
FaultInjector::counters(Site site) const
{
    const SiteState &st = state[static_cast<std::size_t>(site)];
    SiteCounters out;
    out.opportunities = st.opportunities.load(std::memory_order_relaxed);
    out.injected = st.injected.load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::uint64_t total = 0;
    for (const SiteState &st : state)
        total += st.injected.load(std::memory_order_relaxed);
    return total;
}

} // namespace fault
} // namespace hotpath
