/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * Production systems meet corrupt inputs, lost and reordered
 * messages, stuck threads and allocation failures; a system that is
 * only ever exercised on clean traffic has untested recovery paths.
 * The injector lets tests and benches schedule those faults
 * *deterministically*: every injection decision is a pure function of
 * (seed, site, opportunity index), so two runs with the same plan and
 * the same submission order inject the identical fault schedule - the
 * property tests/fault_injection_test.cc asserts and the
 * ext_fault_resilience bench relies on for reproducible tables.
 *
 * Cost model: components hold a FaultInjector pointer that is null
 * unless a plan arms a site (mirroring the telemetry pattern), so an
 * unarmed run pays one null test per injection point, and a site that
 * is not armed is one predictable branch per opportunity.
 */

#ifndef HOTPATH_SUPPORT_FAULT_INJECTOR_HH
#define HOTPATH_SUPPORT_FAULT_INJECTOR_HH

#include <array>
#include <atomic>
#include <cstdint>

/** Namespace-level documentation lives with the basal headers. */
namespace hotpath
{

/** Deterministic fault injection (see fault_injector.hh). */
namespace fault
{

/** Where a fault can be injected. */
enum class Site : std::size_t
{
    /** Flip one bit of an encoded wire frame. */
    WireBitFlip = 0,
    /** Truncate an encoded wire frame. */
    WireTruncate,
    /** Silently discard a submitted frame (lost datagram). */
    FrameDrop,
    /** Defer a submitted frame, delivering it out of order later. */
    FrameDelay,
    /** Park a worker thread until the watchdog releases it. */
    WorkerStall,
    /** Fail a resource allocation (session creation). */
    AllocFail,
    /** Split a socket write so only a prefix is delivered at once. */
    SockPartialWrite,
    /** Reset (abruptly close) an established connection. */
    ConnReset,
    /** Fail an accept(2) on the listening socket. */
    AcceptFail,
};

/** Number of distinct injection sites. */
constexpr std::size_t kSiteCount = 9;

/** Stable lower-case site name for tables and metrics. */
const char *siteName(Site site);

/** When one site fires. Probability and schedule compose: the site
 *  fires when either rule says so. */
struct SitePlan
{
    /** Per-opportunity injection probability in [0, 1]. */
    double probability = 0.0;

    /** Fire on every Nth opportunity (1-based; 0 = off). */
    std::uint64_t everyN = 0;

    /** True when this site can ever fire. */
    bool
    armed() const
    {
        return probability > 0.0 || everyN != 0;
    }
};

/** A full injection schedule: one plan per site plus the seed that
 *  makes the probabilistic draws reproducible. */
struct FaultPlan
{
    /** Seed for the per-opportunity hash draws. */
    std::uint64_t seed = 0;

    /** Per-site plans, indexed by Site. */
    std::array<SitePlan, kSiteCount> sites{};

    /** Mutable access to one site's plan. */
    SitePlan &
    site(Site s)
    {
        return sites[static_cast<std::size_t>(s)];
    }

    /** Read access to one site's plan. */
    const SitePlan &
    site(Site s) const
    {
        return sites[static_cast<std::size_t>(s)];
    }

    /** True when any site is armed. */
    bool enabled() const;
};

/** One site's lifetime accounting. */
struct SiteCounters
{
    /** Times the site was consulted. */
    std::uint64_t opportunities = 0;

    /** Times it fired. */
    std::uint64_t injected = 0;
};

/**
 * The seeded injector; see the file comment for the determinism
 * contract. Thread-safe: opportunity counters are atomics, so
 * concurrent sites interleave safely - though the *schedule* is only
 * reproducible when a site's opportunities arrive in a deterministic
 * order (single-producer submission, as the resilience bench runs).
 */
class FaultInjector
{
  public:
    /** Build an injector executing `plan`. */
    explicit FaultInjector(FaultPlan plan);

    /** The plan this injector executes. */
    const FaultPlan &plan() const { return cfg; }

    /** True when `site` can ever fire (cheap pre-check so call
     *  sites skip the atomic on unarmed sites). */
    bool
    armed(Site site) const
    {
        return cfg.site(site).armed();
    }

    /**
     * Consult the site: advances its opportunity counter and returns
     * true when this opportunity injects. When it fires and `aux` is
     * non-null, *aux receives a deterministic 64-bit value derived
     * from the same (seed, site, opportunity) - use it to pick a
     * corruption position so the damage is reproducible too.
     */
    bool shouldInject(Site site, std::uint64_t *aux = nullptr);

    /** One site's accounting so far. */
    SiteCounters counters(Site site) const;

    /** Total injections across all sites. */
    std::uint64_t totalInjected() const;

  private:
    struct SiteState
    {
        std::atomic<std::uint64_t> opportunities{0};
        std::atomic<std::uint64_t> injected{0};
    };

    FaultPlan cfg;
    std::array<SiteState, kSiteCount> state;
};

} // namespace fault
} // namespace hotpath

#endif // HOTPATH_SUPPORT_FAULT_INJECTOR_HH
