/**
 * @file
 * Per-instance serving stats that also feed the attached registry.
 *
 * Every serving component (engine, session table, server, router,
 * controller) reports its own numbers through a `*Stats` struct, and
 * the attached MetricRegistry reports the same quantities as named
 * instruments. A Stat keeps both behind one member and one bump
 * site: a relaxed atomic owned by the instance, plus the registry
 * instrument of the same name when a registry was attached at
 * construction. Each add() or set() is one relaxed atomic op and one
 * null test, exactly like a guarded instrument alone.
 *
 * The two copies mean different things once a process runs several
 * components of one kind. get() is this instance's own value; the
 * registry is process-wide, so a counter instrument (and a gauge
 * driven by add()) reads the sum over every instance bumping that
 * name, while a gauge driven by set() shows whichever instance
 * published last.
 *
 * A Stat built without a name has no instrument; attach() gives it
 * one later, which is how conditionally registered instruments work.
 * Attach before any other thread can bump the stat.
 */

#ifndef HOTPATH_TELEMETRY_STAT_HH
#define HOTPATH_TELEMETRY_STAT_HH

#include <atomic>
#include <cstdint>
#include <string_view>
#include <type_traits>

#include "telemetry/telemetry.hh"

namespace hotpath::telemetry
{

/** A per-instance value mirrored into the registry instrument of the
 *  same name (Counter or Gauge); see the file comment. */
template <typename Instrument>
class Stat
{
  public:
    /** uint64 for counters, int64 for gauges (the instrument's). */
    using Value = std::conditional_t<std::is_same_v<Instrument, Gauge>,
                                     std::int64_t, std::uint64_t>;

    /** A stat with no instrument (see attach()). */
    Stat() = default;

    /** A stat mirrored into the instrument `name` of the attached
     *  registry (none when no registry is attached). */
    explicit Stat(std::string_view name) { attach(name); }

    /** Mirror into the instrument `name` from now on. */
    void
    attach(std::string_view name)
    {
        if constexpr (std::is_same_v<Instrument, Gauge>)
            mirror = gauge(name);
        else
            mirror = counter(name);
    }

    /** Add `delta` to this instance and to the instrument. */
    void
    add(Value delta = 1) noexcept
    {
        value.fetch_add(delta, std::memory_order_relaxed);
        if (mirror)
            mirror->add(delta);
    }

    /** Gauges only: replace the level. */
    void
    set(Value v) noexcept
        requires std::is_same_v<Instrument, Gauge>
    {
        value.store(v, std::memory_order_relaxed);
        if (mirror)
            mirror->set(v);
    }

    /** This instance's value. */
    Value
    get() const noexcept
    {
        return value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<Value> value{0};
    Instrument *mirror = nullptr;
};

/** Monotonic per-instance count. */
using CounterStat = Stat<Counter>;
/** Per-instance level (open connections, live sessions). */
using GaugeStat = Stat<Gauge>;

} // namespace hotpath::telemetry

#endif // HOTPATH_TELEMETRY_STAT_HH
