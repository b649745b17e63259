#include "dynamo/code_cache.hh"

#include <algorithm>

#include "support/logging.hh"
#include "telemetry/telemetry.hh"

namespace hotpath
{

const char *
cachePolicyName(CachePolicy policy)
{
    switch (policy) {
      case CachePolicy::FlushAll:
        return "flush-all";
      case CachePolicy::EvictLru:
        return "lru";
      case CachePolicy::EvictFifo:
        return "fifo";
      case CachePolicy::Generational:
        return "generational";
    }
    return "?";
}

const char *
evictReasonName(EvictReason reason)
{
    switch (reason) {
      case EvictReason::Capacity:
        return "capacity";
      case EvictReason::Generation:
        return "generation";
      case EvictReason::Flush:
        return "flush";
    }
    return "?";
}

CodeCache::CodeCache(CodeCacheConfig config)
    : cfg(config), stampOnUse(config.policy == CachePolicy::FlushAll ||
                              config.policy == CachePolicy::EvictLru)
{
    HOTPATH_ASSERT(cfg.bytesPerInstr > 0, "degenerate code geometry");
    HOTPATH_ASSERT(cfg.generationInserts > 0,
                   "generation granularity must be >= 1");
    tmHits = telemetry::counter("dynamo.cache.hits");
    tmMisses = telemetry::counter("dynamo.cache.misses");
    tmInserts = telemetry::counter("dynamo.cache.inserts");
    tmFlushes = telemetry::counter("dynamo.cache.flushes");
    tmLinksMade = telemetry::counter("dynamo.cache.links.made");
    tmLinksBroken = telemetry::counter("dynamo.cache.links.broken");
    for (std::size_t r = 0; r < kEvictReasonCount; ++r) {
        tmEvictions[r] = telemetry::counter(
            std::string("dynamo.cache.evictions.") +
            evictReasonName(static_cast<EvictReason>(r)));
    }
    tmDispatchLinked =
        telemetry::counter("dynamo.cache.dispatch.linked");
    tmDispatchUnlinked =
        telemetry::counter("dynamo.cache.dispatch.unlinked");
    tmResidentBytes = telemetry::gauge("dynamo.cache.resident.bytes");
    tmResidentFragments =
        telemetry::gauge("dynamo.cache.resident.fragments");
    tmFragmentBytes =
        telemetry::histogram("dynamo.cache.fragment.bytes");
}

CodeCache::~CodeCache()
{
    if (tmResidentBytes)
        tmResidentBytes->add(-publishedBytes);
    if (tmResidentFragments)
        tmResidentFragments->add(-publishedFragments);
}

void
CodeCache::publishGauges()
{
    const auto bytes = static_cast<std::int64_t>(occupancy);
    const auto count = static_cast<std::int64_t>(fragments.size());
    if (tmResidentBytes)
        tmResidentBytes->add(bytes - publishedBytes);
    if (tmResidentFragments)
        tmResidentFragments->add(count - publishedFragments);
    publishedBytes = bytes;
    publishedFragments = count;
}

std::uint64_t
CodeCache::bytesOf(const CodeFragment &fragment) const
{
    std::uint64_t bytes =
        static_cast<std::uint64_t>(fragment.instructions) *
        cfg.bytesPerInstr;
    const auto it = links.find(fragment.key);
    if (it != links.end())
        bytes += it->second.stubs.size() * cfg.stubBytes;
    return bytes;
}

void
CodeCache::patchStub(std::uint32_t from, FragmentLinks &from_links,
                     std::size_t stub_index, std::uint32_t to)
{
    ExitStub &stub = from_links.stubs[stub_index];
    HOTPATH_ASSERT(!stub.linked, "stub already patched");
    HOTPATH_ASSERT(stub.target == to, "stub/target mismatch");
    stub.linked = true;
    links[to].inbound.push_back(from);
    ++linkMade;
    if (tmLinksMade)
        tmLinksMade->add(1);
}

void
CodeCache::evictVictims(std::uint64_t incoming_bytes,
                        InsertStats &stats)
{
    while (!fragments.empty() &&
           occupancy + incoming_bytes > cfg.capacityBytes) {
        auto victim = fragments.begin();
        for (auto it = fragments.begin(); it != fragments.end();
             ++it) {
            if (it->second.stamp < victim->second.stamp)
                victim = it;
        }
        evict(victim->first, EvictReason::Capacity);
        ++stats.evicted;
    }
}

void
CodeCache::evictOldestGeneration(InsertStats &stats)
{
    // Stamps are formation order here, so a fragment's generation is
    // the block of generationInserts inserts its stamp falls in.
    const auto generationOf = [this](const CodeFragment &fragment) {
        return (fragment.stamp - 1) / cfg.generationInserts;
    };
    std::uint64_t oldest = ~std::uint64_t{0};
    for (const auto &entry : fragments)
        oldest = std::min(oldest, generationOf(entry.second));
    std::vector<std::uint32_t> victims;
    for (const auto &entry : fragments) {
        if (generationOf(entry.second) == oldest)
            victims.push_back(entry.first);
    }
    // Deterministic eviction order regardless of hash layout.
    std::sort(victims.begin(), victims.end());
    for (const std::uint32_t key : victims) {
        evict(key, EvictReason::Generation);
        ++stats.evicted;
    }
}

void
CodeCache::applyCapacityPolicy(std::uint64_t incoming_bytes,
                               InsertStats &stats)
{
    if (cfg.capacityBytes == 0 ||
        occupancy + incoming_bytes <= cfg.capacityBytes)
        return;
    switch (cfg.policy) {
      case CachePolicy::FlushAll:
        flushAll();
        stats.flushed = true;
        break;
      case CachePolicy::EvictLru:
      case CachePolicy::EvictFifo:
        evictVictims(incoming_bytes, stats);
        break;
      case CachePolicy::Generational:
        while (!fragments.empty() &&
               occupancy + incoming_bytes > cfg.capacityBytes)
            evictOldestGeneration(stats);
        break;
    }
}

InsertStats
CodeCache::insert(std::uint32_t key, std::uint32_t instructions,
                  double ratio, StitchedFragment stitched)
{
    HOTPATH_ASSERT(fragments.find(key) == fragments.end(),
                   "fragment already cached for this key");
    InsertStats stats;
    const std::uint64_t code_bytes =
        static_cast<std::uint64_t>(instructions) * cfg.bytesPerInstr;
    applyCapacityPolicy(code_bytes, stats);

    fragments.emplace(key, CodeFragment{key, instructions, ++clock, 0});
    if (ratio != 1.0 || !stitched.blocks.empty()) {
        FragmentLinks &entry = links[key];
        entry.ratio = ratio;
        entry.stitched = std::move(stitched);
    }
    occupancy += code_bytes;
    ++formed;
    if (tmInserts)
        tmInserts->add(1);
    if (tmFragmentBytes)
        tmFragmentBytes->record(code_bytes);

    // Creation-time linking: every resident stub waiting on this
    // head is patched branch-to-fragment right now.
    const auto pending = pendingStubs.find(key);
    if (pending != pendingStubs.end()) {
        for (const std::uint32_t owner : pending->second) {
            auto from = links.find(owner);
            HOTPATH_ASSERT(from != links.end(),
                           "pending stub with evicted owner");
            for (std::size_t s = 0; s < from->second.stubs.size();
                 ++s) {
                ExitStub &stub = from->second.stubs[s];
                if (stub.target == key && !stub.linked) {
                    patchStub(owner, from->second, s, key);
                    ++stats.linksMade;
                    break;
                }
            }
        }
        pendingStubs.erase(pending);
    }

    telemetry::emit(telemetry::TraceEventKind::FragmentInsert,
                    "dynamo.cache",
                    {{"key", key},
                     {"bytes", code_bytes},
                     {"links", stats.linksMade},
                     {"occupancy", occupancy}});
    publishGauges();
    return stats;
}

void
CodeCache::restore(std::uint32_t key, std::uint32_t instructions,
                   std::uint64_t executions, std::uint64_t stamp)
{
    const bool inserted =
        fragments.emplace(key, CodeFragment{key, instructions, stamp,
                                            executions})
            .second;
    HOTPATH_ASSERT(inserted, "fragment already cached for this key");
    occupancy += static_cast<std::uint64_t>(instructions) *
                 cfg.bytesPerInstr;
    publishGauges();
}

CodeFragment *
CodeCache::find(std::uint32_t key)
{
    const auto it = fragments.find(key);
    if (it == fragments.end()) {
        if (tmMisses)
            tmMisses->add(1);
        return nullptr;
    }
    if (tmHits)
        tmHits->add(1);
    if (stampOnUse)
        it->second.stamp = ++clock;
    ++it->second.executions;
    return &it->second;
}

const CodeFragment *
CodeCache::peek(std::uint32_t key) const
{
    const auto it = fragments.find(key);
    return it == fragments.end() ? nullptr : &it->second;
}

const FragmentLinks *
CodeCache::linksOf(std::uint32_t key) const
{
    const auto it = links.find(key);
    return it == links.end() ? nullptr : &it->second;
}

bool
CodeCache::contains(std::uint32_t key) const
{
    return fragments.find(key) != fragments.end();
}

ExitKind
CodeCache::recordExit(std::uint32_t from, std::uint32_t to)
{
    HOTPATH_ASSERT(contains(from), "exit from a non-resident fragment");
    FragmentLinks &source = links[from];

    for (const ExitStub &stub : source.stubs) {
        if (stub.target != to)
            continue;
        if (stub.linked) {
            if (tmDispatchLinked)
                tmDispatchLinked->add(1);
            return ExitKind::Linked;
        }
        // An unlinked stub implies the target is absent: insert()
        // patches waiting stubs the moment a target becomes
        // resident.
        HOTPATH_ASSERT(!contains(to),
                       "unlinked stub with a resident target");
        if (tmDispatchUnlinked)
            tmDispatchUnlinked->add(1);
        return ExitKind::Unlinked;
    }

    // First exit to this target: materialize the stub trampoline.
    source.stubs.push_back(ExitStub{to, false});
    occupancy += cfg.stubBytes;
    publishGauges();
    if (tmDispatchUnlinked)
        tmDispatchUnlinked->add(1);
    if (contains(to)) {
        // Target already resident: this runtime round trip patches
        // the fresh stub; subsequent exits branch directly.
        patchStub(from, source, source.stubs.size() - 1, to);
        return ExitKind::PatchedNow;
    }
    pendingStubs[to].push_back(from);
    return ExitKind::Unlinked;
}

bool
CodeCache::evict(std::uint32_t key, EvictReason reason)
{
    const auto it = fragments.find(key);
    if (it == fragments.end())
        return false;
    const CodeFragment &victim = it->second;
    const std::uint64_t victim_bytes = bytesOf(victim);

    const auto victim_links = links.find(key);
    if (victim_links != links.end()) {
        // Outbound repair: detach this fragment's own exits.
        for (const ExitStub &stub : victim_links->second.stubs) {
            if (stub.linked) {
                ++linkBroken;
                if (tmLinksBroken)
                    tmLinksBroken->add(1);
                if (stub.target == key)
                    continue; // self link dies with the fragment
                auto target = links.find(stub.target);
                HOTPATH_ASSERT(target != links.end(),
                               "linked stub with absent target");
                auto &inbound = target->second.inbound;
                const auto pos =
                    std::find(inbound.begin(), inbound.end(), key);
                HOTPATH_ASSERT(pos != inbound.end(),
                               "linked stub missing from target "
                               "inbound");
                inbound.erase(pos);
            } else {
                auto pending = pendingStubs.find(stub.target);
                HOTPATH_ASSERT(pending != pendingStubs.end(),
                               "unlinked stub not pending");
                auto &owners = pending->second;
                const auto pos =
                    std::find(owners.begin(), owners.end(), key);
                HOTPATH_ASSERT(pos != owners.end(),
                               "unlinked stub not pending for owner");
                owners.erase(pos);
                if (owners.empty())
                    pendingStubs.erase(pending);
            }
        }

        // Inbound repair: every neighbour's linked stub reverts to
        // stub state and re-queues for a future fragment at this
        // head.
        for (const std::uint32_t owner : victim_links->second.inbound) {
            if (owner == key)
                continue; // self link, handled above
            auto from = links.find(owner);
            HOTPATH_ASSERT(from != links.end(),
                           "inbound link from absent fragment");
            bool reverted = false;
            for (ExitStub &stub : from->second.stubs) {
                if (stub.target == key && stub.linked) {
                    stub.linked = false;
                    reverted = true;
                    break;
                }
            }
            HOTPATH_ASSERT(reverted,
                           "inbound entry without linked stub");
            ++linkBroken;
            if (tmLinksBroken)
                tmLinksBroken->add(1);
            pendingStubs[key].push_back(owner);
        }
        links.erase(victim_links);
    }

    telemetry::emit(telemetry::TraceEventKind::FragmentEvict,
                    "dynamo.cache",
                    {{"key", key},
                     {"bytes", victim_bytes},
                     {"executions", victim.executions}},
                    evictReasonName(reason));
    occupancy -= victim_bytes;
    fragments.erase(it);
    ++evicted[static_cast<std::size_t>(reason)];
    if (tmEvictions[static_cast<std::size_t>(reason)])
        tmEvictions[static_cast<std::size_t>(reason)]->add(1);
    publishGauges();
    return true;
}

void
CodeCache::flushAll()
{
    telemetry::emit(telemetry::TraceEventKind::CacheFlush,
                    "dynamo.cache",
                    {{"fragments", fragments.size()},
                     {"occupancy", occupancy}});
    std::uint64_t live_links = 0;
    for (const auto &entry : links) {
        for (const ExitStub &stub : entry.second.stubs)
            live_links += stub.linked ? 1 : 0;
    }
    linkBroken += live_links;
    if (tmLinksBroken && live_links > 0)
        tmLinksBroken->add(live_links);
    const std::uint64_t dropped = fragments.size();
    evicted[static_cast<std::size_t>(EvictReason::Flush)] += dropped;
    if (tmEvictions[static_cast<std::size_t>(EvictReason::Flush)] &&
        dropped > 0)
        tmEvictions[static_cast<std::size_t>(EvictReason::Flush)]
            ->add(dropped);
    fragments.clear();
    links.clear();
    pendingStubs.clear();
    occupancy = 0;
    ++flushCount;
    if (tmFlushes)
        tmFlushes->add(1);
    publishGauges();
}

std::uint64_t
CodeCache::evictions() const
{
    return evicted[static_cast<std::size_t>(EvictReason::Capacity)] +
           evicted[static_cast<std::size_t>(EvictReason::Generation)];
}

bool
CodeCache::verifyLinkInvariants(std::string *error) const
{
    const auto fail = [error](std::string message) {
        if (error)
            *error = std::move(message);
        return false;
    };

    std::uint64_t tallied_bytes = 0;
    for (const auto &entry : fragments)
        tallied_bytes += bytesOf(entry.second);
    if (tallied_bytes != occupancy)
        return fail("occupancy " + std::to_string(occupancy) +
                    " != tallied " + std::to_string(tallied_bytes));

    for (const auto &[key, entry] : links) {
        if (!contains(key))
            return fail("link entry for non-resident " +
                        std::to_string(key));
        for (const ExitStub &stub : entry.stubs) {
            if (stub.linked) {
                const FragmentLinks *target = linksOf(stub.target);
                if (!contains(stub.target) || target == nullptr)
                    return fail("linked stub " + std::to_string(key) +
                                "->" + std::to_string(stub.target) +
                                " has non-resident target");
                if (std::count(target->inbound.begin(),
                               target->inbound.end(), key) != 1)
                    return fail("linked stub " + std::to_string(key) +
                                "->" + std::to_string(stub.target) +
                                " not mirrored inbound exactly once");
            } else {
                if (contains(stub.target))
                    return fail("unlinked stub " +
                                std::to_string(key) + "->" +
                                std::to_string(stub.target) +
                                " despite resident target");
                const auto pending = pendingStubs.find(stub.target);
                if (pending == pendingStubs.end() ||
                    std::count(pending->second.begin(),
                               pending->second.end(), key) != 1)
                    return fail("unlinked stub " +
                                std::to_string(key) + "->" +
                                std::to_string(stub.target) +
                                " not pending exactly once");
            }
        }
        for (const std::uint32_t owner : entry.inbound) {
            const FragmentLinks *from = linksOf(owner);
            if (!contains(owner) || from == nullptr)
                return fail("inbound link from non-resident " +
                            std::to_string(owner));
            std::size_t linked_stubs = 0;
            for (const ExitStub &stub : from->stubs) {
                if (stub.target == key && stub.linked)
                    ++linked_stubs;
            }
            if (linked_stubs != 1)
                return fail("inbound entry " + std::to_string(owner) +
                            "->" + std::to_string(key) +
                            " without exactly one linked stub");
        }
    }
    for (const auto &[target, owners] : pendingStubs) {
        if (contains(target))
            return fail("pending stubs for resident target " +
                        std::to_string(target));
        for (const std::uint32_t owner : owners) {
            const FragmentLinks *from = linksOf(owner);
            if (!contains(owner) || from == nullptr)
                return fail("pending stub owned by non-resident " +
                            std::to_string(owner));
            bool found = false;
            for (const ExitStub &stub : from->stubs)
                found |= stub.target == target && !stub.linked;
            if (!found)
                return fail("pending entry " + std::to_string(owner) +
                            "->" + std::to_string(target) +
                            " without matching unlinked stub");
        }
    }
    return true;
}

} // namespace hotpath
