#include "cluster/hash_ring.hh"

#include <algorithm>

#include "support/logging.hh"

namespace hotpath::cluster
{

namespace
{

/** SplitMix64 finalizer - the ring's only hash primitive. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

void
HashRing::addNode(std::uint64_t node)
{
    if (!members.insert(node).second)
        return;
    points.reserve(points.size() + kPointsPerNode);
    for (std::size_t replica = 0; replica < kPointsPerNode; ++replica) {
        // Chain the mixes so (seed, node, replica) decorrelate even
        // for small consecutive values of all three.
        const std::uint64_t hash =
            mix64(mix64(kSeed ^ mix64(node)) ^ replica);
        points.emplace_back(hash, node);
    }
    std::sort(points.begin(), points.end());
}

bool
HashRing::removeNode(std::uint64_t node)
{
    if (members.erase(node) == 0)
        return false;
    points.erase(std::remove_if(points.begin(), points.end(),
                                [node](const auto &point) {
                                    return point.second == node;
                                }),
                 points.end());
    return true;
}

std::uint64_t
HashRing::ownerOf(std::uint64_t key) const
{
    HOTPATH_ASSERT(!points.empty(), "ownerOf() on an empty ring");
    const std::uint64_t hash = mix64(kSeed ^ mix64(key));
    // First point strictly after the key's hash, wrapping to the
    // ring's first point past the top.
    auto it = std::upper_bound(
        points.begin(), points.end(), hash,
        [](std::uint64_t h, const auto &point) {
            return h < point.first;
        });
    if (it == points.end())
        it = points.begin();
    return it->second;
}

} // namespace hotpath::cluster
