/**
 * @file
 * Consistent-hash ring for the cluster routing tier.
 *
 * Each node is projected onto the ring at kPointsPerNode hashed
 * points; a key is owned by the node whose point follows the key's
 * hash clockwise. Adding or removing one node therefore moves only
 * the keys in the arcs adjacent to that node's points - the property
 * the router's session-migration protocol depends on: a topology
 * change must not reshuffle sessions between two backends that both
 * survived it.
 *
 * All hashing is SplitMix64 seeded with kSeed, so two rings with
 * the same membership agree on every owner - deterministic across
 * processes and runs. Every member projects the same kPointsPerNode
 * points, so ownership is a function of membership alone;
 * HashRing.PlacementIsPinned (tests/cluster_test.cc) pins the
 * absolute placements, since a change to the point hashing, the
 * seed or the point count would move live sessions.
 */

#ifndef HOTPATH_CLUSTER_HASH_RING_HH
#define HOTPATH_CLUSTER_HASH_RING_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace hotpath::cluster
{

/** Consistent-hash ring; see the file comment. Not thread-safe.
 *  A default-constructed ring is empty (ownerOf() must not be
 *  called). */
class HashRing
{
  public:
    /** Points per node on the ring. More points smooth the load
     *  split at the cost of a larger sorted point table. */
    static constexpr std::size_t kPointsPerNode = 64;

    /** Seed of every ring hash. */
    static constexpr std::uint64_t kSeed = 0;

    /** Add a node (its kPointsPerNode points); no-op if present. */
    void addNode(std::uint64_t node);

    /** Remove a node; returns false if it was not a member. */
    bool removeNode(std::uint64_t node);

    /** True when `node` is a member. */
    bool contains(std::uint64_t node) const
    {
        return members.count(node) != 0;
    }

    /** True when no nodes are on the ring. */
    bool empty() const { return members.empty(); }

    /** The node owning `key`. The ring must not be empty. */
    std::uint64_t ownerOf(std::uint64_t key) const;

  private:
    /** Ring points, sorted by (hash, node) - the node id breaks
     *  hash collisions so ownership stays deterministic. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
    std::set<std::uint64_t> members;
};

} // namespace hotpath::cluster

#endif // HOTPATH_CLUSTER_HASH_RING_HH
