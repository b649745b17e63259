/**
 * @file
 * Consistent-hash ring for the cluster routing tier.
 *
 * Each node is projected onto the ring at `virtualNodes` hashed
 * points; a key is owned by the node whose point follows the key's
 * hash clockwise. Adding or removing one node therefore moves only
 * the keys in the arcs adjacent to that node's points - the property
 * the router's session-migration protocol depends on: a topology
 * change must not reshuffle sessions between two backends that both
 * survived it.
 *
 * All hashing is SplitMix64 seeded from the ring config, so two
 * rings built with the same seed and the same membership agree on
 * every owner - deterministic across processes and runs. Every
 * member projects the same virtualNodes points, so ownership is a
 * function of membership alone; HashRing.PlacementIsPinned
 * (tests/cluster_test.cc) pins the absolute placements, since a
 * change to the point hashing would move live sessions.
 */

#ifndef HOTPATH_CLUSTER_HASH_RING_HH
#define HOTPATH_CLUSTER_HASH_RING_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

namespace hotpath::cluster
{

/** Ring construction parameters. */
struct HashRingConfig
{
    /** Points per node on the ring. More points smooth the load
     *  split at the cost of a larger sorted point table. */
    std::size_t virtualNodes = 64;

    /** Seed for every ring hash; two rings with the same seed and
     *  membership agree on every ownerOf() answer. */
    std::uint64_t seed = 0;
};

/** Consistent-hash ring; see the file comment. Not thread-safe. */
class HashRing
{
  public:
    /** An empty ring (no nodes; ownerOf() must not be called). */
    explicit HashRing(HashRingConfig config = {});

    /** Add a node (its virtualNodes points); no-op if present. */
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
    HashRingConfig cfg;
    /** Ring points, sorted by (hash, node) - the node id breaks
     *  hash collisions so ownership stays deterministic. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
    std::set<std::uint64_t> members;
};

} // namespace hotpath::cluster

#endif // HOTPATH_CLUSTER_HASH_RING_HH
