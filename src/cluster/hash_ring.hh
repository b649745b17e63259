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
 * every owner - deterministic across processes and runs.
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

    /**
     * Add a node with an explicit point count - weighted membership.
     * The control plane's load hints scale a backend's share of the
     * ring by granting it more or fewer points than the configured
     * virtualNodes (a node with half the points owns roughly half
     * the arc). `point_count` is clamped to at least 1; no-op if the
     * node is already a member.
     */
    void addNode(std::uint64_t node, std::size_t point_count);

    /**
     * Re-weight a member node to `point_count` points (remove +
     * re-add; the node's points rehash to the same positions a fresh
     * weighted add would produce, so two rings that applied the same
     * weights agree). Returns false if the node is not a member.
     */
    bool setNodeWeight(std::uint64_t node, std::size_t point_count);

    /** Points `node` currently projects onto the ring (0 if not a
     *  member). */
    std::size_t nodePoints(std::uint64_t node) const;

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

    /** Member node ids in ascending order. */
    std::vector<std::uint64_t> nodes() const;

  private:
    HashRingConfig cfg;
    /** Ring points, sorted by (hash, node) - the node id breaks
     *  hash collisions so ownership stays deterministic. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> points;
    std::set<std::uint64_t> members;
};

} // namespace hotpath::cluster

#endif // HOTPATH_CLUSTER_HASH_RING_HH
