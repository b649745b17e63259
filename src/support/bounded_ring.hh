/**
 * @file
 * Bounded lock-free multi-producer / multi-consumer ring.
 *
 * The engine's shard-queue handoff primitive (Vyukov's bounded queue):
 * producers reserve a slot with one CAS on the enqueue cursor,
 * consumers claim one with one CAS on the dequeue cursor, and per-slot
 * sequence stamps carry the release/acquire handoff - so either side's
 * common path is one CAS plus one release store, with no mutex and no
 * syscall. Capacity is fixed at construction and rounded up to a power
 * of two.
 *
 * Contract:
 *  - any number of threads may call tryPush(), tryPop() and
 *    popBatch() concurrently; every pushed item is popped exactly
 *    once, and pops claim items in the order pushes reserved them;
 *  - tryPush moves from its argument only on success, so a caller
 *    can retry or fall back to blocking with the value intact;
 *  - a push or pop that has reserved its slot but not yet stamped it
 *    holds up the other side at that one slot: a concurrent tryPop
 *    may report empty (or tryPush full) until it completes;
 *  - empty() and size() are approximate under concurrency (cursor
 *    loads race the CASes) and only exact when the ring is quiescent.
 *
 * Blocking (producer backpressure, consumer parking) deliberately
 * lives outside: the engine layers a futex-light waiter protocol on
 * top so the uncontended path never touches a lock.
 */

#ifndef HOTPATH_SUPPORT_BOUNDED_RING_HH
#define HOTPATH_SUPPORT_BOUNDED_RING_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace hotpath::support
{

/** Bounded lock-free MPMC ring; see the file comment. */
template <typename T>
class BoundedRing
{
  public:
    /** Build a ring holding at least `capacity` items (rounded up to
     *  a power of two; minimum 1). */
    explicit BoundedRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        mask = cap - 1;
        cells = std::make_unique<Cell[]>(cap);
        for (std::size_t i = 0; i < cap; ++i)
            cells[i].sequence.store(i, std::memory_order_relaxed);
    }

    BoundedRing(const BoundedRing &) = delete;
    BoundedRing &operator=(const BoundedRing &) = delete;

    /** Slots the ring can hold. */
    std::size_t capacity() const { return mask + 1; }

    /**
     * Enqueue by move. Returns false - leaving `v` untouched - when
     * the ring is full.
     */
    bool
    tryPush(T &v)
    {
        std::size_t pos = enqueuePos.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells[pos & mask];
            const std::size_t seq =
                cell.sequence.load(std::memory_order_acquire);
            const std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                // The slot is free at this position: claim it.
                if (enqueuePos.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                {
                    cell.value = std::move(v);
                    cell.sequence.store(pos + 1,
                                        std::memory_order_release);
                    return true;
                }
                // Lost the race; `pos` was reloaded by the CAS.
            } else if (dif < 0) {
                return false; // full: no consumer has freed the slot
            } else {
                pos = enqueuePos.load(std::memory_order_relaxed);
            }
        }
    }

    /** Dequeue the oldest item into `out`. Returns false when the
     *  ring is empty. */
    bool
    tryPop(T &out)
    {
        std::size_t pos = dequeuePos.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = cells[pos & mask];
            const std::size_t seq =
                cell.sequence.load(std::memory_order_acquire);
            const std::intptr_t dif =
                static_cast<std::intptr_t>(seq) -
                static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                // Published at this position: claim it.
                if (dequeuePos.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                {
                    out = std::move(cell.value);
                    // Re-stamp the slot for the enqueue lap
                    // `capacity` ahead.
                    cell.sequence.store(pos + mask + 1,
                                        std::memory_order_release);
                    return true;
                }
                // Lost the race; `pos` was reloaded by the CAS.
            } else if (dif < 0) {
                return false; // empty: no producer published the slot
            } else {
                pos = dequeuePos.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Pop up to `max` items, appending to `out`. Returns how many
     * were popped.
     */
    std::size_t
    popBatch(std::vector<T> &out, std::size_t max)
    {
        std::size_t popped = 0;
        while (popped < max) {
            out.emplace_back();
            if (!tryPop(out.back())) {
                out.pop_back();
                break;
            }
            ++popped;
        }
        return popped;
    }

    /** True when the oldest slot holds no published item. */
    bool
    empty() const
    {
        const std::size_t pos =
            dequeuePos.load(std::memory_order_relaxed);
        const std::size_t seq =
            cells[pos & mask].sequence.load(std::memory_order_acquire);
        return static_cast<std::intptr_t>(seq) -
                   static_cast<std::intptr_t>(pos + 1) <
               0;
    }

    /** Approximate occupancy (exact only when quiescent). */
    std::size_t
    size() const
    {
        const std::size_t tail =
            enqueuePos.load(std::memory_order_relaxed);
        const std::size_t head =
            dequeuePos.load(std::memory_order_relaxed);
        return tail >= head ? tail - head : 0;
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> sequence{0};
        T value{};
    };

    std::unique_ptr<Cell[]> cells;
    std::size_t mask = 0;
    /** Producer and consumer cursors on separate cache lines so
     *  producers' CAS traffic does not invalidate the consumers'. */
    alignas(64) std::atomic<std::size_t> enqueuePos{0};
    alignas(64) std::atomic<std::size_t> dequeuePos{0};
};

} // namespace hotpath::support

#endif // HOTPATH_SUPPORT_BOUNDED_RING_HH
