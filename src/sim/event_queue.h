/**
 * @file
 * The discrete-event core: a time-ordered queue of callbacks with
 * stable FIFO ordering among same-time events and exact cancel
 * support via generation-checked event handles.
 *
 * Structure: an indexed binary min-heap of pooled node slots ordered
 * by (when, seq). Each node records its heap position, so cancel()
 * removes the event eagerly with one sift and the heap holds only
 * live events. At the simulator's operating point (about a dozen
 * pending events) every operation is a few compares. EventId packs
 * (generation << 32 | slot + 1), so cancelling an already-fired or
 * already-cancelled id is a clean false.
 *
 * Thread safety: schedule()/cancel() are the sanctioned cross-shard
 * scheduling surface, so the whole queue serializes on one annotated
 * util::SpinLock (critical sections are a few dozen nanoseconds; a
 * futex mutex costs more than the work it guards). Pop order stays
 * deterministic: it depends only on the sequence numbers handed out
 * under the lock, not on which thread inserted an entry.
 */

#ifndef PCON_SIM_EVENT_QUEUE_H
#define PCON_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/inline_fn.h"
#include "util/sync.h"

namespace pcon {
namespace sim {

/** Opaque identifier for a scheduled event; used for cancellation. */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId InvalidEventId = 0;

/**
 * A binary heap of (time, sequence, callback) entries. Events at
 * equal times fire in scheduling order. Cancellation is exact and
 * O(log n) via generation-checked handles.
 */
class PCON_CROSS_SHARD EventQueue
{
  public:
    /**
     * Move-only small-buffer closure (32 inline bytes): the kernel's
     * hot closures ([this, core] and friends) move as a memcpy with
     * no allocation and no indirect manager calls; bigger captures
     * fall back to one heap cell. See util/inline_fn.h.
     */
    using Callback = util::InlineFunction<void(), 32>;

    /** Schedule a callback at absolute time `when`. */
    EventId schedule(SimTime when, Callback cb);

    /**
     * Cancel a previously scheduled event.
     * @return true when the event was pending and is now cancelled;
     *         false for unknown, already-fired, or already-cancelled
     *         ids.
     */
    bool cancel(EventId id);

    /** True when no events are pending. O(1). */
    bool empty() const;

    /** Number of pending events. O(1). */
    std::size_t size() const;

    /** Time of the earliest event; panics when empty. */
    SimTime nextTime() const;

    /** Pop the earliest event as (time, callback); panics when empty. */
    std::pair<SimTime, Callback> pop();

    /**
     * Fused empty/nextTime/pop for the simulation run loop: pop the
     * earliest event iff its time is <= `until`. One lock
     * acquisition per event instead of three.
     * @return nullopt when the queue is empty or the head is later
     *         than `until`.
     */
    std::optional<std::pair<SimTime, Callback>> popDue(SimTime until);

  private:
    /** Pooled event record; the slot index never moves. */
    struct Node
    {
        Callback cb;
        SimTime when = 0;
        std::uint64_t seq = 0;
        /** Index of this slot in heap_ while pending. */
        std::uint32_t pos = 0;
        /** Bumped on fire/cancel so stale handles are detected. */
        std::uint32_t gen = 1;
    };

    /** Heap order: true when slot `a` fires before slot `b`. */
    bool earlier(std::uint32_t a, std::uint32_t b) const
        PCON_REQUIRES(mu_);
    /** Store `slot` at heap index `pos` and record the position. */
    void place(std::size_t pos, std::uint32_t slot) PCON_REQUIRES(mu_);
    void siftUp(std::size_t pos) PCON_REQUIRES(mu_);
    void siftDown(std::size_t pos) PCON_REQUIRES(mu_);
    /** Unlink `slot` from the heap and recycle it. */
    void remove(std::uint32_t slot) PCON_REQUIRES(mu_);
    std::pair<SimTime, Callback> popTop() PCON_REQUIRES(mu_);

    mutable util::SpinLock mu_;
    /** Slot-indexed event nodes, recycled via freeSlots_. */
    std::vector<Node> nodes_ PCON_GUARDED_BY(mu_);
    std::vector<std::uint32_t> freeSlots_ PCON_GUARDED_BY(mu_);
    /** Min-heap of pending slots in (when, seq) order. */
    std::vector<std::uint32_t> heap_ PCON_GUARDED_BY(mu_);
    std::uint64_t nextSeq_ PCON_GUARDED_BY(mu_) = 1;
};

} // namespace sim
} // namespace pcon

#endif // PCON_SIM_EVENT_QUEUE_H
