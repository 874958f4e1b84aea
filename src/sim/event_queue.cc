#include "event_queue.h"

#include <limits>

#include "util/logging.h"

namespace pcon {
namespace sim {

bool
EventQueue::earlier(std::uint32_t a, std::uint32_t b) const
{
    const Node &x = nodes_[a];
    const Node &y = nodes_[b];
    return x.when != y.when ? x.when < y.when : x.seq < y.seq;
}

void
EventQueue::place(std::size_t pos, std::uint32_t slot)
{
    heap_[pos] = slot;
    nodes_[slot].pos = static_cast<std::uint32_t>(pos);
}

void
EventQueue::siftUp(std::size_t pos)
{
    std::uint32_t slot = heap_[pos];
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 2;
        if (!earlier(slot, heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, slot);
}

void
EventQueue::siftDown(std::size_t pos)
{
    std::uint32_t slot = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && earlier(heap_[child + 1], heap_[child]))
            ++child;
        if (!earlier(heap_[child], slot))
            break;
        place(pos, heap_[child]);
        pos = child;
    }
    place(pos, slot);
}

void
EventQueue::remove(std::uint32_t slot)
{
    std::size_t pos = nodes_[slot].pos;
    std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (pos < heap_.size()) {
        // Fill the hole with the last entry and sift it whichever way
        // restores the order.
        place(pos, last);
        if (pos > 0 && earlier(last, heap_[(pos - 1) / 2]))
            siftUp(pos);
        else
            siftDown(pos);
    }
    Node &n = nodes_[slot];
    n.cb = nullptr; // drop the closure eagerly
    ++n.gen;        // invalidates the handle
    freeSlots_.push_back(slot);
}

EventId
EventQueue::schedule(SimTime when, Callback cb)
{
    util::SpinGuard lock(mu_);
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        util::panicIf(nodes_.size() >=
                          std::numeric_limits<std::uint32_t>::max() - 1,
                      "event queue slot space exhausted");
        slot = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    Node &n = nodes_[slot];
    n.cb = std::move(cb);
    n.when = when;
    n.seq = nextSeq_++;
    heap_.push_back(slot);
    siftUp(heap_.size() - 1);
    return (static_cast<EventId>(n.gen) << 32) |
        static_cast<EventId>(slot + 1);
}

bool
EventQueue::cancel(EventId id)
{
    if (id == InvalidEventId)
        return false;
    util::SpinGuard lock(mu_);
    std::uint64_t low = id & 0xffffffffULL;
    if (low == 0 || low > nodes_.size())
        return false;
    std::uint32_t slot = static_cast<std::uint32_t>(low - 1);
    if (nodes_[slot].gen != static_cast<std::uint32_t>(id >> 32))
        return false; // already fired, cancelled, or recycled
    remove(slot);
    return true;
}

bool
EventQueue::empty() const
{
    util::SpinGuard lock(mu_);
    return heap_.empty();
}

std::size_t
EventQueue::size() const
{
    util::SpinGuard lock(mu_);
    return heap_.size();
}

SimTime
EventQueue::nextTime() const
{
    util::SpinGuard lock(mu_);
    util::panicIf(heap_.empty(), "nextTime on empty event queue");
    return nodes_[heap_.front()].when;
}

std::pair<SimTime, EventQueue::Callback>
EventQueue::popTop()
{
    std::uint32_t slot = heap_.front();
    SimTime when = nodes_[slot].when;
    Callback cb = std::move(nodes_[slot].cb);
    remove(slot);
    return {when, std::move(cb)};
}

std::pair<SimTime, EventQueue::Callback>
EventQueue::pop()
{
    util::SpinGuard lock(mu_);
    util::panicIf(heap_.empty(), "pop on empty event queue");
    return popTop();
}

std::optional<std::pair<SimTime, EventQueue::Callback>>
EventQueue::popDue(SimTime until)
{
    util::SpinGuard lock(mu_);
    if (heap_.empty() || nodes_[heap_.front()].when > until)
        return std::nullopt;
    return popTop();
}

} // namespace sim
} // namespace pcon
