#include "kernel/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/hash.h"

namespace jsk::kernel {

// Event ids are sequential, so the index mixes them (sim::mix64) to avoid
// clustering runs of probes.
using sim::mix64;

// --- id index ------------------------------------------------------------------

std::uint32_t event_queue::index_find(std::uint64_t id) const
{
    if (idx_keys_.empty()) return npos;
    const std::size_t mask = idx_keys_.size() - 1;
    std::size_t pos = mix64(id) & mask;
    while (idx_state_[pos] != 0) {
        if (idx_state_[pos] == 1 && idx_keys_[pos] == id) return idx_slots_[pos];
        pos = (pos + 1) & mask;
    }
    return npos;
}

void event_queue::index_insert(std::uint64_t id, std::uint32_t slot)
{
    if (idx_keys_.empty() || (idx_filled_ + 1) * 4 > idx_keys_.size() * 3) {
        index_rehash(std::max<std::size_t>(64, (idx_used_ + 1) * 2));
    }
    const std::size_t mask = idx_keys_.size() - 1;
    std::size_t pos = mix64(id) & mask;
    while (idx_state_[pos] == 1) pos = (pos + 1) & mask;
    if (idx_state_[pos] == 0) ++idx_filled_;  // reusing a tombstone keeps filled_
    idx_keys_[pos] = id;
    idx_slots_[pos] = slot;
    idx_state_[pos] = 1;
    ++idx_used_;
}

void event_queue::index_erase(std::uint64_t id)
{
    const std::size_t mask = idx_keys_.size() - 1;
    std::size_t pos = mix64(id) & mask;
    while (idx_state_[pos] != 0) {
        if (idx_state_[pos] == 1 && idx_keys_[pos] == id) {
            idx_state_[pos] = 2;  // tombstone: keeps probe chains intact
            --idx_used_;
            return;
        }
        pos = (pos + 1) & mask;
    }
}

void event_queue::index_rehash(std::size_t min_capacity)
{
    std::size_t cap = 64;
    while (cap < min_capacity) cap *= 2;
    std::vector<std::uint64_t> keys(cap);
    std::vector<std::uint32_t> slots(cap);
    std::vector<std::uint8_t> state(cap, 0);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i < idx_keys_.size(); ++i) {
        if (idx_state_[i] != 1) continue;
        std::size_t pos = mix64(idx_keys_[i]) & mask;
        while (state[pos] != 0) pos = (pos + 1) & mask;
        keys[pos] = idx_keys_[i];
        slots[pos] = idx_slots_[i];
        state[pos] = 1;
    }
    idx_keys_ = std::move(keys);
    idx_slots_ = std::move(slots);
    idx_state_ = std::move(state);
    idx_filled_ = idx_used_;
}

// --- slot arena ----------------------------------------------------------------

std::uint32_t event_queue::acquire_slot()
{
    if (!free_.empty()) {
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
}

void event_queue::release_slot(std::uint32_t slot)
{
    slot_rec& rec = slots_[slot];
    index_erase(rec.ev.id);
    rec.ev = kevent{};
    rec.alive = false;
    ++rec.gen;  // every outstanding heap_ref for this slot is now a tombstone
    free_.push_back(slot);
    --size_;
}

// --- heap maintenance ----------------------------------------------------------

void event_queue::purge_top()
{
    while (!heap_.empty() && !valid(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
    }
}

void event_queue::maybe_compact()
{
    // Tombstones may outnumber live entries by at most the live count (plus a
    // floor so small queues never bother); past that, rebuild in O(n).
    if (heap_.size() > 2 * size_ + 64) {
        std::erase_if(heap_, [this](const heap_ref& r) { return !valid(r); });
        std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
        ++compactions_;
    }
    if (live_heap_.size() > 2 * size_ + 64) {
        std::erase_if(live_heap_, [this](const heap_ref& r) {
            return !valid(r) || slots_[r.slot].ev.status == kevent_status::cancelled;
        });
        std::make_heap(live_heap_.begin(), live_heap_.end(), std::greater<>{});
        ++compactions_;
    }
    // The stage only drains on a probe; bound it the same way so a workload
    // that never probes still keeps bookkeeping within a constant factor of
    // the live size (at most one valid ref per event survives the filter).
    if (live_stage_.size() > 2 * size_ + 64) {
        std::erase_if(live_stage_, [this](const heap_ref& r) {
            return !valid(r) || slots_[r.slot].ev.status == kevent_status::cancelled;
        });
    }
}

// --- public API ----------------------------------------------------------------

void event_queue::push(kevent event)
{
    if (index_find(event.id) != npos) {
        throw std::invalid_argument("event_queue::push: duplicate event id");
    }
    const std::uint32_t slot = acquire_slot();
    slot_rec& rec = slots_[slot];
    rec.ev = std::move(event);
    rec.alive = true;
    index_insert(rec.ev.id, slot);
    const heap_ref ref{rec.ev.predicted_time, rec.ev.id, slot, rec.gen};
    heap_.push_back(ref);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    live_stage_.push_back(ref);  // heapified lazily by the next horizon probe
    ++size_;
    ++pushes_;
    if (size_ > peak_size_) peak_size_ = size_;
    maybe_compact();
}

kevent* event_queue::top()
{
    purge_top();
    if (heap_.empty()) return nullptr;
    return &slots_[heap_.front().slot].ev;
}

kevent event_queue::pop()
{
    purge_top();
    if (heap_.empty()) throw std::logic_error("event_queue::pop: empty queue");
    const heap_ref head = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    kevent out = std::move(slots_[head.slot].ev);
    release_slot(head.slot);
    return out;
}

bool event_queue::remove(std::uint64_t id)
{
    const std::uint32_t slot = index_find(id);
    if (slot == npos) return false;
    release_slot(slot);  // heap entries become tombstones via the gen bump
    maybe_compact();
    return true;
}

kevent* event_queue::lookup(std::uint64_t id)
{
    const std::uint32_t slot = index_find(id);
    if (slot == npos) return nullptr;
    return &slots_[slot].ev;
}

void event_queue::cancel_all()
{
    for (slot_rec& rec : slots_) {
        if (!rec.alive) continue;
        rec.ev.status = kevent_status::cancelled;
        rec.ev.callback = nullptr;
    }
    live_heap_.clear();  // nothing non-cancelled remains
    live_stage_.clear();
}

bool event_queue::mark_cancelled(std::uint64_t id)
{
    const std::uint32_t slot = index_find(id);
    if (slot == npos) return false;
    slots_[slot].ev.status = kevent_status::cancelled;
    slots_[slot].ev.callback = nullptr;
    // Stale live_heap_ entries self-correct in next_pending_time().
    return true;
}

bool event_queue::update_predicted(std::uint64_t id, ktime predicted)
{
    const std::uint32_t slot = index_find(id);
    if (slot == npos) return false;
    slot_rec& rec = slots_[slot];
    if (rec.ev.predicted_time == predicted) return true;
    rec.ev.predicted_time = predicted;
    ++rec.gen;  // outdated ordering entries become tombstones
    const heap_ref ref{predicted, id, slot, rec.gen};
    heap_.push_back(ref);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    live_stage_.push_back(ref);  // drained (and status-filtered) at probe time
    maybe_compact();
    return true;
}

ktime event_queue::next_pending_time()
{
    // Drain the stage: only refs still valid and non-cancelled are worth
    // heap maintenance — everything popped/removed/re-predicted/cancelled
    // since the last probe is skipped outright.
    for (const heap_ref& ref : live_stage_) {
        if (!valid(ref) || slots_[ref.slot].ev.status == kevent_status::cancelled) {
            continue;
        }
        live_heap_.push_back(ref);
        std::push_heap(live_heap_.begin(), live_heap_.end(), std::greater<>{});
    }
    live_stage_.clear();
    while (!live_heap_.empty()) {
        const heap_ref& head = live_heap_.front();
        if (valid(head) && slots_[head.slot].ev.status != kevent_status::cancelled) {
            return head.predicted;
        }
        // Tombstone, or cancelled behind the queue API's back (scheduler
        // writes through lookup()); cancellation is permanent, so dropping
        // the entry is safe.
        std::pop_heap(live_heap_.begin(), live_heap_.end(), std::greater<>{});
        live_heap_.pop_back();
    }
    return -1.0;
}

}  // namespace jsk::kernel
