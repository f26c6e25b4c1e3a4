#include "sim/simulation.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace jsk::sim {

namespace {

template <typename T>
void heap_push(std::vector<T>& heap, T value)
{
    heap.push_back(std::move(value));
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

template <typename T>
T heap_pop(std::vector<T>& heap)
{
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    T out = heap.back();
    heap.pop_back();
    return out;
}

}  // namespace

std::uint32_t simulation::acquire_slot(pending_task task, task_id id)
{
    std::uint32_t slot;
    if (!slot_free_.empty()) {
        slot = slot_free_.back();
        slot_free_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    task_slot& s = slots_[slot];
    s.task = std::move(task);
    s.id = id;
    s.alive = true;
    task_index_.insert(id, slot);
    ++pending_count_;
    return slot;
}

void simulation::release_slot(std::uint32_t slot)
{
    task_slot& s = slots_[slot];
    task_index_.erase(s.id);
    s.alive = false;
    ++s.gen;  // outstanding refs to this slot become tombstones
    s.task.fn = nullptr;
    s.task.label = {};
    slot_free_.push_back(slot);
    --pending_count_;
}

thread_id simulation::create_thread(std::string name)
{
    // A thread born inside a running task (new Worker at virtual time t) must
    // not execute anything earlier than t: seed its busy window from now(),
    // which inside a task is start + consumed, not the stale global floor.
    thread_state state;
    state.name = std::move(name);
    state.busy_until = now();
    threads_.push_back(std::move(state));
    const auto id = static_cast<thread_id>(threads_.size() - 1);
    if (tsink_ != nullptr) {
        tsink_->set_thread_name(id, threads_[static_cast<std::size_t>(id)].name);
    }
    return id;
}

void simulation::set_trace_sink(obs::sink* sink)
{
    tsink_ = sink;
    if (tsink_ == nullptr) return;
    for (std::size_t t = 0; t < threads_.size(); ++t) {
        tsink_->set_thread_name(static_cast<thread_id>(t), threads_[t].name);
    }
}

void simulation::destroy_thread(thread_id thread)
{
    if (thread < 0 || static_cast<std::size_t>(thread) >= threads_.size()) return;
    auto& state = threads_[static_cast<std::size_t>(thread)];
    if (!state.alive) return;
    state.alive = false;
    // Drop the dead thread's tasks eagerly so pending_tasks() stays accurate
    // and neither scheduler ever re-checks liveness per step. Stale queue_ /
    // ready-heap entries for the dropped ids are skipped like cancels.
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
        task_slot& s = slots_[slot];
        if (!s.alive || s.task.thread != thread) continue;
        if (hook_) channel_remove(s.task, s.id);
        release_slot(slot);
    }
    state.ready.clear();
    state.ready_max = 0;
    state.stale = 0;
}

bool simulation::thread_alive(thread_id thread) const
{
    return thread >= 0 && static_cast<std::size_t>(thread) < threads_.size() &&
           threads_[static_cast<std::size_t>(thread)].alive;
}

const std::string& simulation::thread_name(thread_id thread) const
{
    return threads_.at(static_cast<std::size_t>(thread)).name;
}

task_id simulation::post(thread_id thread, time_ns when, std::function<void()> fn,
                         std::string label)
{
    if (!thread_alive(thread)) return 0;
    if (!fn) throw std::invalid_argument("simulation::post: empty task function");
    when = std::max(when, now());
    const task_id id = next_task_id_++;
    const std::uint64_t seq = next_seq_++;
    const thread_id source = current_ ? current_->thread : no_thread;
    const std::uint32_t slot = acquire_slot(
        pending_task{thread, source, when, seq, std::move(fn), std::move(label)}, id);
    const std::uint32_t gen = slots_[slot].gen;
    peak_pending_ = std::max(peak_pending_, pending_count_);
    if (hook_ == nullptr) {
        queue_.push(queue_entry{when, seq, id, slot, gen});
    } else {
        auto& state = threads_[static_cast<std::size_t>(thread)];
        heap_push(state.ready, ready_ref{when, id, slot, gen});
        state.ready_max = std::max(state.ready_max, when);
        if (source != no_thread && source != thread) {
            channel_add(source, thread, id, when, slot);
        }
        heap_push(thread_order_, order_ref{std::max(state.busy_until, when), thread});
        hook_->on_post(id, thread, current_ ? current_->id : 0, source);
    }
    if (wm_ != nullptr) wm_->on_post(id, thread, source);
    return id;
}

bool simulation::cancel(task_id id)
{
    const std::uint32_t slot = task_index_.find(id);
    if (slot == detail::id_index::npos) return false;
    // Stale queue_ / ready-heap entries are skipped when they surface.
    if (hook_) {
        channel_remove(slots_[slot].task, id);
        ++threads_[static_cast<std::size_t>(slots_[slot].task.thread)].stale;
    }
    release_slot(slot);
    return true;
}

time_ns simulation::now() const
{
    if (current_) return current_->start + current_->consumed;
    return floor_time_;
}

thread_id simulation::current_thread() const
{
    return current_ ? current_->thread : no_thread;
}

void simulation::consume(time_ns cost)
{
    if (!current_) throw std::logic_error("simulation::consume called outside a task");
    if (cost < 0) throw std::invalid_argument("simulation::consume: negative cost");
    current_->consumed += cost;
}

time_ns simulation::busy_until(thread_id thread) const
{
    return threads_.at(static_cast<std::size_t>(thread)).busy_until;
}

simulation::observer_handle simulation::add_task_observer(
    std::function<void(const task_info&)> observer)
{
    const observer_handle handle = next_observer_++;
    observers_.emplace_back(handle, std::move(observer));
    return handle;
}

void simulation::remove_task_observer(observer_handle handle)
{
    std::erase_if(observers_, [handle](const auto& entry) { return entry.first == handle; });
}

void simulation::set_schedule_hook(schedule_hook* hook, time_ns window)
{
    const bool was_hooked = hook_ != nullptr;
    hook_ = hook;
    window_ = window;
    if (hook != nullptr && !was_hooked) rebuild_hook_index();
    if (hook == nullptr && was_hooked) rebuild_unhooked_queue();
}

// --- hooked-mode index ---------------------------------------------------------

std::uint64_t simulation::channel_key(thread_id source, thread_id target)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source)) << 32) |
           static_cast<std::uint32_t>(target);
}

void simulation::channel_add(thread_id source, thread_id target, task_id id,
                             time_ns ready_at, std::uint32_t slot)
{
    const auto key = channel_key(source, target);
    const auto [it, inserted] = channels_.try_emplace(key);
    if (inserted) {
        threads_[static_cast<std::size_t>(target)].in_channels.push_back(key);
    }
    // Task ids are allocated monotonically, so appends keep id order.
    it->second.entries.push_back(channel_entry{id, ready_at, slot});
}

void simulation::channel_remove(const pending_task& task, task_id id)
{
    if (task.source == no_thread || task.source == task.thread) return;
    const auto key = channel_key(task.source, task.thread);
    const auto it = channels_.find(key);
    if (it == channels_.end()) return;
    channel_state& ch = it->second;
    const auto pos = std::lower_bound(
        ch.entries.begin(), ch.entries.end(), id,
        [](const channel_entry& e, task_id v) { return e.id < v; });
    if (pos == ch.entries.end() || pos->id != id) return;
    ch.entries.erase(pos);
    if (ch.entries.empty()) {
        std::erase(threads_[static_cast<std::size_t>(task.thread)].in_channels, key);
        channels_.erase(it);
    }
}

std::optional<time_ns> simulation::thread_head_start(thread_id thread)
{
    auto& state = threads_[static_cast<std::size_t>(thread)];
    if (!state.alive) return std::nullopt;
    while (!state.ready.empty() &&
           slots_[state.ready.front().slot].gen != state.ready.front().gen) {
        heap_pop(state.ready);  // executed/cancelled task: discard tombstone
        if (state.stale > 0) --state.stale;
    }
    if (state.ready.empty()) return std::nullopt;
    return std::max(state.busy_until, state.ready.front().ready_at);
}

void simulation::rebuild_hook_index()
{
    for (auto& state : threads_) {
        state.ready.clear();
        state.ready_max = 0;
        state.collect_stamp = 0;
        state.stale = 0;
        state.in_channels.clear();
    }
    channels_.clear();
    thread_order_.clear();
    step_stamp_ = 0;
    queue_ = decltype(queue_){};  // hooked runs never touch the unhooked queue

    // Channel entries must be appended in id (= post) order.
    std::vector<std::pair<task_id, std::uint32_t>> ids;
    ids.reserve(pending_count_);
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
        if (slots_[slot].alive) ids.emplace_back(slots_[slot].id, slot);
    }
    std::sort(ids.begin(), ids.end());
    for (const auto& [id, slot] : ids) {
        const pending_task& task = slots_[slot].task;
        auto& target = threads_[static_cast<std::size_t>(task.thread)];
        target.ready.push_back(ready_ref{task.ready_at, id, slot, slots_[slot].gen});
        target.ready_max = std::max(target.ready_max, task.ready_at);
        if (task.source != no_thread && task.source != task.thread) {
            channel_add(task.source, task.thread, id, task.ready_at, slot);
        }
    }
    for (std::size_t t = 0; t < threads_.size(); ++t) {
        auto& state = threads_[t];
        if (state.ready.empty()) continue;
        std::make_heap(state.ready.begin(), state.ready.end(), std::greater<>{});
        heap_push(thread_order_,
                  order_ref{std::max(state.busy_until, state.ready.front().ready_at),
                            static_cast<thread_id>(t)});
    }
}

void simulation::rebuild_unhooked_queue()
{
    queue_ = decltype(queue_){};
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
        const task_slot& s = slots_[slot];
        if (!s.alive) continue;
        queue_.push(queue_entry{s.task.ready_at, s.task.seq, s.id, slot, s.gen});
    }
    for (auto& state : threads_) {
        state.ready.clear();
        state.ready_max = 0;
        state.stale = 0;
        state.in_channels.clear();
    }
    channels_.clear();
    thread_order_.clear();
}

// --- scheduling steps ----------------------------------------------------------

std::optional<simulation::queue_entry> simulation::next_entry(time_ns deadline)
{
    if (hook_) return next_entry_hooked(deadline);
    while (!queue_.empty()) {
        queue_entry entry = queue_.top();
        const pending_task* task = slot_task(entry.slot, entry.gen);
        if (task == nullptr) {  // cancelled or dropped with its thread
            queue_.pop();
            continue;
        }
        const time_ns start = std::max(
            task->ready_at, threads_[static_cast<std::size_t>(task->thread)].busy_until);
        if (start > entry.key) {
            // The thread is busy past this entry's key: re-key and retry so
            // that pops come out globally ordered by effective start time.
            queue_.pop();
            queue_.push(queue_entry{start, entry.seq, entry.id, entry.slot, entry.gen});
            continue;
        }
        if (start > deadline) return std::nullopt;
        queue_.pop();
        entry.key = start;
        return entry;
    }
    return std::nullopt;
}

std::optional<simulation::queue_entry> simulation::next_entry_hooked(time_ns deadline)
{
    if (pending_count_ == 0) return std::nullopt;
    constexpr time_ns tmax = std::numeric_limits<time_ns>::max();

    for (int attempt = 0; attempt < 2; ++attempt) {
        ++step_stamp_;
        // Surface the earliest thread head through the lazy order heap, then
        // keep popping to collect every thread whose head falls inside the
        // commutativity window. Stale keys are re-validated as they surface;
        // keys never understate their thread's current head, so the first
        // validated pop is the true earliest effective start.
        time_ns earliest = tmax;
        time_ns bound = tmax;
        collected_.clear();
        while (!thread_order_.empty()) {
            if (earliest != tmax && thread_order_.front().start > bound) break;
            const order_ref top = heap_pop(thread_order_);
            const std::optional<time_ns> cur = thread_head_start(top.thread);
            if (!cur) continue;  // dead or drained thread: drop the entry
            auto& state = threads_[static_cast<std::size_t>(top.thread)];
            if (state.collect_stamp == step_stamp_) continue;  // duplicate entry
            if (*cur != top.start) {
                heap_push(thread_order_, order_ref{*cur, top.thread});  // re-key
                continue;
            }
            if (earliest == tmax) {
                if (top.start > deadline) {
                    heap_push(thread_order_, top);
                    return std::nullopt;
                }
                earliest = top.start;
                bound = window_ > tmax - earliest ? tmax : earliest + window_;
                bound = std::min(bound, deadline);
            }
            state.collect_stamp = step_stamp_;
            collected_.push_back(top);
        }
        if (earliest == tmax) {
            // pending_ is non-empty, so an index invariant was lost (should
            // not happen). Rebuild from the pending set and retry once.
            rebuild_hook_index();
            continue;
        }

        // Gather candidates from each collected thread: every pending task
        // with ready_at <= bound (its start is then <= bound too, because a
        // collected thread's busy window ends by bound), subject to per-
        // channel FIFO realizability. Same-thread and external posts come
        // from the thread's ready heap; its array is traversed in place with
        // subtree pruning — children never have earlier ready times than
        // their parent, so a node past the bound cuts off its whole subtree,
        // and when the window covers the whole backlog (typical on a busy
        // thread, where every task ties at busy_until) the traversal is a
        // plain linear scan with no per-node bound checks.
        //
        // Cross-thread messages must not overtake an earlier message on the
        // same (source -> target) channel: real message ports deliver in
        // send order, so a schedule that swaps them is not realizable, and
        // offering it would let the explorer "falsify" protocols (e.g. the
        // kernel channel guard) that legitimately rely on FIFO. Rather than
        // testing each cross-thread entry for blockers, the gather offers
        // exactly the entries no earlier same-channel post can block — the
        // strict prefix minima of ready times in post order — with one
        // sequential walk per channel targeting the thread.
        cand_keys_.clear();
        for (const order_ref& col : collected_) {
            auto& state = threads_[static_cast<std::size_t>(col.thread)];
            if (state.stale > state.ready.size() / 2 + 16) {
                std::erase_if(state.ready, [this](const ready_ref& r) {
                    return slots_[r.slot].gen != r.gen;
                });
                std::make_heap(state.ready.begin(), state.ready.end(), std::greater<>{});
                state.stale = 0;
                state.ready_max = 0;
                for (const ready_ref& r : state.ready) {
                    state.ready_max = std::max(state.ready_max, r.ready_at);
                }
            }
            const auto offer = [&](const ready_ref& r) {
                const pending_task* task = slot_task(r.slot, r.gen);
                if (task == nullptr) return;  // tombstone
                if (task->source != no_thread && task->source != task->thread) {
                    return;  // cross-thread: offered via the channel walk below
                }
                cand_keys_.push_back(cand_key{std::max(r.ready_at, state.busy_until),
                                              r.id, r.slot, col.thread});
            };
            if (state.ready_max <= bound) {
                for (const ready_ref& r : state.ready) offer(r);
            } else {
                dfs_stack_.clear();
                if (!state.ready.empty()) dfs_stack_.push_back(0);
                while (!dfs_stack_.empty()) {
                    const std::size_t i = dfs_stack_.back();
                    dfs_stack_.pop_back();
                    const ready_ref r = state.ready[i];
                    if (r.ready_at > bound) continue;  // prunes the whole subtree
                    const std::size_t left = 2 * i + 1;
                    if (left < state.ready.size()) {
                        dfs_stack_.push_back(left);
                        if (left + 1 < state.ready.size()) dfs_stack_.push_back(left + 1);
                    }
                    offer(r);
                }
            }
            for (const std::uint64_t key : state.in_channels) {
                const channel_state& ch = channels_.find(key)->second;
                time_ns running = tmax;
                for (const channel_entry& e : ch.entries) {
                    if (e.ready_at >= running) continue;  // an earlier post blocks it
                    running = e.ready_at;
                    if (e.ready_at <= bound) {
                        cand_keys_.push_back(
                            cand_key{std::max(e.ready_at, state.busy_until), e.id,
                                     e.slot, col.thread});
                    }
                }
            }
            heap_push(thread_order_, col);  // restore the thread's head entry
        }
        std::sort(cand_keys_.begin(), cand_keys_.end(),
                  [](const cand_key& a, const cand_key& b) {
                      return a.start != b.start ? a.start < b.start : a.id < b.id;
                  });
        cand_buf_.clear();
        for (const cand_key& k : cand_keys_) {
            cand_buf_.push_back(
                sched_candidate{k.id, k.thread, k.start, &slots_[k.slot].task.label});
        }

        ++hooked_steps_;
        ++cand_counts_[std::min(cand_buf_.size(), cand_counts_.size() - 1)];

        std::size_t pick = cand_buf_.size() > 1 ? hook_->choose(cand_buf_) : 0;
        if (pick >= cand_buf_.size()) pick = 0;
        const cand_key& chosen = cand_keys_[pick];
        if (tsink_ != nullptr && cand_buf_.size() > 1) {
            tsink_->instant(obs::category::explore, chosen.thread, chosen.start,
                            "branch",
                            {obs::num("candidates", cand_buf_.size()),
                             obs::num("pick", pick), obs::num("task", chosen.id)});
        }
        return queue_entry{chosen.start, 0, chosen.id, chosen.slot,
                           slots_[chosen.slot].gen};
    }
    return std::nullopt;
}

void simulation::finish_current()
{
    const running_task done = *current_;
    current_.reset();
    auto& thread = threads_[static_cast<std::size_t>(done.thread)];
    thread.busy_until = std::max(thread.busy_until, done.start + done.consumed);
    floor_time_ = std::max(floor_time_, done.start);
    ++executed_;
}

void simulation::execute(const queue_entry& entry)
{
    pending_task task = std::move(slots_[entry.slot].task);
    release_slot(entry.slot);
    if (hook_) {
        channel_remove(task, entry.id);
        ++threads_[static_cast<std::size_t>(task.thread)].stale;
    }

    current_ = running_task{entry.id, task.thread, entry.key, 0};
    if (wm_ != nullptr) wm_->on_execute(entry.id, task.thread);
    if (hook_) hook_->on_execute(entry.id, task.thread, task.ready_at);
    try {
        task.fn();
    } catch (...) {
        // A throwing task must not leave the simulator corrupted: settle the
        // running-task record (whatever time it consumed before throwing is
        // charged) so now() stays truthful and a later run() is not rejected
        // as reentrant. The exception itself propagates to the run() caller.
        finish_current();
        throw;
    }
    const running_task done = *current_;
    finish_current();
    const time_ns end = done.start + done.consumed;

    if (tsink_ != nullptr) {
        // The event name is the task label verbatim (possibly empty).
        tsink_->complete(obs::category::task, done.thread, done.start,
                         end - done.start, task.label,
                         {obs::num("id", done.id), obs::num("ready", task.ready_at)});
    }

    if (!observers_.empty()) {
        const task_info info{done.id,   done.thread, task.ready_at,
                             done.start, end,        std::move(task.label)};
        // Index loop: observers may be added from inside a callback (they
        // take effect from the next task); removal from a callback is not
        // supported.
        for (std::size_t i = 0; i < observers_.size(); ++i) observers_[i].second(info);
    }
}

void simulation::run(std::uint64_t max_tasks)
{
    run_until(std::numeric_limits<time_ns>::max(), max_tasks);
}

void simulation::run_until(time_ns deadline, std::uint64_t max_tasks)
{
    if (running_ || current_) {
        throw std::logic_error(
            "simulation::run/run_until: reentrant call from inside a task");
    }
    running_ = true;
    std::uint64_t budget = max_tasks;
    try {
        while (budget-- > 0) {
            auto entry = next_entry(deadline);
            if (!entry) break;
            execute(*entry);
        }
    } catch (...) {
        running_ = false;
        throw;
    }
    running_ = false;
    if (deadline != std::numeric_limits<time_ns>::max()) {
        floor_time_ = std::max(floor_time_, deadline);
    }
}

}  // namespace jsk::sim
