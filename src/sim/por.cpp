#include "sim/por.h"

#include <algorithm>

#include "sim/hash.h"

namespace jsk::sim::por {

namespace {

/// Overlap with at least one write on a common key. Footprints are a handful
/// of keys each, so the quadratic scan beats sorting.
bool spans_conflict(const std::vector<explore::access_rec>& log,
                    const explore::exec_rec& a, const explore::exec_rec& b)
{
    for (std::uint32_t i = a.access_begin; i < a.access_end; ++i) {
        for (std::uint32_t j = b.access_begin; j < b.access_end; ++j) {
            if (log[i].key == log[j].key && (log[i].write || log[j].write)) return true;
        }
    }
    return false;
}

}  // namespace

bool dependent(const explore::controller& ctl, task_id a, thread_id ta, task_id b,
               thread_id tb)
{
    if (ta == tb) return true;
    const std::size_t sa = ctl.step_of(a);
    const std::size_t sb = ctl.step_of(b);
    if (sa == explore::controller::no_step || sb == explore::controller::no_step) {
        return true;  // unknown footprint: never prune
    }
    const auto& exec = ctl.exec_log();
    return spans_conflict(ctl.access_log(), exec[sa], exec[sb]);
}

bool dependent_step(const explore::controller& ctl, task_id task, std::size_t step)
{
    const std::size_t st = ctl.step_of(task);
    if (st == explore::controller::no_step) return true;
    const auto& exec = ctl.exec_log();
    if (exec[st].thread == exec[step].thread) return true;
    return spans_conflict(ctl.access_log(), exec[st], exec[step]);
}

analysis::analysis(const explore::controller& ctl)
{
    const auto& exec = ctl.exec_log();
    const auto& accesses = ctl.access_log();
    const std::size_t steps = exec.size();
    thread_of_.reserve(steps);

    // Dense thread columns, discovery order.
    for (const auto& rec : exec) {
        const auto t = static_cast<std::size_t>(rec.thread);
        if (t >= thread_index_.size()) thread_index_.resize(t + 1, UINT32_MAX);
        if (thread_index_[t] == UINT32_MAX) {
            thread_index_[t] = static_cast<std::uint32_t>(thread_count_++);
        }
        thread_of_.push_back(rec.thread);
    }

    // Vector clocks: clock_[j*T + t] = 1 + the latest step on thread column t
    // that happens-before (or is) step j; 0 = none. Edges: program order on
    // each thread, plus poster-step -> posted-task edges.
    clock_.assign(steps * thread_count_, 0);
    std::vector<std::uint32_t> last_on_thread(thread_count_, UINT32_MAX);
    // Synchronizes-with: the last step that touched each SAB key seq-cst.
    // Runs without seq-cst accesses (every pre-weak-memory run) never
    // populate this, so their clocks are bit-identical to the historical
    // relation.
    struct sc_last {
        std::uint64_t key;
        std::uint32_t step;
    };
    std::vector<sc_last> sc;  // sorted by key
    for (std::size_t j = 0; j < steps; ++j) {
        std::uint32_t* vc = clock_.data() + j * thread_count_;
        const std::uint32_t tj =
            thread_index_[static_cast<std::size_t>(exec[j].thread)];
        if (last_on_thread[tj] != UINT32_MAX) {
            const std::uint32_t* prev = clock_.data() + last_on_thread[tj] * thread_count_;
            std::copy(prev, prev + thread_count_, vc);
        }
        if (const std::size_t poster = ctl.poster_step_of(exec[j].task);
            poster != explore::controller::no_step) {
            const std::uint32_t* pvc = clock_.data() + poster * thread_count_;
            for (std::size_t t = 0; t < thread_count_; ++t) {
                vc[t] = std::max(vc[t], pvc[t]);
            }
        }
        for (std::uint32_t i = exec[j].access_begin; i < exec[j].access_end; ++i) {
            if (accesses[i].ord != order_seqcst) continue;
            const std::uint64_t k = accesses[i].key;
            const auto it = std::lower_bound(
                sc.begin(), sc.end(), k,
                [](const sc_last& c, std::uint64_t key) { return c.key < key; });
            if (it != sc.end() && it->key == k) {
                if (it->step != j) {
                    const std::uint32_t* svc = clock_.data() + it->step * thread_count_;
                    for (std::size_t t = 0; t < thread_count_; ++t) {
                        vc[t] = std::max(vc[t], svc[t]);
                    }
                    const std::uint32_t st =
                        thread_index_[static_cast<std::size_t>(thread_of_[it->step])];
                    vc[st] = std::max(vc[st], it->step + 1);
                }
                it->step = static_cast<std::uint32_t>(j);
            } else {
                sc.insert(it, sc_last{k, static_cast<std::uint32_t>(j)});
            }
        }
        vc[tj] = static_cast<std::uint32_t>(j) + 1;
        last_on_thread[tj] = static_cast<std::uint32_t>(j);
    }

    // Coverage fingerprints: per-key access-order chains. The chain value
    // after each touch of a *sink* key is also a monitor-prefix hash.
    struct chain {
        std::uint64_t key;
        std::uint64_t hash;
    };
    std::vector<chain> chains;  // sorted by key
    const auto chain_of = [&](std::uint64_t k) -> chain& {
        const auto it = std::lower_bound(
            chains.begin(), chains.end(), k,
            [](const chain& c, std::uint64_t key) { return c.key < key; });
        if (it != chains.end() && it->key == k) return *it;
        return *chains.insert(it, chain{k, fnv1a_le(fnv1a_offset, k)});
    };
    for (std::size_t j = 0; j < steps; ++j) {
        for (std::uint32_t i = exec[j].access_begin; i < exec[j].access_end; ++i) {
            chain& c = chain_of(accesses[i].key);
            c.hash = fnv1a_le(
                c.hash, (static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(exec[j].thread))
                         << 1) |
                            (accesses[i].write ? 1 : 0));
            if ((accesses[i].key >> 56) == static_cast<std::uint64_t>(resource::sink)) {
                sink_prefixes_.push_back(c.hash);
            }
        }
    }
    class_hash_ = fnv1a_offset;
    for (const chain& c : chains) {
        class_hash_ = fnv1a_le(fnv1a_le(class_hash_, c.key), c.hash);
    }
}

bool analysis::happens_before(std::size_t i, std::size_t j) const
{
    if (i == j || j >= steps() || i >= steps()) return false;
    const std::uint32_t ti = thread_index_[static_cast<std::size_t>(thread_of_[i])];
    return clock_[j * thread_count_ + ti] >= static_cast<std::uint32_t>(i) + 1;
}

std::uint64_t race_count(const explore::controller& ctl, const analysis& an)
{
    const auto& exec = ctl.exec_log();
    const auto& log = ctl.access_log();
    std::uint64_t races = 0;
    for (std::size_t i = 0; i + 1 < exec.size(); ++i) {
        for (std::size_t j = i + 1; j < exec.size(); ++j) {
            if (!an.concurrent(i, j)) continue;
            bool racy = false;
            for (std::uint32_t a = exec[i].access_begin;
                 a < exec[i].access_end && !racy; ++a) {
                if (log[a].ord == order_none) continue;  // not a memory access
                for (std::uint32_t b = exec[j].access_begin;
                     b < exec[j].access_end && !racy; ++b) {
                    racy = log[b].ord != order_none && log[a].key == log[b].key &&
                           (log[a].write || log[b].write) &&
                           !(log[a].ord == order_seqcst && log[b].ord == order_seqcst);
                }
            }
            if (racy) ++races;
        }
    }
    return races;
}

}  // namespace jsk::sim::por
