// jsk::svc — the disk-persistent witness-keyed result store.
//
// A store is a directory of append-only shard files holding canonical
// records (svc/record.h), plus a CURRENT file naming the live generation:
//
//   CURRENT                     "G\n" — the generation whose files are live
//   gen-G-shard-S.jsk           records whose fnv1a(key) % shards == S
//
// Writes append one CRC-framed record and flush; reads are served from an
// index built at open over mmap-backed file contents, so a warm process
// recalls millions of cached outcomes at memory speed without heap-copying
// the shard files. Crash safety is structural: on open, each shard is
// scanned front to back and the file is truncated to its last valid record
// — a torn tail (power cut mid-append) or a bit-flipped record costs the
// corrupted suffix, never the store (the surviving prefix is a correct
// partial cache, because records are self-contained and keys content-
// addressed).
//
// Durability is layered: each put() flushes its record to the OS (a crash
// loses at most the in-flight record), and sync() batch-fsyncs every shard
// touched since the last sync — the service calls it once per wave, before
// acknowledging results, so an acknowledged outcome is on the platter, not
// in a page cache. CURRENT flips are write-tmp → fsync → rename → fsync
// the directory; a crash anywhere in the sequence leaves the old
// generation live and complete.
//
// All file operations route through a svc::vfs (fault-injectable; the
// default is a passthrough costing one branch per op). Persistent write
// failures — a full disk, a dying device — do NOT throw mid-wave: the
// store enters a journaled read-only degraded mode, keeps serving from the
// mmap index and the in-memory session values, queues the promotions it
// could not persist, and lets retry_writes() re-attempt them once the
// disk recovers. faults::crash_error (the injected process kill) is never
// caught anywhere on this path.
//
// Eviction is epoch-based: erase()/evict_if() drop entries from the live
// index, and compact() rewrites exactly the live entries — in canonical
// key order, so compacted shard bytes are a pure function of the contents
// — into generation G+1, flips CURRENT, and deletes the old files. A crash
// anywhere before the CURRENT flip leaves generation G intact.
//
// The store is single-threaded by design (the service serializes store
// access around its parallel waves); `put` is first-insert-wins, matching
// the in-memory cache: every writer of a key computed the same bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/vfs.h"

namespace jsk::svc {

/// A store-level structural failure (generation flip, compaction staging),
/// with errno context inherited from the underlying io_error.
class store_error : public io_error {
public:
    using io_error::io_error;
};

struct store_options {
    std::string dir;          // created if missing
    std::size_t shards = 8;   // files per generation
    /// File operations seam; nullptr = the shared passthrough default_vfs().
    /// Not owned; must outlive the store.
    vfs* fs = nullptr;
    /// sync() fsyncs dirty shards (true) or stops at the OS flush already
    /// performed per put (false); the stored bytes are the same either way.
    bool fsync = true;
};

struct store_stats {
    std::uint64_t generation = 0;
    std::uint64_t entries = 0;           // live (indexed) records
    std::uint64_t bytes = 0;             // key+value payload bytes of live records
    std::uint64_t loaded_records = 0;    // valid records recalled at open
    std::uint64_t appended_records = 0;  // put()s that hit disk this session
    std::uint64_t dropped_records = 0;   // bad-CRC records hit at open
    std::uint64_t truncated_bytes = 0;   // corrupt/torn suffix bytes cut at open
    std::uint64_t recalls = 0;           // get() hits
    std::uint64_t compactions = 0;
    std::uint64_t fsyncs = 0;            // shard fsyncs issued by sync()
    std::uint64_t sync_failures = 0;     // sync() calls that hit an I/O error
    std::uint64_t queued_promotions = 0; // puts queued while degraded
    std::uint64_t degraded_entries = 0;  // times the store entered degraded mode
};

class store {
public:
    /// Open (creating the directory and CURRENT on first use) and build the
    /// index. Throws store_error/io_error on structural I/O failure — but
    /// never on corrupt record *contents*, which are truncated away instead.
    explicit store(store_options opt);
    ~store();

    store(const store&) = delete;
    store& operator=(const store&) = delete;

    /// The stored value, or nullopt. The view is valid until compact() or
    /// destruction (it aliases the mmap or the session append log).
    std::optional<std::string_view> get(const std::string& key);

    [[nodiscard]] bool contains(const std::string& key) const;

    /// Append (key, value) if the key is not live. Returns whether the key
    /// entered the live index; a duplicate put is a no-op (first-insert-
    /// wins). Never throws for I/O: a persistent write failure flips the
    /// store into degraded mode and queues the record for retry_writes().
    bool put(const std::string& key, const std::string& value);

    /// Batch-fsync every shard touched since the last sync(); the service's
    /// ack barrier. Returns false (and enters degraded mode) on persistent
    /// failure instead of throwing mid-wave. A no-op when opt.fsync is off
    /// or nothing is dirty.
    bool sync();

    // --- degraded mode ------------------------------------------------------

    /// True once a persistent write failure put the store in read-only
    /// degraded mode: gets are served (mmap + session memory), puts queue.
    [[nodiscard]] bool degraded() const { return degraded_; }

    /// The journal of degradation events (reason strings, in order).
    [[nodiscard]] const std::vector<std::string>& degraded_log() const
    {
        return degraded_log_;
    }

    /// Try to leave degraded mode: truncate each damaged shard back to its
    /// last known-good byte, re-append every queued record, and sync.
    /// Returns true when the queue drained and the store is clean again.
    bool retry_writes();

    /// Drop a key from the live index. In-memory until the next compact()
    /// persists the eviction — a reopen without compacting resurrects it
    /// (the record is still on disk, and it is still a true outcome).
    void erase(const std::string& key);

    /// erase() every live key `pred` selects. Returns how many.
    template <typename Pred>
    std::size_t evict_if(Pred&& pred)
    {
        std::vector<std::string> doomed;
        for (const auto& [key, slot] : index_) {
            if (pred(key)) doomed.push_back(key);
        }
        for (const auto& key : doomed) erase(key);
        return doomed.size();
    }

    /// Rewrite the live entries into generation+1 (canonical key order,
    /// deterministic bytes), flip CURRENT, fsync the directory, delete the
    /// old generation's files, and re-open on the new one. Throws
    /// store_error (errno context, staged files cleaned up) on failure;
    /// refuses outright while degraded.
    void compact();

    /// Visit every live (key, value) in canonical key order.
    template <typename Fn>
    void for_each(Fn&& fn) const
    {
        for (const auto& [key, slot] : index_) {
            fn(key, std::string_view(slot.data, slot.size));
        }
    }

    [[nodiscard]] const store_stats& stats() const { return stats_; }
    [[nodiscard]] std::size_t shard_count() const { return opt_.shards; }
    [[nodiscard]] const std::string& dir() const { return opt_.dir; }

    /// Shard index a key maps to: stable fnv1a over the key bytes.
    [[nodiscard]] std::size_t shard_of(const std::string& key) const;

private:
    struct slot {
        const char* data = nullptr;
        std::uint32_t size = 0;
    };

    /// One shard file's read-only contents, mmap-backed where the platform
    /// allows (heap-read fallback elsewhere); empty files map to nothing.
    class mapping;

    void load_generation(std::uint64_t generation);
    void scan_shard(std::size_t shard_index);
    /// Append + flush one encoded record; throws io_error on failure.
    void append_to_shard(std::size_t shard_index, const std::string& encoded);
    void enter_degraded(const std::string& reason);
    void remove_stale_files(std::uint64_t live_generation);
    [[nodiscard]] std::string shard_path(std::uint64_t generation,
                                         std::size_t shard_index) const;
    [[nodiscard]] vfs& fs() const { return *fs_; }

    store_options opt_;
    vfs* fs_ = nullptr;
    store_stats stats_;
    std::map<std::string, slot> index_;         // canonical key order
    std::vector<std::unique_ptr<mapping>> maps_;  // one per shard (may be null)
    std::deque<std::string> session_values_;    // values put() this session
    std::vector<std::unique_ptr<vfs::file>> appenders_;  // lazily-opened streams
    std::vector<std::uint64_t> good_size_;      // known-good content bytes per shard
    std::vector<bool> dirty_;                   // shards appended since last sync()
    std::vector<bool> torn_;                    // shards whose tail may be partial
    bool degraded_ = false;
    std::vector<std::string> degraded_log_;
    std::deque<std::string> queued_;            // keys whose records await retry
};

}  // namespace jsk::svc
