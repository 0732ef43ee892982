// Sharded, memory-bounded per-client fingerprint table.
//
// The table is the storage layer of the query tracker: one entry per seen
// client, holding its recent fingerprint history, its last HPC trace
// sketch, and its escalation state. It is built for million-user scale:
//
//   * consistent hashing across shards — clients map to shards through a
//     ring of virtual nodes, so a change of shard count moves only the
//     ~1/N of clients whose ring arc changes owner instead of rehashing
//     the world. Each shard has its own mutex; clients on different
//     shards never contend.
//   * a hard byte budget — partitioned evenly across shards so eviction is
//     a shard-local decision (no cross-shard coordination, no global lock).
//     The table NEVER exceeds the budget: every mutation re-accounts the
//     entry's bytes and evicts before returning.
//   * fairness under adversarial load — eviction trims the client that
//     just grew first (a client spraying unique fingerprints eats its own
//     history), then trims the largest histories down to — but never
//     below — `min_history`, the match-detection horizon. Whole-client
//     eviction (idle, unescalated clients, least recently seen first) is
//     the last resort, reached only when distinct active clients, not one
//     sprayer, saturate the shard. Escalated and banned clients are never
//     evicted: detection state must survive exactly the memory pressure an
//     attacker can generate. A banned client's history is dropped on ban —
//     the flag is the only state that still matters — so bans *shrink* the
//     table.
//
// Determinism: every mutation happens under the owning shard's lock and
// all eviction ordering is total (bytes, then recency, then client id), so
// table state is a pure function of the per-shard sequence of operations.
// The serving layer calls the table in admission order, which the driver
// controls — worker thread count never changes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>
#include <vector>

#include "hpc/trace_sketch.hpp"
#include "track/fingerprint.hpp"

namespace advh::track {

/// Escalation ladder of one client, monotone non-decreasing over its
/// lifetime: none -> elevated (full-fidelity measurement priority) ->
/// banned (shed at admission).
enum class escalation : std::uint8_t { none = 0, elevated = 1, banned = 2 };

const char* to_string(escalation e) noexcept;

struct client_entry {
  std::uint64_t client = 0;
  /// Recent query fingerprints, oldest first.
  std::deque<fingerprint> history;
  /// Last query's HPC trace sketch (empty until the first record_trace).
  hpc::trace_sketch last_sketch;
  /// Decayed fingerprint-match credit (the Blacklight match counter).
  double hits = 0.0;
  /// Decayed HPC-trace corroboration credit.
  double trace_hits = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t matched = 0;
  /// Clock time of the last hit-credit decay (tracker-managed).
  std::int64_t decay_mark_ns = 0;
  escalation level = escalation::none;
  /// Accounted heap bytes of this entry (maintained by the table).
  std::size_t bytes = 0;
  /// Shard-local operation stamp of the last touch (LRU order).
  std::uint64_t last_touch = 0;
};

struct table_config {
  std::size_t shards = 8;
  /// Virtual ring nodes per shard (consistent-hashing granularity).
  std::size_t vnodes = 16;
  /// Hard byte budget over all shards (partitioned evenly).
  std::size_t byte_budget = std::size_t{8} << 20;
  /// Fingerprints kept per client before normal rotation.
  std::size_t max_history = 32;
  /// Match-detection horizon: eviction never trims a client below this
  /// many fingerprints. The fairness contract — one sprayer cannot push
  /// any other client below the horizon — holds whenever
  /// min_history * active_clients_per_shard fits the shard budget.
  std::size_t min_history = 8;
  std::uint64_t salt = 0xadb1ac7ULL;
};

struct table_stats {
  std::uint64_t tracked_clients = 0;
  std::uint64_t elevated_clients = 0;
  std::uint64_t banned_clients = 0;
  /// Fingerprints evicted under byte pressure (rotation past max_history
  /// is not eviction and is not counted).
  std::uint64_t evicted_fingerprints = 0;
  /// Whole clients evicted under byte pressure.
  std::uint64_t evicted_clients = 0;
  std::size_t bytes_used = 0;
  std::size_t byte_budget = 0;
};

class fingerprint_table {
 public:
  explicit fingerprint_table(const table_config& cfg);

  fingerprint_table(const fingerprint_table&) = delete;
  fingerprint_table& operator=(const fingerprint_table&) = delete;

  /// Runs `fn(client_entry&)` for the client's entry — created on demand —
  /// under the owning shard's lock, then re-accounts the entry's bytes and
  /// enforces the shard byte budget before returning. `fn` must not keep
  /// the reference. Returns fn's result.
  template <typename F>
  decltype(auto) with(std::uint64_t client, F&& fn) {
    shard& s = shards_[shard_of(client)];
    std::lock_guard<std::mutex> lock(s.mutex);
    client_entry& e = find_or_create(s, client);
    const std::size_t before = e.bytes;
    if constexpr (std::is_void_v<decltype(fn(e))>) {
      fn(e);
      reaccount(s, e, before);
      enforce_budget(s, client);
    } else {
      decltype(auto) r = fn(e);
      reaccount(s, e, before);
      enforce_budget(s, client);
      return r;
    }
  }

  /// Escalation level of a client (none when never seen).
  escalation level(std::uint64_t client) const;

  /// Fingerprints currently held for a client (0 when never seen).
  std::size_t history_size(std::uint64_t client) const;

  /// Consistent-hash owner shard of a client (exposed for tests and the
  /// replay bench's shard-occupancy report).
  std::size_t shard_of(std::uint64_t client) const noexcept;

  std::size_t bytes_used() const;
  table_stats stats() const;
  const table_config& config() const noexcept { return cfg_; }

 private:
  struct shard {
    mutable std::mutex mutex;
    std::vector<client_entry> entries;  ///< unordered; found by scan of map
    /// client -> index into entries (dense map keeps eviction O(1) swaps).
    std::vector<std::pair<std::uint64_t, std::size_t>> index;
    std::size_t bytes = 0;
    std::uint64_t op = 0;
    std::uint64_t evicted_fingerprints = 0;
    std::uint64_t evicted_clients = 0;
  };

  client_entry& find_or_create(shard& s, std::uint64_t client);
  static client_entry* find(shard& s, std::uint64_t client);
  static const client_entry* find(const shard& s, std::uint64_t client);
  static std::size_t entry_bytes(const client_entry& e) noexcept;
  void reaccount(shard& s, client_entry& e, std::size_t before) noexcept;
  /// Evicts under the shard lock until the shard fits its budget slice;
  /// `touched` is the client whose mutation triggered the check (trimmed
  /// first).
  void enforce_budget(shard& s, std::uint64_t touched);
  /// Trims one client's history down to `floor`; returns bytes freed.
  std::size_t trim_entry(shard& s, client_entry& e, std::size_t floor);
  void erase_entry(shard& s, std::uint64_t client);

  table_config cfg_;
  std::size_t shard_budget_ = 0;
  /// Consistent-hash ring: (point, shard), sorted by point.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
  std::vector<shard> shards_;
};

}  // namespace advh::track
