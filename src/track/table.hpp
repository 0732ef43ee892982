// Memory-bounded per-client fingerprint table.
//
// The table is the storage layer of the query tracker: one entry per seen
// client, holding its recent fingerprint history, its last HPC trace
// sketch, and its escalation state. It keeps:
//
//   * a hard byte budget — the table NEVER exceeds it: every mutation
//     re-accounts the entry's bytes and evicts before returning.
//   * fairness under adversarial load — eviction trims the client that
//     just grew first (a client spraying unique fingerprints eats its own
//     history), then trims the largest histories down to — but never
//     below — `min_history`, the match-detection horizon. Whole-client
//     eviction (idle, unescalated clients, least recently seen first) is
//     the last resort, reached only when distinct active clients, not one
//     sprayer, saturate the table. Escalated and banned clients are never
//     evicted: detection state must survive exactly the memory pressure an
//     attacker can generate. A banned client's history is dropped on ban —
//     the flag is the only state that still matters — so bans *shrink* the
//     table.
//
// The table has no lock of its own: its owner (track::query_tracker)
// serialises every call. Determinism: all eviction ordering is total
// (bytes, then recency, then client id), so table state is a pure function
// of the sequence of operations. The serving layer calls the tracker in
// admission order, which the driver controls — worker thread count never
// changes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

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
  /// Table operation stamp of the last touch (LRU order).
  std::uint64_t last_touch = 0;
};

struct table_config {
  /// Hard byte budget of the whole table (at least 4 KiB).
  std::size_t byte_budget = std::size_t{8} << 20;
  /// Fingerprints kept per client before normal rotation.
  std::size_t max_history = 32;
  /// Match-detection horizon: eviction never trims a client below this
  /// many fingerprints. The fairness contract — one sprayer cannot push
  /// any other client below the horizon — holds whenever
  /// min_history * active_clients fits the byte budget.
  std::size_t min_history = 8;
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
  /// then re-accounts the entry's bytes and enforces the byte budget
  /// before returning. `fn` must not keep the reference. Returns fn's
  /// result.
  template <typename F>
  auto with(std::uint64_t client, F&& fn) {
    client_entry& e = find_or_create(client);
    const std::size_t before = e.bytes;
    auto result = fn(e);
    reaccount(e, before);
    enforce_budget(e);
    return result;
  }

  /// Escalation level of a client (none when never seen).
  escalation level(std::uint64_t client) const;

  /// Fingerprints currently held for a client (0 when never seen).
  std::size_t history_size(std::uint64_t client) const;

  std::size_t bytes_used() const noexcept { return bytes_; }
  table_stats stats() const;

 private:
  client_entry& find_or_create(std::uint64_t client);
  const client_entry* find(std::uint64_t client) const;
  static std::size_t entry_bytes(const client_entry& e) noexcept;
  void reaccount(client_entry& e, std::size_t before) noexcept;
  /// Evicts until the table fits its budget; `touched` is the entry whose
  /// mutation triggered the check (trimmed first, never evicted whole).
  void enforce_budget(client_entry& touched);
  /// Trims one client's history down to `floor`.
  void trim_entry(client_entry& e, std::size_t floor);

  table_config cfg_;
  std::map<std::uint64_t, client_entry> entries_;  ///< keyed by client id
  std::size_t bytes_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t evicted_fingerprints_ = 0;
  std::uint64_t evicted_clients_ = 0;
};

}  // namespace advh::track
