#include "track/table.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace advh::track {

const char* to_string(escalation e) noexcept {
  switch (e) {
    case escalation::none:
      return "none";
    case escalation::elevated:
      return "elevated";
    case escalation::banned:
      return "banned";
  }
  return "?";
}

fingerprint_table::fingerprint_table(const table_config& cfg) : cfg_(cfg) {
  ADVH_CHECK_MSG(cfg_.min_history >= 1 &&
                     cfg_.min_history <= cfg_.max_history,
                 "track min_history must lie in [1, max_history]");
  ADVH_CHECK_MSG(cfg_.byte_budget >= 4096,
                 "track byte budget too small (need >= 4 KiB)");
}

const client_entry* fingerprint_table::find(std::uint64_t client) const {
  const auto it = entries_.find(client);
  return it == entries_.end() ? nullptr : &it->second;
}

client_entry& fingerprint_table::find_or_create(std::uint64_t client) {
  ++op_;
  const auto [it, created] = entries_.try_emplace(client);
  client_entry& e = it->second;
  e.last_touch = op_;
  if (created) {
    e.client = client;
    e.bytes = entry_bytes(e);
    bytes_ += e.bytes;
  }
  return e;
}

std::size_t fingerprint_table::entry_bytes(const client_entry& e) noexcept {
  std::size_t b = sizeof(client_entry);
  for (const fingerprint& fp : e.history) b += sizeof(fingerprint) + fp.bytes();
  b += e.last_sketch.bytes();
  return b;
}

void fingerprint_table::reaccount(client_entry& e,
                                  std::size_t before) noexcept {
  const std::size_t after = entry_bytes(e);
  e.bytes = after;
  bytes_ += after;
  bytes_ -= before;
}

void fingerprint_table::trim_entry(client_entry& e, std::size_t floor) {
  const std::size_t before = e.bytes;
  while (e.history.size() > floor) {
    e.history.pop_front();
    ++evicted_fingerprints_;
  }
  reaccount(e, before);
}

void fingerprint_table::enforce_budget(client_entry& touched) {
  if (bytes_ <= cfg_.byte_budget) return;
  // Evict to a low-water mark so a table sitting at its budget does not
  // rescan its whole population on every insert.
  const std::size_t low_water = cfg_.byte_budget - cfg_.byte_budget / 10;

  // Stage 1 — the client that just grew pays first: a client spraying
  // unique fingerprints consumes its own history, not its neighbours'.
  // (A banned client's history is already empty.)
  trim_entry(touched, cfg_.min_history);
  if (bytes_ <= low_water) return;

  // Stage 2 — trim the largest remaining histories down to the horizon,
  // in a total order (bytes desc, recency asc, client id asc) so eviction
  // replays identically.
  std::vector<client_entry*> order;
  order.reserve(entries_.size());
  for (auto& [client, e] : entries_) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const client_entry* x, const client_entry* y) {
              if (x->bytes != y->bytes) return x->bytes > y->bytes;
              if (x->last_touch != y->last_touch) {
                return x->last_touch < y->last_touch;
              }
              return x->client < y->client;
            });
  for (client_entry* e : order) {
    if (bytes_ <= low_water) return;
    trim_entry(*e, cfg_.min_history);
  }
  if (bytes_ <= cfg_.byte_budget) return;

  // Stage 3 — every history is at the horizon and the table still does
  // not fit: distinct active clients saturate it. Evict whole idle,
  // unescalated clients, least recently seen first. Escalated/banned
  // clients are exempt — their state is detection output, and banned
  // entries are already history-free (see tracker ban path).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lru;  // (touch, id)
  lru.reserve(entries_.size());
  for (const auto& [client, e] : entries_) {
    if (e.level == escalation::none && client != touched.client) {
      lru.emplace_back(e.last_touch, client);
    }
  }
  std::sort(lru.begin(), lru.end());
  for (const auto& [touch, client] : lru) {
    if (bytes_ <= low_water) return;
    const auto it = entries_.find(client);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    ++evicted_clients_;
  }
  // Whatever remains is escalated state plus the touched client's horizon
  // — the irreducible working set; it is bounded by construction
  // (min_history fingerprints per remaining client).
}

escalation fingerprint_table::level(std::uint64_t client) const {
  const client_entry* e = find(client);
  return e == nullptr ? escalation::none : e->level;
}

std::size_t fingerprint_table::history_size(std::uint64_t client) const {
  const client_entry* e = find(client);
  return e == nullptr ? 0 : e->history.size();
}

table_stats fingerprint_table::stats() const {
  table_stats out;
  out.byte_budget = cfg_.byte_budget;
  out.tracked_clients = entries_.size();
  out.bytes_used = bytes_;
  out.evicted_fingerprints = evicted_fingerprints_;
  out.evicted_clients = evicted_clients_;
  for (const auto& [client, e] : entries_) {
    if (e.level == escalation::elevated) ++out.elevated_clients;
    if (e.level == escalation::banned) ++out.banned_clients;
  }
  return out;
}

}  // namespace advh::track
