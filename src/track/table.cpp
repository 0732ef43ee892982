#include "track/table.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace advh::track {

namespace {

std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

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
  ADVH_CHECK_MSG(cfg_.shards >= 1, "track table needs at least one shard");
  ADVH_CHECK_MSG(cfg_.vnodes >= 1, "track table needs at least one vnode");
  ADVH_CHECK_MSG(cfg_.min_history >= 1 &&
                     cfg_.min_history <= cfg_.max_history,
                 "track min_history must lie in [1, max_history]");
  shard_budget_ = cfg_.byte_budget / cfg_.shards;
  ADVH_CHECK_MSG(shard_budget_ >= 4096,
                 "track byte budget too small for the shard count "
                 "(need >= 4 KiB per shard)");
  shards_ = std::vector<shard>(cfg_.shards);
  ring_.reserve(cfg_.shards * cfg_.vnodes);
  for (std::uint32_t sh = 0; sh < cfg_.shards; ++sh) {
    for (std::size_t v = 0; v < cfg_.vnodes; ++v) {
      const std::uint64_t point =
          mix64(cfg_.salt ^ (static_cast<std::uint64_t>(sh) << 32) ^ v);
      ring_.emplace_back(point, sh);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t fingerprint_table::shard_of(std::uint64_t client) const noexcept {
  const std::uint64_t h = mix64(cfg_.salt ^ client);
  // First ring point at or after the client's hash, wrapping at the end.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const auto& node, std::uint64_t key) { return node.first < key; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

client_entry* fingerprint_table::find(shard& s, std::uint64_t client) {
  auto it = std::lower_bound(
      s.index.begin(), s.index.end(), client,
      [](const auto& p, std::uint64_t key) { return p.first < key; });
  if (it == s.index.end() || it->first != client) return nullptr;
  return &s.entries[it->second];
}

const client_entry* fingerprint_table::find(const shard& s,
                                            std::uint64_t client) {
  auto it = std::lower_bound(
      s.index.begin(), s.index.end(), client,
      [](const auto& p, std::uint64_t key) { return p.first < key; });
  if (it == s.index.end() || it->first != client) return nullptr;
  return &s.entries[it->second];
}

client_entry& fingerprint_table::find_or_create(shard& s,
                                                std::uint64_t client) {
  ++s.op;
  if (client_entry* e = find(s, client)) {
    e->last_touch = s.op;
    return *e;
  }
  client_entry e;
  e.client = client;
  e.last_touch = s.op;
  e.bytes = entry_bytes(e);
  s.bytes += e.bytes;
  s.entries.push_back(std::move(e));
  auto it = std::lower_bound(
      s.index.begin(), s.index.end(), client,
      [](const auto& p, std::uint64_t key) { return p.first < key; });
  s.index.insert(it, {client, s.entries.size() - 1});
  return s.entries.back();
}

std::size_t fingerprint_table::entry_bytes(const client_entry& e) noexcept {
  std::size_t b = sizeof(client_entry);
  for (const fingerprint& fp : e.history) b += sizeof(fingerprint) + fp.bytes();
  b += e.last_sketch.bytes();
  return b;
}

void fingerprint_table::reaccount(shard& s, client_entry& e,
                                  std::size_t before) noexcept {
  const std::size_t after = entry_bytes(e);
  e.bytes = after;
  s.bytes += after;
  s.bytes -= before;
}

std::size_t fingerprint_table::trim_entry(shard& s, client_entry& e,
                                          std::size_t floor) {
  const std::size_t before = e.bytes;
  while (e.history.size() > floor) {
    e.history.pop_front();
    ++s.evicted_fingerprints;
  }
  reaccount(s, e, before);
  return before - e.bytes;
}

void fingerprint_table::erase_entry(shard& s, std::uint64_t client) {
  auto it = std::lower_bound(
      s.index.begin(), s.index.end(), client,
      [](const auto& p, std::uint64_t key) { return p.first < key; });
  if (it == s.index.end() || it->first != client) return;
  const std::size_t pos = it->second;
  s.bytes -= s.entries[pos].bytes;
  s.index.erase(it);
  ++s.evicted_clients;
  const std::size_t last = s.entries.size() - 1;
  if (pos != last) {
    s.entries[pos] = std::move(s.entries[last]);
    // Re-point the moved entry's index slot.
    auto moved = std::lower_bound(
        s.index.begin(), s.index.end(), s.entries[pos].client,
        [](const auto& p, std::uint64_t key) { return p.first < key; });
    moved->second = pos;
  }
  s.entries.pop_back();
}

void fingerprint_table::enforce_budget(shard& s, std::uint64_t touched) {
  if (s.bytes <= shard_budget_) return;
  // Evict to a low-water mark so a shard sitting at its budget does not
  // rescan its whole population on every insert.
  const std::size_t low_water = shard_budget_ - shard_budget_ / 10;

  // Stage 1 — the client that just grew pays first: a client spraying
  // unique fingerprints consumes its own history, not its neighbours'.
  if (client_entry* e = find(s, touched)) {
    if (e->level != escalation::banned) {
      trim_entry(s, *e, cfg_.min_history);
    }
    if (s.bytes <= low_water) return;
  }

  // Stage 2 — trim the largest remaining histories down to the horizon,
  // in a total order (bytes desc, recency asc, client id asc) so eviction
  // replays identically.
  std::vector<std::size_t> order(s.entries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const client_entry& x = s.entries[a];
    const client_entry& y = s.entries[b];
    if (x.bytes != y.bytes) return x.bytes > y.bytes;
    if (x.last_touch != y.last_touch) return x.last_touch < y.last_touch;
    return x.client < y.client;
  });
  for (std::size_t i : order) {
    if (s.bytes <= low_water) return;
    trim_entry(s, s.entries[i], cfg_.min_history);
  }
  if (s.bytes <= shard_budget_) return;

  // Stage 3 — every history is at the horizon and the shard still does
  // not fit: distinct active clients saturate it. Evict whole idle,
  // unescalated clients, least recently seen first. Escalated/banned
  // clients are exempt — their state is detection output, and banned
  // entries are already history-free (see tracker ban path).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> lru;  // (touch, id)
  lru.reserve(s.entries.size());
  for (const client_entry& e : s.entries) {
    if (e.level == escalation::none && e.client != touched) {
      lru.emplace_back(e.last_touch, e.client);
    }
  }
  std::sort(lru.begin(), lru.end());
  for (const auto& [touch, client] : lru) {
    if (s.bytes <= low_water) return;
    erase_entry(s, client);
  }
  // Whatever remains is escalated state plus the touched client's horizon
  // — the irreducible working set; it is bounded by construction
  // (min_history fingerprints per remaining client).
}

escalation fingerprint_table::level(std::uint64_t client) const {
  const shard& s = shards_[shard_of(client)];
  std::lock_guard<std::mutex> lock(s.mutex);
  const client_entry* e = find(s, client);
  return e == nullptr ? escalation::none : e->level;
}

std::size_t fingerprint_table::history_size(std::uint64_t client) const {
  const shard& s = shards_[shard_of(client)];
  std::lock_guard<std::mutex> lock(s.mutex);
  const client_entry* e = find(s, client);
  return e == nullptr ? 0 : e->history.size();
}

std::size_t fingerprint_table::bytes_used() const {
  std::size_t total = 0;
  for (const shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    total += s.bytes;
  }
  return total;
}

table_stats fingerprint_table::stats() const {
  table_stats out;
  out.byte_budget = cfg_.byte_budget;
  for (const shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    out.tracked_clients += s.entries.size();
    out.bytes_used += s.bytes;
    out.evicted_fingerprints += s.evicted_fingerprints;
    out.evicted_clients += s.evicted_clients;
    for (const client_entry& e : s.entries) {
      if (e.level == escalation::elevated) ++out.elevated_clients;
      if (e.level == escalation::banned) ++out.banned_clients;
    }
  }
  return out;
}

}  // namespace advh::track
