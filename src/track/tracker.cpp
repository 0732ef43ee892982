#include "track/tracker.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"

namespace advh::track {

track_config track_config_from_env(track_config base) {
  if (const char* env = std::getenv("ADVH_TRACK_BYTES")) {
    base.table.byte_budget = static_cast<std::size_t>(parse_number(
        "ADVH_TRACK_BYTES", env, {.lo = 1, .hi = 1e15, .integer = true}));
  }
  return base;
}

query_tracker::query_tracker(const serve::clock_face& clock, track_config cfg)
    : clock_(clock), cfg_(std::move(cfg)), table_(cfg_.table) {
  if (!(cfg_.match_fraction > 0.0) || cfg_.match_fraction > 1.0) {
    throw std::invalid_argument("track match_fraction must lie in (0, 1]");
  }
  if (!(cfg_.elevate_hits > 0.0) || !(cfg_.ban_hits >= cfg_.elevate_hits)) {
    throw std::invalid_argument(
        "track thresholds need 0 < elevate_hits <= ban_hits");
  }
  if (cfg_.hit_halflife.count() <= 0) {
    throw std::invalid_argument("track hit_halflife must be positive");
  }
  if (!(cfg_.trace_hit_weight >= 0.0) || cfg_.trace_hit_weight >= 1.0) {
    throw std::invalid_argument("track trace_hit_weight must lie in [0, 1)");
  }
}

void query_tracker::decay(client_entry& e, serve::clock_duration now) const {
  const std::int64_t mark = e.decay_mark_ns;
  const std::int64_t t = now.count();
  if (t <= mark) return;  // same instant, or a later reading already applied
  const double halves = static_cast<double>(t - mark) /
                        static_cast<double>(cfg_.hit_halflife.count());
  const double factor = std::exp2(-halves);
  e.hits *= factor;
  e.trace_hits *= factor;
}

void query_tracker::escalate(client_entry& e, track_decision& d) {
  const double credit = e.hits + e.trace_hits;
  if (e.level == escalation::none && credit >= cfg_.elevate_hits) {
    e.level = escalation::elevated;
    d.newly_elevated = true;
  }
  // Bans rest on input-side evidence alone: fingerprint credit is immune
  // to measurement chaos, so ban decisions replay bitwise under
  // ADVH_FAULT_RATE.
  if (e.level == escalation::elevated && e.hits >= cfg_.ban_hits) {
    e.level = escalation::banned;
    d.newly_banned = true;
    // The flag is the only state a banned client still needs; dropping
    // the rest makes a ban shrink the table.
    e.history.clear();
    e.history.shrink_to_fit();
    e.last_sketch = hpc::trace_sketch{};
  }
  d.level = e.level;
  d.hits = e.hits;
}

track_decision query_tracker::observe(std::uint64_t client, const tensor& x) {
  const fingerprint fp = fingerprint_input(x, cfg_.fp);
  const auto now = clock_.now();

  std::lock_guard<std::mutex> lock(mutex_);
  const track_decision d = table_.with(client, [&](client_entry& e) {
    track_decision out;
    ++e.queries;
    decay(e, now);
    e.decay_mark_ns = now.count();
    if (e.level == escalation::banned) {
      out.level = e.level;
      out.hits = e.hits;
      return out;
    }
    for (const fingerprint& h : e.history) {
      if (match_fraction(fp, h) >= cfg_.match_fraction) {
        out.matched = true;
        break;
      }
    }
    if (out.matched) {
      ++e.matched;
      e.hits += 1.0;
    }
    e.history.push_back(fp);
    while (e.history.size() > cfg_.table.max_history) e.history.pop_front();
    escalate(e, out);
    return out;
  });

  ++queries_;
  if (d.matched) ++matched_;
  if (d.newly_elevated) ++elevations_;
  if (d.newly_banned) ++bans_;
  return d;
}

bool query_tracker::record_trace(std::uint64_t client,
                                 const hpc::trace_sketch& s) {
  if (s.empty()) return false;
  const auto now = clock_.now();

  // Update the global baseline first (every served query feeds it), then
  // measure this sketch's deviation from it. The baseline is the
  // drift-canary cross-check: a machine-wide baseline shift pulls the
  // baseline along, so clients are only blamed for deviations specific to
  // them.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!baseline_seeded_ || baseline_levels_.size() != s.levels.size()) {
    baseline_levels_.assign(s.levels.begin(), s.levels.end());
    baseline_seeded_ = true;
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t e = 0; e < s.levels.size(); ++e) {
    if (s.levels[e] == hpc::trace_sketch::unavailable) continue;
    const double level = static_cast<double>(s.levels[e]);
    sum += std::abs(level - baseline_levels_[e]);
    ++n;
    baseline_levels_[e] = (1.0 - cfg_.baseline_alpha) * baseline_levels_[e] +
                          cfg_.baseline_alpha * level;
  }
  const double baseline_dev = n == 0 ? 0.0 : sum / static_cast<double>(n);

  bool corroborated = false;
  const track_decision d = table_.with(client, [&](client_entry& e) {
    track_decision out;
    decay(e, now);
    e.decay_mark_ns = now.count();
    if (e.level != escalation::banned) {
      const bool same_computation =
          !e.last_sketch.empty() &&
          hpc::sketch_distance(e.last_sketch, s) <= cfg_.trace_match_level;
      if (same_computation && baseline_dev > cfg_.trace_baseline_level) {
        e.trace_hits += cfg_.trace_hit_weight;
        corroborated = true;
      }
      e.last_sketch = s;
      escalate(e, out);
    } else {
      out.level = e.level;
    }
    return out;
  });

  if (corroborated) ++trace_corroborations_;
  if (d.newly_elevated) ++elevations_;
  if (d.newly_banned) ++bans_;
  return corroborated;
}

escalation query_tracker::level(std::uint64_t client) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.level(client);
}

std::size_t query_tracker::history_size(std::uint64_t client) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.history_size(client);
}

std::size_t query_tracker::bytes_used() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return table_.bytes_used();
}

track_stats query_tracker::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  track_stats out;
  out.queries = queries_;
  out.matched = matched_;
  out.elevations = elevations_;
  out.bans = bans_;
  out.trace_corroborations = trace_corroborations_;
  out.table = table_.stats();
  return out;
}

}  // namespace advh::track
