// Stateful per-client query-stream defense (Blacklight-style).
//
// Every verdict the detector produces judges one input in isolation, but
// the paper's threat model is a query-based black-box attacker — and such
// an attack arrives as a *campaign*: thousands of near-duplicate probes
// from one client, each individually clean-ish. The tracker closes that
// gap ("Stateful Detection of Black-Box Adversarial Attacks", Blacklight;
// PAPERS.md): it fingerprints every query (track/fingerprint), keeps
// per-client history in a memory-bounded table (track/table) and
// escalates clients whose recent queries collide:
//
//   none      — queries flow normally.
//   elevated  — enough fingerprint collisions accumulated: the serving
//               layer measures this client's queries at FULL fidelity
//               (rung-0 repeats and events) regardless of the current
//               degradation rung, so the campaign is scored on the best
//               evidence exactly when it matters.
//   banned    — collision credit crossed the ban threshold: admission
//               control sheds the client's queries outright
//               (rejected_banned) and its history is dropped — a ban
//               *shrinks* the table.
//
// Escalation is accelerated — never triggered alone — by the measurement
// side: near-identical HPC trace sketches (hpc/trace_sketch) from one
// client corroborate a campaign, but only when the client's trace also
// deviates from the *global* sketch baseline. That baseline check is the
// drift-canary cross-check in miniature: when every client's baseline
// moved (silicon drift, co-tenant change — PR 4's territory), every
// client sits near the new baseline and nobody gets blamed for it. Bans
// depend on input-side fingerprints alone, so they are bitwise stable
// under measurement chaos (ADVH_FAULT_RATE).
//
// Thread safety: one mutex guards the table, the counters and the sketch
// baseline, so a driver thread may read stats() or bytes_used() while a
// service worker calls record_trace(). Fingerprinting runs outside it.
//
// Determinism: decisions are a pure function of the per-client observation
// sequence plus injected clock reads. The serving layer calls observe()
// in admission order under its scheduler lock, so a whole replayed run —
// including every ban — is bitwise identical at any worker thread count.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/clock.hpp"
#include "track/table.hpp"

namespace advh::track {

struct track_config {
  fingerprint_config fp{};
  table_config table{};
  /// A query whose fingerprint overlaps any of the client's recent
  /// fingerprints by at least this fraction counts as a match.
  double match_fraction = 0.5;
  /// Decayed match credit at or above which a client is elevated.
  double elevate_hits = 3.0;
  /// Decayed match credit at or above which a client is banned.
  double ban_hits = 8.0;
  /// Half-life of the match credit (injected-clock time): a client that
  /// stops colliding decays back toward zero instead of being one stray
  /// match away from escalation forever.
  serve::clock_duration hit_halflife = std::chrono::seconds(60);
  /// HPC corroboration: consecutive sketches within this distance
  /// (quarter-octave levels) count as "same computation"...
  double trace_match_level = 1.0;
  /// ...but only when the sketch also sits further than this from the
  /// global baseline (the drift-canary cross-check: machine-wide shifts
  /// exonerate individual clients).
  double trace_baseline_level = 2.0;
  /// Match credit one corroborating trace adds (kept below 1 so traces
  /// accelerate escalation but can never ban on their own).
  double trace_hit_weight = 0.5;
  /// Decay factor of the global sketch baseline.
  double baseline_alpha = 0.05;
};

/// Applies the strict environment override to `base` and returns it:
/// ADVH_TRACK_BYTES (positive integer, bytes) overrides table.byte_budget.
/// A set-but-malformed knob throws std::invalid_argument — the PR 4
/// strict-validation contract: a typo in a deployment manifest must fail
/// loudly, not silently mis-size the defense.
track_config track_config_from_env(track_config base = track_config{});

/// Outcome of one observed query.
struct track_decision {
  escalation level = escalation::none;
  /// This query's fingerprint collided with the client's recent history.
  bool matched = false;
  bool newly_elevated = false;
  bool newly_banned = false;
  /// Decayed match credit after this query.
  double hits = 0.0;
};

struct track_stats {
  std::uint64_t queries = 0;
  std::uint64_t matched = 0;
  std::uint64_t elevations = 0;
  std::uint64_t bans = 0;
  std::uint64_t trace_corroborations = 0;
  table_stats table{};
};

class query_tracker {
 public:
  /// Time (credit decay) comes from the injected clock: virtual-clock
  /// drivers replay bit for bit.
  query_tracker(const serve::clock_face& clock, track_config cfg);

  /// Observes one query from `client`: fingerprints the input, scores it
  /// against the client's history, updates the decayed match credit and
  /// the escalation ladder. Clients never de-escalate — an attacker does
  /// not earn a clean slate by idling.
  track_decision observe(std::uint64_t client, const tensor& x);

  /// Feeds back the HPC trace sketch of a served query (serve layer /
  /// pipeline). May elevate a client (corroboration credit), never bans.
  /// Returns true when the sketch corroborated a campaign.
  bool record_trace(std::uint64_t client, const hpc::trace_sketch& s);

  escalation level(std::uint64_t client) const;
  /// Fingerprints currently held for a client (0 when never seen).
  std::size_t history_size(std::uint64_t client) const;
  std::size_t bytes_used() const;
  track_stats stats() const;
  const track_config& config() const noexcept { return cfg_; }

 private:
  /// Applies half-life decay to an entry's credits up to `now`.
  void decay(client_entry& e, serve::clock_duration now) const;
  /// Ladder transitions from the current credits; drops history on ban.
  void escalate(client_entry& e, track_decision& d);

  const serve::clock_face& clock_;
  track_config cfg_;

  /// Guards every member below.
  mutable std::mutex mutex_;
  fingerprint_table table_;
  std::uint64_t queries_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t elevations_ = 0;
  std::uint64_t bans_ = 0;
  std::uint64_t trace_corroborations_ = 0;

  /// Global decaying per-event sketch baseline (drift cross-check).
  std::vector<double> baseline_levels_;
  bool baseline_seeded_ = false;
};

}  // namespace advh::track
