// Stateful query-stream defense tests: content fingerprints (quantize +
// min-hash windows), HPC trace sketches, the memory-bounded fingerprint
// table (byte budget, eviction fairness under adversarial load), the
// escalation ladder (elevate -> ban, decay, chaos-stable bans), the
// drift-canary cross-check on trace corroboration, the tracker's lock
// under a concurrent reader, a client-tagged stream through the serving
// path, and the strict-validation sweep over every ADVH_* environment
// knob.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/pipeline.hpp"
#include "hpc/factory.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "hpc/trace_sketch.hpp"
#include "nn/models/models.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"

namespace advh::track {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;

// ------------------------------------------------------------- fixtures --

/// Deterministic test input; `variant` selects an independent content
/// pattern (a different natural image), `perturb` adds a
/// sub-quantization-step perturbation (a near-duplicate attack probe).
/// The per-pixel bins come from a splitmix-style mix of (index, variant):
/// a mere phase shift of a periodic ramp would leave the *set* of sliding
/// windows unchanged, making every variant fingerprint-collide.
tensor test_input(std::uint64_t variant = 0, double perturb = 0.0) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL +
                      (variant + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
    // Values sit at quantization-bin centres (step 0.05), so perturbations
    // below step/2 = 0.025 always quantize away.
    const auto bin = static_cast<double>(h % 23);
    x.data()[i] = static_cast<float>(0.05 + 0.1 * bin +
                                     perturb * ((i % 2 == 0) ? 1.0 : -1.0));
  }
  return x;
}

fingerprint_config small_fp_config() {
  fingerprint_config cfg;
  cfg.window = 8;
  cfg.top_k = 32;
  return cfg;
}

track_config fast_track_config() {
  track_config cfg;
  cfg.fp = small_fp_config();
  cfg.elevate_hits = 3.0;
  cfg.ban_hits = 6.0;
  return cfg;
}

// --------------------------------------------------------- fingerprints --

TEST(Fingerprint, IdenticalInputsMatchFully) {
  const auto cfg = small_fp_config();
  const fingerprint a = fingerprint_input(test_input(1), cfg);
  const fingerprint b = fingerprint_input(test_input(1), cfg);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_DOUBLE_EQ(match_fraction(a, b), 1.0);
}

TEST(Fingerprint, SubStepPerturbationStillCollides) {
  const auto cfg = small_fp_config();
  const fingerprint clean = fingerprint_input(test_input(1), cfg);
  // A perturbation well below quantize_step / 2 quantizes away entirely.
  const fingerprint probe = fingerprint_input(test_input(1, 0.01), cfg);
  EXPECT_DOUBLE_EQ(match_fraction(clean, probe), 1.0);
}

TEST(Fingerprint, IndependentInputsBarelyOverlap) {
  const auto cfg = small_fp_config();
  const fingerprint a = fingerprint_input(test_input(1), cfg);
  const fingerprint b = fingerprint_input(test_input(2), cfg);
  EXPECT_LT(match_fraction(a, b), 0.5);
}

TEST(Fingerprint, SaltChangesHashes) {
  auto cfg = small_fp_config();
  const fingerprint a = fingerprint_input(test_input(1), cfg);
  cfg.salt ^= 0xdeadbeefULL;
  const fingerprint b = fingerprint_input(test_input(1), cfg);
  EXPECT_NE(a.hashes, b.hashes);
}

TEST(Fingerprint, TinyInputStillFingerprints) {
  fingerprint_config cfg;
  cfg.window = 64;  // longer than the input: one truncated window
  tensor x(shape{1, 4});
  for (std::size_t i = 0; i < 4; ++i) x.data()[i] = 0.5f;
  const fingerprint fp = fingerprint_input(x, cfg);
  EXPECT_EQ(fp.hashes.size(), 1u);
}

TEST(Fingerprint, DegenerateConfigThrows) {
  const tensor x = test_input();
  fingerprint_config cfg;
  cfg.window = 0;
  EXPECT_THROW(fingerprint_input(x, cfg), std::invalid_argument);
  cfg = fingerprint_config{};
  cfg.stride = 0;
  EXPECT_THROW(fingerprint_input(x, cfg), std::invalid_argument);
  cfg = fingerprint_config{};
  cfg.top_k = 0;
  EXPECT_THROW(fingerprint_input(x, cfg), std::invalid_argument);
  cfg = fingerprint_config{};
  cfg.quantize_step = 0.0;
  EXPECT_THROW(fingerprint_input(x, cfg), std::invalid_argument);
}

// -------------------------------------------------------- trace sketches --

TEST(TraceSketch, SketchesAvailableEventsOnly) {
  hpc::measurement m;
  m.mean_counts = {1000.0, 50.0, 3.0};
  m.q.available = {1, 0, 1};
  const auto s = hpc::sketch_measurement(m);
  ASSERT_EQ(s.levels.size(), 3u);
  EXPECT_GT(s.levels[0], s.levels[2]);
  EXPECT_EQ(s.levels[1], hpc::trace_sketch::unavailable);
  EXPECT_NE(s.signature, 0u);
}

TEST(TraceSketch, DistanceZeroForSelfInfForIncomparable) {
  hpc::measurement m;
  m.mean_counts = {1000.0, 50.0};
  const auto a = hpc::sketch_measurement(m);
  EXPECT_DOUBLE_EQ(hpc::sketch_distance(a, a), 0.0);

  hpc::trace_sketch other;
  other.levels = {5, 5, 5};  // different event count: incomparable
  EXPECT_TRUE(std::isinf(hpc::sketch_distance(a, other)));

  hpc::trace_sketch gap;  // same count but no mutually-available event
  gap.levels = {hpc::trace_sketch::unavailable, 5};
  hpc::trace_sketch gap2;
  gap2.levels = {5, hpc::trace_sketch::unavailable};
  EXPECT_TRUE(std::isinf(hpc::sketch_distance(gap, gap2)));
}

TEST(TraceSketch, NearbyCountsCollideDistantCountsDont) {
  hpc::measurement a, b, c;
  a.mean_counts = {1000.0};
  b.mean_counts = {1010.0};  // ~1% apart: same quarter-octave cell
  c.mean_counts = {4000.0};  // 2 octaves apart: 8 quarter-octave levels
  const auto sa = hpc::sketch_measurement(a);
  const auto sb = hpc::sketch_measurement(b);
  const auto sc = hpc::sketch_measurement(c);
  EXPECT_LE(hpc::sketch_distance(sa, sb), 1.0);
  EXPECT_GT(hpc::sketch_distance(sa, sc), 4.0);
}

// ------------------------------------------------------------ the table --

/// Every distinct client gets its own entry, found again under its id.
TEST(FingerprintTable, ShardAssignmentIsStableAndSpread) {
  fingerprint_table table(table_config{});
  for (std::uint64_t c = 1; c <= 1000; ++c) {
    const std::uint64_t id = table.with(c, [c](client_entry& e) {
      e.history.resize(1 + c % 7);
      return e.client;
    });
    EXPECT_EQ(id, c);
  }
  EXPECT_EQ(table.stats().tracked_clients, 1000u);
  for (std::uint64_t c = 1; c <= 1000; ++c) {
    EXPECT_EQ(table.history_size(c), 1 + c % 7) << "client " << c;
  }
  EXPECT_EQ(table.history_size(1001), 0u);
}

TEST(FingerprintTable, RejectsDegenerateConfig) {
  table_config cfg;
  cfg.min_history = 0;
  EXPECT_THROW(fingerprint_table t(cfg), invariant_error);
  cfg = table_config{};
  cfg.min_history = cfg.max_history + 1;
  EXPECT_THROW(fingerprint_table t(cfg), invariant_error);
  cfg = table_config{};
  cfg.byte_budget = 1024;  // under the 4 KiB floor
  EXPECT_THROW(fingerprint_table t(cfg), invariant_error);
}

/// Satellite: the memory-bound + fairness property. A single client
/// spraying unique fingerprints must not (a) push the table over its byte
/// budget, (b) evict other clients' history below the match-detection
/// horizon, or (c) break match detection for those clients.
TEST(FingerprintTable, SprayerCannotEvictOthersBelowHorizon) {
  serve::virtual_clock clock;
  track_config cfg = fast_track_config();
  cfg.table.byte_budget = 4096;  // the minimum the table accepts
  cfg.table.max_history = 64;
  cfg.table.min_history = 2;
  query_tracker tracker(clock, cfg);

  // Two victims, each with a short history of its own repeated query.
  const std::uint64_t victims[] = {11, 12};
  for (int round = 0; round < 4; ++round) {
    for (const std::uint64_t v : victims) {
      tracker.observe(v, test_input(v));
    }
  }
  const std::uint64_t sprayer = 99;
  for (std::uint64_t i = 0; i < 300; ++i) {
    tracker.observe(sprayer, test_input(1000 + i));
    ASSERT_LE(tracker.bytes_used(), cfg.table.byte_budget)
        << "budget breached at spray query " << i;
  }

  const auto st = tracker.stats();
  EXPECT_GT(st.table.evicted_fingerprints, 0u)
      << "spray produced no byte pressure; the test lost its teeth";
  for (const std::uint64_t v : victims) {
    EXPECT_GE(tracker.history_size(v), cfg.table.min_history);
    // The horizon guarantee is what keeps detection alive: a repeated
    // victim query still collides with the victim's surviving history.
    const auto d = tracker.observe(v, test_input(v));
    EXPECT_TRUE(d.matched);
  }
  EXPECT_EQ(st.table.evicted_clients, 0u)
      << "a victim was whole-evicted by one sprayer";
}

// -------------------------------------------------------------- tracker --

TEST(QueryTracker, CampaignEscalatesThenBans) {
  serve::virtual_clock clock;
  const track_config cfg = fast_track_config();
  query_tracker tracker(clock, cfg);
  const std::uint64_t attacker = 7;

  bool saw_elevation = false, saw_ban = false;
  for (int i = 0; i < 12 && !saw_ban; ++i) {
    const auto d = tracker.observe(attacker, test_input(3, 0.001 * i));
    if (d.newly_elevated) {
      saw_elevation = true;
      EXPECT_EQ(d.level, escalation::elevated);
      EXPECT_GE(d.hits, cfg.elevate_hits);
    }
    if (d.newly_banned) {
      saw_ban = true;
      EXPECT_EQ(d.level, escalation::banned);
    }
  }
  EXPECT_TRUE(saw_elevation);
  EXPECT_TRUE(saw_ban);
  EXPECT_EQ(tracker.level(attacker), escalation::banned);

  // A ban drops the client's history: the table shrinks, and further
  // queries short-circuit without fingerprint matching.
  EXPECT_EQ(tracker.history_size(attacker), 0u);
  const auto after = tracker.observe(attacker, test_input(3));
  EXPECT_EQ(after.level, escalation::banned);
  EXPECT_FALSE(after.newly_banned);
  EXPECT_EQ(tracker.history_size(attacker), 0u);

  const auto st = tracker.stats();
  EXPECT_EQ(st.elevations, 1u);
  EXPECT_EQ(st.bans, 1u);
  EXPECT_EQ(st.table.banned_clients, 1u);
}

TEST(QueryTracker, DistinctQueriesNeverEscalate) {
  serve::virtual_clock clock;
  query_tracker tracker(clock, fast_track_config());
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto d = tracker.observe(21, test_input(i));
    EXPECT_EQ(d.level, escalation::none);
    EXPECT_FALSE(d.matched);
  }
}

TEST(QueryTracker, HitCreditDecaysWithInjectedClock) {
  serve::virtual_clock clock;
  track_config cfg = fast_track_config();
  cfg.hit_halflife = seconds(10);
  query_tracker tracker(clock, cfg);

  // Two matches, then a long quiet gap: credit decays to ~epsilon, so two
  // more matches still sit below the elevation threshold of 3.
  for (int i = 0; i < 3; ++i) tracker.observe(5, test_input(4));
  clock.advance(seconds(100));  // 10 half-lives
  for (int i = 0; i < 2; ++i) {
    const auto d = tracker.observe(5, test_input(4));
    EXPECT_EQ(d.level, escalation::none);
  }
  // Without the gap the same 5 matches would have elevated.
  serve::virtual_clock clock2;
  query_tracker dense(clock2, cfg);
  track_decision last;
  for (int i = 0; i < 5; ++i) last = dense.observe(5, test_input(4));
  EXPECT_EQ(last.level, escalation::elevated);
}

TEST(QueryTracker, TraceCorroborationNeedsBaselineDeviation) {
  serve::virtual_clock clock;
  track_config cfg = fast_track_config();
  cfg.trace_match_level = 1.0;
  cfg.trace_baseline_level = 2.0;
  query_tracker tracker(clock, cfg);

  // Population baseline: many clients at level ~8.
  hpc::trace_sketch normal;
  normal.levels = {8, 8};
  for (std::uint64_t c = 100; c < 110; ++c) {
    EXPECT_FALSE(tracker.record_trace(c, normal));
  }

  // An attacker whose repeated computation sits far off the baseline:
  // the first trace only seeds its last_sketch, the second corroborates.
  hpc::trace_sketch odd;
  odd.levels = {20, 20};
  EXPECT_FALSE(tracker.record_trace(55, odd));
  EXPECT_TRUE(tracker.record_trace(55, odd));

  // A client repeating the *baseline* computation is exonerated by the
  // cross-check: same computation, but no deviation to blame it for.
  EXPECT_FALSE(tracker.record_trace(66, normal));
  EXPECT_FALSE(tracker.record_trace(66, normal));

  const auto st = tracker.stats();
  EXPECT_EQ(st.trace_corroborations, 1u);
}

TEST(QueryTracker, TracesAloneCanNeverBan) {
  serve::virtual_clock clock;
  track_config cfg = fast_track_config();
  query_tracker tracker(clock, cfg);
  hpc::trace_sketch odd;
  odd.levels = {30, 30};
  // Hundreds of corroborating traces with zero fingerprint matches:
  // trace credit alone may elevate (full-fidelity scrutiny) but the ban
  // threshold is reserved for input-side evidence.
  for (int i = 0; i < 300; ++i) tracker.record_trace(9, odd);
  EXPECT_NE(tracker.level(9), escalation::banned);
}

TEST(QueryTracker, ReplayIsBitwiseDeterministic) {
  const track_config cfg = fast_track_config();
  // An interleaved multi-client scenario, replayed twice.
  const auto run = [&cfg]() {
    serve::virtual_clock clock;
    query_tracker tracker(clock, cfg);
    std::vector<std::string> journal;
    for (int round = 0; round < 10; ++round) {
      clock.advance(milliseconds(250));
      for (std::uint64_t c = 1; c <= 6; ++c) {
        // Clients 1-2 run campaigns (repeat with tiny perturbations);
        // clients 3-6 send fresh queries every time.
        const bool attacker = c <= 2;
        const tensor x = attacker
                             ? test_input(c, 0.002 * round)
                             : test_input(100 * c + std::uint64_t(round));
        const auto d = tracker.observe(c, x);
        journal.push_back(std::to_string(c) + ":" +
                          std::string(to_string(d.level)) +
                          (d.matched ? "+m" : "") + "@" +
                          std::to_string(d.hits));
      }
    }
    return journal;
  };
  EXPECT_EQ(run(), run());
}

/// The serving pattern: a driver thread polls the tracker while a service
/// worker feeds it. Every poll must see a consistent snapshot.
TEST(QueryTracker, StatsReadableWhileObserving) {
  serve::virtual_clock clock;
  track_config cfg = fast_track_config();
  cfg.table.byte_budget = 16 * 1024;  // small enough to evict meanwhile
  query_tracker tracker(clock, cfg);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      // Clients 1-2 run campaigns; clients 3-5 send fresh queries.
      const std::uint64_t c = 1 + i % 5;
      const std::uint64_t round = i / 5;
      tracker.observe(c, c <= 2 ? test_input(c, 0.0005 * (round % 10))
                                : test_input(100 * c + round));
    }
    done = true;
  });
  while (!done) {
    const track_stats st = tracker.stats();
    EXPECT_LE(st.matched, st.queries);
    EXPECT_LE(tracker.bytes_used(), cfg.table.byte_budget);
    (void)tracker.level(1);
  }
  writer.join();

  const track_stats st = tracker.stats();
  EXPECT_EQ(st.queries, 200u);
  EXPECT_GT(st.table.evicted_fingerprints, 0u)
      << "no byte pressure: the reader never raced an eviction";
}

TEST(TrackConfig, ValidatesThresholds) {
  serve::virtual_clock clock;
  track_config cfg = fast_track_config();
  cfg.match_fraction = 0.0;
  EXPECT_THROW(query_tracker(clock, cfg), std::invalid_argument);
  cfg = fast_track_config();
  cfg.elevate_hits = 10.0;
  cfg.ban_hits = 5.0;  // ban below elevate: nonsense ladder
  EXPECT_THROW(query_tracker(clock, cfg), std::invalid_argument);
  cfg = fast_track_config();
  cfg.hit_halflife = seconds(0);
  EXPECT_THROW(query_tracker(clock, cfg), std::invalid_argument);
  cfg = fast_track_config();
  cfg.trace_hit_weight = 1.0;  // would let traces ban on their own
  EXPECT_THROW(query_tracker(clock, cfg), std::invalid_argument);
}

// -------------------------------------------- client-tagged evaluation --

TEST(EvaluateTagged, CampaignIsCutOffCleanClientsUntouched) {
  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{1, 16, 16}, 4, 1);
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*model),
                                 hpc::resilience_config::naive());

  core::detector_config dcfg;
  const auto events = hpc::core_events();
  dcfg.events = {events[0], events[1]};
  dcfg.repeats = 5;
  core::benign_template tpl(4, dcfg.events.size());
  for (std::size_t i = 0; i < 32; ++i) {
    const tensor x = test_input(i % 8);
    const auto m = monitor.measure(x, dcfg.events, dcfg.repeats);
    tpl.add_row(m.predicted, m.mean_counts);
  }
  const core::detector det = core::detector::fit(tpl, dcfg, 1);

  struct client_query {
    std::uint64_t client = 0;  ///< 0 = anonymous (tracker is bypassed)
    tensor input;
  };
  std::vector<client_query> queries;
  for (int round = 0; round < 12; ++round) {
    queries.push_back({1, test_input(3, 0.001 * round)});  // campaign
    queries.push_back({2, test_input(std::uint64_t(100 + round))});
    queries.push_back({0, test_input(std::uint64_t(200 + round))});
  }

  // The stream goes through the serving path with the tracker in front of
  // the detector, one service round per three queries. Each run gets a
  // fresh monitor, so the 1- and 4-thread runs below start from the same
  // backend state (template fitting above advanced `monitor`).
  struct tracked_run {
    serve::serve_stats stats;
    std::vector<serve::response> responses;
    escalation campaign = escalation::none;
    escalation clean = escalation::none;
  };
  const auto run = [&](std::size_t threads) {
    hpc::resilient_monitor mon(std::make_unique<hpc::sim_backend>(*model),
                               hpc::resilience_config::naive());
    serve::virtual_clock clock;
    query_tracker tracker(clock, fast_track_config());
    serve::serve_config cfg;
    cfg.threads = threads;
    serve::detection_service service(det, mon, clock, cfg);
    service.attach_tracker(tracker);
    tracked_run out;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      (void)service.submit(queries[i].input, serve::priority::interactive,
                           serve::no_deadline, queries[i].client);
      if (i % 3 == 2) {
        auto batch = service.service_batch();
        out.responses.insert(out.responses.end(), batch.begin(), batch.end());
      }
    }
    out.stats = service.stats();
    out.campaign = tracker.level(1);
    out.clean = tracker.level(2);
    return out;
  };

  const tracked_run r = run(1);
  EXPECT_EQ(r.campaign, escalation::banned);
  EXPECT_EQ(r.clean, escalation::none);
  EXPECT_GT(r.stats.rejected_banned, 0u);  // the campaign's tail never measured
  EXPECT_GT(r.stats.escalated_admitted, 0u);  // ...after full-fidelity scrutiny
  // Everything that was not banned got served: totals add up.
  EXPECT_EQ(r.stats.served + r.stats.rejected_banned, queries.size());

  // Thread-invariance of the whole tracked path.
  const tracked_run r4 = run(4);
  EXPECT_EQ(r4.stats.rejected_banned, r.stats.rejected_banned);
  EXPECT_EQ(r4.stats.escalated_admitted, r.stats.escalated_admitted);
  EXPECT_EQ(r4.stats.served, r.stats.served);
  EXPECT_EQ(r4.stats.flagged_adversarial, r.stats.flagged_adversarial);
  ASSERT_EQ(r4.responses.size(), r.responses.size());
  for (std::size_t i = 0; i < r.responses.size(); ++i) {
    EXPECT_EQ(r4.responses[i].id, r.responses[i].id);
    EXPECT_EQ(r4.responses[i].escalated, r.responses[i].escalated);
    EXPECT_EQ(r4.responses[i].v.flagged, r.responses[i].v.flagged);
    EXPECT_EQ(r4.responses[i].v.adversarial_any,
              r.responses[i].v.adversarial_any);
  }
}

// ------------------------------------------------------- env knob sweep --

/// Restores an environment variable on scope exit.
class env_guard {
 public:
  explicit env_guard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~env_guard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(TrackEnvKnobs, StrictParseAndOverride) {
  env_guard guard("ADVH_TRACK_BYTES");
  ::setenv("ADVH_TRACK_BYTES", "1048576", 1);
  const auto cfg = track_config_from_env();
  EXPECT_EQ(cfg.table.byte_budget, std::size_t{1} << 20);

  ::setenv("ADVH_TRACK_BYTES", "2.5", 1);  // fractional byte count
  EXPECT_THROW(track_config_from_env(), std::invalid_argument);
  ::setenv("ADVH_TRACK_BYTES", "8MiB", 1);  // units are not parsed
  EXPECT_THROW(track_config_from_env(), std::invalid_argument);
}

/// Sweeps EVERY ADVH_* knob through garbage values: each one must throw
/// std::invalid_argument rather than silently fall back. This is the
/// regression net for the PR 4 strict-validation contract — a knob that
/// quietly accepts garbage reverts the whole convention.
TEST(EnvKnobSweep, EveryKnobRejectsGarbage) {
  struct knob {
    const char* name;
    std::function<void()> load;
  };
  const std::vector<knob> knobs = {
      {"ADVH_THREADS", [] { (void)parallel::default_threads(); }},
      {"ADVH_FAULT_RATE", [] { (void)hpc::fault_config_from_env(); }},
      {"ADVH_DRIFT_RATE", [] { (void)hpc::drift_profile_from_env(); }},
      {"ADVH_QUEUE_DEPTH", [] { (void)serve::serve_config_from_env(); }},
      {"ADVH_DEADLINE_MS", [] { (void)serve::serve_config_from_env(); }},
      {"ADVH_TRACK_BYTES", [] { (void)track_config_from_env(); }},
      {"ADVH_BENCH_SCALE", [] { (void)bench::scale(); }},
  };
  const char* garbage[] = {"banana", "12banana", "", "-3", "1e999"};
  for (const knob& k : knobs) {
    env_guard guard(k.name);
    for (const char* bad : garbage) {
      ::setenv(k.name, bad, 1);
      EXPECT_THROW(k.load(), std::invalid_argument)
          << k.name << "=\"" << bad << "\" was silently accepted";
    }
    ::unsetenv(k.name);
    EXPECT_NO_THROW(k.load()) << k.name << " unset must use the default";
  }
}

}  // namespace
}  // namespace advh::track
