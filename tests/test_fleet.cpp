// Fleet-layer tests: strict env knobs and the split-brain safety
// validations (worker and controller side), ownership math (replicated
// slots), the lease boundary, the replicated controller group (failure
// detection, leader election, durable terms), the deterministic
// simulated network (at-send delivery fate, reliable retransmission
// schedules, partitions), checkpoint fencing (epoch regression across
// controller terms, foreign shards, truncation — satellite:
// cross-version load is a typed error, never a partial apply), durable
// ban ledgers, fingerprint-range handoff, and whole-fleet discrete-event
// scenarios: quiet serving, crash failover with ban survival, leader
// kill and partition failover, speculative secondary serving, stall
// fencing, recalibration rollout/rollback, and bitwise thread invariance
// under chaos.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "core/detector_io.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/config.hpp"
#include "fleet/events.hpp"
#include "fleet/fault_plan.hpp"
#include "fleet/integrity.hpp"
#include "fleet/membership.hpp"
#include "fleet/net.hpp"
#include "fleet/sim.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"
#include "serve/clock.hpp"
#include "track/tracker.hpp"

namespace advh::fleet {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- fixtures --

/// Sets an environment variable for one scope, always restoring on exit.
struct env_guard {
  const char* name;
  env_guard(const char* n, const char* v) : name(n) { ::setenv(n, v, 1); }
  ~env_guard() { ::unsetenv(name); }
};

/// Fresh per-test scratch directory under the gtest temp root.
std::string test_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "advh_fleet_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::unique_ptr<nn::model> make_test_model() {
  return nn::make_model(nn::architecture::case_study_cnn, shape{1, 16, 16}, 4,
                        1);
}

/// Deterministic benign input at the given intensity scale.
tensor test_input(double scale = 1.0) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] =
        static_cast<float>(scale * (0.1 + 0.01 * static_cast<double>(i % 7)));
  }
  return x;
}

/// Attack-probe content: values at quantization-bin centres so `perturb`
/// below step/2 quantizes away and every probe fingerprint-collides
/// (mirrors the track test fixture).
tensor probe_input(std::uint64_t variant, double perturb = 0.0) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL +
                      (variant + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
    const auto bin = static_cast<double>(h % 23);
    x.data()[i] = static_cast<float>(0.05 + 0.1 * bin +
                                     perturb * ((i % 2 == 0) ? 1.0 : -1.0));
  }
  return x;
}

core::detector_config test_detector_config() {
  core::detector_config cfg;
  const auto events = hpc::core_events();
  cfg.events = {events[0], events[1]};
  cfg.repeats = 4;
  return cfg;
}

/// Small, fast fleet geometry satisfying lease + max_delay <
/// failure_timeout, with track thresholds low enough to ban within a
/// handful of colliding probes.
fleet_config small_cfg() {
  fleet_config cfg;
  cfg.replicas = 3;
  cfg.class_shards = 2;
  cfg.ring_ranges = 8;
  cfg.hb_interval = 1;
  cfg.failure_timeout = 8;
  cfg.lease = 5;
  cfg.ctl_failure_timeout = 8;
  cfg.ctl_lease = 4;
  cfg.request_timeout = 6;
  cfg.speculate_after = 3;
  cfg.checkpoint_interval = 10;
  cfg.canary_interval = 4;
  cfg.handoff_batch = 4;
  cfg.min_delay = 0;
  cfg.max_delay = 1;
  cfg.retransmit = 2;
  cfg.track.fp.window = 8;
  cfg.track.fp.top_k = 32;
  cfg.track.elevate_hits = 2.0;
  cfg.track.ban_hits = 4.0;
  return cfg;
}

/// Deterministic baseline step drift keyed on the measurement-call count:
/// readings multiply by `magnitude` from the `onset_calls`-th call on.
/// Call order is the replicas' sequential canary loop, so the step is
/// reproducible without depending on backend stream-unit accounting.
class step_drift_monitor final : public hpc::hpc_monitor {
 public:
  step_drift_monitor(std::unique_ptr<hpc::hpc_monitor> inner,
                     std::size_t onset_calls, double magnitude)
      : inner_(std::move(inner)), onset_(onset_calls), magnitude_(magnitude) {}

  std::string backend_name() const override { return "test-step-drift"; }

 protected:
  hpc::measurement do_measure(const tensor& x,
                              std::span<const hpc::hpc_event> events,
                              std::size_t repeats) override {
    hpc::measurement m = inner_->measure(x, events, repeats);
    if (calls_++ >= onset_) {
      for (double& c : m.mean_counts) c *= magnitude_;
    }
    return m;
  }

 private:
  std::unique_ptr<hpc::hpc_monitor> inner_;
  std::size_t onset_;
  double magnitude_;
  std::size_t calls_ = 0;
};

/// Everything one fleet scenario needs: a genesis detector fitted through
/// the same simulated backend the replicas will measure through, plus a
/// labelled canary pool drawn from the fit distribution.
struct fleet_rig {
  std::unique_ptr<nn::model> model;
  std::vector<std::pair<std::size_t, tensor>> canaries;
  core::detector det;
  std::string dir;
  fleet_config cfg;

  explicit fleet_rig(const std::string& name, fleet_config c = small_cfg())
      : model(make_test_model()),
        det(fit_genesis(*model, canaries)),
        dir(test_dir(name)),
        cfg(c) {}

  static core::detector fit_genesis(
      nn::model& model, std::vector<std::pair<std::size_t, tensor>>& canaries) {
    const auto dcfg = test_detector_config();
    hpc::resilient_monitor fit_monitor(
        std::make_unique<hpc::sim_backend>(model),
        hpc::resilience_config::naive());
    core::benign_template tpl(4, dcfg.events.size());
    for (std::size_t i = 0; i < 32; ++i) {
      const tensor x = test_input(0.4 + 0.05 * static_cast<double>(i % 12));
      const auto m = fit_monitor.measure(x, dcfg.events, dcfg.repeats);
      tpl.add_row(m.predicted, m.mean_counts);
      if (i < 12) canaries.emplace_back(m.predicted, x);
    }
    return core::detector::fit(tpl, dcfg, 1);
  }

  /// Fleet deps over fresh per-boot sim backends; `drift_magnitude` > 0
  /// wraps each in a step drift that engages after `drift_onset_calls`
  /// measurements. The onset must land AFTER the drift cells' burn-in:
  /// a shift present from the very first probe is absorbed by burn-in as
  /// stationary canary-set bias (by design) and never alarms.
  fleet_deps deps(double drift_magnitude = 0.0,
                  std::size_t drift_onset_calls = 0) {
    fleet_deps d;
    d.base = &det;
    d.dir = dir;
    d.canary_pool = &canaries;
    nn::model* m = model.get();
    d.make_monitor = [m, drift_magnitude, drift_onset_calls](
                         std::size_t) -> std::unique_ptr<hpc::hpc_monitor> {
      auto inner = std::make_unique<hpc::resilient_monitor>(
          std::make_unique<hpc::sim_backend>(*m),
          hpc::resilience_config::naive());
      if (drift_magnitude <= 0.0) return inner;
      return std::make_unique<step_drift_monitor>(
          std::move(inner), drift_onset_calls, drift_magnitude);
    };
    return d;
  }

  /// Distinct predicted classes in the canary pool — one measure call per
  /// class per canary step, which converts steps to monitor calls.
  std::size_t canary_classes() const {
    std::vector<std::size_t> cls;
    for (const auto& [c, x] : canaries) cls.push_back(c);
    std::sort(cls.begin(), cls.end());
    cls.erase(std::unique(cls.begin(), cls.end()), cls.end());
    return cls.size();
  }
};

membership_view genesis_view() {
  return membership_view{view_epoch(1, 1), {2, 3, 4}};
}

/// Smallest client id whose fingerprint range is owned by `node` under
/// the genesis view.
std::uint64_t client_owned_by(std::uint32_t node, const fleet_config& cfg) {
  const membership_view v = genesis_view();
  for (std::uint64_t c = 1;; ++c) {
    if (range_owner(v, range_of_client(c, cfg)) == node) return c;
  }
}

std::vector<arrival> benign_arrivals(std::size_t n, std::uint64_t start_tick,
                                     std::uint64_t base_client) {
  std::vector<arrival> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({start_tick + i, base_client + i,
                   test_input(0.4 + 0.05 * static_cast<double>(i % 12))});
  }
  return out;
}

/// One colliding probe per tick from a single client — a near-duplicate
/// query campaign.
std::vector<arrival> probe_campaign(std::uint64_t client,
                                    std::uint64_t start_tick, std::size_t n) {
  std::vector<arrival> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(
        {start_tick + i, client, probe_input(7, 0.01 * double(i % 2))});
  }
  return out;
}

std::uint64_t resolved_total(const fleet_stats& s) {
  return std::accumulate(s.by_outcome.begin(), s.by_outcome.end(),
                         std::uint64_t{0});
}

std::uint64_t served_total(const fleet_stats& s) {
  return s.outcome(req_outcome::served_clean) +
         s.outcome(req_outcome::served_flagged);
}

// --------------------------------------------------------------- config --

TEST(FleetConfig, EnvOverridesApply) {
  {
    env_guard r("ADVH_FLEET_REPLICAS", "5");
    env_guard l("ADVH_FLEET_LOSS_RATE", "0.25");
    env_guard c("ADVH_FLEET_CONTROLLERS", "5");
    env_guard k("ADVH_FLEET_REPLICATION", "3");
    const fleet_config cfg = fleet_config_from_env();
    EXPECT_EQ(cfg.replicas, 5u);
    EXPECT_DOUBLE_EQ(cfg.loss_rate, 0.25);
    EXPECT_EQ(cfg.controllers, 5u);
    EXPECT_EQ(cfg.replication, 3u);
  }
  // Unset knobs leave the base untouched.
  fleet_config base = small_cfg();
  base.replicas = 7;
  const fleet_config cfg = fleet_config_from_env(base);
  EXPECT_EQ(cfg.replicas, 7u);
  EXPECT_DOUBLE_EQ(cfg.loss_rate, 0.0);
}

TEST(FleetConfig, MalformedReplicasKnobThrows) {
  for (const char* bad : {"0", "65", "-3", "abc", "3.5", "", "4x", "1e300"}) {
    env_guard g("ADVH_FLEET_REPLICAS", bad);
    EXPECT_THROW(fleet_config_from_env(), std::invalid_argument)
        << "ADVH_FLEET_REPLICAS=\"" << bad << "\" must fail loudly";
  }
}

TEST(FleetConfig, MalformedLossRateKnobThrows) {
  for (const char* bad : {"0.96", "1.5", "-0.1", "nan", "lossy", ""}) {
    env_guard g("ADVH_FLEET_LOSS_RATE", bad);
    EXPECT_THROW(fleet_config_from_env(), std::invalid_argument)
        << "ADVH_FLEET_LOSS_RATE=\"" << bad << "\" must fail loudly";
  }
  env_guard g("ADVH_FLEET_LOSS_RATE", "0");
  EXPECT_DOUBLE_EQ(fleet_config_from_env().loss_rate, 0.0);
}

// Satellite: set-but-malformed controller-group knobs throw, matching
// the strict ADVH_* contract (nothing silently mis-sizes the quorum).
TEST(FleetConfig, MalformedControllersKnobThrows) {
  for (const char* bad : {"0", "8", "-1", "abc", "2.5", "", "3x"}) {
    env_guard g("ADVH_FLEET_CONTROLLERS", bad);
    EXPECT_THROW(fleet_config_from_env(), std::invalid_argument)
        << "ADVH_FLEET_CONTROLLERS=\"" << bad << "\" must fail loudly";
  }
  env_guard g("ADVH_FLEET_CONTROLLERS", "1");
  EXPECT_EQ(fleet_config_from_env().controllers, 1u);
}

TEST(FleetConfig, MalformedReplicationKnobThrows) {
  for (const char* bad : {"0", "5", "-2", "xyz", "1.5", "", "2e1"}) {
    env_guard g("ADVH_FLEET_REPLICATION", bad);
    EXPECT_THROW(fleet_config_from_env(), std::invalid_argument)
        << "ADVH_FLEET_REPLICATION=\"" << bad << "\" must fail loudly";
  }
  env_guard g("ADVH_FLEET_REPLICATION", "4");
  EXPECT_EQ(fleet_config_from_env().replication, 4u);
}

// Satellite: the integrity knobs obey the same strict contract — any
// set-but-malformed value throws std::invalid_argument instead of
// silently disabling the scrub or the chaos.
TEST(FleetConfig, MalformedScrubPeriodKnobThrows) {
  for (const char* bad : {"0", "-5", "abc", "2.5", "", "10x", "1e300"}) {
    env_guard g("ADVH_FLEET_SCRUB_PERIOD", bad);
    EXPECT_THROW(fleet_config_from_env(), std::invalid_argument)
        << "ADVH_FLEET_SCRUB_PERIOD=\"" << bad << "\" must fail loudly";
  }
  env_guard g("ADVH_FLEET_SCRUB_PERIOD", "12");
  EXPECT_EQ(fleet_config_from_env().scrub_period, 12u);
}

TEST(FleetConfig, MalformedCorruptRateKnobThrows) {
  for (const char* bad : {"0.6", "1.0", "-0.01", "nan", "rotten", ""}) {
    env_guard g("ADVH_FLEET_CORRUPT_RATE", bad);
    EXPECT_THROW(fleet_config_from_env(), std::invalid_argument)
        << "ADVH_FLEET_CORRUPT_RATE=\"" << bad << "\" must fail loudly";
  }
  env_guard g("ADVH_FLEET_CORRUPT_RATE", "0.05");
  EXPECT_DOUBLE_EQ(fleet_config_from_env().corrupt_rate, 0.05);
}

TEST(FleetConfig, ValidateRejectsSplitBrainHazard) {
  fleet_config cfg = small_cfg();
  EXPECT_NO_THROW(validate(cfg));
  // lease + max_delay == failure_timeout is already unsafe: the beacon in
  // flight when the lease expires could land exactly as ranges move.
  cfg.lease = cfg.failure_timeout - cfg.max_delay;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
  // The controller-side mirror: a deposed leader's lease plus one
  // in-flight beacon must run out strictly before a successor can act.
  cfg = small_cfg();
  cfg.ctl_lease = cfg.ctl_failure_timeout - cfg.max_delay;
  EXPECT_THROW(validate(cfg), std::invalid_argument);
}

TEST(FleetConfig, ValidateRejectsInconsistentGeometry) {
  {
    fleet_config cfg = small_cfg();
    cfg.request_timeout = cfg.max_delay;  // router abstains before arrival
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
  {
    fleet_config cfg = small_cfg();
    cfg.replicas = 0;
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
  {
    fleet_config cfg = small_cfg();
    cfg.min_delay = 3;  // > max_delay
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
  {
    fleet_config cfg = small_cfg();
    cfg.loss_rate = 0.99;
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
  {
    fleet_config cfg = small_cfg();
    cfg.controllers = 8;  // quorum math is capped at 7
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
  {
    fleet_config cfg = small_cfg();
    cfg.replication = 0;
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
  {
    fleet_config cfg = small_cfg();
    cfg.speculate_after = cfg.request_timeout;  // secondary can't respond
    EXPECT_THROW(validate(cfg), std::invalid_argument);
  }
}

// ----------------------------------------------------------- membership --

TEST(Membership, OwnershipIsTotalAndDeterministic) {
  const fleet_config cfg = small_cfg();
  const membership_view v = genesis_view();
  for (std::uint32_t r = 0; r < cfg.ring_ranges; ++r) {
    const auto owner = range_owner(v, r);
    ASSERT_TRUE(owner.has_value());
    EXPECT_TRUE(std::find(v.live.begin(), v.live.end(), *owner) !=
                v.live.end());
    EXPECT_EQ(range_owner(v, r), owner);  // pure function of the view
  }
  for (std::uint64_t s = 0; s < cfg.class_shards; ++s) {
    const auto owner = shard_owner(v, s);
    ASSERT_TRUE(owner.has_value());
    EXPECT_TRUE(std::find(v.live.begin(), v.live.end(), *owner) !=
                v.live.end());
  }
  // Clients map into the configured range space.
  for (std::uint64_t c = 1; c <= 200; ++c) {
    EXPECT_LT(range_of_client(c, cfg), cfg.ring_ranges);
  }
}

TEST(Membership, EmptyViewOwnsNothing) {
  const membership_view dead{3, {}};
  EXPECT_FALSE(range_owner(dead, 0).has_value());
  EXPECT_FALSE(shard_owner(dead, 0).has_value());
}

TEST(Membership, RangesOwnedPartitionTheRing) {
  const fleet_config cfg = small_cfg();
  const membership_view v = genesis_view();
  std::vector<std::uint32_t> all;
  for (const std::uint32_t node : v.live) {
    const auto owned = ranges_owned(v, node, cfg.ring_ranges);
    for (const std::uint32_t r : owned) {
      EXPECT_EQ(range_owner(v, r), node);
      all.push_back(r);
    }
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), cfg.ring_ranges);
  for (std::uint32_t r = 0; r < cfg.ring_ranges; ++r) EXPECT_EQ(all[r], r);
}

// Satellite: THE lease boundary. Holder and acquirer both run on
// lease_held, so the boundary tick anchor+lease belongs to the holder
// ONLY — held through it inclusive, acquirable from the next tick. This
// pins the off-by-one a >=/> mismatch between the serving-lease check
// and the acquisition-grace check would reintroduce.
TEST(Membership, LeaseBoundaryTickBelongsToHolderOnly) {
  constexpr std::uint64_t anchor = 100;
  constexpr std::uint64_t lease = 5;
  EXPECT_TRUE(lease_held(anchor, anchor, lease));
  EXPECT_TRUE(lease_held(anchor + lease, anchor, lease));  // last held tick
  EXPECT_FALSE(lease_held(anchor + lease + 1, anchor, lease));  // first free
  // Degenerate lease: held at the anchor itself, gone one tick later.
  EXPECT_TRUE(lease_held(7, 7, 0));
  EXPECT_FALSE(lease_held(8, 7, 0));
}

TEST(Membership, ViewEpochsComposeTermAndSequence) {
  // A later term dominates ANY epoch an earlier leader could mint, so the
  // replicas' plain `<` fences keep working across leader changes.
  EXPECT_LT(view_epoch(1, 0xffffffffULL), view_epoch(2, 1));
  EXPECT_LT(view_epoch(2, 1), view_epoch(2, 2));
  EXPECT_EQ(epoch_term(view_epoch(7, 42)), 7u);
  EXPECT_EQ(epoch_seq(view_epoch(7, 42)), 42u);
}

TEST(Membership, OwnerSlotsAreDistinctAndCapped) {
  const fleet_config cfg = small_cfg();
  const membership_view v = genesis_view();
  for (std::uint32_t r = 0; r < cfg.ring_ranges; ++r) {
    const auto p = range_owner_k(v, r, 0);
    const auto s = range_owner_k(v, r, 1);
    ASSERT_TRUE(p.has_value());
    ASSERT_TRUE(s.has_value());
    EXPECT_NE(*p, *s);  // replicated slots land on distinct nodes
    EXPECT_EQ(range_owner_k(v, r, 0), range_owner(v, r));
    EXPECT_EQ(owner_slot(v, r, *p, 2).value(), 0u);
    EXPECT_EQ(owner_slot(v, r, *s, 2).value(), 1u);
    // The third live node holds no slot at replication 2...
    for (const std::uint32_t n : v.live) {
      if (n != *p && n != *s) {
        EXPECT_FALSE(owner_slot(v, r, n, 2).has_value());
      }
    }
    // ...and at replication 1 only the primary does.
    EXPECT_FALSE(owner_slot(v, r, *s, 1).has_value());
  }
  // More slots than live nodes: the tail is nullopt, never a wrap-around
  // duplicate of the primary.
  const membership_view two{view_epoch(1, 2), {2, 3}};
  EXPECT_FALSE(range_owner_k(two, 0, 2).has_value());
}

TEST(Membership, ControllerDeclaresDeadThenReadmits) {
  // A single-controller group: the genesis leader's failure detector and
  // two-phase view activation, driven by scripted heartbeat messages.
  fleet_config cfg = small_cfg();
  cfg.controllers = 1;
  event_log log;
  sim_net net(cfg);
  controller ctl(0, cfg, test_dir("ctl_detect"), net, log);
  EXPECT_EQ(ctl.view().epoch, view_epoch(1, 1));
  EXPECT_EQ(ctl.view().live, genesis_view().live);
  EXPECT_TRUE(ctl.acting(0));

  const auto hb = [&](std::uint32_t src, std::uint64_t t) {
    message m;
    m.kind = msg_kind::heartbeat;
    m.src = src;
    m.dst = ctl.node();
    m.send_tick = t;
    ctl.enqueue(std::move(m));
  };

  // Nodes 2 and 3 heartbeat every tick; node 4 goes silent from tick 0.
  std::uint64_t death_announced = 0;
  std::uint64_t death_activated = 0;
  for (std::uint64_t t = 1; t <= 3 * cfg.failure_timeout; ++t) {
    hb(2, t);
    hb(3, t);
    ctl.on_tick(t);
    if (death_announced == 0 && ctl.announced().epoch == view_epoch(1, 2)) {
      death_announced = t;
    }
    if (death_activated == 0 && ctl.view().epoch == view_epoch(1, 2)) {
      death_activated = t;
    }
  }
  ASSERT_GT(death_announced, 0u);
  EXPECT_GE(death_announced, cfg.failure_timeout);
  // Two-phase activation: the authoritative flip waits out one full
  // ownership lease after the announcement.
  ASSERT_GT(death_activated, 0u);
  EXPECT_EQ(death_activated, death_announced + cfg.lease + 1);
  EXPECT_EQ(ctl.view().live, (std::vector<std::uint32_t>{2, 3}));

  // A fresh heartbeat readmits the node under the next epoch of the SAME
  // term — the genesis leader never re-elects itself.
  const std::uint64_t back = 3 * cfg.failure_timeout + 1;
  hb(4, back);
  hb(2, back);
  hb(3, back);
  ctl.on_tick(back);
  EXPECT_EQ(ctl.announced().epoch, view_epoch(1, 3));
  EXPECT_EQ(ctl.announced().live, genesis_view().live);
  EXPECT_EQ(ctl.term(), 1u);
}

// --------------------------------------------------------- ctl election --

/// A controller group wired to a private sim_net, pumped with the same
/// (on_tick, then deliver) phase order the fleet sim uses. Beacons to
/// worker/router node ids are dropped — these tests watch the election
/// protocol only.
struct ctl_group {
  fleet_config cfg;
  event_log log;
  sim_net net;
  std::vector<std::unique_ptr<controller>> ctls;
  std::uint64_t tick = 0;

  explicit ctl_group(const std::string& name, fleet_config c = small_cfg())
      : cfg(c), net(cfg) {
    const std::string dir = test_dir(name);
    for (std::size_t j = 0; j < cfg.controllers; ++j) {
      ctls.push_back(std::make_unique<controller>(j, cfg, dir, net, log));
    }
  }

  void run_to(std::uint64_t end) {
    for (; tick < end; ++tick) {
      // Scripted worker heartbeats to the whole group, so an elected
      // leader has a warm failure-detection table and publishes views
      // with the full live list.
      for (auto& c : ctls) {
        for (std::size_t i = 0; i < cfg.replicas; ++i) {
          message hb;
          hb.kind = msg_kind::heartbeat;
          hb.src = replica_node(i);
          hb.dst = c->node();
          hb.send_tick = tick;
          c->enqueue(std::move(hb));
        }
      }
      for (auto& c : ctls) c->on_tick(tick);
      for (message& m : net.deliver_until(tick)) {
        if (!is_controller_node(m.dst)) continue;
        const std::size_t j = m.dst - kControllerBase;
        if (j < ctls.size() && ctls[j]->up()) {
          ctls[j]->enqueue(std::move(m));
        }
      }
    }
  }

  const controller* acting() const {
    for (const auto& c : ctls) {
      if (c->up() && c->acting(tick)) return c.get();
    }
    return nullptr;
  }
};

TEST(CtlElection, GenesisLeaderHoldsQuietGroup) {
  ctl_group g("ctl_quiet");
  g.run_to(60);
  const controller* leader = g.acting();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->node(), controller_node(0));
  EXPECT_EQ(leader->term(), 1u);
  // A live leader starves every stagger: nobody ever ran for office.
  EXPECT_EQ(g.log.stats().elections, 0u);
  for (const auto& c : g.ctls) EXPECT_LE(c->term(), 1u);
}

TEST(CtlElection, LeaderCrashElectsStandbyUnderHigherTerm) {
  ctl_group g("ctl_kill");
  g.run_to(10);
  g.ctls[0]->crash(10);
  g.run_to(100);

  const controller* leader = g.acting();
  ASSERT_NE(leader, nullptr);
  EXPECT_NE(leader->node(), controller_node(0));
  EXPECT_GE(leader->term(), 2u);
  EXPECT_GE(g.log.stats().elections, 1u);
  // The new regime's views dominate everything term 1 ever minted.
  EXPECT_GE(leader->view().epoch, view_epoch(leader->term(), 1));
  // Exactly one controller is acting.
  std::size_t acting = 0;
  for (const auto& c : g.ctls) {
    if (c->up() && c->acting(g.tick)) ++acting;
  }
  EXPECT_EQ(acting, 1u);

  // The old leader recovers into the new regime: its durable term record
  // and the live leader's beacons pin it to standby — no term-1 revival,
  // no competing election.
  const std::uint64_t elections = g.log.stats().elections;
  g.ctls[0]->recover(100);
  g.run_to(160);
  EXPECT_EQ(g.ctls[0]->role(), ctl_role::standby);
  EXPECT_EQ(g.acting(), leader);
  EXPECT_EQ(g.log.stats().elections, elections);
  EXPECT_NE(g.log.text().find("ctl-leader"), std::string::npos);
}

TEST(CtlElection, QuorumLossFailsClosed) {
  // A 1-of-3 survivor can never assemble a quorum, however long it
  // waits: it cycles candidacies without ever becoming leader, so the
  // group stops publishing views entirely rather than risk two regimes.
  ctl_group g("ctl_minority");
  g.run_to(10);
  g.ctls[0]->crash(10);
  g.ctls[2]->crash(10);
  g.run_to(120);
  EXPECT_EQ(g.acting(), nullptr);  // no quorum, nobody acts — fail closed
  EXPECT_EQ(g.log.stats().elections, 0u);
  EXPECT_NE(g.ctls[1]->role(), ctl_role::leader);
}

// ------------------------------------------------------------------ net --

std::vector<message> drain_scripted(sim_net& net, const fleet_config& cfg) {
  for (std::uint64_t t = 0; t < 40; ++t) {
    message req;
    req.kind = msg_kind::request;
    req.src = kRouterNode;
    req.dst = replica_node(t % cfg.replicas);
    req.req_id = t + 1;
    net.send(req, t);
    if (t % 3 == 0) {
      message beacon;
      beacon.kind = msg_kind::view_beacon;
      beacon.src = controller_node(0);
      beacon.dst = replica_node(t % cfg.replicas);
      beacon.req_id = 1000 + t;
      net.send_reliable(beacon, t);
    }
  }
  return net.deliver_until(1000);
}

TEST(SimNet, DeliveryFateIsDeterministic) {
  fleet_config cfg = small_cfg();
  cfg.loss_rate = 0.3;
  cfg.max_delay = 2;
  sim_net a(cfg), b(cfg);
  const auto da = drain_scripted(a, cfg);
  const auto db = drain_scripted(b, cfg);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].kind, db[i].kind);
    EXPECT_EQ(da[i].dst, db[i].dst);
    EXPECT_EQ(da[i].req_id, db[i].req_id);
  }
  EXPECT_EQ(a.stats().sent, b.stats().sent);
  EXPECT_EQ(a.stats().lost, b.stats().lost);
  EXPECT_EQ(a.stats().retransmissions, b.stats().retransmissions);
  EXPECT_GT(a.stats().lost, 0u);  // 30% loss over 40 best-effort sends
}

TEST(SimNet, ReliableMessagesSurviveHeavyLoss) {
  fleet_config cfg = small_cfg();
  cfg.loss_rate = 0.9;
  sim_net net(cfg);
  constexpr std::size_t kMsgs = 50;
  for (std::size_t i = 0; i < kMsgs; ++i) {
    message m;
    m.kind = msg_kind::ban_announce;
    m.src = replica_node(0);
    m.dst = replica_node(1);
    m.req_id = i;
    net.send_reliable(m, 0);
  }
  // 64 attempts * retransmit period + max delay bounds the schedule.
  const auto delivered = net.deliver_until(64 * cfg.retransmit + cfg.max_delay);
  EXPECT_EQ(delivered.size(), kMsgs);
  EXPECT_GT(net.stats().retransmissions, 0u);
  EXPECT_EQ(net.stats().lost, 0u);  // loss only counts abandoned messages
}

TEST(SimNet, DeliveryOrderIsTotal) {
  fleet_config cfg = small_cfg();
  cfg.min_delay = 0;
  cfg.max_delay = 2;
  sim_net net(cfg);
  for (std::uint64_t i = 0; i < 20; ++i) {
    message m;
    m.kind = msg_kind::response;
    m.req_id = i;
    net.send(m, 0);
  }
  const auto out = net.deliver_until(100);
  // Same deliver tick resolves by send sequence: req_ids with equal delay
  // stay in send order, and delivery ticks never decrease.
  ASSERT_EQ(out.size() + net.stats().lost, 20u);
}

// ----------------------------------------------------------- checkpoint --
// Satellite: cross-version / cross-shard checkpoint loads are typed
// errors, never a partial apply.

struct checkpoint_rig {
  fleet_rig rig;
  core::checkpoint_meta meta;

  explicit checkpoint_rig(const std::string& name) : rig(name) {
    meta.epoch = 3;
    meta.shard_index = 0;
    meta.shard_count = rig.cfg.class_shards;
    meta.content_version = 2;
  }
};

TEST(Checkpoint, ShardRoundtripPreservesShardModelsOnly) {
  checkpoint_rig r("ckpt_roundtrip");
  const std::string path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(shard_latest_path(r.rig.dir, 0)));

  const core::checkpoint cp =
      load_shard_checkpoint(path, 0, r.rig.cfg, 3, 1);
  ASSERT_TRUE(cp.meta.has_value());
  EXPECT_EQ(cp.meta->epoch, 3u);
  EXPECT_EQ(cp.meta->content_version, 2u);
  ASSERT_EQ(cp.det.num_classes(), r.rig.det.num_classes());
  for (std::size_t c = 0; c < cp.det.num_classes(); ++c) {
    for (std::size_t e = 0; e < 2; ++e) {
      const auto& orig = r.rig.det.model_for(c, e);
      const auto& got = cp.det.model_for(c, e);
      if (shard_of_class(c, r.rig.cfg) != 0) {
        EXPECT_FALSE(got.has_value());  // foreign classes restricted away
      } else {
        ASSERT_EQ(got.has_value(), orig.has_value());
        if (got) {
          EXPECT_DOUBLE_EQ(got->threshold, orig->threshold);
          EXPECT_DOUBLE_EQ(got->nll_mean, orig->nll_mean);
        }
      }
    }
  }
}

TEST(Checkpoint, StageDoesNotFlipLatestAlias) {
  checkpoint_rig r("ckpt_stage");
  save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  core::checkpoint_meta staged = r.meta;
  staged.content_version = 3;
  stage_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, staged);
  // The alias still names the promoted v2 — a staged (possibly poisoned)
  // recalibration can never become what a recovering replica loads.
  const auto cp =
      load_shard_checkpoint(shard_latest_path(r.rig.dir, 0), 0, r.rig.cfg, 0, 0);
  ASSERT_TRUE(cp.meta.has_value());
  EXPECT_EQ(cp.meta->content_version, 2u);
}

TEST(Checkpoint, LoadFencesEpochRegression) {
  checkpoint_rig r("ckpt_epoch");
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  try {
    load_shard_checkpoint(path, 0, r.rig.cfg, /*min_epoch=*/4, 0);
    FAIL() << "epoch-regressed checkpoint must fence";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("epoch regression"),
              std::string::npos);
  }
}

// Satellite: the epoch fence holds ACROSS controller terms. Composed
// view epochs make a term-2 checkpoint dominate every term-1 epoch any
// earlier leader could mint (however high its sequence), and regress
// against any term-3 epoch — the same plain `<` with no special casing.
TEST(Checkpoint, FencesAcrossControllerTerms) {
  checkpoint_rig r("ckpt_terms");
  r.meta.epoch = view_epoch(2, 1);
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  // Accepted under any term-1 floor, even a late-sequence one.
  const auto cp =
      load_shard_checkpoint(path, 0, r.rig.cfg, view_epoch(1, 9000), 0);
  ASSERT_TRUE(cp.meta.has_value());
  EXPECT_EQ(cp.meta->epoch, view_epoch(2, 1));
  // Fenced under the very first epoch of a later term.
  try {
    load_shard_checkpoint(path, 0, r.rig.cfg, view_epoch(3, 1), 0);
    FAIL() << "checkpoint from a burned term must fence";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("epoch regression"),
              std::string::npos);
  }
}

TEST(Checkpoint, LoadFencesNonAdvancingVersion) {
  checkpoint_rig r("ckpt_version");
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  try {
    load_shard_checkpoint(path, 0, r.rig.cfg, 0, /*min_version_exclusive=*/2);
    FAIL() << "stale content version must fence";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("did not advance"),
              std::string::npos);
  }
}

TEST(Checkpoint, LoadFencesForeignShard) {
  checkpoint_rig r("ckpt_shard");
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  EXPECT_THROW(load_shard_checkpoint(path, 1, r.rig.cfg, 0, 0), io_error);
}

TEST(Checkpoint, LoadFencesForeignShardGeometry) {
  checkpoint_rig r("ckpt_geometry");
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  fleet_config other = r.rig.cfg;
  other.class_shards = 3;
  try {
    load_shard_checkpoint(path, 0, other, 0, 0);
    FAIL() << "foreign shard geometry must fence";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("foreign shard geometry"),
              std::string::npos);
  }
}

TEST(Checkpoint, LoadFencesLegacyFileWithoutFleetSection) {
  checkpoint_rig r("ckpt_legacy");
  // A plain detector save (ADET v4, byte-identical to earlier revisions)
  // carries no fleet section — a fleet must never trust it as a shard.
  const std::string path = r.rig.dir + "/legacy.adet";
  core::save_detector(r.rig.det, path);
  try {
    load_shard_checkpoint(path, 0, r.rig.cfg, 0, 0);
    FAIL() << "legacy checkpoint must fence";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("no fleet section"),
              std::string::npos);
  }
}

TEST(Checkpoint, TruncatedFileIsTypedErrorNeverPartial) {
  checkpoint_rig r("ckpt_trunc");
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 32u);
  // Cut the file at several depths, including inside the trailing fleet
  // section; every cut must surface as a typed io_error, never a
  // checkpoint with silently missing pieces.
  for (const std::size_t keep :
       {bytes.size() / 4, bytes.size() / 2, bytes.size() - 5}) {
    const std::string cut = r.rig.dir + "/cut.adet";
    atomic_write_file(cut, std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(load_shard_checkpoint(cut, 0, r.rig.cfg, 0, 0), io_error)
        << "truncation at " << keep << " of " << bytes.size();
  }
}

TEST(Checkpoint, BanLedgerRoundtrip) {
  const std::string dir = test_dir("ban_ledger");
  const std::string path = ban_ledger_path(dir, replica_node(0));
  EXPECT_TRUE(read_ban_ledger(path).empty());  // missing = no bans recorded

  const std::vector<std::uint64_t> bans{5, 7, 900000001};
  write_ban_ledger(path, bans);
  EXPECT_EQ(read_ban_ledger(path), bans);

  // Rewrites are atomic whole-file replacements.
  write_ban_ledger(path, {42});
  EXPECT_EQ(read_ban_ledger(path), std::vector<std::uint64_t>{42});
}

TEST(Checkpoint, CorruptBanLedgerIsTypedError) {
  const std::string dir = test_dir("ban_corrupt");
  const std::string path = ban_ledger_path(dir, replica_node(0));
  atomic_write_file(path, "not a ledger at all");
  EXPECT_THROW(read_ban_ledger(path), io_error);
  const ban_ledger_read header = read_ban_ledger_checked(path);
  EXPECT_TRUE(header.header_corrupt);
  EXPECT_TRUE(header.clients.empty());
}

// Satellite: a torn ADBL tail ("the ledger ends here") is tolerated —
// the checked reader returns every fully persisted, checksum-verified
// record before the tear and reports the damage instead of throwing.
TEST(Checkpoint, TornBanLedgerTailYieldsVerifiedPrefix) {
  const std::string dir = test_dir("ban_torn");
  const std::string path = ban_ledger_path(dir, replica_node(0));
  write_ban_ledger(path, {1, 2, 3});
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }

  // Cut mid-final-record (a crash between append and flush): records 1
  // and 2 survive with their checksums, record 3 is reported dropped.
  atomic_write_file(path, std::string_view(bytes).substr(0, bytes.size() - 4));
  const ban_ledger_read torn = read_ban_ledger_checked(path);
  EXPECT_TRUE(torn.torn_tail);
  EXPECT_FALSE(torn.header_corrupt);
  EXPECT_EQ(torn.clients, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(torn.dropped_records, 1u);
  // The lenient reader agrees (prefix, no throw) — replicas replaying
  // ledgers at boot never lose the bans that were durably persisted.
  EXPECT_EQ(read_ban_ledger(path), (std::vector<std::uint64_t>{1, 2}));

  // Flip one bit inside the SECOND record's payload: the prefix shrinks
  // to the records whose checksums still verify.
  std::string flipped = bytes;
  const std::size_t second_record = 16 + 12;  // header, then 12B records
  flipped[second_record] = static_cast<char>(flipped[second_record] ^ 0x01);
  atomic_write_file(path, flipped);
  const ban_ledger_read bitrot = read_ban_ledger_checked(path);
  EXPECT_TRUE(bitrot.torn_tail);
  EXPECT_EQ(bitrot.clients, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(bitrot.dropped_records, 2u);
}

// Tentpole: a single flipped bit anywhere in a shard checkpoint breaks
// the whole-file checksum trailer, and the load surfaces a typed fencing
// error — never a detector rebuilt from rotted bytes.
TEST(Checkpoint, BitFlippedShardChecksumIsTypedFencingError) {
  checkpoint_rig r("ckpt_bitflip");
  const auto path =
      save_shard_checkpoint(r.rig.det, r.rig.cfg, r.rig.dir, 0, r.meta);
  EXPECT_TRUE(verify_checkpoint_file(path));

  std::string bytes = read_file_bytes(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  atomic_write_file(path, bytes);

  EXPECT_FALSE(verify_checkpoint_file(path));
  try {
    load_shard_checkpoint(path, 0, r.rig.cfg, 0, 0);
    FAIL() << "bit-flipped checkpoint must fence";
  } catch (const io_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

// Satellite: atomic_write_file creates and makes durable any missing
// ancestor directories, and surfaces failures as typed errors.
TEST(Checkpoint, AtomicWriteCreatesAncestorsAndSurfacesErrors) {
  const std::string dir = test_dir("fs_durability");
  const std::string nested = dir + "/a/b/c/ledger.bin";
  atomic_write_file(nested, "payload");
  std::ifstream is(nested, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(is),
                        std::istreambuf_iterator<char>()};
  EXPECT_EQ(got, "payload");

  // A file in the ancestor chain cannot become a directory.
  EXPECT_THROW(atomic_write_file(nested + "/impossible.bin", "x"), io_error);
}

// ------------------------------------------------------------ integrity --
// Satellite: digest determinism. The anti-entropy leaves are CRC32C over
// a canonical serialisation, so equal content must digest bitwise
// identically at any fit thread count and any shard-load order.

TEST(Integrity, ShardDigestIsThreadInvariant) {
  const auto dcfg = test_detector_config();
  auto model = make_test_model();
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*model),
                                 hpc::resilience_config::naive());
  core::benign_template tpl(4, dcfg.events.size());
  for (std::size_t i = 0; i < 32; ++i) {
    const tensor x = test_input(0.4 + 0.05 * static_cast<double>(i % 12));
    const auto m = monitor.measure(x, dcfg.events, dcfg.repeats);
    tpl.add_row(m.predicted, m.mean_counts);
  }
  const core::detector d1 = core::detector::fit(tpl, dcfg, 1);
  const core::detector d4 = core::detector::fit(tpl, dcfg, 4);
  const fleet_config cfg = small_cfg();
  const auto m1 = models_of(d1);
  const auto m4 = models_of(d4);
  std::vector<std::uint32_t> l1, l4;
  for (std::uint64_t s = 0; s < cfg.class_shards; ++s) {
    EXPECT_EQ(shard_content_digest(m1, s, cfg),
              shard_content_digest(m4, s, cfg))
        << "shard " << s;
    l1.push_back(shard_content_digest(m1, s, cfg));
    l4.push_back(shard_content_digest(m4, s, cfg));
  }
  EXPECT_EQ(digest_root(l1), digest_root(l4));
}

TEST(Integrity, ShardDigestIsLoadOrderInvariant) {
  checkpoint_rig r("digest_order");
  const fleet_config& cfg = r.rig.cfg;
  core::checkpoint_meta meta1 = r.meta;
  meta1.shard_index = 1;
  const auto p0 = save_shard_checkpoint(r.rig.det, cfg, r.rig.dir, 0, r.meta);
  const auto p1 = save_shard_checkpoint(r.rig.det, cfg, r.rig.dir, 1, meta1);
  const core::checkpoint cp0 = load_shard_checkpoint(p0, 0, cfg, 0, 0);
  const core::checkpoint cp1 = load_shard_checkpoint(p1, 1, cfg, 0, 0);

  // Overlay the shipped shards onto an EMPTY mirror in both orders: the
  // digests must agree with each other and with the original content.
  auto blank = models_of(r.rig.det);
  for (auto& row : blank) {
    for (auto& cell : row) cell.reset();
  }
  auto a = blank;
  merge_shard(a, cp0.det, 0, cfg);
  merge_shard(a, cp1.det, 1, cfg);
  auto b = blank;
  merge_shard(b, cp1.det, 1, cfg);
  merge_shard(b, cp0.det, 0, cfg);

  const auto full = models_of(r.rig.det);
  for (std::uint64_t s = 0; s < cfg.class_shards; ++s) {
    EXPECT_EQ(shard_content_digest(a, s, cfg),
              shard_content_digest(b, s, cfg))
        << "shard " << s;
    EXPECT_EQ(shard_content_digest(a, s, cfg),
              shard_content_digest(full, s, cfg))
        << "shard " << s;
  }
  // The digest sees presence: at least one shard carries fitted models
  // (the genesis fit only models the classes the CNN actually predicts),
  // and a populated shard reads differently from the blank mirror.
  bool differs = false;
  for (std::uint64_t s = 0; s < cfg.class_shards; ++s) {
    differs = differs || shard_content_digest(blank, s, cfg) !=
                             shard_content_digest(a, s, cfg);
  }
  EXPECT_TRUE(differs);
}

TEST(Integrity, BanSetDigestAndRootAreCanonical) {
  std::set<std::uint64_t> x;
  for (const std::uint64_t c : {9ULL, 1ULL, 5ULL}) x.insert(c);
  std::set<std::uint64_t> y;
  for (const std::uint64_t c : {5ULL, 9ULL, 1ULL}) y.insert(c);
  EXPECT_EQ(ban_set_digest(x), ban_set_digest(y));
  y.erase(5);
  EXPECT_NE(ban_set_digest(x), ban_set_digest(y));
  EXPECT_NE(ban_set_digest({}), ban_set_digest(x));
  EXPECT_EQ(digest_root({}), 0u);
  EXPECT_EQ(digest_root({7u}), 7u);  // odd leaf promoted unpaired
  EXPECT_EQ(digest_root({7u, 9u}), digest_root({7u, 9u}));
  EXPECT_NE(digest_root({7u, 9u}), digest_root({9u, 7u}));  // order-sensitive
}

// -------------------------------------------------------------- handoff --

TEST(TrackHandoff, ExportImportPreservesEscalation) {
  serve::virtual_clock clock;
  fleet_config cfg = small_cfg();
  track::query_tracker a(clock, cfg.track);
  track::query_tracker b(clock, cfg.track);

  // Elevate (not ban) a client on A with colliding probes.
  const std::uint64_t client = 77;
  for (int i = 0; i < 3; ++i) {
    a.observe(client, probe_input(3, 0.01 * (i % 2)));
  }
  ASSERT_EQ(a.level(client), track::escalation::elevated);

  const std::uint32_t r = range_of_client(client, cfg);
  auto batch = a.export_clients(
      16, [&](std::uint64_t c) { return range_of_client(c, cfg) == r; });
  ASSERT_FALSE(batch.empty());
  // Snapshot-plus-removal: the state now lives only in the batch.
  EXPECT_EQ(a.level(client), track::escalation::none);

  b.import_clients(batch);
  EXPECT_EQ(b.level(client), track::escalation::elevated);
  // History travelled too: the next colliding probe keeps escalating
  // where the old owner left off, and eventually bans.
  for (int i = 0; i < 4; ++i) {
    b.observe(client, probe_input(3, 0.01 * (i % 2)));
  }
  EXPECT_EQ(b.level(client), track::escalation::banned);
}

// ------------------------------------------------------------ fleet sim --

TEST(FleetSim, QuietFleetServesEverything) {
  fleet_rig rig("quiet");
  fleet_sim sim(rig.cfg, rig.deps(), fault_plan{});
  sim.run(benign_arrivals(30, 1, 100), 60);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 30u);
  EXPECT_EQ(resolved_total(s), 30u);  // every request resolves exactly once
  EXPECT_EQ(served_total(s), 30u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_EQ(s.view_changes, 0u);
  EXPECT_EQ(s.crashes, 0u);
  EXPECT_EQ(sim.route().pending(), 0u);
  // Periodic checkpoint publication ran and shard files exist on disk.
  EXPECT_GT(s.checkpoints_published, 0u);
  for (std::uint64_t sh = 0; sh < rig.cfg.class_shards; ++sh) {
    EXPECT_TRUE(fs::exists(shard_latest_path(rig.dir, sh)));
  }
}

TEST(FleetSim, CrashFailoverKeepsServingWithZeroSplitBrain) {
  fleet_rig rig("failover");
  fault_plan plan({{10, fault_kind::crash, 1}, {50, fault_kind::recover, 1}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(benign_arrivals(80, 1, 500), 120);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 80u);
  EXPECT_EQ(resolved_total(s), 80u);
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.recoveries, 1u);
  // Down at tick 10 (epoch 2 once detected), readmitted after tick 50.
  EXPECT_GE(s.view_changes, 2u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  // Only requests routed into the detection window can abstain; the
  // fleet keeps serving through the failure.
  EXPECT_GE(served_total(s), 55u);
  EXPECT_EQ(sim.route().pending(), 0u);
  EXPECT_TRUE(sim.worker(1).up());
  // The recovered replica rejoined the authoritative view.
  const auto& live = sim.authoritative_view().live;
  EXPECT_TRUE(std::find(live.begin(), live.end(), replica_node(1)) !=
              live.end());
}

TEST(FleetSim, BanSurvivesOwnerCrashAndRecovery) {
  fleet_rig rig("ban_survival");
  // An attacker whose fingerprint range is owned by replica 1 — the
  // replica we will crash after the ban lands.
  const std::uint64_t attacker = client_owned_by(replica_node(1), rig.cfg);
  fault_plan plan({{30, fault_kind::crash, 1}, {50, fault_kind::recover, 1}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(probe_campaign(attacker, 1, 90), 130);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 90u);
  EXPECT_EQ(resolved_total(s), 90u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_EQ(s.bans_decided, 1u);
  EXPECT_TRUE(sim.route().banned(attacker));
  // The colliding campaign banned quickly; the long tail was rejected.
  EXPECT_GE(s.outcome(req_outcome::rejected_banned), 50u);

  // Zero lost ban decisions: once the ban is journalled, the attacker is
  // never served again — through the owner's crash and recovery.
  const std::string& journal = sim.log().text();
  const std::string ban_line = "ban client=" + std::to_string(attacker);
  const auto ban_at = journal.find(ban_line);
  ASSERT_NE(ban_at, std::string::npos);
  EXPECT_EQ(journal.find(ban_line, ban_at + 1), std::string::npos);
  const std::string served_attacker =
      "client=" + std::to_string(attacker) + " outcome=served";
  EXPECT_EQ(journal.find(served_attacker, ban_at), std::string::npos);

  // The recovered owner replayed the durable ledger: it knows the ban
  // even though its tracker state died with the crash.
  ASSERT_TRUE(sim.worker(1).up());
  EXPECT_EQ(sim.worker(1).tracker()->level(attacker),
            track::escalation::banned);
  EXPECT_FALSE(
      read_ban_ledger(ban_ledger_path(rig.dir, replica_node(1))).empty());
}

TEST(FleetSim, StalledReplicaIsFencedNotSplitBrained) {
  fleet_rig rig("stall");
  fault_plan plan({{10, fault_kind::stall, 1}, {40, fault_kind::unstall, 1}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(benign_arrivals(60, 1, 900), 100);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 60u);
  EXPECT_EQ(resolved_total(s), 60u);
  EXPECT_EQ(s.stalls, 1u);
  // The stalled replica was declared dead and later readmitted.
  EXPECT_GE(s.view_changes, 2u);
  // The acceptance property: a stalled replica resuming with a stale
  // view and expired lease abstains; it never serves a stale verdict.
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GT(served_total(s), 0u);
  EXPECT_EQ(sim.route().pending(), 0u);
}

TEST(FleetSim, LeaderCrashFailsOverWithZeroSplitBrain) {
  // Kill the ACTING CONTROLLER, not a worker: a standby must win a
  // quorum ballot, wait out the dead leader's lease, and resume
  // publishing views — while every verdict served before, during and
  // after the handover still checks out against the elected regime.
  fleet_rig rig("ctl_failover");
  fault_plan plan({{15, fault_kind::crash, 0, fault_target::controller}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(benign_arrivals(100, 1, 1400), 170);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(resolved_total(s), 100u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GE(s.elections, 1u);
  // The failover window fences some requests; serving resumes under the
  // successor and dominates the run.
  EXPECT_GE(served_total(s), 40u);
  EXPECT_EQ(sim.route().pending(), 0u);
  // The authoritative view now belongs to a term the dead leader never
  // led, published by a different controller.
  EXPECT_GE(epoch_term(sim.authoritative_view().epoch), 2u);
  const controller* leader = sim.acting_leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_NE(leader->node(), controller_node(0));
  const std::string& journal = sim.log().text();
  EXPECT_NE(journal.find("ctl-crash node=100"), std::string::npos);
  EXPECT_NE(journal.find("ctl-leader"), std::string::npos);
}

TEST(FleetSim, PartitionedLeaderCedesWithZeroSplitBrain) {
  // Symmetric partition instead of a crash: the genesis leader is cut
  // off from the whole fleet. Its lease starves (no quorum of acks), the
  // majority side elects a successor, and after the heal the deposed
  // leader hears the higher term and steps down — at no point do two
  // regimes both act.
  fleet_rig rig("ctl_partition");
  fault_plan plan;
  plan.partition(20, 90, {{controller_node(0)}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(benign_arrivals(100, 1, 5200), 190);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(resolved_total(s), 100u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GE(s.elections, 1u);
  EXPECT_GT(s.net.severed, 0u);
  EXPECT_GE(served_total(s), 40u);
  EXPECT_GE(epoch_term(sim.authoritative_view().epoch), 2u);
  const controller* leader = sim.acting_leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_NE(leader->node(), controller_node(0));
  // The healed genesis leader conceded to the new term.
  EXPECT_EQ(sim.ctl(0).role(), ctl_role::standby);
  EXPECT_NE(sim.log().text().find("ctl-stepdown node=100"),
            std::string::npos);
}

TEST(FleetSim, ThreeWayPartitionFailsClosedThenReElects) {
  // A 3-way split puts each controller in a different island (leader +
  // one worker, one standby + one worker, one standby + the router +
  // one worker): no island holds a controller quorum, so the leader's
  // lease starves and NOBODY can win a ballot — the fleet fails closed
  // under the last activated view until the heal, after which a quorum
  // re-forms and elects. Zero split-brain throughout.
  fleet_rig rig("ctl_threeway");
  fault_plan plan;
  plan.partition(20, 80, {{controller_node(0), replica_node(0)},
                          {controller_node(1), replica_node(1)}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);

  sim.run(benign_arrivals(50, 1, 7300), 60);
  // Mid-partition: quorum lost everywhere, no acting leader anywhere.
  EXPECT_EQ(sim.acting_leader(), nullptr);
  EXPECT_EQ(sim.stats().split_brain_serves, 0u);

  sim.run(benign_arrivals(50, 90, 7400), 200);
  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(resolved_total(s), 100u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GT(s.net.severed, 0u);
  // The heal restored a quorum: someone acts again, under a term the
  // partition-era candidacies could never have won.
  const controller* leader = sim.acting_leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_GE(leader->term(), 2u);
  EXPECT_GE(s.elections, 1u);
  EXPECT_GE(epoch_term(sim.authoritative_view().epoch), 2u);
}

TEST(FleetSim, CrashedPrimarySpeculatesToSecondary) {
  // Crash a worker and immediately aim traffic at its ranges: before the
  // controller can even declare it dead, the router's speculative
  // re-route hands the silent primary's requests to the secondary owner
  // slot, which serves them under a degraded-confidence tag instead of
  // letting them burn into abstain_timeout.
  fleet_rig rig("speculate");
  std::vector<std::uint64_t> clients;
  for (std::uint64_t c = 1; clients.size() < 10; ++c) {
    if (range_owner(genesis_view(), range_of_client(c, rig.cfg)) ==
        replica_node(1)) {
      clients.push_back(c);
    }
  }
  std::vector<arrival> arrivals;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    arrivals.push_back({11 + i, clients[i],
                        test_input(0.4 + 0.05 * static_cast<double>(i))});
  }
  fault_plan plan({{10, fault_kind::crash, 1}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(std::move(arrivals), 90);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.submitted, 10u);
  EXPECT_EQ(resolved_total(s), 10u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GE(s.speculative_routes, 1u);
  EXPECT_GE(s.served_secondary, 1u);
  // A degraded serve IS a serve: requests resolved with verdicts.
  EXPECT_GE(served_total(s), 1u);
  const std::string& journal = sim.log().text();
  EXPECT_NE(journal.find("speculate req="), std::string::npos);
  EXPECT_NE(journal.find(" conf=degraded"), std::string::npos);
  // Full-confidence serves are never tagged: every tag in the journal is
  // one of the secondary-slot serves (a degraded response that loses the
  // delivery race journals as something else, so <=).
  std::size_t tagged = 0;
  for (auto at = journal.find(" conf=degraded"); at != std::string::npos;
       at = journal.find(" conf=degraded", at + 1)) {
    ++tagged;
  }
  EXPECT_GE(tagged, 1u);
  EXPECT_LE(tagged, s.served_secondary);
}

TEST(FleetSim, MembershipChangeHandsOffTrackedClients) {
  fleet_rig rig("handoff");
  // Track a client on its genesis owner, then crash a *different*
  // replica: the ring reshuffles and the tracked client's range can move
  // between the two survivors, carrying its history along.
  std::vector<arrival> arrivals;
  // Elevate several clients spread across the ring so at least one lives
  // in a range that changes owner between survivors.
  for (std::uint64_t c = 1; c <= 24; ++c) {
    for (std::size_t i = 0; i < 3; ++i) {
      arrivals.push_back({1 + 3 * (c - 1) + i, c, probe_input(c, 0.0)});
    }
  }
  fault_plan plan({{80, fault_kind::crash, 2}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(std::move(arrivals), 140);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_GE(s.view_changes, 1u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GT(s.handoff_clients, 0u);
}

TEST(FleetSim, ChaosRunIsBitwiseThreadInvariant) {
  // The acceptance gate in miniature: the same chaotic campaign — crash
  // + stall faults, 5% message loss, colliding attack probes — replayed
  // at 1 and 4 measurement threads must produce byte-identical journals.
  fleet_config cfg = small_cfg();
  cfg.loss_rate = 0.05;
  // Seeded worker chaos PLUS a scripted controller kill mid-run: the
  // election traffic and failover churn must replay bitwise too.
  auto events = fault_plan::chaos(cfg, 120, 0.02, 42).events();
  events.push_back({30, fault_kind::crash, 0, fault_target::controller});
  events.push_back({85, fault_kind::recover, 0, fault_target::controller});
  const fault_plan plan(std::move(events));

  auto arrivals = [] {
    auto a = benign_arrivals(70, 1, 2000);
    const auto probes = probe_campaign(31, 5, 30);
    a.insert(a.end(), probes.begin(), probes.end());
    return a;
  };

  fleet_rig rig1("chaos_t1", cfg);
  rig1.cfg.serve.threads = 1;
  fleet_sim sim1(rig1.cfg, rig1.deps(), plan);
  sim1.run(arrivals(), 120);

  fleet_rig rig4("chaos_t4", cfg);
  rig4.cfg.serve.threads = 4;
  fleet_sim sim4(rig4.cfg, rig4.deps(), plan);
  sim4.run(arrivals(), 120);

  EXPECT_EQ(sim1.log().text(), sim4.log().text());
  const fleet_stats s1 = sim1.stats();
  const fleet_stats s4 = sim4.stats();
  EXPECT_EQ(s1.submitted, s4.submitted);
  EXPECT_EQ(s1.by_outcome, s4.by_outcome);
  EXPECT_EQ(s1.split_brain_serves, 0u);
  EXPECT_EQ(s4.split_brain_serves, 0u);
  EXPECT_EQ(s1.bans_decided, s4.bans_decided);
  EXPECT_EQ(resolved_total(s1), s1.submitted);
}

TEST(FleetSim, DriftTriggersQuorumGatedRecalibration) {
  fleet_rig rig("recal");
  // Every replica's baseline steps to 1.5x after 12 canary rounds — past
  // the cells' burn-in, so the shift reads as genuine drift, not
  // canary-set bias. Canary NLLs run hot against the genesis fit and the
  // cells alarm.
  const std::size_t onset = 12 * rig.canary_classes();
  fleet_sim sim(rig.cfg, rig.deps(/*drift_magnitude=*/1.5, onset),
                fault_plan{});
  sim.run({}, 200);

  const fleet_stats s = sim.stats();
  EXPECT_GT(s.canary_probes, 0u);
  EXPECT_GE(s.drift_alarms, 1u);
  // The rollout went through ballot -> quorum -> staged validation ->
  // fleet-wide promotion; peers applied the shipped checkpoint.
  EXPECT_GE(s.rollouts, 1u);
  EXPECT_EQ(s.rollbacks, 0u);
  EXPECT_GT(s.checkpoints_applied, 0u);
  bool advanced = false;
  for (std::size_t i = 0; i < rig.cfg.replicas; ++i) {
    for (std::uint64_t sh = 0; sh < rig.cfg.class_shards; ++sh) {
      advanced = advanced || sim.worker(i).applied_version(sh) >= 2;
    }
  }
  EXPECT_TRUE(advanced);
}

TEST(FleetSim, PoisonedRecalibrationRollsBack) {
  fleet_rig rig("rollback");
  fault_plan plan;
  // The first staged recalibration of each shard is v2 (genesis is v1).
  // Poison both: canary validation must fail and the rollout must roll
  // back to the old parameters (republished under a higher version).
  plan.poison(0, 2);
  plan.poison(1, 2);
  const std::size_t onset = 12 * rig.canary_classes();
  fleet_sim sim(rig.cfg, rig.deps(/*drift_magnitude=*/1.5, onset), plan);
  sim.run({}, 200);

  const fleet_stats s = sim.stats();
  EXPECT_GE(s.drift_alarms, 1u);
  EXPECT_GE(s.rollbacks, 1u);
  const std::string& journal = sim.log().text();
  EXPECT_NE(journal.find("rollback=1"), std::string::npos);
  // Version monotonicity: the rollback republish advanced the content
  // version past the poisoned stage.
  bool rolled = false;
  for (std::size_t i = 0; i < rig.cfg.replicas; ++i) {
    for (std::uint64_t sh = 0; sh < rig.cfg.class_shards; ++sh) {
      rolled = rolled || sim.worker(i).applied_version(sh) >= 3;
    }
  }
  EXPECT_TRUE(rolled);
}

TEST(FleetSim, RepeatedRunsAreByteIdentical) {
  fleet_config cfg = small_cfg();
  cfg.loss_rate = 0.1;
  fault_plan plan({{12, fault_kind::crash, 1},
                   {40, fault_kind::recover, 1},
                   {60, fault_kind::stall, 2},
                   {75, fault_kind::unstall, 2},
                   {25, fault_kind::crash, 0, fault_target::controller},
                   {70, fault_kind::recover, 0, fault_target::controller}});
  plan.partition(90, 100, {{controller_node(2)}});
  std::string first;
  for (int run = 0; run < 2; ++run) {
    fleet_rig rig("repeat_" + std::to_string(run), cfg);
    fleet_sim sim(rig.cfg, rig.deps(), plan);
    sim.run(benign_arrivals(50, 1, 300), 110);
    if (run == 0) {
      first = sim.log().text();
    } else {
      EXPECT_EQ(sim.log().text(), first);
    }
  }
  EXPECT_FALSE(first.empty());
}

// Tentpole: a replica that reboots onto a rotted shard checkpoint fences
// the shard (fails closed), then anti-entropy pulls the content back
// from the surviving ownership-slot holder, unfences it, and converges
// every replica to byte-identical state.
TEST(FleetSim, CorruptShardFencesRepairsAndConverges) {
  fleet_config cfg = small_cfg();
  cfg.scrub_period = 6;
  fleet_rig rig("corrupt_repair", cfg);
  const auto owner = shard_owner_k(genesis_view(), 0, 0);
  ASSERT_TRUE(owner.has_value());
  const std::size_t pidx = *owner - 2;
  // Publish at t=10, crash the owner, flip a bit in the shared shard 0
  // latest file while it is down, recover: the boot load fails its
  // checksum and the shard is corrupt-fenced, never served from rot.
  fault_plan plan({{12, fault_kind::crash, pidx},
                   {16, fault_kind::recover, pidx}});
  plan.corrupt({14, corrupt_kind::bit_flip, corrupt_target::shard_file, pidx,
                0, 99});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(benign_arrivals(40, 1, 4200), 90);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.corrupt_faults, 1u);
  EXPECT_GE(s.shards_fenced_corrupt, 1u);
  const std::string& journal = sim.log().text();
  EXPECT_NE(journal.find("corrupt-fence shard=0"), std::string::npos);
  // Fail closed while fenced: no full-confidence verdict ever left the
  // corrupted shard, and no request was lost (abstains resolve).
  EXPECT_EQ(s.corrupt_full_conf_serves, 0u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_EQ(resolved_total(s), s.submitted);
  // Anti-entropy detected the divergence, pulled from the surviving slot
  // holder, and unfenced the shard.
  EXPECT_GE(s.digest_mismatches, 1u);
  EXPECT_GE(s.repairs_requested, 1u);
  EXPECT_GE(s.repairs_served, 1u);
  EXPECT_GE(s.repairs_completed, 1u);
  EXPECT_NE(journal.find("repair shard=0"), std::string::npos);
  EXPECT_NE(journal.find("unfenced=1"), std::string::npos);
  EXPECT_TRUE(sim.worker(pidx).corrupt_shards().empty());
  // Convergence is byte-identical: every replica's canonical shard
  // digests agree, and the healed on-disk latest verifies again.
  for (std::uint64_t sh = 0; sh < rig.cfg.class_shards; ++sh) {
    const std::uint32_t want = sim.worker(0).content_digest(sh);
    for (std::size_t i = 1; i < rig.cfg.replicas; ++i) {
      EXPECT_EQ(sim.worker(i).content_digest(sh), want)
          << "replica " << i << " shard " << sh;
    }
    EXPECT_TRUE(verify_checkpoint_file(shard_latest_path(rig.dir, sh)));
  }
}

// Tentpole, the replication-1 leg: with no surviving slot holder there
// is no authorized repair source, so the fenced shard must FAIL CLOSED —
// abstaining forever — rather than resurrect from a bystander's copy.
TEST(FleetSim, ReplicationOneCorruptionFailsClosed) {
  fleet_config cfg = small_cfg();
  cfg.replication = 1;
  cfg.scrub_period = 6;
  fleet_rig rig("corrupt_r1", cfg);
  // Fence the shard that actually carries fitted content: the genesis
  // fit models only the classes the CNN predicts for benign inputs, so
  // this is the shard live verdicts land in — suppression is observable.
  const auto full = models_of(rig.det);
  std::uint64_t shard = 0;
  for (std::size_t cls = 0; cls < full.size(); ++cls) {
    for (const auto& em : full[cls]) {
      if (em.has_value()) shard = shard_of_class(cls, rig.cfg);
    }
  }
  const auto owner = shard_owner_k(genesis_view(), shard, 0);
  ASSERT_TRUE(owner.has_value());
  const std::size_t pidx = *owner - 2;
  fault_plan plan({{12, fault_kind::crash, pidx},
                   {16, fault_kind::recover, pidx}});
  plan.corrupt({14, corrupt_kind::bit_flip, corrupt_target::shard_file, pidx,
                shard, 31});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(benign_arrivals(40, 1, 6100), 90);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.corrupt_faults, 1u);
  EXPECT_GE(s.shards_fenced_corrupt, 1u);
  // No authorized source, no repair: not even a request goes out.
  EXPECT_EQ(s.repairs_requested, 0u);
  EXPECT_EQ(s.repairs_served, 0u);
  EXPECT_EQ(s.repairs_completed, 0u);
  ASSERT_TRUE(sim.worker(pidx).up());
  EXPECT_TRUE(sim.worker(pidx).shard_fenced(shard));
  // Failing closed means abstaining, not serving rot: verdicts that
  // landed on the fenced shard were suppressed and resolved as typed
  // integrity abstains, and nothing full-confidence escaped.
  EXPECT_EQ(s.corrupt_full_conf_serves, 0u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_GE(s.verdicts_suppressed_corrupt, 1u);
  EXPECT_GE(s.outcome(req_outcome::abstain_corrupt), 1u);
  EXPECT_EQ(resolved_total(s), s.submitted);
}

// Tentpole: a durable ban decision survives its own ledger rotting. The
// owner reboots onto a damaged ledger (tolerated, verified-prefix read),
// loses the record, and the next digest exchange ban_syncs the decision
// back from its peers — re-persisted locally. Zero lost durable bans.
TEST(FleetSim, BanSurvivesLedgerCorruptionViaAntiEntropy) {
  fleet_config cfg = small_cfg();
  cfg.scrub_period = 6;
  fleet_rig rig("corrupt_ledger", cfg);
  const std::uint64_t attacker = client_owned_by(replica_node(1), rig.cfg);
  fault_plan plan({{31, fault_kind::crash, 1}, {35, fault_kind::recover, 1}});
  plan.corrupt({33, corrupt_kind::bit_flip, corrupt_target::ledger_file, 1, 0,
                12});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(probe_campaign(attacker, 1, 30), 90);

  const fleet_stats s = sim.stats();
  EXPECT_EQ(s.bans_decided, 1u);
  EXPECT_EQ(s.corrupt_faults, 1u);
  EXPECT_EQ(s.split_brain_serves, 0u);
  EXPECT_TRUE(sim.route().banned(attacker));
  // The ban was re-synced into the rebooted owner...
  ASSERT_TRUE(sim.worker(1).up());
  EXPECT_EQ(sim.worker(1).tracker()->level(attacker),
            track::escalation::banned);
  // ...and once journalled, the attacker was never served again.
  const std::string& journal = sim.log().text();
  const std::string ban_line = "ban client=" + std::to_string(attacker);
  const auto ban_at = journal.find(ban_line);
  ASSERT_NE(ban_at, std::string::npos);
  const std::string served_attacker =
      "client=" + std::to_string(attacker) + " outcome=served";
  EXPECT_EQ(journal.find(served_attacker, ban_at), std::string::npos);
  // The decision is durable again in the owner's own rewritten ledger,
  // which reads back clean.
  const ban_ledger_read led =
      read_ban_ledger_checked(ban_ledger_path(rig.dir, replica_node(1)));
  EXPECT_FALSE(led.header_corrupt);
  EXPECT_FALSE(led.torn_tail);
  EXPECT_NE(std::find(led.clients.begin(), led.clients.end(), attacker),
            led.clients.end());
}

// Satellite: the full corruption chaos — seeded disk faults on top of
// crash/stall chaos, message loss, and a scripted digest blackout —
// replays bitwise identically at 1 and 4 measurement threads. The
// journalled scrub roots make digest determinism part of the byte
// identity being asserted.
TEST(FleetSim, CorruptionChaosIsBitwiseThreadInvariant) {
  fleet_config cfg = small_cfg();
  cfg.loss_rate = 0.03;
  cfg.scrub_period = 6;
  fault_plan plan(fault_plan::chaos(cfg, 110, 0.015, 11).events());
  plan.add_corruption_chaos(cfg, 110, 0.25, 77);
  plan.digest_blackout(40, 52);

  auto arrivals = [] {
    auto a = benign_arrivals(60, 1, 5000);
    const auto probes = probe_campaign(47, 4, 25);
    a.insert(a.end(), probes.begin(), probes.end());
    return a;
  };

  fleet_rig rig1("cchaos_t1", cfg);
  rig1.cfg.serve.threads = 1;
  fleet_sim sim1(rig1.cfg, rig1.deps(), plan);
  sim1.run(arrivals(), 110);

  fleet_rig rig4("cchaos_t4", cfg);
  rig4.cfg.serve.threads = 4;
  fleet_sim sim4(rig4.cfg, rig4.deps(), plan);
  sim4.run(arrivals(), 110);

  EXPECT_EQ(sim1.log().text(), sim4.log().text());
  const fleet_stats s1 = sim1.stats();
  const fleet_stats s4 = sim4.stats();
  EXPECT_GE(s1.corrupt_faults, 1u);  // the chaos actually bit
  EXPECT_GE(s1.scrub_rounds, 1u);
  EXPECT_EQ(s1.corrupt_full_conf_serves, 0u);
  EXPECT_EQ(s4.corrupt_full_conf_serves, 0u);
  EXPECT_EQ(s1.split_brain_serves, 0u);
  EXPECT_EQ(s4.split_brain_serves, 0u);
  EXPECT_EQ(s1.submitted, s4.submitted);
  EXPECT_EQ(s1.by_outcome, s4.by_outcome);
  EXPECT_EQ(s1.bans_decided, s4.bans_decided);
  EXPECT_EQ(resolved_total(s1), s1.submitted);
}

}  // namespace
}  // namespace advh::fleet
