// Fleet failover bench: the sharded detection fleet under scripted and
// seeded chaos, with the PR's acceptance gates wired into the exit code.
//
// Phase A sweeps a scripted kill over every replica: an attack campaign
// whose fingerprint range is owned by the victim runs alongside benign
// traffic, the victim is crashed mid-campaign and recovered later. Per
// victim the bench checks that every request resolves exactly once, that
// the ban decided before the crash is never lost (journalled once, the
// attacker is never served afterwards — through the owner's crash AND its
// recovery from the durable ledger), that detection resumes on the
// recovered node within a bounded number of ticks, and that the
// controller's split-brain probe never fires.
//
// Phase B replays one seeded chaos campaign — crash/stall episodes,
// message loss, drift, colliding probes — at 1 and 4 measurement threads
// and diffs the journals byte for byte.
//
// Phase C drives the quorum-gated recalibration: a baseline step after
// canary burn-in must produce a promoted rollout with no rollback, and a
// poisoned staged checkpoint must produce a rollback.
//
// Phase D is the kill-the-leader sweep: with the replicated controller
// group (3 controllers) and shard replication factor 2, each run kills a
// single node — the acting LEADER, a STANDBY controller, or a WORKER
// primary — mid-campaign and checks that the fleet has no single point
// of failure. Killing the leader must produce a quorum election whose
// win lands within a bounded number of ticks; killing a standby must
// need no election at all; killing a worker must see its in-flight and
// subsequent requests served by the secondary owner under the
// degraded-confidence tag. Every run in the sweep is replayed at 1 and
// 4 measurement threads and the journals diffed byte for byte, and the
// split-brain probe and the durable-ban check apply throughout.
//
// Phase E is the corruption sweep: the content-bearing shard's primary
// is crashed, its checkpoint bit-flipped on disk, and rebooted — the
// boot must checksum-fence the shard (zero full-confidence verdicts off
// it); later its ban ledger is bit-flipped and a second reboot loses the
// record. With replication >= 2 the anti-entropy scrub must pull the
// shard back from the surviving slot holder (byte-identical digests
// fleet-wide) and ban_sync must restore the ban; with replication 1
// there is no authorized repair source and the shard must FAIL CLOSED —
// no repair requested, no repair completed, fenced to the end. When
// ADVH_FLEET_CORRUPT_RATE is set, seeded corruption chaos runs on top,
// and the whole phase replays at 1 and 4 threads, journals diffed.
//
// Chaos knobs (the CI fleet-chaos job sets all three):
//   ADVH_FAULT_RATE   per-tick crash/stall episode rate of the seeded
//                     fault plan in phase B (default 0.02; strict parse)
//   ADVH_DRIFT_RATE   baseline step magnitude 1 + rate, engaged after the
//                     canary burn-in, in phase B (default 0; strict parse)
//   ADVH_THREADS      measurement threads for phase A / C runs
//   ADVH_FLEET_REPLICAS / ADVH_FLEET_LOSS_RATE /
//   ADVH_FLEET_CONTROLLERS / ADVH_FLEET_REPLICATION /
//   ADVH_FLEET_SCRUB_PERIOD / ADVH_FLEET_CORRUPT_RATE
//                     fleet geometry + integrity overrides
//                     (fleet_config_from_env; strict parse; the CI
//                     fleet-chaos matrix pins controllers=3 replication=2
//                     for phase D's gates and adds corrupt-rate legs at
//                     3/2 and 1/1 for phase E's)
//
// Writes bench_results/BENCH_fleet_failover.{csv,json}.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/detector.hpp"
#include "fleet/checkpoint.hpp"
#include "fleet/config.hpp"
#include "fleet/fault_plan.hpp"
#include "fleet/membership.hpp"
#include "fleet/sim.hpp"
#include "hpc/resilient_monitor.hpp"
#include "nn/models/models.hpp"

using namespace advh;
using namespace advh::fleet;

namespace {

namespace fs = std::filesystem;

/// Strict chaos-knob parse (the ADVH_* contract): set-but-malformed must
/// fail the job, not silently disable the chaos.
double env_rate(const char* name, double fallback, double max) {
  const char* env = std::getenv(name);
  if (!env) return fallback;
  errno = 0;
  char* end = nullptr;
  const double r = std::strtod(env, &end);
  if (end == env || *end != '\0' || errno == ERANGE || !(r >= 0.0) ||
      r > max) {
    throw std::invalid_argument(std::string(name) + "=\"" + env +
                                "\": expected a number in [0, " +
                                std::to_string(max) + "]");
  }
  return r;
}

/// Deterministic benign input at the given intensity scale.
tensor bench_input(double scale) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] =
        static_cast<float>(scale * (0.1 + 0.01 * static_cast<double>(i % 7)));
  }
  return x;
}

/// Attack-probe content at quantization-bin centres: sub-step `perturb`
/// quantizes away, so every probe of a campaign fingerprint-collides.
tensor probe_input(std::uint64_t variant, double perturb) {
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

/// Deterministic baseline step keyed on the measurement-call count. The
/// onset must land after the drift cells' canary burn-in: a step present
/// from the first probe reads as stationary canary-set bias (by design)
/// and never alarms.
class step_drift_monitor final : public hpc::hpc_monitor {
 public:
  step_drift_monitor(std::unique_ptr<hpc::hpc_monitor> inner,
                     std::size_t onset_calls, double magnitude)
      : inner_(std::move(inner)), onset_(onset_calls), magnitude_(magnitude) {}

  std::string backend_name() const override { return "bench-step-drift"; }

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

/// Fast fleet geometry satisfying lease + max_delay < failure_timeout,
/// with track thresholds low enough to ban within a few colliding probes.
fleet_config bench_cfg() {
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

/// Genesis detector + canary pool + shipped-state directory of one run.
struct fleet_rig {
  std::unique_ptr<nn::model> model;
  std::vector<std::pair<std::size_t, tensor>> canaries;
  core::detector det;
  std::string dir;
  fleet_config cfg;

  fleet_rig(const std::string& name, fleet_config c)
      : model(nn::make_model(nn::architecture::case_study_cnn, shape{1, 16, 16},
                             4, 1)),
        det(fit_genesis(*model, canaries)),
        cfg(std::move(c)) {
    dir = (fs::temp_directory_path() / ("advh_bench_fleet_" + name)).string();
    fs::remove_all(dir);
    fs::create_directories(dir);
  }

  static core::detector fit_genesis(
      nn::model& model, std::vector<std::pair<std::size_t, tensor>>& canaries) {
    core::detector_config dcfg;
    const auto events = hpc::core_events();
    dcfg.events = {events[0], events[1]};
    dcfg.repeats = 4;
    hpc::resilient_monitor fit_monitor(bench::make_reader(model),
                                       hpc::resilience_config::naive());
    core::benign_template tpl(4, dcfg.events.size());
    for (std::size_t i = 0; i < 32; ++i) {
      const tensor x = bench_input(0.4 + 0.05 * static_cast<double>(i % 12));
      const auto m = fit_monitor.measure(x, dcfg.events, dcfg.repeats);
      tpl.add_row(m.predicted, m.mean_counts);
      if (i < 12) canaries.emplace_back(m.predicted, x);
    }
    return core::detector::fit(tpl, dcfg, 1);
  }

  fleet_deps deps(double drift_magnitude = 0.0,
                  std::size_t drift_onset_calls = 0) {
    fleet_deps d;
    d.base = &det;
    d.dir = dir;
    d.canary_pool = &canaries;
    nn::model* m = model.get();
    d.make_monitor = [m, drift_magnitude, drift_onset_calls](
                         std::size_t) -> std::unique_ptr<hpc::hpc_monitor> {
      auto inner = bench::make_monitor(*m);
      if (drift_magnitude <= 0.0) return inner;
      return std::make_unique<step_drift_monitor>(
          std::move(inner), drift_onset_calls, drift_magnitude);
    };
    return d;
  }

  std::size_t canary_classes() const {
    std::vector<std::size_t> cls;
    for (const auto& [c, x] : canaries) cls.push_back(c);
    std::sort(cls.begin(), cls.end());
    cls.erase(std::unique(cls.begin(), cls.end()), cls.end());
    return cls.size();
  }
};

membership_view genesis_view(const fleet_config& cfg) {
  membership_view v;
  v.epoch = 1;
  for (std::size_t i = 0; i < cfg.replicas; ++i) {
    v.live.push_back(replica_node(i));
  }
  return v;
}

/// Smallest client id whose fingerprint range is owned by `node` at
/// genesis.
std::uint64_t client_owned_by(std::uint32_t node, const fleet_config& cfg) {
  const membership_view v = genesis_view(cfg);
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
                   bench_input(0.4 + 0.05 * static_cast<double>(i % 12))});
  }
  return out;
}

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
  std::uint64_t sum = 0;
  for (const auto v : s.by_outcome) sum += v;
  return sum;
}

/// Tick of the first journal line after `after` that contains `needle`,
/// or nullopt. Journal lines are "t=<tick> <rest>".
std::optional<std::uint64_t> first_line_after(const std::string& journal,
                                              std::uint64_t after,
                                              const std::string& needle) {
  std::istringstream is(journal);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("t=", 0) != 0) continue;
    const std::uint64_t tick = std::strtoull(line.c_str() + 2, nullptr, 10);
    if (tick <= after) continue;
    if (line.find(needle) != std::string::npos) return tick;
  }
  return std::nullopt;
}

// ------------------------------------------- phase A: failover sweep --

struct failover_result {
  std::size_t victim = 0;
  fleet_stats stats;
  bool all_resolved = false;
  bool ban_durable = false;      ///< decided once, never served after
  bool resumed_in_bound = false; ///< victim serves again within the bound
  std::uint64_t recovery_ticks = 0;
};

failover_result run_failover(const fleet_config& cfg, std::size_t victim,
                             std::size_t threads) {
  constexpr std::uint64_t kCrash = 25, kRecover = 45, kHorizon = 160;
  fleet_config run_cfg = cfg;
  run_cfg.serve.threads = threads;

  fleet_rig rig("failover_" + std::to_string(victim), run_cfg);
  const std::uint64_t attacker = client_owned_by(replica_node(victim), cfg);
  auto arrivals = benign_arrivals(100, 1, 10'000 * (victim + 1));
  auto probes = probe_campaign(attacker, 1, 40);
  arrivals.insert(arrivals.end(), probes.begin(), probes.end());

  fault_plan plan({{kCrash, fault_kind::crash, victim},
                   {kRecover, fault_kind::recover, victim}});
  fleet_sim sim(rig.cfg, rig.deps(), plan);
  sim.run(std::move(arrivals), kHorizon);

  failover_result out;
  out.victim = victim;
  out.stats = sim.stats();
  out.all_resolved = resolved_total(out.stats) == out.stats.submitted;

  // Zero lost ban decisions: the ban journalled before the crash appears
  // exactly once, and the attacker is never served after it — the
  // recovered owner replays the durable ledger, not its dead tracker.
  const std::string& journal = sim.log().text();
  const std::string ban_line = "ban client=" + std::to_string(attacker);
  const auto ban_at = journal.find(ban_line);
  out.ban_durable =
      out.stats.bans_decided == 1 && ban_at != std::string::npos &&
      journal.find(ban_line, ban_at + 1) == std::string::npos &&
      journal.find("client=" + std::to_string(attacker) + " outcome=served",
                   ban_at) == std::string::npos &&
      sim.route().banned(attacker) &&
      !read_ban_ledger(ban_ledger_path(rig.dir, replica_node(victim))).empty();

  // Bounded recovery: the recovered node must produce a served verdict
  // again within readmission + handoff + acquisition-grace time.
  const std::uint64_t bound = cfg.failure_timeout + 3 * cfg.lease + 10;
  const auto served_again = first_line_after(
      journal, kRecover, "node=" + std::to_string(replica_node(victim)));
  if (served_again.has_value()) {
    out.recovery_ticks = *served_again - kRecover;
    out.resumed_in_bound = out.recovery_ticks <= bound;
  }
  return out;
}

// --------------------------------- phase B: chaos thread invariance --

struct chaos_result {
  fleet_stats stats1, stats4;
  bool identical = false;
  bool all_resolved = false;
};

chaos_result run_chaos(const fleet_config& cfg, double fault_rate,
                       double drift_rate) {
  constexpr std::uint64_t kHorizon = 140;
  const fault_plan plan = fault_plan::chaos(cfg, kHorizon, fault_rate, 42);

  const auto arrivals = [&] {
    auto a = benign_arrivals(70, 1, 2000);
    const auto probes = probe_campaign(31, 5, 30);
    a.insert(a.end(), probes.begin(), probes.end());
    return a;
  };

  const auto run = [&](std::size_t threads, const std::string& tag) {
    fleet_config run_cfg = cfg;
    run_cfg.serve.threads = threads;
    fleet_rig rig("chaos_" + tag, run_cfg);
    const double magnitude = drift_rate > 0.0 ? 1.0 + drift_rate : 0.0;
    const std::size_t onset = 12 * rig.canary_classes();
    fleet_sim sim(rig.cfg, rig.deps(magnitude, onset), plan);
    sim.run(arrivals(), kHorizon);
    return std::pair<std::string, fleet_stats>(sim.log().text(), sim.stats());
  };

  const auto [j1, s1] = run(1, "t1");
  const auto [j4, s4] = run(4, "t4");
  chaos_result out;
  out.stats1 = s1;
  out.stats4 = s4;
  out.identical = j1 == j4;
  out.all_resolved = resolved_total(s1) == s1.submitted;
  return out;
}

// ------------------------------------- phase C: recalibration gates --

struct recal_result {
  fleet_stats drift_stats, poison_stats;
  bool rollout_ok = false;
  bool rollback_ok = false;
};

recal_result run_recalibration(const fleet_config& cfg, std::size_t threads) {
  constexpr std::uint64_t kHorizon = 200;
  fleet_config run_cfg = cfg;
  run_cfg.serve.threads = threads;
  recal_result out;
  {
    fleet_rig rig("recal", run_cfg);
    const std::size_t onset = 12 * rig.canary_classes();
    fleet_sim sim(rig.cfg, rig.deps(1.5, onset), fault_plan{});
    sim.run({}, kHorizon);
    out.drift_stats = sim.stats();
    out.rollout_ok = out.drift_stats.drift_alarms > 0 &&
                     out.drift_stats.rollouts >= 1 &&
                     out.drift_stats.rollbacks == 0;
  }
  {
    fleet_rig rig("recal_poison", run_cfg);
    const std::size_t onset = 12 * rig.canary_classes();
    fault_plan plan;
    plan.poison(0, 2);
    plan.poison(1, 2);
    fleet_sim sim(rig.cfg, rig.deps(1.5, onset), plan);
    sim.run({}, kHorizon);
    out.poison_stats = sim.stats();
    out.rollback_ok = out.poison_stats.rollbacks >= 1;
  }
  return out;
}

// --------------------------------- phase D: kill-the-leader sweep --

/// Which single node a phase-D run kills.
enum class kill_victim { leader, standby, worker };

const char* to_string(kill_victim v) {
  switch (v) {
    case kill_victim::leader: return "leader";
    case kill_victim::standby: return "standby";
    case kill_victim::worker: return "worker";
  }
  return "?";
}

struct node_kill_result {
  kill_victim victim = kill_victim::leader;
  fleet_stats stats1, stats4;
  bool identical = false;      ///< 1-vs-4-thread journals byte-equal
  bool all_resolved = false;
  bool ban_durable = false;
  bool failover_bounded = false;  ///< leader kill: election win in bound
  bool secondary_served = false;  ///< worker kill: degraded serves happen
  std::uint64_t failover_ticks = 0;
};

node_kill_result run_node_kill(const fleet_config& cfg, kill_victim victim) {
  constexpr std::uint64_t kKill = 25, kHorizon = 170;
  constexpr std::size_t kWorkerVictim = 1;

  fault_event ev{kKill, fault_kind::crash, 0, fault_target::controller};
  switch (victim) {
    case kill_victim::leader: ev.replica = 0; break;  // genesis leader
    case kill_victim::standby: ev.replica = 1; break;
    case kill_victim::worker:
      ev.replica = kWorkerVictim;
      ev.target = fault_target::worker;
      break;
  }
  const fault_plan plan({ev});

  // The attack campaign always targets a client owned by the worker
  // victim's node, so the worker kill exercises the ban through the
  // owner's crash and the controller kills exercise it through the
  // authority's crash.
  const std::uint64_t attacker =
      client_owned_by(replica_node(kWorkerVictim), cfg);
  const auto arrivals = [&] {
    auto a = benign_arrivals(100, 1, 50'000);
    const auto probes = probe_campaign(attacker, 1, 40);
    a.insert(a.end(), probes.begin(), probes.end());
    return a;
  };

  const auto run = [&](std::size_t threads) {
    fleet_config run_cfg = cfg;
    run_cfg.serve.threads = threads;
    fleet_rig rig("kill_" + std::string(to_string(victim)) + "_t" +
                      std::to_string(threads),
                  run_cfg);
    fleet_sim sim(rig.cfg, rig.deps(), plan);
    sim.run(arrivals(), kHorizon);
    return std::pair<std::string, fleet_stats>(sim.log().text(), sim.stats());
  };

  const auto [j1, s1] = run(1);
  const auto [j4, s4] = run(4);

  node_kill_result out;
  out.victim = victim;
  out.stats1 = s1;
  out.stats4 = s4;
  out.identical = j1 == j4;
  out.all_resolved = resolved_total(s1) == s1.submitted &&
                     resolved_total(s4) == s4.submitted;

  // Zero lost durable bans, whichever node died: decided once, the
  // attacker never served after the decision, enforced at the router,
  // persisted in the owner's ledger.
  const std::string ban_line = "ban client=" + std::to_string(attacker);
  const auto ban_at = j1.find(ban_line);
  out.ban_durable =
      s1.bans_decided == 1 && ban_at != std::string::npos &&
      j1.find(ban_line, ban_at + 1) == std::string::npos &&
      j1.find("client=" + std::to_string(attacker) + " outcome=served",
              ban_at) == std::string::npos;

  switch (victim) {
    case kill_victim::leader: {
      // Bounded leader failover: a standby must win a quorum election
      // within detection + stagger + ballot + lease handover time (the
      // bound allows one full candidacy-collision retry round).
      const std::uint64_t bound =
          3 * (cfg.ctl_failure_timeout + cfg.ctl_lease) + 10;
      const auto won = first_line_after(j1, kKill, "ctl-leader");
      if (won.has_value()) {
        out.failover_ticks = *won - kKill;
        out.failover_bounded = s1.elections >= 1 && out.failover_ticks <= bound;
      }
      out.secondary_served = true;  // not this victim's gate
      break;
    }
    case kill_victim::standby: {
      // A dead standby must cost nothing: the leader's quorum holds
      // (2 of 3), so no election and no leadership gap at all.
      out.failover_bounded = s1.elections == 0;
      out.secondary_served = true;  // not this victim's gate
      break;
    }
    case kill_victim::worker: {
      // Crashed-shard requests are served via the secondary under the
      // degraded-confidence tag until the view change re-primaries them.
      out.failover_bounded = true;  // leader never died
      out.secondary_served =
          s1.speculative_routes >= 1 && s1.served_secondary >= 1 &&
          j1.find(" conf=degraded") != std::string::npos;
      break;
    }
  }
  return out;
}

// ------------------------------------- phase E: corruption sweep --

struct corruption_result {
  std::uint64_t shard = 0;        ///< the content-bearing shard targeted
  fleet_stats stats1, stats4;
  bool identical = false;         ///< 1-vs-4-thread journals byte-equal
  bool all_resolved = false;
  bool fail_closed = false;       ///< zero full-confidence serves off fenced shards
  bool converged = false;         ///< repaired+unfenced (r>=2) / stays fenced (r=1)
  bool ban_durable = false;       ///< the ban survives its ledger rotting
};

/// Scripted fence-and-repair scenario plus (when ADVH_FLEET_CORRUPT_RATE
/// is set) seeded corruption chaos on top: the content-bearing shard's
/// primary is crashed, its checkpoint bit-flipped, and the reboot fences
/// it; later its ban ledger is bit-flipped and a second reboot loses the
/// ban record. With replication >= 2 anti-entropy must pull the shard
/// back from the surviving slot holder and re-sync the ban; with
/// replication 1 there is no authorized repair source and the shard must
/// FAIL CLOSED — abstaining, never repairing, never serving rot.
corruption_result run_corruption(const fleet_config& cfg) {
  constexpr std::uint64_t kCrash = 20, kCorrupt = 22, kRecover = 24;
  constexpr std::uint64_t kLedgerRot = 40, kReCrash = 42, kReRecover = 46;
  constexpr std::uint64_t kHorizon = 160;

  corruption_result out;
  std::string j1, j4;
  bool end_ok1 = false, end_ok4 = false;

  const auto run = [&](std::size_t threads, std::string* journal,
                       fleet_stats* stats, bool* end_ok) {
    fleet_config run_cfg = cfg;
    run_cfg.serve.threads = threads;
    fleet_rig rig("corrupt_t" + std::to_string(threads), run_cfg);

    // The shard that carries fitted content — the genesis fit models only
    // the classes the CNN predicts, so this is where live verdicts land
    // and where a fence is observable.
    const auto models = models_of(rig.det);
    std::uint64_t shard = 0;
    for (std::size_t cls = 0; cls < models.size(); ++cls) {
      for (const auto& em : models[cls]) {
        if (em.has_value()) shard = shard_of_class(cls, run_cfg);
      }
    }
    const auto owner = shard_owner_k(genesis_view(run_cfg), shard, 0);
    const std::size_t pidx = owner.has_value() ? *owner - 2 : 0;
    out.shard = shard;

    const std::uint64_t attacker = client_owned_by(replica_node(pidx), cfg);
    auto arrivals = benign_arrivals(80, 1, 70'000);
    const auto probes = probe_campaign(attacker, 1, 30);
    arrivals.insert(arrivals.end(), probes.begin(), probes.end());

    fault_plan plan({{kCrash, fault_kind::crash, pidx},
                     {kRecover, fault_kind::recover, pidx},
                     {kReCrash, fault_kind::crash, pidx},
                     {kReRecover, fault_kind::recover, pidx}});
    plan.corrupt({kCorrupt, corrupt_kind::bit_flip, corrupt_target::shard_file,
                  pidx, shard, 7});
    plan.corrupt({kLedgerRot, corrupt_kind::bit_flip,
                  corrupt_target::ledger_file, pidx, 0, 9});
    if (cfg.corrupt_rate > 0.0) {
      plan.add_corruption_chaos(run_cfg, kHorizon, cfg.corrupt_rate, 2024);
    }

    fleet_sim sim(rig.cfg, rig.deps(), plan);
    sim.run(std::move(arrivals), kHorizon);
    *journal = sim.log().text();
    *stats = sim.stats();

    // End-state audit. Replicated: every corrupted replica converged back
    // — nothing still fenced, canonical digests byte-identical across the
    // fleet. Replication 1: the fenced shard STAYS fenced (fail closed).
    bool fenced_remaining = false;
    bool digests_agree = true;
    for (std::uint64_t sh = 0; sh < run_cfg.class_shards; ++sh) {
      const std::uint32_t want = sim.worker(0).content_digest(sh);
      for (std::size_t i = 0; i < run_cfg.replicas; ++i) {
        if (!sim.worker(i).up()) continue;
        fenced_remaining = fenced_remaining || sim.worker(i).shard_fenced(sh);
        digests_agree =
            digests_agree && sim.worker(i).content_digest(sh) == want;
      }
    }
    const bool ban_enforced = [&] {
      const std::string ban_line = "ban client=" + std::to_string(attacker);
      const auto at = journal->find(ban_line);
      return stats->bans_decided == 1 && at != std::string::npos &&
             journal->find(ban_line, at + 1) == std::string::npos &&
             journal->find(
                 "client=" + std::to_string(attacker) + " outcome=served",
                 at) == std::string::npos &&
             sim.route().banned(attacker);
    }();
    const bool converged =
        cfg.replication >= 2
            ? !fenced_remaining && digests_agree &&
                  stats->repairs_completed >= 1
            : fenced_remaining && stats->repairs_completed == 0 &&
                  stats->repairs_requested == 0;
    *end_ok = converged && ban_enforced;
    return std::pair<bool, bool>(converged, ban_enforced);
  };

  const auto [conv1, ban1] = run(1, &j1, &out.stats1, &end_ok1);
  const auto [conv4, ban4] = run(4, &j4, &out.stats4, &end_ok4);
  out.identical = j1 == j4;
  out.all_resolved = resolved_total(out.stats1) == out.stats1.submitted &&
                     resolved_total(out.stats4) == out.stats4.submitted;
  out.fail_closed = out.stats1.corrupt_full_conf_serves == 0 &&
                    out.stats4.corrupt_full_conf_serves == 0 &&
                    out.stats1.shards_fenced_corrupt >= 1;
  out.converged = conv1 && conv4;
  out.ban_durable = ban1 && ban4;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto threads_opt = bench::parse_threads(
      argc, argv, "bench_fleet_failover",
      "sharded detection fleet under scripted kills and seeded chaos: "
      "crash-failover with durable bans, bounded recovery, zero split-brain "
      "verdicts, bitwise 1-vs-4-thread journals, quorum-gated recalibration "
      "with poisoned-rollout rollback, and the kill-the-leader sweep over "
      "the replicated controller group");
  if (!threads_opt) return 0;
  const std::size_t threads = *threads_opt;

  const fleet_config cfg = fleet_config_from_env(bench_cfg());
  const double fault_rate = env_rate("ADVH_FAULT_RATE", 0.02, 1.0);
  const double drift_rate = env_rate("ADVH_DRIFT_RATE", 0.0, 99.0);

  // Phase A: kill every replica in turn, mid-campaign.
  std::vector<failover_result> sweeps;
  for (std::size_t victim = 0; victim < cfg.replicas; ++victim) {
    sweeps.push_back(run_failover(cfg, victim, threads));
  }

  // Phase B: one seeded chaos campaign, diffed across thread counts.
  fleet_config chaos_cfg = cfg;
  if (chaos_cfg.loss_rate == 0.0) chaos_cfg.loss_rate = 0.05;
  const chaos_result chaos = run_chaos(chaos_cfg, fault_rate, drift_rate);

  // Phase C: recalibration rollout + poisoned rollback.
  const recal_result recal = run_recalibration(cfg, threads);

  // Phase D: kill one node — leader, standby, worker — per run. The
  // controller kills need a standby to fail over to and the worker kill
  // needs a secondary to speculate to, so degenerate geometries
  // (controllers=1 / replication=1, pinned by the CI matrix) skip the
  // victims that cannot exist under them.
  std::vector<kill_victim> victims;
  if (cfg.controllers >= 2) {
    victims.push_back(kill_victim::leader);
    victims.push_back(kill_victim::standby);
  }
  if (cfg.replication >= 2) victims.push_back(kill_victim::worker);
  std::vector<node_kill_result> kills;
  for (const auto v : victims) kills.push_back(run_node_kill(cfg, v));

  // Phase E: the corruption sweep — scripted fence-and-repair plus the
  // seeded corruption chaos when ADVH_FLEET_CORRUPT_RATE is set.
  const corruption_result corr = run_corruption(cfg);

  // Gates.
  bool failover_ok = true, bans_ok = true, recovery_ok = true;
  std::uint64_t split_brain = chaos.stats1.split_brain_serves +
                              chaos.stats4.split_brain_serves;
  std::uint64_t worst_recovery = 0;
  for (const auto& r : sweeps) {
    failover_ok = failover_ok && r.all_resolved && r.stats.crashes == 1 &&
                  r.stats.recoveries == 1;
    bans_ok = bans_ok && r.ban_durable;
    recovery_ok = recovery_ok && r.resumed_in_bound;
    worst_recovery = std::max(worst_recovery, r.recovery_ticks);
    split_brain += r.stats.split_brain_serves;
  }
  split_brain += recal.drift_stats.split_brain_serves +
                 recal.poison_stats.split_brain_serves;
  bool kill_ok = true;
  std::uint64_t leader_failover_ticks = 0;
  for (const auto& k : kills) {
    kill_ok = kill_ok && k.all_resolved && k.identical && k.ban_durable &&
              k.failover_bounded && k.secondary_served;
    if (k.victim == kill_victim::leader) leader_failover_ticks = k.failover_ticks;
    split_brain += k.stats1.split_brain_serves + k.stats4.split_brain_serves;
  }
  split_brain += corr.stats1.split_brain_serves + corr.stats4.split_brain_serves;
  const bool split_brain_zero = split_brain == 0;
  const bool deterministic = chaos.identical && chaos.all_resolved &&
                             corr.identical && corr.all_resolved;
  const bool recal_ok = recal.rollout_ok && recal.rollback_ok;
  const bool corruption_ok =
      corr.fail_closed && corr.converged && corr.ban_durable;

  text_table table("Fleet failover: sharded detection under chaos");
  table.set_header({"metric", "value"});
  for (const auto& r : sweeps) {
    const std::string v = "victim " + std::to_string(r.victim);
    table.add_row({v + ": submitted/resolved",
                   std::to_string(r.stats.submitted) + "/" +
                       std::to_string(resolved_total(r.stats))});
    table.add_row({v + ": served",
                   std::to_string(r.stats.outcome(req_outcome::served_clean) +
                                  r.stats.outcome(
                                      req_outcome::served_flagged))});
    table.add_row({v + ": rejected (banned)",
                   std::to_string(
                       r.stats.outcome(req_outcome::rejected_banned))});
    table.add_row({v + ": recovery ticks", std::to_string(r.recovery_ticks)});
  }
  table.add_row({"chaos: fault rate", std::to_string(fault_rate)});
  table.add_row({"chaos: drift rate", std::to_string(drift_rate)});
  table.add_row({"chaos: submitted", std::to_string(chaos.stats1.submitted)});
  table.add_row(
      {"chaos: view changes", std::to_string(chaos.stats1.view_changes)});
  table.add_row({"chaos: crashes", std::to_string(chaos.stats1.crashes)});
  table.add_row({"recal: drift alarms",
                 std::to_string(recal.drift_stats.drift_alarms)});
  table.add_row(
      {"recal: rollouts", std::to_string(recal.drift_stats.rollouts)});
  table.add_row({"recal: poisoned rollbacks",
                 std::to_string(recal.poison_stats.rollbacks)});
  for (const auto& k : kills) {
    const std::string v = "kill " + std::string(to_string(k.victim));
    table.add_row({v + ": submitted/resolved",
                   std::to_string(k.stats1.submitted) + "/" +
                       std::to_string(resolved_total(k.stats1))});
    table.add_row({v + ": elections", std::to_string(k.stats1.elections)});
    table.add_row({v + ": served via secondary",
                   std::to_string(k.stats1.served_secondary)});
    if (k.victim == kill_victim::leader) {
      table.add_row({v + ": failover ticks",
                     std::to_string(k.failover_ticks)});
    }
  }
  table.add_row({"corrupt: faults injected",
                 std::to_string(corr.stats1.corrupt_faults)});
  table.add_row({"corrupt: shards fenced",
                 std::to_string(corr.stats1.shards_fenced_corrupt)});
  table.add_row({"corrupt: verdicts suppressed",
                 std::to_string(corr.stats1.verdicts_suppressed_corrupt)});
  table.add_row({"corrupt: repairs completed",
                 std::to_string(corr.stats1.repairs_completed)});
  table.add_row({"corrupt: bans re-synced",
                 std::to_string(corr.stats1.bans_synced)});
  table.add_row({"corrupt: full-confidence escapes",
                 std::to_string(corr.stats1.corrupt_full_conf_serves)});
  table.add_row({"split-brain serves (all phases)",
                 std::to_string(split_brain)});

  std::ostringstream json;
  json << "{\n  \"bench\": \"fleet_failover\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"replicas\": " << cfg.replicas << ",\n"
       << "  \"fault_rate\": " << fault_rate << ",\n"
       << "  \"drift_rate\": " << drift_rate << ",\n"
       << "  \"loss_rate\": " << chaos_cfg.loss_rate << ",\n"
       << "  \"controllers\": " << cfg.controllers << ",\n"
       << "  \"replication\": " << cfg.replication << ",\n"
       << "  \"worst_recovery_ticks\": " << worst_recovery << ",\n"
       << "  \"leader_failover_ticks\": " << leader_failover_ticks << ",\n"
       << "  \"split_brain_serves\": " << split_brain << ",\n"
       << "  \"chaos_view_changes\": " << chaos.stats1.view_changes << ",\n"
       << "  \"drift_alarms\": " << recal.drift_stats.drift_alarms << ",\n"
       << "  \"rollouts\": " << recal.drift_stats.rollouts << ",\n"
       << "  \"poisoned_rollbacks\": " << recal.poison_stats.rollbacks << ",\n"
       << "  \"corrupt_rate\": " << cfg.corrupt_rate << ",\n"
       << "  \"scrub_period\": " << cfg.scrub_period << ",\n"
       << "  \"corrupt_faults\": " << corr.stats1.corrupt_faults << ",\n"
       << "  \"shards_fenced_corrupt\": " << corr.stats1.shards_fenced_corrupt
       << ",\n"
       << "  \"verdicts_suppressed_corrupt\": "
       << corr.stats1.verdicts_suppressed_corrupt << ",\n"
       << "  \"repairs_completed\": " << corr.stats1.repairs_completed << ",\n"
       << "  \"bans_synced\": " << corr.stats1.bans_synced << ",\n"
       << "  \"corrupt_full_conf_serves\": "
       << corr.stats1.corrupt_full_conf_serves + corr.stats4.corrupt_full_conf_serves
       << ",\n"
       << "  \"checks\": {\n"
       << "    \"failover_ok\": " << (failover_ok ? "true" : "false")
       << ",\n    \"bans_durable\": " << (bans_ok ? "true" : "false")
       << ",\n    \"recovery_bounded\": " << (recovery_ok ? "true" : "false")
       << ",\n    \"split_brain_zero\": "
       << (split_brain_zero ? "true" : "false")
       << ",\n    \"deterministic_1_vs_4_threads\": "
       << (deterministic ? "true" : "false")
       << ",\n    \"recalibration_ok\": " << (recal_ok ? "true" : "false")
       << ",\n    \"node_kill_ok\": " << (kill_ok ? "true" : "false")
       << ",\n    \"corruption_fail_closed\": "
       << (corr.fail_closed ? "true" : "false")
       << ",\n    \"corruption_converged\": "
       << (corr.converged ? "true" : "false")
       << ",\n    \"corruption_bans_durable\": "
       << (corr.ban_durable ? "true" : "false")
       << ",\n    \"corruption_deterministic\": "
       << (corr.identical && corr.all_resolved ? "true" : "false")
       << "\n  }\n}\n";
  write_file("bench_results/BENCH_fleet_failover.json", json.str());

  bench::emit(table, "fleet_failover");
  std::cout << "\nchecks: failover " << (failover_ok ? "ok" : "FAIL")
            << ", bans durable " << (bans_ok ? "ok" : "FAIL")
            << ", recovery bounded " << (recovery_ok ? "ok" : "FAIL")
            << " (worst " << worst_recovery << " ticks), split-brain "
            << (split_brain_zero ? "ok" : "FAIL") << " (" << split_brain
            << "), determinism " << (deterministic ? "ok" : "FAIL")
            << ", recalibration " << (recal_ok ? "ok" : "FAIL")
            << ", node kills " << (kill_ok ? "ok" : "FAIL") << " (leader "
            << leader_failover_ticks << " ticks), corruption "
            << (corruption_ok ? "ok" : "FAIL") << " ("
            << corr.stats1.corrupt_faults << " faults, "
            << corr.stats1.shards_fenced_corrupt << " fenced, "
            << corr.stats1.repairs_completed << " repaired)\n";

  const bool all_ok = failover_ok && bans_ok && recovery_ok &&
                      split_brain_zero && deterministic && recal_ok &&
                      kill_ok && corruption_ok;
  return all_ok ? 0 : 1;
}
