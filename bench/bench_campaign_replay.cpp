// Campaign-replay bench: the stateful query-stream defense (src/track)
// under realistic load, driven entirely on the virtual clock.
//
// Phase A replays a tracker-only stream at scale: thousands of short-lived
// clean clients churning through a deliberately tight fingerprint-table
// byte budget, with query-based attack campaigns (one probe replayed with
// sub-quantization-step perturbations) injected as bursts at seeded
// positions. Phase B pushes interleaved honest/attacker traffic through
// the full detection_service with a tracker attached, over the
// hpc::make_monitor stack so the ADVH_FAULT_RATE chaos knob composes: the
// CI chaos job replays this bench with 5% injected counter faults.
//
// Five self-checks gate the exit code:
//   * campaigns cut off — every seeded campaign is banned before it
//     completes its query budget (the defense wins the race);
//   * zero false bans — no clean/honest client is ever banned, in either
//     phase, despite heavy eviction churn;
//   * memory bound — tracker memory never exceeds its byte budget at any
//     point in the replay;
//   * service integration — banned attackers are rejected up front
//     (rejected_banned > 0) and escalated requests ride at full fidelity;
//   * determinism — the whole service replay (admissions, bans,
//     escalations, verdicts, virtual completion times) is bitwise
//     identical at 1 and 4 worker threads.
//
// Writes bench_results/BENCH_campaign_replay.{csv,json}.
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "hpc/factory.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"

using namespace advh;

namespace {

using serve::priority;
using std::chrono::milliseconds;

constexpr std::size_t kCampaignLen = 25;   // queries per seeded campaign
constexpr std::size_t kCanaryEvery = 25;   // service arrivals per canary

/// Deterministic synthetic input: a splitmix-style mix of (pixel index,
/// variant) keeps distinct variants' sliding windows independent (a phase
/// shift of a periodic ramp would leave the window *set* unchanged and
/// every variant would fingerprint-collide). Values sit at quantization
/// bin centres, so `perturb` below step/2 = 0.025 quantizes away — the
/// near-duplicate attack probe the tracker exists to catch.
tensor synth_input(const shape& chw, std::uint64_t variant,
                   double perturb = 0.0) {
  tensor x(shape{1, chw[0], chw[1], chw[2]});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL +
                      (variant + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
    x.data()[i] = static_cast<float>(0.05 + 0.1 * static_cast<double>(h % 23) +
                                     perturb * ((i % 2 == 0) ? 1.0 : -1.0));
  }
  return x;
}

// ------------------------------------------------- phase A: tracker only --

struct tracker_replay {
  std::size_t clean_clients = 0;
  std::size_t campaigns = 0;
  std::size_t campaigns_banned_in_time = 0;
  std::size_t clean_bans = 0;
  std::size_t peak_bytes = 0;
  std::size_t evicted_fingerprints = 0;
  std::size_t evicted_clients = 0;
  track::track_stats stats;
};

/// Replays a seeded stream: mostly one-to-three-shot clean clients (table
/// churn), with campaign bursts spaced a few clean observes apart — the
/// cadence of a real query-based attack, and the regime the LRU eviction
/// policy must not break detection in.
tracker_replay run_tracker_replay(std::size_t n_clean, std::size_t n_campaigns,
                                  const track::track_config& cfg) {
  const shape chw{1, 16, 16};  // tracker-only phase: no model in the loop
  serve::virtual_clock clock;
  track::query_tracker tracker(clock, cfg);
  rng gen(0xca39a16e);

  tracker_replay out;
  out.clean_clients = n_clean;
  out.campaigns = n_campaigns;

  std::uint64_t next_clean = 1;                    // clean ids: 1..n_clean
  const std::uint64_t campaign_base = 1'000'000;   // campaign ids disjoint
  std::vector<std::uint64_t> clean_seen;           // for repeat visits
  std::size_t campaigns_done = 0;
  const std::size_t clean_per_campaign =
      n_campaigns == 0 ? n_clean : n_clean / n_campaigns;

  const auto observe_clean = [&](std::uint64_t c, std::uint64_t variant) {
    const auto d = tracker.observe(c, synth_input(chw, variant));
    if (d.newly_banned) ++out.clean_bans;
    out.peak_bytes = std::max(out.peak_bytes, tracker.bytes_used());
  };

  while (campaigns_done < n_campaigns || next_clean <= n_clean) {
    // A stretch of clean churn: fresh clients, occasional repeat visitors
    // sending fresh content (repeat identity, distinct queries).
    for (std::size_t i = 0; i < clean_per_campaign && next_clean <= n_clean;
         ++i) {
      const std::uint64_t c = next_clean++;
      clean_seen.push_back(c);
      observe_clean(c, c);
      if (gen.uniform() < 0.25) observe_clean(c, c + 500'000);
      if (gen.uniform() < 0.25) {
        const auto back =
            clean_seen[gen.uniform_index(clean_seen.size())];
        observe_clean(back, back + 700'000);
      }
      clock.advance(milliseconds(1));
    }
    if (campaigns_done >= n_campaigns) continue;

    // One campaign burst: the attacker replays its probe with tiny
    // perturbations, a few clean observes between attack queries.
    const std::uint64_t attacker = campaign_base + campaigns_done;
    bool banned_in_time = false;
    for (std::size_t q = 0; q < kCampaignLen; ++q) {
      const auto d =
          tracker.observe(attacker, synth_input(chw, attacker, 0.001 * q));
      out.peak_bytes = std::max(out.peak_bytes, tracker.bytes_used());
      if (d.newly_banned && q + 1 < kCampaignLen) banned_in_time = true;
      const std::size_t interleave = 1 + gen.uniform_index(3);
      for (std::size_t j = 0; j < interleave && !clean_seen.empty(); ++j) {
        const auto c = clean_seen[gen.uniform_index(clean_seen.size())];
        observe_clean(c, c + 900'000 + 37 * q + j);
      }
      clock.advance(milliseconds(2));
    }
    if (banned_in_time) ++out.campaigns_banned_in_time;
    ++campaigns_done;
  }

  out.stats = tracker.stats();
  out.evicted_fingerprints = out.stats.table.evicted_fingerprints;
  out.evicted_clients = out.stats.table.evicted_clients;
  return out;
}

// ---------------------------------------------- phase B: through serving --

struct service_replay {
  /// One line per submission and per response; bitwise comparable.
  std::vector<std::string> journal;
  serve::serve_stats stats;
  track::track_stats tstats;
  std::size_t peak_bytes = 0;
  std::size_t attacker_bans = 0;
  std::size_t honest_bans = 0;
  bool escalated_full_fidelity = true;
};

service_replay run_service_replay(const core::detector& det, nn::model& net,
                                  std::size_t n_traffic,
                                  const track::track_config& tcfg,
                                  std::size_t threads) {
  auto monitor = hpc::make_monitor(net);
  serve::virtual_clock clock;
  serve::serve_config cfg;
  cfg.threads = threads;
  cfg.default_deadline = milliseconds(500);  // bans, not deadlines, under test
  serve::detection_service service(det, *monitor, clock, cfg);
  track::query_tracker tracker(clock, tcfg);
  service.attach_tracker(tracker);

  const std::uint64_t honest_ids[] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint64_t attacker_ids[] = {101, 102};
  const auto full_r = static_cast<std::uint32_t>(det.config().repeats);
  const shape chw = net.input_shape();
  rng gen(0x5e3f1ce);

  service_replay out;
  std::size_t honest_rr = 0;
  std::uint64_t fresh_variant = 10'000;
  const auto drain_batch = [&](std::vector<serve::response> batch) {
    for (const auto& r : batch) {
      out.journal.push_back(
          std::to_string(r.id) + ":" +
          std::to_string(static_cast<int>(r.outcome)) + ":c" +
          std::to_string(r.client) + (r.escalated ? ":esc" : "") + ":r" +
          std::to_string(r.rung) + ":R" + std::to_string(r.repeats_used) +
          ":adv" + std::to_string(r.v.adversarial_any ? 1 : 0) + "@" +
          std::to_string(r.completed.count()));
      if (r.escalated && r.outcome == serve::response::kind::served &&
          (r.rung != 0 || r.repeats_used != full_r)) {
        out.escalated_full_fidelity = false;
      }
    }
  };

  for (std::size_t i = 0; i < n_traffic; ++i) {
    if (i % kCanaryEvery == 0) {
      (void)service.submit(synth_input(chw, 0), priority::canary);
    }
    const bool attack = gen.uniform() < 0.25;
    std::uint64_t client;
    tensor x;
    if (attack) {
      client = attacker_ids[gen.uniform_index(2)];
      // The campaign probe: one input per attacker, perturbed sub-step.
      x = synth_input(chw, client, 0.001 * static_cast<double>(i % 20));
    } else {
      client = honest_ids[honest_rr++ % 8];
      x = synth_input(chw, fresh_variant++);  // honest queries never repeat
    }
    const auto res =
        service.submit(std::move(x), priority::interactive, std::nullopt,
                       client);
    out.journal.push_back("sub:c" + std::to_string(client) + ":" +
                          std::string(serve::to_string(res.status)));
    out.peak_bytes = std::max(out.peak_bytes, tracker.bytes_used());
    if (i % 4 == 3) drain_batch(service.service_batch());
  }
  service.drain();
  drain_batch(service.flush());

  out.stats = service.stats();
  out.tstats = tracker.stats();
  for (const auto a : attacker_ids) {
    if (tracker.level(a) == track::escalation::banned) ++out.attacker_bans;
  }
  for (const auto h : honest_ids) {
    if (tracker.level(h) == track::escalation::banned) ++out.honest_bans;
  }
  out.journal.push_back("bans:" + std::to_string(out.tstats.bans) +
                        ":elev:" + std::to_string(out.tstats.elevations));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto threads_opt = bench::parse_threads(
      argc, argv, "bench_campaign_replay",
      "stateful query-stream defense under seeded attack campaigns: "
      "tracker-only scale replay, then end-to-end through the detection "
      "service with chaos-composable monitors");
  if (!threads_opt) return 0;
  const std::size_t threads = *threads_opt;

  // Phase A: tracker-only replay under a tight byte budget. The budget is
  // sized to force heavy eviction churn from the clean-client stream —
  // roughly 50 resident clients against thousands observed.
  track::track_config tcfg;
  tcfg.table.byte_budget = 64 * 1024;
  const std::size_t n_clean = bench::scaled(2000);
  const std::size_t n_campaigns = bench::scaled(25);
  const auto a = run_tracker_replay(n_clean, n_campaigns, tcfg);

  // Phase B: the same defense attached to the serving stack (scenario S1
  // detector, chaos-composable monitor, virtual clock).
  auto rt = bench::prepare(data::scenario_id::s1);
  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::llc_load_misses};
  dcfg.repeats = 10;
  auto fit_monitor = hpc::make_monitor(*rt.net);
  const auto det =
      bench::fit_detector(*fit_monitor, dcfg, rt.train, bench::scaled(20));

  track::track_config scfg;
  scfg.table.byte_budget = 256 * 1024;
  const std::size_t n_traffic = bench::scaled(320);
  const auto run1 = run_service_replay(det, *rt.net, n_traffic, scfg, 1);
  const auto run4 = run_service_replay(det, *rt.net, n_traffic, scfg, 4);
  const auto& s = run1.stats;

  // Gates.
  const bool campaigns_ok =
      a.campaigns_banned_in_time == a.campaigns && run1.attacker_bans == 2;
  const bool no_false_bans = a.clean_bans == 0 && run1.honest_bans == 0;
  const bool memory_ok = a.peak_bytes <= tcfg.table.byte_budget &&
                         run1.peak_bytes <= scfg.table.byte_budget;
  const bool service_ok = s.rejected_banned > 0 && s.escalated_admitted > 0 &&
                          s.escalated_served > 0 &&
                          run1.escalated_full_fidelity;
  const bool deterministic = run1.journal == run4.journal;

  text_table table(
      "Campaign replay: stateful query-stream defense (virtual clock)");
  table.set_header({"metric", "value"});
  table.add_row({"A: clean clients", std::to_string(a.clean_clients)});
  table.add_row({"A: campaigns", std::to_string(a.campaigns)});
  table.add_row({"A: campaigns banned in time",
                 std::to_string(a.campaigns_banned_in_time)});
  table.add_row({"A: clean-client bans", std::to_string(a.clean_bans)});
  table.add_row({"A: peak bytes / budget",
                 std::to_string(a.peak_bytes) + " / " +
                     std::to_string(tcfg.table.byte_budget)});
  table.add_row(
      {"A: evicted fingerprints", std::to_string(a.evicted_fingerprints)});
  table.add_row({"A: evicted clients", std::to_string(a.evicted_clients)});
  table.add_row({"B: traffic submitted", std::to_string(s.submitted)});
  table.add_row({"B: served", std::to_string(s.served)});
  table.add_row({"B: rejected (banned)", std::to_string(s.rejected_banned)});
  table.add_row(
      {"B: escalated admitted", std::to_string(s.escalated_admitted)});
  table.add_row({"B: escalated served", std::to_string(s.escalated_served)});
  table.add_row({"B: attacker bans", std::to_string(run1.attacker_bans)});
  table.add_row({"B: honest bans", std::to_string(run1.honest_bans)});
  table.add_row({"B: trace corroborations",
                 std::to_string(run1.tstats.trace_corroborations)});
  table.add_row({"B: peak bytes / budget",
                 std::to_string(run1.peak_bytes) + " / " +
                     std::to_string(scfg.table.byte_budget)});

  std::ostringstream json;
  json << "{\n  \"bench\": \"campaign_replay\",\n  \"scenario\": \"S1\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"clean_clients\": " << a.clean_clients << ",\n"
       << "  \"campaigns\": " << a.campaigns << ",\n"
       << "  \"campaigns_banned_in_time\": " << a.campaigns_banned_in_time
       << ",\n  \"clean_bans\": " << a.clean_bans << ",\n"
       << "  \"tracker_peak_bytes\": " << a.peak_bytes << ",\n"
       << "  \"evicted_fingerprints\": " << a.evicted_fingerprints << ",\n"
       << "  \"evicted_clients\": " << a.evicted_clients << ",\n"
       << "  \"service_submitted\": " << s.submitted << ",\n"
       << "  \"service_served\": " << s.served << ",\n"
       << "  \"rejected_banned\": " << s.rejected_banned << ",\n"
       << "  \"escalated_admitted\": " << s.escalated_admitted << ",\n"
       << "  \"escalated_served\": " << s.escalated_served << ",\n"
       << "  \"attacker_bans\": " << run1.attacker_bans << ",\n"
       << "  \"honest_bans\": " << run1.honest_bans << ",\n"
       << "  \"service_peak_bytes\": " << run1.peak_bytes << ",\n"
       << "  \"checks\": {\n"
       << "    \"campaigns_ok\": " << (campaigns_ok ? "true" : "false")
       << ",\n    \"no_false_bans\": " << (no_false_bans ? "true" : "false")
       << ",\n    \"memory_ok\": " << (memory_ok ? "true" : "false")
       << ",\n    \"service_ok\": " << (service_ok ? "true" : "false")
       << ",\n    \"deterministic_1_vs_4_threads\": "
       << (deterministic ? "true" : "false") << "\n  }\n}\n";
  write_file("bench_results/BENCH_campaign_replay.json", json.str());

  bench::emit(table, "campaign_replay");
  std::cout << "\nchecks: campaigns "
            << (campaigns_ok ? "ok" : "FAIL") << " ("
            << a.campaigns_banned_in_time << "/" << a.campaigns
            << " in time, " << run1.attacker_bans << "/2 service), false bans "
            << (no_false_bans ? "ok" : "FAIL") << ", memory "
            << (memory_ok ? "ok" : "FAIL") << ", service integration "
            << (service_ok ? "ok" : "FAIL") << ", determinism "
            << (deterministic ? "ok" : "FAIL") << "\n";

  const bool all_ok = campaigns_ok && no_false_bans && memory_ok &&
                      service_ok && deterministic;
  return all_ok ? 0 : 1;
}
