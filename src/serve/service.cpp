#include "serve/service.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/policy_pass.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "hpc/trace_sketch.hpp"
#include "track/tracker.hpp"

namespace advh::serve {

clock_duration cost_model::cost(std::uint64_t request_id, std::size_t repeats,
                                std::size_t events) const {
  const std::size_t units = std::max<std::size_t>(repeats * events, 1);
  double ns = static_cast<double>(fixed.count()) +
              static_cast<double>(per_unit.count()) *
                  static_cast<double>(units);
  if (jitter > 0.0) {
    // Keyed on the request id alone: the cost of request k never depends
    // on scheduling order or thread count.
    const double u = rng::stream(seed, request_id).uniform(-1.0, 1.0);
    ns *= 1.0 + jitter * u;
  }
  return clock_duration{
      static_cast<clock_duration::rep>(std::max(ns, 0.0))};
}

serve_config serve_config_from_env(serve_config base) {
  if (const char* env = std::getenv("ADVH_QUEUE_DEPTH")) {
    base.queue_capacity = static_cast<std::size_t>(parse_number(
        "ADVH_QUEUE_DEPTH", env, {.lo = 1, .hi = 1e6, .integer = true}));
  }
  if (const char* env = std::getenv("ADVH_DEADLINE_MS")) {
    const double ms = parse_number("ADVH_DEADLINE_MS", env,
                                   {.lo = 0, .hi = 1e7, .lo_open = true});
    base.default_deadline = std::chrono::duration_cast<clock_duration>(
        std::chrono::duration<double, std::milli>(ms));
  }
  return base;
}

std::vector<ladder_rung> resolve_ladder(const serve_config& cfg,
                                        std::size_t full_repeats) {
  if (!cfg.ladder.empty()) return cfg.ladder;
  // The issue ladder: R = 10 -> 5 -> 3 -> 1 for the paper's default R,
  // derived proportionally for any other configured repeats.
  const auto shed = [&](std::size_t num, std::size_t den) {
    return std::max<std::size_t>(full_repeats * num / den, 1);
  };
  // Every degraded rung keeps one backoff-free repair round: at one
  // repeat a single faulted read would otherwise erase the sample's
  // only evidence, and fail-closed scoring would flag it — correct for
  // the request, ruinous for clean-traffic accuracy under chaos.
  return {
      {0.00, full_repeats, hpc::measure_budget::unlimited, true, false},
      {0.50, shed(5, 10), 2, false, false},
      {0.75, shed(3, 10), 2, false, false},
      {0.90, shed(1, 10), 1, false, true},
  };
}

namespace {

[[noreturn]] void bad_config_line(const std::string& path, std::size_t lineno,
                                  const std::string& line,
                                  const std::string& why) {
  throw io_error(path + ":" + std::to_string(lineno) + ": " + why + " in \"" +
                 line + "\"");
}

/// One number of a config line, through the common strict parser; a
/// malformed value fails as an io_error naming the file and line.
double config_number(const std::string& path, std::size_t lineno,
                     const std::string& line, const std::string& token,
                     const number_rule& rule = {}) {
  try {
    return parse_number("value", token, rule);
  } catch (const std::invalid_argument& e) {
    bad_config_line(path, lineno, line, e.what());
  }
}

std::size_t config_count(const std::string& path, std::size_t lineno,
                         const std::string& line, const std::string& token) {
  // 2^53: the largest range in which every integer is a double.
  return static_cast<std::size_t>(config_number(
      path, lineno, line, token,
      {.lo = 0, .hi = 9007199254740992.0, .integer = true}));
}

}  // namespace

serve_config load_serve_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw io_error(path + ": cannot open serve config");
  serve_config cfg;
  cfg.ladder.clear();
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;  // blank / comment-only line
    std::string eq;
    if (!(ls >> eq) || eq != "=") {
      bad_config_line(path, lineno, line, "expected \"key = value\"");
    }
    if (key == "rung") {
      std::string engage, repeats, rounds, backoff, shed, extra;
      if (!(ls >> engage >> repeats >> rounds >> backoff >> shed) ||
          (ls >> extra)) {
        bad_config_line(path, lineno, line,
                        "expected \"rung = <engage> <repeats> "
                        "<retry_rounds|unlimited> <backoff> <shed>\"");
      }
      ladder_rung r;
      r.engage_occupancy = config_number(path, lineno, line, engage);
      r.repeats = config_count(path, lineno, line, repeats);
      r.max_retry_rounds = rounds == "unlimited"
                               ? hpc::measure_budget::unlimited
                               : config_count(path, lineno, line, rounds);
      r.allow_backoff = config_count(path, lineno, line, backoff) != 0;
      r.shed_events = config_count(path, lineno, line, shed) != 0;
      cfg.ladder.push_back(r);
      continue;
    }
    std::string value, extra;
    if (!(ls >> value) || (ls >> extra)) {
      bad_config_line(path, lineno, line, "expected a single value");
    }
    if (key == "queue_capacity") {
      cfg.queue_capacity = config_count(path, lineno, line, value);
    } else if (key == "default_deadline_ms") {
      cfg.default_deadline = std::chrono::duration_cast<clock_duration>(
          std::chrono::duration<double, std::milli>(
              config_number(path, lineno, line, value)));
    } else if (key == "admission_margin") {
      cfg.admission_margin = config_number(path, lineno, line, value);
    } else if (key == "release_hysteresis") {
      cfg.release_hysteresis = config_number(path, lineno, line, value);
    } else if (key == "kept_events_when_shedding") {
      cfg.kept_events_when_shedding = config_count(path, lineno, line, value);
    } else if (key == "batch_admit_occupancy") {
      cfg.batch_admit_occupancy = config_number(path, lineno, line, value);
    } else if (key == "batch_size") {
      cfg.batch_size = config_count(path, lineno, line, value);
    } else if (key == "threads") {
      cfg.threads = config_count(path, lineno, line, value);
    } else if (key == "latency_alpha") {
      cfg.latency_alpha = config_number(path, lineno, line, value);
    } else if (key == "initial_unit_cost_us") {
      cfg.initial_unit_cost = std::chrono::duration_cast<clock_duration>(
          std::chrono::duration<double, std::micro>(
              config_number(path, lineno, line, value)));
    } else if (key == "initial_fixed_cost_us") {
      cfg.initial_fixed_cost = std::chrono::duration_cast<clock_duration>(
          std::chrono::duration<double, std::micro>(
              config_number(path, lineno, line, value)));
    } else {
      bad_config_line(path, lineno, line, "unknown key \"" + key + "\"");
    }
  }
  return cfg;
}

const char* to_string(admit_status s) noexcept {
  switch (s) {
    case admit_status::admitted:
      return "admitted";
    case admit_status::rejected_queue_full:
      return "rejected-queue-full";
    case admit_status::rejected_deadline:
      return "rejected-deadline";
    case admit_status::rejected_breaker:
      return "rejected-breaker";
    case admit_status::rejected_draining:
      return "rejected-draining";
    case admit_status::rejected_backpressure:
      return "rejected-backpressure";
    case admit_status::rejected_banned:
      return "rejected-banned";
  }
  return "?";
}

namespace {

/// Policy-consistency gate, run before any member (queue, breaker,
/// tracker) is built from the config: a contradictory serve/detector
/// configuration (fail-open evidence hole, unserveable deadline,
/// malformed ladder, zero-capacity queue) is rejected at construction
/// with the same ADVH-Exxx codes advh_check reports, not discovered
/// under the first overloaded request.
serve_config checked_config(serve_config cfg, const core::detector& det) {
  analysis::check_report report;
  report.target = "serve config";
  analysis::check_serve_policy(cfg, det.config(), report);
  if (report.has_errors()) throw analysis::check_error(std::move(report));
  return cfg;
}

}  // namespace

detection_service::detection_service(const core::detector& det,
                                     hpc::hpc_monitor& monitor,
                                     virtual_clock& clock, serve_config cfg)
    : detection_service(det, monitor, clock, &clock, std::move(cfg)) {}

detection_service::detection_service(const core::detector& det,
                                     hpc::hpc_monitor& monitor,
                                     const clock_face& clock, serve_config cfg)
    : detection_service(det, monitor, clock, nullptr, std::move(cfg)) {}

detection_service::detection_service(const core::detector& det,
                                     hpc::hpc_monitor& monitor,
                                     const clock_face& clock,
                                     virtual_clock* vclock, serve_config cfg)
    : det_(det),
      monitor_(monitor),
      clock_(clock),
      vclock_(vclock),
      cfg_(checked_config(std::move(cfg), det)),
      queue_(cfg_.queue_capacity),
      breaker_(clock_, cfg_.breaker),
      tracker_(cfg_.latency_alpha, cfg_.initial_unit_cost,
               cfg_.initial_fixed_cost),
      interactive_gap_(cfg_.latency_alpha) {
  const std::size_t n_events = det_.config().events.size();
  cfg_.kept_events_when_shedding = std::clamp<std::size_t>(
      cfg_.kept_events_when_shedding, 1, std::max<std::size_t>(n_events, 1));
  ladder_ = resolve_ladder(cfg_, det_.config().repeats);
  stats_.served_by_rung.assign(ladder_.size(), 0);
}

clock_duration detection_service::estimate_for(const ladder_rung& rung) const {
  const std::size_t n_events = rung.shed_events
                                   ? cfg_.kept_events_when_shedding
                                   : det_.config().events.size();
  return tracker_.estimate(rung.repeats, n_events);
}

clock_duration detection_service::estimate_canary() const {
  return tracker_.estimate(det_.config().repeats, det_.config().events.size());
}

void detection_service::update_rung(double occupancy) {
  std::size_t target = 0;
  for (std::size_t r = 0; r < ladder_.size(); ++r) {
    if (occupancy >= ladder_[r].engage_occupancy) target = r;
  }
  if (target > rung_) {
    rung_ = target;  // engage immediately: overload is now
  } else if (target < rung_ &&
             occupancy <
                 ladder_[rung_].engage_occupancy - cfg_.release_hysteresis) {
    rung_ = target;  // release only once clearly below the engage point
  }
  stats_.max_rung_engaged = std::max(stats_.max_rung_engaged, rung_);
}

void detection_service::attach_tracker(track::query_tracker& tracker) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  qtracker_ = &tracker;
}

submit_result detection_service::submit(
    tensor input, priority prio, std::optional<clock_duration> deadline,
    std::uint64_t client) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  const auto now = clock_.now();
  submit_result res;
  res.id = next_id_++;
  ++stats_.submitted;
  const bool canary = prio == priority::canary;
  if (canary) ++stats_.canary_submitted;

  const auto reject = [&](admit_status why) {
    res.status = why;
    switch (why) {
      case admit_status::rejected_queue_full:
        ++stats_.rejected_queue_full;
        break;
      case admit_status::rejected_deadline:
        ++stats_.rejected_deadline;
        break;
      case admit_status::rejected_breaker:
        ++stats_.rejected_breaker;
        break;
      case admit_status::rejected_draining:
        ++stats_.rejected_draining;
        break;
      case admit_status::rejected_backpressure:
        ++stats_.rejected_backpressure;
        break;
      case admit_status::rejected_banned:
        ++stats_.rejected_banned;
        break;
      case admit_status::admitted:
        break;
    }
    // Draining rejects everything alike — that is shutdown, not shedding.
    if (canary && why != admit_status::rejected_draining &&
        why != admit_status::admitted) {
      ++stats_.canary_shed;
    }
    return res;
  };

  if (draining_) return reject(admit_status::rejected_draining);

  // Stateful query-stream defense: every identified submission is shown
  // to the tracker, including ones later rejected for depth or deadline —
  // an attacker cannot hide a campaign behind backpressure. Observation
  // happens here, under the scheduler lock, so the tracker sees queries
  // in admission order: its escalation and ban decisions are a pure
  // function of the submission sequence, bitwise reproducible at any
  // measurement thread count.
  bool escalated = false;
  if (qtracker_ != nullptr && client != 0 && !canary) {
    const track::track_decision d = qtracker_->observe(client, input);
    if (d.level == track::escalation::banned) {
      return reject(admit_status::rejected_banned);
    }
    escalated = d.level == track::escalation::elevated;
  }

  // Batch backpressure: batch work that queues deeply just sits behind
  // every interactive arrival until its deadline expires, while its queue
  // slots drag the degradation ladder down for the traffic that will be
  // served. Keep the batch tail shallow instead.
  if (prio == priority::batch && cfg_.batch_admit_occupancy < 1.0) {
    const double after =
        static_cast<double>(queue_.depth() + 1) /
        static_cast<double>(cfg_.queue_capacity);
    if (after > cfg_.batch_admit_occupancy) {
      return reject(admit_status::rejected_backpressure);
    }
  }

  request r;
  r.id = res.id;
  r.input = std::move(input);
  r.prio = prio;
  r.client = client;
  r.escalated = escalated;
  r.submitted = now;
  if (deadline.has_value()) {
    r.deadline = *deadline == no_deadline ? no_deadline : now + *deadline;
  } else {
    r.deadline = canary ? no_deadline : now + cfg_.default_deadline;
  }

  if (!canary) {
    // Deadline feasibility: everything queued at this priority or higher
    // is served first, plus whatever is in flight; the margin absorbs
    // estimate error and higher-priority arrivals that will overtake us.
    // The estimate is taken at FULL fidelity, not the current rung:
    // admission promises quality. Estimating at a degraded rung would be
    // self-defeating — the deeper the ladder sinks, the cheaper requests
    // look, and steady overload would be admitted wholesale and served as
    // single-repeat junk. Instead steady overload is rejected here, and
    // the ladder's job is absorbing bursts already admitted.
    if (r.deadline != no_deadline) {
      const clock_duration est = estimate_for(ladder_.front());
      clock_duration backlog =
          estimate_canary() * static_cast<clock_duration::rep>(
                                  queue_.depth(priority::canary));
      std::size_t ahead = inflight_;
      ahead += queue_.depth(priority::interactive);
      if (prio == priority::batch) ahead += queue_.depth(priority::batch);
      backlog += est * static_cast<clock_duration::rep>(ahead);
      double need_ns = cfg_.admission_margin *
                       static_cast<double>((backlog + est).count());
      const double window =
          static_cast<double>((r.deadline - now).count());
      if (prio == priority::batch && interactive_gap_.samples() > 0) {
        // Overtaking projection: every interactive arrival during this
        // request's wait is served first. A quiet spell since the last
        // interactive admission widens the effective gap, so a stale
        // burst estimate does not starve batch forever. Under sustained
        // interactive pressure the projection exceeds any batch deadline
        // and steady overload rejects batch here, honestly, instead of
        // admitting it and shedding it at dequeue.
        const double gap = std::max(
            interactive_gap_.value(),
            static_cast<double>((now - last_interactive_).count()));
        if (gap > 0.0) {
          need_ns += window / gap * static_cast<double>(est.count());
        }
      }
      if (window < need_ns) {
        return reject(admit_status::rejected_deadline);
      }
    }
  }

  // The breaker gate comes last so a rejection on depth/deadline never
  // consumes a half-open probe slot.
  breaker_epoch admitted_epoch = 0;
  if (!breaker_.allow(&admitted_epoch)) {
    return reject(admit_status::rejected_breaker);
  }
  r.breaker_epoch = admitted_epoch;

  const push_result pushed = queue_.push(r);
  if (pushed != push_result::accepted) {
    breaker_.release(admitted_epoch);
    // rejected_closed can only race ahead of the draining_ flag; report
    // it as the shutdown it is, not as backpressure.
    return reject(pushed == push_result::rejected_closed
                      ? admit_status::rejected_draining
                      : admit_status::rejected_queue_full);
  }
  ++stats_.admitted;
  if (escalated) ++stats_.escalated_admitted;
  if (prio == priority::interactive) {
    if (have_interactive_) {
      interactive_gap_.observe(
          static_cast<double>((now - last_interactive_).count()));
    }
    have_interactive_ = true;
    last_interactive_ = now;
  }
  return res;
}

response detection_service::serve_one(const planned& p,
                                      const hpc::measurement* m,
                                      bool backend_failed) {
  response out;
  out.id = p.req.id;
  out.prio = p.req.prio;
  out.submitted = p.req.submitted;
  out.deadline = p.req.deadline;
  out.rung = p.rung;
  out.repeats_used = static_cast<std::uint32_t>(p.repeats);
  out.events_shed = p.events < det_.config().events.size();
  out.client = p.req.client;
  out.escalated = p.req.escalated;

  if (p.shed) {
    out.outcome = response::kind::shed_deadline;
    out.completed = clock_.now();
    ++stats_.shed_deadline;
    if (p.req.prio == priority::canary) ++stats_.canary_shed;
    breaker_.release(p.req.breaker_epoch);
    return out;
  }

  // Charge the request's deterministic simulated cost (virtual mode);
  // in wall-clock mode the elapsed time was already real.
  clock_duration cost{0};
  if (vclock_ != nullptr) {
    cost = cfg_.sim_cost.cost(p.req.id, p.repeats, p.events);
    vclock_->advance(cost);
  }
  out.completed = clock_.now();

  if (backend_failed || m == nullptr) {
    out.outcome = response::kind::failed_backend;
    ++stats_.failed_backend;
    if (p.req.prio == priority::canary) ++stats_.canary_shed;
    breaker_.record_failure(p.req.breaker_epoch);
    return out;
  }

  if (vclock_ == nullptr) {
    cost = out.completed - p.req.submitted;  // upper bound: queue + service
  }
  tracker_.observe(cost, p.repeats, p.events);

  // Expand a shed-events measurement back to the detector's configured
  // event order: unmeasured events score as unavailable, which routes the
  // verdict through the degraded/abstain fail-closed policy.
  const std::size_t n_cfg = det_.config().events.size();
  if (p.events == n_cfg) {
    out.v = det_.score(m->predicted, m->mean_counts, m->q.available);
  } else {
    std::vector<double> means(n_cfg, 0.0);
    std::vector<std::uint8_t> avail(n_cfg, 0);
    for (std::size_t e = 0; e < p.events; ++e) {
      means[e] = m->mean_counts[e];
      avail[e] = m->q.available.empty() ? std::uint8_t{1} : m->q.available[e];
    }
    out.v = det_.score(m->predicted, means, avail);
  }

  out.outcome = response::kind::served;
  if (out.deadline != no_deadline && out.completed > out.deadline) {
    out.deadline_missed = true;
    ++stats_.deadline_misses;
  }
  ++stats_.served;
  ++stats_.served_by_rung[p.rung];
  if (p.req.prio == priority::canary) ++stats_.canary_served;
  if (p.req.escalated) ++stats_.escalated_served;

  // Feed the served measurement's HPC trace sketch back to the tracker:
  // near-identical consecutive computation signatures corroborate a
  // fingerprint-level campaign (weighted below a fingerprint hit, so the
  // chaos-exposed measurement path can accelerate elevation but never
  // decides a ban).
  if (qtracker_ != nullptr && p.req.client != 0) {
    qtracker_->record_trace(p.req.client, hpc::sketch_measurement(*m));
  }
  if (out.v.adversarial_any) ++stats_.flagged_adversarial;
  if (out.v.degraded) ++stats_.degraded_verdicts;
  if (out.v.abstained) ++stats_.abstained_verdicts;
  const std::size_t full = det_.config().repeats;
  stats_.repeats_shed += full > p.repeats ? full - p.repeats : 0;
  if (out.events_shed) ++stats_.events_shed_requests;

  // A measurement with no usable event at all is a backend-health signal
  // even though the verdict (abstain, fail closed) is still served.
  bool any_available = false;
  for (std::size_t e = 0; e < p.events && !any_available; ++e) {
    any_available = m->q.event_available(e);
  }
  if (any_available) {
    breaker_.record_success(p.req.breaker_epoch);
  } else {
    breaker_.record_failure(p.req.breaker_epoch);
  }
  return out;
}

std::vector<response> detection_service::service_batch() {
  std::lock_guard<std::mutex> service_lock(service_mutex_);

  std::vector<planned> plan;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const auto now = clock_.now();
    const double occupancy = static_cast<double>(queue_.depth()) /
                             static_cast<double>(queue_.capacity());
    update_rung(occupancy);
    const auto& rung = ladder_[rung_];
    const std::size_t n_events = det_.config().events.size();

    clock_duration pending{0};
    for (std::size_t i = 0; i < cfg_.batch_size; ++i) {
      auto popped = queue_.try_pop();
      if (!popped.has_value()) break;
      planned p;
      p.req = std::move(*popped);
      const bool canary = p.req.prio == priority::canary;
      // Tracker-escalated clients are measured like canaries: rung 0,
      // full repeats, full events — suspicion buys scrutiny, and the
      // corroborating trace sketch needs full-fidelity evidence.
      const bool full_fidelity = canary || p.req.escalated;
      p.rung = full_fidelity ? 0 : rung_;
      p.repeats = full_fidelity ? det_.config().repeats : rung.repeats;
      p.events = (!full_fidelity && rung.shed_events)
                     ? cfg_.kept_events_when_shedding
                     : n_events;
      const clock_duration est = tracker_.estimate(p.repeats, p.events);
      if (!full_fidelity && p.req.deadline != no_deadline &&
          now + pending + est > p.req.deadline) {
        p.shed = true;  // cannot make it: shed now, cheaply
      } else {
        pending += est;
        ++inflight_;
      }
      plan.push_back(std::move(p));
    }
  }
  if (plan.empty()) return {};

  // Measure outside the scheduler lock: the full-fidelity group first
  // (canaries + tracker-escalated requests), then the traffic group at
  // the rung's parameters. Group composition is a pure function of pop
  // order, so the backend's sample streams — and with them every
  // measurement — replay deterministically.
  const auto& events = det_.config().events;
  const auto measure_group =
      [&](const std::vector<std::size_t>& idx, std::size_t repeats,
          std::size_t n_events, const hpc::measure_budget& budget)
      -> std::optional<std::vector<hpc::measurement>> {
    if (idx.empty()) return std::vector<hpc::measurement>{};
    std::vector<tensor> inputs;
    inputs.reserve(idx.size());
    for (std::size_t i : idx) inputs.push_back(plan[i].req.input);
    try {
      return monitor_.measure_batch(
          inputs, std::span<const hpc::hpc_event>(events.data(), n_events),
          repeats, cfg_.threads, budget);
    } catch (const std::exception& e) {
      log::warn("serve: measurement batch failed: ", e.what());
      return std::nullopt;
    }
  };

  std::vector<std::size_t> full_idx, traffic_idx;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].shed) continue;
    const bool full_fidelity =
        plan[i].req.prio == priority::canary || plan[i].req.escalated;
    (full_fidelity ? full_idx : traffic_idx).push_back(i);
  }

  hpc::measure_budget full_budget;
  full_budget.cancel = &drain_cancel_;
  std::optional<std::vector<hpc::measurement>> full_ms = measure_group(
      full_idx, det_.config().repeats, events.size(), full_budget);

  std::optional<std::vector<hpc::measurement>> traffic_ms;
  if (!traffic_idx.empty()) {
    const auto& rung = ladder_[plan[traffic_idx.front()].rung];
    hpc::measure_budget budget;
    budget.max_retry_rounds = rung.max_retry_rounds;
    budget.allow_backoff = rung.allow_backoff;
    budget.cancel = &drain_cancel_;
    traffic_ms = measure_group(traffic_idx, plan[traffic_idx.front()].repeats,
                               plan[traffic_idx.front()].events, budget);
  } else {
    traffic_ms = std::vector<hpc::measurement>{};
  }

  std::vector<response> out;
  out.reserve(plan.size());
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    std::size_t c = 0, t = 0;
    for (const auto& p : plan) {
      const hpc::measurement* m = nullptr;
      bool failed = false;
      if (!p.shed) {
        if (p.req.prio == priority::canary || p.req.escalated) {
          if (full_ms.has_value()) {
            m = &(*full_ms)[c];
          } else {
            failed = true;
          }
          ++c;
        } else {
          if (traffic_ms.has_value()) {
            m = &(*traffic_ms)[t];
          } else {
            failed = true;
          }
          ++t;
        }
      }
      out.push_back(serve_one(p, m, failed));
      if (!p.shed && inflight_ > 0) --inflight_;
    }
    stats_.breaker_trips = breaker_.trips();
  }
  return out;
}

void detection_service::drain() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (draining_) return;
    draining_ = true;
  }
  // Cut in-flight retry backoff short: from here on measurements run on
  // first-read evidence (fail-closed scoring covers the quality gap).
  drain_cancel_.cancel();
  queue_.close();
}

bool detection_service::draining() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return draining_;
}

std::vector<response> detection_service::flush() {
  std::vector<response> out;
  for (;;) {
    auto batch = service_batch();
    if (batch.empty()) break;
    out.insert(out.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  }
  return out;
}

serve_stats detection_service::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

std::size_t detection_service::rung() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return rung_;
}

}  // namespace advh::serve
