// Overload-resilient serving front-end for the detection pipeline.
//
// The ROADMAP's deployment target is a detector screening heavy query
// traffic; a security component that buffers without bound fails in the
// worst possible way — silently and late. detection_service is the layer
// that degrades predictably instead:
//
//   * bounded priority queue (serve/queue) — canary > interactive > batch,
//     explicit rejection instead of unbounded buffering;
//   * admission control — a request is rejected up front when the queue is
//     full or when its deadline is infeasible given the backlog and the
//     decaying service-time estimate (serve/latency), taken at full
//     fidelity so admission promises quality: reject early beats serve
//     late, and steady overload is turned away instead of being admitted
//     and served as single-repeat junk. Batch admission additionally
//     projects the interactive work that will overtake a batch request
//     while it waits (decaying inter-admission gap), and backpressure
//     keeps the batch tail shallow so queued batch can never drag the
//     degradation ladder down for the traffic that will be served;
//   * degradation ladder — as queue occupancy climbs, measurement repeats
//     shed (R = 10 -> 5 -> 3 -> 1), retry budgets tighten (deadline
//     budgets, hpc::measure_budget), and at the deepest rung optional HPC
//     events shed too. Reduced-evidence measurements are scored through
//     the detector's availability-mask path, so shedding composes with
//     the PR 3 fail-closed degraded/abstain policy: less evidence can
//     only make the verdict more conservative, never silently benign.
//     Canary probes never shed — drift monitoring (PR 4) keeps running at
//     full fidelity precisely when the system is stressed;
//   * circuit breaker (serve/breaker) — a dead measurement backend sheds
//     instantly instead of burning each request's deadline on
//     retry/backoff;
//   * stateful query-stream defense (src/track, optional) — identified
//     submissions are fingerprinted in admission order; clients replaying
//     near-duplicate probes are escalated to full-fidelity measurement
//     and, past the ban threshold, rejected up front (rejected_banned)
//     before consuming queue slots or PMU time;
//   * graceful drain — stop admitting, flush admitted work, cancellation
//     token cuts in-flight backoff short.
//
// Determinism: all scheduling state is sequential under a mutex and every
// time read goes through the injected clock. Under a virtual clock the
// service *charges* each request a deterministic simulated cost (advancing
// the clock itself), and measurement runs through the thread-invariant
// batch engine — so a whole overload run is bitwise identical at any
// worker-thread count, the serving analogue of the measurement engine's
// reproducibility contract.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "core/detector.hpp"
#include "serve/breaker.hpp"
#include "serve/latency.hpp"
#include "serve/queue.hpp"

namespace advh::track {
class query_tracker;
}  // namespace advh::track

namespace advh::serve {

/// One rung of the degradation ladder. Rung 0 must engage at occupancy 0
/// (the unloaded operating point); deeper rungs engage as the bounded
/// queue fills.
struct ladder_rung {
  /// Queue occupancy fraction (depth / capacity) at or above which this
  /// rung engages.
  double engage_occupancy = 0.0;
  /// Measurement repeats at this rung (the paper's R after shedding).
  std::size_t repeats = 10;
  /// Retry rounds the resilient layer may spend per sample at this rung
  /// (measure_budget::max_retry_rounds).
  std::size_t max_retry_rounds = hpc::measure_budget::unlimited;
  /// Whether retry backoff sleeps are still allowed at this rung.
  bool allow_backoff = true;
  /// Whether optional HPC events are shed at this rung (only the first
  /// serve_config::kept_events_when_shedding configured events are
  /// measured; the rest score as unavailable -> degraded verdicts).
  bool shed_events = false;
};

/// Deterministic simulated service-cost model (virtual-clock mode): one
/// request costs fixed + per_unit * repeats * events, with a bounded
/// per-request jitter keyed on the request id.
struct cost_model {
  clock_duration fixed = std::chrono::microseconds(200);
  clock_duration per_unit = std::chrono::microseconds(100);
  /// Relative jitter amplitude in [0, 1): cost scales by (1 + jitter * u)
  /// with u in [-1, 1) derived deterministically from the request id.
  double jitter = 0.10;
  std::uint64_t seed = 0x5e7ceULL;

  clock_duration cost(std::uint64_t request_id, std::size_t repeats,
                      std::size_t events) const;
};

struct serve_config {
  /// Bound on queued interactive + batch requests (canaries bypass it).
  std::size_t queue_capacity = 64;
  /// Deadline assigned to non-canary requests that submit without one.
  clock_duration default_deadline = std::chrono::milliseconds(50);
  /// Admission safety factor over the estimated wait + service time:
  /// absorbs estimate error and higher-priority arrivals that will jump
  /// ahead while the request queues.
  double admission_margin = 2.0;
  /// A rung disengages only once occupancy falls below its engage point
  /// minus this hysteresis, so the ladder doesn't flap at a threshold.
  double release_hysteresis = 0.15;
  /// Degradation ladder, shallowest first. Empty = default ladder derived
  /// from the detector's configured repeats R:
  /// occupancy {0, .5, .75, .9} -> repeats {R, R/2, 3R/10, R/10} (min 1).
  std::vector<ladder_rung> ladder;
  /// Events kept when a rung sheds events (the first N configured events;
  /// the paper's strongest detectors lead the event list).
  std::size_t kept_events_when_shedding = 1;
  /// Batch-priority backpressure: a batch request is admitted only while
  /// queue occupancy (after admission) stays at or below this fraction.
  /// Batch work that queues deeply is served last anyway — it sits behind
  /// every interactive arrival until its deadline expires, and meanwhile
  /// its queue slots drag the degradation ladder down for the interactive
  /// traffic that *will* be served. Set below the first degraded rung's
  /// engage occupancy so queued batch alone can never degrade fidelity;
  /// 1.0 disables backpressure.
  double batch_admit_occupancy = 1.0;
  /// Requests serviced per scheduling round (one measure_batch call).
  std::size_t batch_size = 4;
  /// Measurement worker threads per batch (thread-invariant results).
  std::size_t threads = 1;
  breaker_config breaker{};
  /// Decay factor of the service-time estimator.
  double latency_alpha = 0.2;
  /// Seeds for the estimator before the first completion.
  clock_duration initial_unit_cost = std::chrono::microseconds(100);
  clock_duration initial_fixed_cost = std::chrono::microseconds(200);
  /// Simulated cost model (virtual-clock mode only).
  cost_model sim_cost{};
};

/// Applies the strict environment overrides to `base` and returns it:
/// ADVH_QUEUE_DEPTH (positive integer) overrides queue_capacity and
/// ADVH_DEADLINE_MS (positive number) overrides default_deadline. A
/// set-but-malformed knob throws std::invalid_argument — a typo in a
/// deployment manifest must fail loudly, not silently misconfigure the
/// admission controller.
serve_config serve_config_from_env(serve_config base = serve_config{});

/// Resolves the effective degradation ladder: `cfg.ladder` verbatim when
/// non-empty, otherwise the default ladder derived from the detector's
/// full repeat count (occupancy {0, .5, .75, .9} -> repeats
/// {R, R/2, 3R/10, R/10}, min 1, deepest rung sheds events). This is
/// exactly the ladder detection_service will run, exposed so the
/// policy-consistency pass (analysis/policy_pass) can statically verify
/// the same ladder the service would serve.
std::vector<ladder_rung> resolve_ladder(const serve_config& cfg,
                                        std::size_t full_repeats);

/// Loads a serve_config from a `key = value` text file ('#' comments,
/// blank lines ignored). Recognised keys: queue_capacity,
/// default_deadline_ms, admission_margin, release_hysteresis,
/// kept_events_when_shedding, batch_admit_occupancy, batch_size, threads,
/// latency_alpha, initial_unit_cost_us, initial_fixed_cost_us; each
/// `rung = <engage> <repeats> <retry_rounds|unlimited> <backoff> <shed>`
/// line appends one ladder rung (shallowest first). Values are parsed
/// strictly — an unknown key or malformed value throws io_error; whether
/// the *parsed* config is serveable is the policy pass's judgement
/// (advh_check / detection_service construction), not the parser's.
serve_config load_serve_config(const std::string& path);

/// Admission decision for one submitted request.
enum class admit_status : std::uint8_t {
  admitted = 0,
  rejected_queue_full = 1,
  rejected_deadline = 2,
  rejected_breaker = 3,
  rejected_draining = 4,
  /// Batch-only: queue occupancy above serve_config::batch_admit_occupancy.
  rejected_backpressure = 5,
  /// The attached query tracker (src/track) has banned this client's
  /// query stream; the request is shed before consuming any queue slot.
  rejected_banned = 6,
};

const char* to_string(admit_status s) noexcept;

struct submit_result {
  std::uint64_t id = 0;
  admit_status status = admit_status::admitted;
  bool admitted() const noexcept { return status == admit_status::admitted; }
};

/// Terminal outcome of an admitted request.
struct response {
  enum class kind : std::uint8_t {
    served = 0,         ///< measured and scored
    shed_deadline = 1,  ///< admitted but infeasible by service time
    failed_backend = 2, ///< measurement path threw (breaker records it)
  };

  std::uint64_t id = 0;
  priority prio = priority::interactive;
  kind outcome = kind::served;
  core::verdict v;  ///< meaningful only when outcome == served
  clock_duration submitted{0};
  clock_duration completed{0};
  clock_duration deadline = no_deadline;
  std::uint32_t repeats_used = 0;
  std::size_t rung = 0;        ///< ladder rung the request ran under
  bool events_shed = false;
  /// Client identity the request was submitted under (0 = anonymous).
  std::uint64_t client = 0;
  /// Served at full fidelity because the tracker escalated the client.
  bool escalated = false;
  /// Completed after its deadline — the failure mode admission control
  /// exists to prevent; the overload bench gates on zero of these.
  bool deadline_missed = false;
};

/// Aggregate counters; every request lands in exactly one terminal bucket.
struct serve_stats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t served = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_breaker = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_backpressure = 0;
  /// Requests shed because the query tracker banned the client.
  std::uint64_t rejected_banned = 0;
  /// Requests admitted while their client was tracker-escalated (served
  /// at full fidelity regardless of the current ladder rung).
  std::uint64_t escalated_admitted = 0;
  std::uint64_t escalated_served = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t failed_backend = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t canary_submitted = 0;
  std::uint64_t canary_served = 0;
  /// Canary probes shed, rejected, degraded or run at reduced fidelity —
  /// must stay 0 (draining rejections excluded: shutdown stops canaries
  /// like everything else).
  std::uint64_t canary_shed = 0;
  std::uint64_t flagged_adversarial = 0;
  std::uint64_t degraded_verdicts = 0;
  std::uint64_t abstained_verdicts = 0;
  /// Sum over served requests of (full R - repeats used).
  std::uint64_t repeats_shed = 0;
  std::uint64_t events_shed_requests = 0;
  std::uint64_t breaker_trips = 0;
  std::vector<std::uint64_t> served_by_rung;
  std::size_t max_rung_engaged = 0;
};

class detection_service {
 public:
  /// Simulation mode: time only moves when the service charges request
  /// costs (cfg.sim_cost) or the driver advances the clock. Bitwise
  /// deterministic at any cfg.threads.
  detection_service(const core::detector& det, hpc::hpc_monitor& monitor,
                    virtual_clock& clock, serve_config cfg);

  /// Wall-clock mode: costs are observed, not charged.
  detection_service(const core::detector& det, hpc::hpc_monitor& monitor,
                    const clock_face& clock, serve_config cfg);

  /// Submits one request. `deadline` is relative to now (nullopt: the
  /// configured default for interactive/batch, none for canaries). The
  /// input tensor is consumed only when the request is admitted.
  ///
  /// `client` names the submitting query stream for the stateful defense
  /// (src/track); 0 = anonymous/untracked. When a tracker is attached,
  /// every identified submission is fingerprinted in admission order
  /// (under the scheduler lock, so the tracker sees a deterministic
  /// stream regardless of measurement thread count): banned clients are
  /// rejected up front with rejected_banned, elevated clients' requests
  /// are flagged for full-fidelity service.
  submit_result submit(tensor input, priority prio,
                       std::optional<clock_duration> deadline = std::nullopt,
                       std::uint64_t client = 0);

  /// Attaches the stateful query tracker. Must be called before traffic
  /// is submitted; the tracker must outlive the service. The service
  /// feeds it twice per identified request: the input fingerprint at
  /// submit, and the HPC trace sketch after a served measurement
  /// (corroboration signal for the escalation ladder).
  void attach_tracker(track::query_tracker& tracker);

  /// Services up to cfg.batch_size queued requests: picks the ladder rung
  /// from queue occupancy, sheds queued requests that can no longer meet
  /// their deadline, measures the rest (canaries at full fidelity) and
  /// scores them. Returns the completed responses, submission order
  /// within the round; empty when the queue is idle. Safe to call from
  /// multiple worker threads (rounds serialise on an internal mutex — the
  /// measurement backend multiplexes one physical PMU anyway).
  std::vector<response> service_batch();

  /// Stops admitting (submissions return rejected_draining) and cancels
  /// in-flight retry backoff waits; already-admitted work stays queued.
  void drain();
  bool draining() const;

  /// Services the remaining queue to completion (drain() first for a
  /// clean shutdown; requests past their deadline shed rather than serve).
  std::vector<response> flush();

  serve_stats stats() const;
  std::size_t rung() const;
  std::size_t queue_depth() const { return queue_.depth(); }
  breaker_state breaker() const { return breaker_.state(); }
  const serve_config& config() const noexcept { return cfg_; }
  const std::vector<ladder_rung>& ladder() const noexcept { return ladder_; }

 private:
  struct planned {
    request req;
    std::size_t rung = 0;
    std::size_t repeats = 0;
    std::size_t events = 0;  ///< events actually measured
    bool shed = false;       ///< deadline-shed before measurement
  };

  detection_service(const core::detector& det, hpc::hpc_monitor& monitor,
                    const clock_face& clock, virtual_clock* vclock,
                    serve_config cfg);

  /// Estimated service cost at a rung (full fidelity for canaries).
  clock_duration estimate_for(const ladder_rung& rung) const;
  clock_duration estimate_canary() const;
  void update_rung(double occupancy);
  response serve_one(const planned& p, const hpc::measurement* m,
                     bool backend_failed);

  const core::detector& det_;
  hpc::hpc_monitor& monitor_;
  const clock_face& clock_;
  virtual_clock* vclock_;  ///< non-null in simulation mode
  track::query_tracker* qtracker_ = nullptr;  ///< optional, not owned
  serve_config cfg_;
  std::vector<ladder_rung> ladder_;
  request_queue queue_;
  circuit_breaker breaker_;
  cancel_token drain_cancel_;

  mutable std::mutex state_mutex_;
  latency_tracker tracker_;
  /// Decaying gap between admitted interactive requests: batch admission
  /// projects how much higher-priority work will overtake a batch request
  /// during its wait. Under sustained interactive pressure that projection
  /// exceeds any batch deadline, so steady overload rejects batch up front
  /// instead of admitting it and shedding it later.
  decaying_mean interactive_gap_;
  clock_duration last_interactive_{0};
  bool have_interactive_ = false;
  serve_stats stats_;
  std::size_t rung_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t inflight_ = 0;  ///< requests popped but not yet completed
  bool draining_ = false;

  /// Serialises service rounds: measurement backends assign sample
  /// streams in call order, so concurrent rounds must not interleave.
  std::mutex service_mutex_;
};

}  // namespace advh::serve
