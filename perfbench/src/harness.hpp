// Shared plumbing of the end-to-end benchmark: command line, spans, timing
// samples, output digests, scenario set-up and the JSON result line.
//
// The benchmark measures the system from outside: every number comes from
// timing or counting calls into the public API of one src/ module. Spans
// are recorded around those calls only when tracing is on.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "data/scenarios.hpp"
#include "hpc/factory.hpp"
#include "nn/model.hpp"

namespace perfbench {

using advh::tensor;

/// Complete set-ups per run; setup_s is their median.
constexpr std::size_t kSetupRepeats = 4;
/// Verdicts run before every timed window.
constexpr std::size_t kWarmup = 8;
/// Length of a traced run's attribution pass.
constexpr double kAttributionSeconds = 4.0;
/// Seed of the seed-independent reference the golden file pins.
constexpr std::uint64_t kGoldenSeed = 1;
/// Seed of the defender's template in screen_s2 and serve_s1: fixed, so the
/// workload seed varies only the queries and traffic.
constexpr std::uint64_t kTemplateSeed = 77;

/// The command line. Every value is required: the workload parameters come
/// from perfbench/spec.json through run.py, so a direct call cannot run a
/// different workload by falling back on a default.
struct options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string models_dir;
  std::string golden;     ///< golden digest file ("<workload> <hex>" lines)
  std::string trace_out;  ///< span file written at exit (traced runs)
  // serve_s1
  double light_rate = 0;     ///< arrivals/s in the light phase
  double overload_rate = 0;  ///< arrivals/s in the overload phase
  // calibrate_s3
  std::size_t calibrate_threads = 0;
};

/// Parses `argv`; throws std::invalid_argument on a malformed command line
/// or when a flag the workload needs is missing.
options parse_options(int argc, char** argv);

/// Throws std::runtime_error when any ADVH_* variable is set: the library
/// reads several of them, and a stray knob would change the measured work.
void refuse_advh_environment();

double now_s();

/// Moves the calling thread over the CPUs the process may run on, one step
/// every kRotateSeconds, so that a run samples the speed of every CPU rather
/// than of the one it started on. On a shared host each virtual CPU switches
/// between a fast and a ~1.5x slower spell on its own, for seconds to
/// minutes at a time. The step comes from the wall clock, so threads that
/// follow rotors with different offsets are never pinned to the same CPU.
class cpu_rotor {
 public:
  static constexpr double kRotateSeconds = 0.5;

  /// `offset` shifts this thread's CPU; 0 for the measuring thread.
  explicit cpu_rotor(std::size_t offset = 0);

  /// Pins the calling thread to the `width` consecutive allowed CPUs (at
  /// most all of them) of the current step, when the step or the width
  /// changed since the last call. Threads started afterwards inherit the
  /// mask, so `width` is the thread count of the work that follows.
  void follow(std::size_t width = 1);

 private:
  std::vector<int> cpus_;  ///< the process's CPUs when the first rotor was made
  std::size_t offset_;
  long step_ = -1;
  std::size_t width_ = 0;
};

/// Spans around public calls. Every call is timed (the duration is what the
/// workloads aggregate); a span record is kept in memory only when tracing
/// is on, and written out once at exit.
class tracer {
 public:
  explicit tracer(bool on);

  /// Runs `fn`, returns its wall time in seconds, and records a span named
  /// `name` for query `id` nested under the innermost open span.
  /// Safe to call from several threads; nesting is tracked per thread.
  template <typename F>
  double time(const char* name, std::uint64_t id, F&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!on_) {
      fn();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    }
    static thread_local long open = -1;
    struct restore {
      long& slot;
      long value;
      ~restore() { slot = value; }
    } guard{open, open};
    open = begin(name, id, t0, guard.value);
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    end(open, t1);
    return std::chrono::duration<double>(t1 - t0).count();
  }

  /// Records a span timed by the caller, with no parent: for calls worth a
  /// span only when they turn out to have done work.
  void record(const char* name, std::uint64_t id,
              std::chrono::steady_clock::time_point t0,
              std::chrono::steady_clock::time_point t1) {
    if (on_) end(begin(name, id, t0, -1), t1);
  }

  /// Writes one JSON object per span (name, id, start_ns, end_ns, parent).
  void write(const std::string& path) const;

 private:
  struct span {
    const char* name;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long parent;
  };
  long begin(const char* name, std::uint64_t id,
             std::chrono::steady_clock::time_point t, long parent);
  void end(long idx, std::chrono::steady_clock::time_point t);

  bool on_;
  std::chrono::steady_clock::time_point epoch_;
  std::mutex mutex_;
  std::vector<span> spans_;  ///< guarded by mutex_
};

/// Named sample lists; metrics report their median, mean or sum.
class samples {
 public:
  void add(const std::string& name, double v) { data_[name].push_back(v); }
  const std::vector<double>& get(const std::string& name) const;
  double median(const std::string& name) const;
  double mean(const std::string& name) const;
  double sum(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> data_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty list.
double quantile(std::vector<double> v, double q);

/// 64-bit FNV-1a over the bytes fed to it.
class digest {
 public:
  void add_u64(std::uint64_t v);
  void add_f64(double v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// A scenario loaded from its committed model cache. Only the test split
/// is synthesised: the benchmark never trains.
struct scenario {
  advh::data::scenario_spec spec;
  advh::data::dataset calib;    ///< template / canary half of the test set
  advh::data::dataset queries;  ///< held-out half: clean query candidates
  std::unique_ptr<advh::nn::model> net;
};

/// The public calls core::prepare_scenario makes, one span each
/// (data.synthesize, analysis.verify, nn.load_state, nn.accuracy), except
/// that a missing model cache is an error instead of a training run and
/// accuracy runs over 100 query images instead of the whole test set.
scenario load_scenario(advh::data::scenario_id id, const options& opt,
                       tracer& tr, samples& s);

/// Labelled inputs; `labels[i]` is the class the model predicts for
/// `inputs[i]`, which every verdict on it must reproduce.
struct query_set {
  std::vector<tensor> inputs;
  std::vector<std::size_t> labels;
  std::vector<bool> adversarial;

  void add(tensor x, std::size_t label, bool adv) {
    inputs.push_back(std::move(x));
    labels.push_back(label);
    adversarial.push_back(adv);
  }
  std::size_t size() const noexcept { return inputs.size(); }
};

/// Clean query candidates the model classifies correctly: up to
/// `per_class` from each class of `d`, visited in a seeded order.
void add_clean(query_set& out, advh::nn::model& net,
               const advh::data::dataset& d, std::size_t per_class,
               std::uint64_t seed);

/// Targeted FGSM AEs (eps 0.1, toward the scenario's target class) from a
/// fresh seeded draw of the scenario's task; at most `count` successes.
void add_targeted_aes(query_set& out, const scenario& sc, std::size_t count,
                      std::uint64_t seed);

/// Plain simulator monitor from explicit options (never the environment).
advh::hpc::monitor_ptr sim_monitor(advh::nn::model& net,
                                   std::uint64_t noise_seed);

/// Counts rows and busy time of the measure_batch calls made through it,
/// forwarding everything to `inner` unchanged.
class counting_monitor final : public advh::hpc::hpc_monitor {
 public:
  explicit counting_monitor(advh::hpc::hpc_monitor& inner) : inner_(inner) {}
  std::string backend_name() const override { return inner_.backend_name(); }

  std::size_t rows = 0;
  double batch_seconds = 0.0;

 protected:
  advh::hpc::measurement do_measure(
      const tensor& x, std::span<const advh::hpc::hpc_event> events,
      std::size_t repeats) override;
  std::vector<advh::hpc::measurement> do_measure_batch(
      std::span<const tensor> inputs,
      std::span<const advh::hpc::hpc_event> events, std::size_t repeats,
      std::size_t threads) override;

 private:
  advh::hpc::hpc_monitor& inner_;
};

/// One calibration: core::collect_template then core::detector::fit, with
/// spans and the core.* / gmm.* / hpc.batch_* samples recorded.
struct calibration {
  advh::core::detector det;
  double seconds = 0.0;
};
calibration calibrate(advh::hpc::hpc_monitor& monitor,
                      const advh::core::detector_config& cfg,
                      const advh::data::dataset& d, std::size_t per_class,
                      std::uint64_t seed, std::size_t threads, tracer& tr,
                      samples& s, digest* dg = nullptr);

/// The defender's calibration in screen_s2 and serve_s1: `per_class` rows
/// at kTemplateSeed on one thread, through a fresh simulator monitor.
calibration calibrate_defender(advh::nn::model& net,
                               const advh::data::dataset& calib,
                               const advh::core::detector_config& cfg,
                               std::size_t per_class, tracer& tr, samples& s);

/// The seed-independent output digest the golden file pins: a calibration
/// with `per_class` rows at a fixed seed through a fresh simulator monitor
/// (template rows, fitted thresholds), then for each probe its noise-free
/// profile (prediction and the nine uarch counts) and its verdict flags as
/// measured through `verdict_monitor` (nullptr: the calibration monitor).
std::string reference_digest(advh::nn::model& net,
                             const advh::core::detector_config& cfg,
                             const advh::data::dataset& calib,
                             std::size_t per_class, std::size_t threads,
                             const std::vector<tensor>& probes,
                             advh::hpc::hpc_monitor* verdict_monitor,
                             tracer& tr);

/// Per-layer attribution over `queries`: times the public calls a verdict
/// decomposes into (nn forward / traced forward / uarch replay / hpc
/// measure / core score), each top-level child of the model, and the tensor
/// kernels at the model's conv geometries. Runs for about `seconds`.
void attribute(advh::nn::model& net, advh::hpc::hpc_monitor& monitor,
               const advh::core::detector& det,
               const std::vector<tensor>& queries, double seconds, tracer& tr,
               samples& s);

/// Result of one workload run, before it is turned into the JSON line.
struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_errors;
  std::string golden_digest;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    if (check_errors.size() < 8) check_errors.push_back(why);
  }
};

/// Compares a computed digest against the golden file and records it.
void check_golden(const options& opt, const std::string& got, result& r);

/// The kSetupRepeats set-ups of a run, each duration a setup_s sample. The
/// first makes the state the workload measures; the others are spread over
/// the timed window and their state is dropped, so that setup_s samples the
/// same stretch of the run as the other metrics instead of its first seconds.
template <typename F>
class setup_series {
 public:
  /// `rotor_offset` is that of the calling thread's own cpu_rotor.
  setup_series(tracer& tr, samples& s, F set_up, std::size_t rotor_offset = 0)
      : tr_(tr), s_(s), set_up_(std::move(set_up)), rotor_(rotor_offset) {}

  /// Runs the first set-up and returns its state.
  auto first() {
    std::optional<decltype(set_up_())> st;
    run([&] { st.emplace(set_up_()); });
    return std::move(*st);
  }

  /// Runs each later set-up whose turn has come once `progress` (the share
  /// of the timed window done) is reached: the k-th at k / kSetupRepeats.
  /// Returns the seconds they took, which the caller keeps out of its
  /// window. step(1) runs every one that is left.
  double step(double progress) {
    double took = 0;
    while (done_ < kSetupRepeats &&
           progress * kSetupRepeats >= static_cast<double>(done_)) {
      took += run([&] { (void)set_up_(); });
    }
    return took;
  }

 private:
  template <typename G>
  double run(G&& g) {
    rotor_.follow();
    const double t = tr_.time("setup", done_++, g);
    s_.add("setup_s", t);
    return t;
  }

  tracer& tr_;
  samples& s_;
  F set_up_;
  cpu_rotor rotor_;
  std::size_t done_ = 0;
};

/// Sets every metric the workloads report: the end-to-end setup_s,
/// calibrate_s and peak_rss_mb, and all per-layer metrics (0 when the
/// workload's path skips that layer).
void report(const samples& s, result& r);

result run_screen(const options& opt, tracer& tr);
result run_serve(const options& opt, tracer& tr);
result run_calibrate(const options& opt, tracer& tr);

}  // namespace perfbench
