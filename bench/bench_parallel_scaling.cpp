// Parallel measurement-engine scaling: wall-clock time of the offline
// phase (template collection + GMM-bank fit) and the online phase (batch
// classification) as a function of worker threads, with a bitwise
// identity check of every template column and verdict against the
// single-threaded baseline — the determinism contract of the engine.
//
// Writes bench_results/BENCH_parallel_scaling.json for CI trend tracking.
#include <chrono>
#include <iostream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "common/cli.hpp"
#include "common/parallel.hpp"

using namespace advh;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool same_template(const core::benign_template& a,
                   const core::benign_template& b) {
  if (a.num_classes() != b.num_classes() || a.num_events() != b.num_events()) {
    return false;
  }
  for (std::size_t cls = 0; cls < a.num_classes(); ++cls) {
    for (std::size_t e = 0; e < a.num_events(); ++e) {
      if (a.column(cls, e) != b.column(cls, e)) return false;
    }
  }
  return true;
}

bool same_verdicts(const std::vector<core::verdict>& a,
                   const std::vector<core::verdict>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].predicted != b[i].predicted || a[i].nll != b[i].nll ||
        a[i].flagged != b[i].flagged ||
        a[i].adversarial_any != b[i].adversarial_any ||
        a[i].modeled != b[i].modeled) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("bench_parallel_scaling",
                 "measurement-engine wall-clock scaling over worker threads");
  cli.add_flag("threads-list", "1,2,4,8", "comma-separated thread counts");
  cli.add_flag("per-class", "20", "template rows M per class");
  std::size_t per_class = 0;
  std::vector<std::size_t> thread_counts;
  try {
    if (!cli.parse(argc, argv)) return 0;
    per_class = cli.get_count("per-class");
    std::stringstream ss(cli.get("threads-list"));
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      const double v = parse_number(
          "--threads-list", tok,
          {.lo = 1, .hi = parallel::max_threads, .integer = true});
      thread_counts.push_back(static_cast<std::size_t>(v));
    }
  } catch (const std::exception& e) {
    return cli.usage_error(e);
  }
  if (thread_counts.empty()) thread_counts = {1};

  auto rt = bench::prepare(data::scenario_id::s1);

  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses, hpc::hpc_event::llc_load_misses};
  dcfg.repeats = 10;

  // Online-phase workload: one pool of clean eval inputs.
  std::vector<tensor> eval_inputs;
  for (std::size_t cls = 0; cls < rt.test.num_classes; ++cls) {
    auto v = bench::clean_of_class(*rt.net, rt.test, cls, bench::scaled(10));
    for (auto& x : v) eval_inputs.push_back(std::move(x));
  }

  text_table table("Parallel measurement-engine scaling (scenario S1)");
  table.set_header({"threads", "offline s", "online s", "offline speedup",
                    "online speedup", "identical"});

  std::optional<core::benign_template> baseline_tpl;
  std::vector<core::verdict> baseline_verdicts;
  double offline_base = 0.0;
  double online_base = 0.0;
  bool all_identical = true;
  std::ostringstream rows_json;

  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t t = thread_counts[i];
    // Fresh monitor per run: identical noise-stream state for every
    // thread count, so results are comparable bit for bit.
    auto monitor = bench::make_monitor(*rt.net);

    const auto t0 = std::chrono::steady_clock::now();
    const auto tpl =
        core::collect_template(*monitor, dcfg, rt.train, per_class, 77, t);
    const auto det = core::detector::fit(tpl, dcfg, t);
    const double offline_s = seconds_since(t0);

    const auto t1 = std::chrono::steady_clock::now();
    const auto verdicts = det.classify_batch(*monitor, eval_inputs, t);
    const double online_s = seconds_since(t1);

    bool identical = true;
    if (!baseline_tpl) {
      baseline_tpl = tpl;
      baseline_verdicts = verdicts;
      offline_base = offline_s;
      online_base = online_s;
    } else {
      identical =
          same_template(*baseline_tpl, tpl) &&
          same_verdicts(baseline_verdicts, verdicts);
    }
    all_identical = all_identical && identical;

    const double offline_speedup = offline_s > 0.0 ? offline_base / offline_s
                                                   : 0.0;
    const double online_speedup = online_s > 0.0 ? online_base / online_s : 0.0;
    table.add_row({std::to_string(t), text_table::num(offline_s, 3),
                   text_table::num(online_s, 3),
                   text_table::num(offline_speedup, 2),
                   text_table::num(online_speedup, 2),
                   identical ? "yes" : "NO"});
    rows_json << (i == 0 ? "" : ",") << "\n    {\"threads\": " << t
              << ", \"offline_seconds\": " << offline_s
              << ", \"online_seconds\": " << online_s
              << ", \"offline_speedup\": " << offline_speedup
              << ", \"online_speedup\": " << online_speedup
              << ", \"identical_to_1_thread\": " << (identical ? "true" : "false")
              << "}";
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"parallel_scaling\",\n  \"scenario\": \"S1\",\n"
       << "  \"per_class\": " << per_class << ",\n  \"eval_inputs\": "
       << eval_inputs.size() << ",\n  \"hardware_threads\": "
       << parallel::hardware_threads() << ",\n  \"runs\": [" << rows_json.str()
       << "\n  ],\n  \"all_identical\": " << (all_identical ? "true" : "false")
       << "\n}\n";
  write_file("bench_results/BENCH_parallel_scaling.json", json.str());

  bench::emit(table, "parallel_scaling");
  if (!all_identical) {
    std::cerr << "FAIL: results differ across thread counts\n";
    return 1;
  }
  return 0;
}
