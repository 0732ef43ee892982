// advh_perfbench: the repository's end-to-end benchmark.
//
//   advh_perfbench --workload screen_s2|serve_s1|calibrate_s3 --seed N
//                  --seconds S --trace 0|1 --models DIR --golden FILE
//                  [--trace-out FILE]
//                  [--light-rate R --overload-rate R]   (serve_s1)
//                  [--calibrate-threads N]              (calibrate_s3)
//
// Every flag but --trace-out is required; run.py takes the workload
// parameters from spec.json.
//
// The last line of standard output is the result:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. The line before it carries every metric plus the check details
// and the fixed run constants (set-up repeats, warm-up, attribution time).
// Exit status: 0 when the output check passed, 1 when it failed, 2 when the
// run could not be made (no result line).
#include <cmath>
#include <iostream>
#include <set>
#include <sstream>

#include "common/logging.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

const std::set<std::string> kEndToEnd = {"verdicts_per_s", "verdict_p99_ms",
                                         "calibrate_s", "setup_s",
                                         "peak_rss_mb"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string metrics_json(const result& r, int select) {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    const bool e2e = kEndToEnd.count(name) != 0;
    if ((select == 0 && !e2e) || (select == 1 && e2e)) continue;
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << vu.first << ", \"unit\": " << json_string(vu.second) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  result r;
  try {
    refuse_advh_environment();
    opt = parse_options(argc, argv);
    advh::log::set_level(advh::log::level::warn);
    tracer tr(opt.trace);
    if (opt.workload == "screen_s2") {
      r = run_screen(opt, tr);
    } else if (opt.workload == "serve_s1") {
      r = run_serve(opt, tr);
    } else if (opt.workload == "calibrate_s3") {
      r = run_calibrate(opt, tr);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    if (opt.trace && !opt.trace_out.empty()) tr.write(opt.trace_out);
  } catch (const std::exception& e) {
    std::cerr << "advh_perfbench: " << e.what() << "\n";
    return 2;
  }

  for (auto& [name, vu] : r.metrics) {
    if (!std::isfinite(vu.first)) {
      r.fail("metric " + name + " is not finite");
      vu.first = 0;
    }
  }
  const bool correct = r.failed == 0;
  std::ostringstream detail;
  detail << "{\"workload\": " << json_string(opt.workload)
         << ", \"seed\": " << opt.seed << ", \"trace\": " << opt.trace
         << ", \"setup_repeats\": " << kSetupRepeats
         << ", \"warmup\": " << kWarmup
         << ", \"attribution_seconds\": " << kAttributionSeconds
         << ", \"golden_digest\": " << json_string(r.golden_digest)
         << ", \"check_errors\": [";
  for (std::size_t i = 0; i < r.check_errors.size(); ++i) {
    detail << (i ? ", " : "") << json_string(r.check_errors[i]);
  }
  detail << "], \"all_metrics\": " << metrics_json(r, -1) << "}";
  std::cout << detail.str() << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(r, opt.trace ? 1 : 0) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
