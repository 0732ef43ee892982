// advh_check — static-analysis front end for every AdvHunter artifact.
//
//   advh_check <target> [<target>...] [--json] [--model <name|state-file>]
//              [--input CxHxW] [--classes N] [--seed S]
//
// Each target is resolved by content, not extension:
//   * a known model name (case_study_cnn, efficientnet_lite, resnet_small,
//     densenet_small) or an nn state file — model-graph passes (ADVH-x1xx);
//   * an ADET detector/checkpoint file (magic sniffed) — the detector-file
//     linter (ADVH-x2xx), the detector-policy pass (ADVH-x4xx) and, when
//     --model names the victim model, the HPC envelope pass (ADVH-x3xx);
//   * anything else readable — parsed as a serve config (key = value) and
//     run through the serve-policy pass (ADVH-x4xx) against the detector
//     loaded from --detector (or the default detector config).
//
// Exit status, over all targets: 0 clean, 1 warnings only, 2 errors,
// 64 usage. Findings carry the same ADVH-Exxx identifiers the runtime
// choke points (load_detector, detector::fit, detection_service
// construction) embed in their errors.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "analysis/envelope_pass.hpp"
#include "analysis/policy_pass.hpp"
#include "analysis/verifier.hpp"
#include "common/cli.hpp"
#include "core/detector_io.hpp"
#include "nn/models/models.hpp"
#include "nn/serialize.hpp"
#include "serve/service.hpp"

using namespace advh;

namespace {

struct arch_defaults {
  shape input;
  std::size_t classes;
};

// Scenario-matched defaults (src/data/scenarios): the shapes each factory
// architecture is trained with.
arch_defaults defaults_for(nn::architecture a) {
  switch (a) {
    case nn::architecture::efficientnet_lite:
      return {shape{1, 28, 28}, 10};
    case nn::architecture::densenet_small:
      return {shape{3, 32, 32}, 43};
    case nn::architecture::case_study_cnn:
    case nn::architecture::resnet_small:
      return {shape{3, 32, 32}, 10};
  }
  return {shape{3, 32, 32}, 10};
}

bool arch_from_filename(const std::string& path, nn::architecture& out) {
  for (nn::architecture a :
       {nn::architecture::case_study_cnn, nn::architecture::efficientnet_lite,
        nn::architecture::resnet_small, nn::architecture::densenet_small}) {
    if (path.find(nn::to_string(a)) != std::string::npos) {
      out = a;
      return true;
    }
  }
  return false;
}

bool parse_chw(const std::string& s, shape& out) {
  std::size_t c = 0, h = 0, w = 0;
  char x1 = 0, x2 = 0;
  if (std::sscanf(s.c_str(), "%zu%c%zu%c%zu", &c, &x1, &h, &x2, &w) != 5 ||
      x1 != 'x' || x2 != 'x' || c == 0 || h == 0 || w == 0) {
    return false;
  }
  out = shape{c, h, w};
  return true;
}

bool is_model_name(const std::string& s) {
  try {
    (void)nn::architecture_from_string(s);
    return true;
  } catch (const advh::error&) {
    return false;
  }
}

/// ADET files are sniffed by magic; the .adet extension also routes to
/// the detector linter so a corrupted header is reported as ADVH-E201,
/// not misparsed as a serve config.
bool is_adet_target(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (is.good() && magic == 0x41444554u) return true;
  const std::string ext = ".adet";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

bool file_readable(const std::string& path) {
  return std::ifstream(path).good();
}

struct cli_options {
  bool json = false;
  std::string model;  ///< victim model for the envelope pass
  std::string input;
  std::size_t classes = 0;
  std::uint64_t seed = 1234;
};

std::unique_ptr<nn::model> build_model(const std::string& target,
                                       const cli_options& opt,
                                       std::string& err) {
  nn::architecture arch;
  const bool is_file = !is_model_name(target) && nn::is_state_file(target);
  if (is_file) {
    if (!arch_from_filename(target, arch)) {
      err = "cannot infer architecture from file name '" + target + "'";
      return nullptr;
    }
  } else if (is_model_name(target)) {
    arch = nn::architecture_from_string(target);
  } else {
    err = "'" + target + "' is neither a known model name nor a state file";
    return nullptr;
  }
  arch_defaults d = defaults_for(arch);
  if (!opt.input.empty() && !parse_chw(opt.input, d.input)) {
    err = "--input must look like 3x32x32";
    return nullptr;
  }
  if (opt.classes > 0) d.classes = opt.classes;
  auto m = nn::make_model(arch, d.input, d.classes, opt.seed);
  // The checker owns the verdict: load without the throw-on-error gate,
  // the graph pass reports every finding itself.
  if (is_file) nn::load_state(*m, target, /*verify=*/false);
  return m;
}

/// Model-graph passes (1xx): the verifier's shape, parameter, trace and
/// structure findings.
void check_model_target(const std::string& target, const cli_options& opt,
                        analysis::check_report& rep) {
  rep.target = target;
  std::string err;
  auto m = build_model(target, opt, err);
  if (!m) {
    rep.add(analysis::severity::error, 2, "target", err);
    return;
  }
  analysis::verify_model(*m, rep);
}

/// Detector-file passes: the 2xx linter, the 4xx detector-policy pass
/// over the stored config and (when --model is given) the 3xx envelope
/// cross-check of every fitted cell.
void check_detector_target(const std::string& target, const cli_options& opt,
                           analysis::check_report& rep) {
  const auto ckpt = core::lint_checkpoint_file(target, rep);
  if (!ckpt.has_value()) return;  // findings already recorded
  analysis::check_detector_policy(ckpt->det.config(), rep);
  if (opt.model.empty()) return;
  std::string err;
  auto m = build_model(opt.model, opt, err);
  if (!m) {
    rep.add(analysis::severity::error, 2, "--model", err);
    return;
  }
  analysis::check_envelope(*m, ckpt->det, analysis::envelope_options{}, rep);
}

/// Serve-config pass: parse, then verify the degradation ladder against
/// the detector policy it will serve (default detector config unless the
/// same invocation also checks an ADET file — configs are checked
/// standalone here; pair them in code via check_serve_policy).
void check_serve_target(const std::string& target,
                        analysis::check_report& rep) {
  rep.target = target;
  serve::serve_config cfg;
  try {
    cfg = serve::load_serve_config(target);
  } catch (const advh::io_error& e) {
    rep.add(analysis::severity::error, 2, "target", e.what());
    return;
  }
  analysis::check_serve_policy(cfg, core::detector_config{}, rep);
}

int usage(const std::string& help) {
  std::cerr << "usage: advh_check <target> [<target>...] [flags]\n"
            << "  targets: model name | nn state file | ADET detector file "
               "| serve config\n"
            << help;
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli("advh_check", "static analysis for AdvHunter artifacts");
  cli.add_flag("json", "false", "emit reports as a JSON array");
  cli.add_flag("model", "",
               "victim model (name or state file) for the envelope pass");
  cli.add_flag("input", "", "input shape CxHxW (default: per-architecture)");
  cli.add_flag("classes", "0",
               "logit width, at most 65536 (default: per-architecture)");
  cli.add_flag("seed", "1234", "weight-init seed for factory models");

  std::vector<std::string> targets;
  std::vector<const char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      if (std::strcmp(argv[i], "--help") == 0) {
        std::cerr << cli.help();
        return 0;
      }
      rest.push_back(argv[i]);
      // A flag consumes the following token as its value; --json only
      // when that token is a boolean literal, so a target may follow it.
      if (i + 1 < argc && (std::strcmp(argv[i], "--json") != 0 ||
                           parse_bool(argv[i + 1]).has_value())) {
        rest.push_back(argv[++i]);
      }
    } else {
      targets.emplace_back(argv[i]);
    }
  }
  if (targets.empty()) return usage(cli.help());
  cli_options opt;
  try {
    if (!cli.parse(static_cast<int>(rest.size()), rest.data())) return 0;
    opt.json = cli.get_bool("json");
    opt.model = cli.get("model");
    opt.input = cli.get("input");
    opt.classes = cli.get_count("classes", 0, 65536);
    opt.seed = cli.get_count("seed");
  } catch (const std::exception& e) {  // unknown flag or malformed value
    return cli.usage_error(e);
  }

  int worst = 0;
  std::string json_out = "[";
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::string& target = targets[t];
    analysis::check_report rep;
    rep.target = target;
    try {
      if (is_model_name(target)) {
        check_model_target(target, opt, rep);
      } else if (!file_readable(target)) {
        rep.add(analysis::severity::error, 1, "target",
                "cannot open target for reading");
      } else if (is_adet_target(target)) {
        check_detector_target(target, opt, rep);
      } else if (nn::is_state_file(target)) {
        check_model_target(target, opt, rep);
      } else {
        check_serve_target(target, rep);
      }
    } catch (const advh::error& e) {
      // A pass died on something the linter did not classify: still a
      // finding, never a silent crash.
      rep.add(analysis::severity::error, 2, "target", e.what());
    }
    worst = std::max(worst, rep.exit_code());
    if (opt.json) {
      json_out += (t ? "," : "") + std::string("\n") + rep.to_json();
    } else {
      std::cout << rep.to_text();
    }
  }
  if (opt.json) std::cout << json_out << "\n]\n";
  return worst;
}
