// Static-analysis framework shared by every advh_check pass.
//
// Every pass — the model-graph verifier (analysis/verifier), the
// detector-file linter (core/detector_io), the HPC envelope pass
// (analysis/envelope_pass) and the policy-consistency pass
// (analysis/policy_pass) — reports through check_report with stable
// ADVH-Exxx / ADVH-Wxxx identifiers, so CI and the choke points
// (nn::load_state, load_detector, detection_service construction,
// detector::fit) speak the same codes as the advh_check CLI.
//
// Code space, by hundreds digit:
//   0xx  framework / target resolution (E001 unreadable target,
//        E002 unresolvable/unparseable target)
//   1xx  model-graph passes (the message leads with a kebab-case name,
//        e.g. "non-finite-param: ...")
//   2xx  detector/checkpoint files (ADET format, drift section)
//   3xx  HPC envelope (abstract-interpretation feasibility)
//   4xx  policy consistency (detector + serve configuration)
// The E/W prefix tracks the finding's severity, the number its defect
// class; a class that can occur at either severity keeps one number.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace advh::analysis {

enum class severity { warning, error };

const char* to_string(severity sev);

/// One defect found by a static-analysis pass.
struct finding {
  severity sev = severity::error;
  std::string code;     ///< stable identifier, e.g. "ADVH-E231"
  std::string where;    ///< artifact coordinate, e.g. "(class 3, event instructions)"
  std::string message;
};

/// Formats the stable identifier for a defect class at a severity, e.g.
/// make_code(severity::error, 231) == "ADVH-E231".
std::string make_code(severity sev, int number);

/// Findings of all passes run against one target (a model, a detector
/// file, a config). One CLI invocation produces one report per target.
struct check_report {
  std::string target;
  std::vector<finding> findings;

  std::size_t error_count() const noexcept;
  std::size_t warning_count() const noexcept;
  bool has_errors() const noexcept { return error_count() > 0; }

  void add(severity sev, int number, std::string where,
           std::string message);

  /// True when any finding carries the given code number (any severity).
  bool has_code(int number) const;

  /// Comma-separated unique codes of error-severity findings, for embedding
  /// in exception messages so loaders report the same identifiers the CLI
  /// prints.
  std::string error_codes() const;

  /// advh_check exit-code contract: 0 clean, 1 warnings only, 2 errors.
  int exit_code() const noexcept;

  /// Human-readable multi-line rendering (one line per finding).
  std::string to_text() const;
  /// Machine-readable rendering (advh_check --json).
  std::string to_json() const;
};

/// Thrown by static-check choke points (model verification, detector fit,
/// service/config construction) when a report carries errors. Derives from
/// invariant_error so callers treating misconfiguration as a precondition
/// violation keep working.
class check_error : public advh::invariant_error {
 public:
  explicit check_error(check_report report, const std::string& context = "");

  const check_report& report() const noexcept { return report_; }

 private:
  check_report report_;
};

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace advh::analysis
