// Minimal command-line flag parsing for example/bench binaries, and the
// one strict parser for every number that comes from outside the program
// (flag values and the ADVH_* environment knobs).
//
// Supports `--flag value`, `--flag=value`, and boolean `--flag` forms.
// Unknown flags raise an error listing the registered ones, so example
// binaries self-document.
#pragma once

#include <cstddef>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace advh {

/// What parse_number accepts: a value in [lo, hi] — (lo, hi] when lo_open
/// is set — that is a whole number when integer is set.
struct number_rule {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool integer = false;
};

/// Parses `text` strictly: the whole string must read as one finite
/// number meeting `rule` — no empty string, no trailing garbage ("4x",
/// "8MiB"), no overflow. Anything else throws std::invalid_argument
/// naming `what` (the knob or flag) and the accepted range, so a typo in
/// a deployment manifest or a command line fails loudly instead of
/// silently running a different configuration.
double parse_number(const std::string& what, const std::string& text,
                    const number_rule& rule = {});

/// 1/true/yes/on -> true, 0/false/no/off -> false, anything else nullopt.
std::optional<bool> parse_bool(const std::string& text);

class cli_parser {
 public:
  /// `program` and `description` are used in help text.
  cli_parser(std::string program, std::string description);

  /// Registers a flag with a default value and a help string.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Returns false if --help was requested (help printed).
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  /// The flag's value through parse_number: a whole number in [lo, hi]
  /// (a count, size or seed), or a finite double.
  std::size_t get_count(const std::string& name, std::size_t lo = 0,
                        std::size_t hi = std::size_t{1} << 53) const;
  double get_double(const std::string& name) const;
  /// 1/true/yes/on or 0/false/no/off; anything else throws
  /// std::invalid_argument.
  bool get_bool(const std::string& name) const;

  std::string help() const;

  /// Reports a usage error (an unknown flag or a malformed value) as
  /// "<program>: <message>" on stderr and returns the usage exit code, 64.
  int usage_error(const std::exception& e) const;

 private:
  struct flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, flag> flags_;
};

}  // namespace advh
