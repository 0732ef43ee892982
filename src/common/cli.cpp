#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace advh {

double parse_number(const std::string& what, const std::string& text,
                    const number_rule& rule) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  const bool above_lo = rule.lo_open ? v > rule.lo : v >= rule.lo;
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || !above_lo || v > rule.hi ||
      (rule.integer && v != std::floor(v))) {
    std::ostringstream msg;
    // Integer bounds print exactly (2^53 has 16 digits).
    if (rule.integer) {
      msg << std::fixed << std::setprecision(0);
    } else {
      msg.precision(15);
    }
    msg << what << "=\"" << text << "\": expected "
        << (rule.integer ? "an integer" : "a number");
    if (std::isfinite(rule.lo) || std::isfinite(rule.hi)) {
      msg << " in " << (rule.lo_open ? '(' : '[') << rule.lo << ", "
          << rule.hi << ']';
    }
    throw std::invalid_argument(msg.str());
  }
  return v;
}

cli_parser::cli_parser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void cli_parser::add_flag(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  ADVH_CHECK_MSG(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = flag{default_value, help, std::nullopt};
}

bool cli_parser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    ADVH_CHECK_MSG(arg.rfind("--", 0) == 0, "unexpected argument: " + arg);
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto it = flags_.find(arg);
    ADVH_CHECK_MSG(it != flags_.end(), "unknown flag --" + arg + "\n" + help());
    if (eq == std::string::npos) {
      // Boolean flags may omit the value; otherwise consume the next token.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string cli_parser::get(const std::string& name) const {
  auto it = flags_.find(name);
  ADVH_CHECK_MSG(it != flags_.end(), "flag not registered: " + name);
  return it->second.value.value_or(it->second.default_value);
}

std::size_t cli_parser::get_count(const std::string& name, std::size_t lo,
                                  std::size_t hi) const {
  return static_cast<std::size_t>(parse_number(
      "--" + name, get(name),
      {.lo = static_cast<double>(lo),
       .hi = static_cast<double>(hi),
       .integer = true}));
}

double cli_parser::get_double(const std::string& name) const {
  return parse_number("--" + name, get(name));
}

std::optional<bool> parse_bool(const std::string& text) {
  if (text == "1" || text == "true" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "0" || text == "false" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

bool cli_parser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  if (const auto b = parse_bool(v)) return *b;
  throw std::invalid_argument("--" + name + "=\"" + v +
                              "\": expected 1/true/yes/on or 0/false/no/off");
}

int cli_parser::usage_error(const std::exception& e) const {
  std::cerr << program_ << ": " << e.what() << "\n";
  return 64;
}

std::string cli_parser::help() const {
  std::ostringstream os;
  os << program_ << " - " << description_ << "\n\nflags:\n";
  for (const auto& [name, f] : flags_) {
    os << "  --" << name << " (default: " << f.default_value << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace advh
