#include "analysis/check.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace advh::analysis {

const char* to_string(severity sev) {
  return sev == severity::error ? "error" : "warning";
}

std::string make_code(severity sev, int number) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "ADVH-%c%03d",
                sev == severity::error ? 'E' : 'W', number);
  return buf;
}

std::size_t check_report::error_count() const noexcept {
  std::size_t n = 0;
  for (const auto& f : findings) n += f.sev == severity::error ? 1 : 0;
  return n;
}

std::size_t check_report::warning_count() const noexcept {
  return findings.size() - error_count();
}

void check_report::add(severity sev, int number, std::string where,
                       std::string message) {
  findings.push_back(finding{sev, make_code(sev, number),
                             std::move(where), std::move(message)});
}

bool check_report::has_code(int number) const {
  const std::string e = make_code(severity::error, number);
  const std::string w = make_code(severity::warning, number);
  return std::any_of(findings.begin(), findings.end(), [&](const finding& f) {
    return f.code == e || f.code == w;
  });
}

std::string check_report::error_codes() const {
  std::string out;
  for (const auto& f : findings) {
    if (f.sev != severity::error) continue;
    if (out.find(f.code) != std::string::npos) continue;
    if (!out.empty()) out += ", ";
    out += f.code;
  }
  return out;
}

int check_report::exit_code() const noexcept {
  if (error_count() > 0) return 2;
  return findings.empty() ? 0 : 1;
}

std::string check_report::to_text() const {
  std::ostringstream os;
  os << "check " << target << ": " << error_count() << " error(s), "
     << warning_count() << " warning(s)\n";
  for (const auto& f : findings) {
    os << "  [" << to_string(f.sev) << "] " << f.code;
    if (!f.where.empty()) os << " " << f.where;
    os << ": " << f.message << "\n";
  }
  return os.str();
}

std::string check_report::to_json() const {
  std::ostringstream os;
  os << "{\"target\":\"" << json_escape(target) << "\",";
  os << "\"errors\":" << error_count() << ",";
  os << "\"warnings\":" << warning_count() << ",";
  os << "\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    if (i > 0) os << ",";
    os << "{\"severity\":\"" << to_string(f.sev) << "\",";
    os << "\"code\":\"" << json_escape(f.code) << "\",";
    os << "\"where\":\"" << json_escape(f.where) << "\",";
    os << "\"message\":\"" << json_escape(f.message) << "\"}";
  }
  os << "]}";
  return os.str();
}

namespace {
std::string summarize_check(const check_report& r, const std::string& context) {
  std::string s = (context.empty() ? r.target : context + ": " + r.target) +
                  ": failed static checks [" + r.error_codes() + "]\n" +
                  r.to_text();
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}
}  // namespace

check_error::check_error(check_report report, const std::string& context)
    : advh::invariant_error(summarize_check(report, context)),
      report_(std::move(report)) {}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace advh::analysis
