#include "core/detector_io.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "common/error.hpp"
#include "common/fs.hpp"

namespace advh::core {

namespace {
constexpr std::uint32_t kMagic = 0x41444554;  // "ADET"
// Version history: 1 = initial format; 2 adds the flag_unmodeled policy
// byte after sigma_multiplier; 3 adds the degraded-input policy
// (min_events_for_verdict u64 + flag_on_abstain u8) after that byte;
// 4 appends an optional drift-controller section (presence byte, then
// policy + per-cell sequential-detector state + canary reservoirs) after
// the model grid; 5 appends a fleet section (view epoch, shard identity,
// content version, rollback flag) after the drift section, followed by a
// mandatory whole-file checksum trailer ("ADCK" magic + CRC32C over every
// preceding byte) so bytes that rotted on disk never load. Older files
// still load (policies default to the fail-closed detector_config values;
// drift state and fleet metadata default to absent; v4 and below carry no
// trailer). Writers emit v4 unless fleet metadata is attached, so
// meta-less saves stay byte-identical across revisions. The trailer cannot
// cover the version word that says it exists: a v5 file whose version
// flipped to 4 parses as v4 with the fleet section and trailer left over,
// so bytes after the last section are an error (E248), never padding to
// skip — any newer revision already fails as E202.
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kVersionFleet = 5;
constexpr std::uint32_t kCkTrailerMagic = 0x4144434B;  // "ADCK"
constexpr std::uint32_t kOldestSupported = 1;
// A BIC scan never selects more components than template rows; anything
// beyond this is corrupt bytes, not a plausible fit.
constexpr std::uint64_t kMaxOrder = 4096;
// Sanity bounds for drift-section sizes: far above any sane policy, low
// enough that corrupt bytes cannot drive multi-gigabyte allocations.
constexpr std::uint64_t kMaxWindow = 1u << 20;
constexpr std::uint64_t kMaxReservoir = 1u << 20;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

// ---------------------------------------------------------------------
// Read side: the detector-file linter (advh_check's 2xx pass).
//
// Two defect classes share the ADVH-x2xx code space:
//  * structural — the byte stream cannot be meaningfully parsed further
//    (bad magic, truncation, implausible section sizes). The finding is
//    recorded into the report and parsing aborts via io_error; the code
//    rides in the exception text so throwing loaders and the advh_check
//    CLI name the same identifier.
//  * semantic — the bytes parse but describe an invalid artifact (weights
//    that do not sum to 1, a threshold below its own NLL mean). The
//    finding is recorded and parsing continues, so one linter pass
//    reports every defect in the file, not just the first.
// ---------------------------------------------------------------------

struct parser {
  std::istream& is;
  const std::string& path;
  analysis::check_report& rep;
  // The complete file bytes `is` reads — what the v5 checksum trailer is
  // verified against.
  const std::string& raw;

  [[noreturn]] void fail(int code, const std::string& where,
                         const std::string& msg) {
    rep.add(analysis::severity::error, code, where, msg);
    throw io_error(path + ": " + msg + " [" +
                   analysis::make_code(analysis::severity::error, code) + "]");
  }

  template <typename T>
  T pod(const char* what) {
    T v{};
    is.read(reinterpret_cast<char*>(&v), sizeof(T));
    if (!is.good()) {
      fail(203, "file",
           "truncated while reading " + std::string(what));
    }
    return v;
  }

  /// Drift-state doubles: any non-finite value poisons the statistics it
  /// feeds, and every later field shares its byte stream — structural.
  double finite(const char* what) {
    const double v = pod<double>(what);
    if (!std::isfinite(v)) {
      fail(242, "drift state", "non-finite " + std::string(what));
    }
    return v;
  }
};

std::string cell_name(std::uint64_t cls, hpc::hpc_event e) {
  return "(class " + std::to_string(cls) + ", event " + hpc::to_string(e) + ")";
}

/// Validates deserialized mixture components and summary statistics;
/// detector files are loaded at service start from bytes the process did
/// not produce, so every field the online scorer trusts is range-checked
/// here (before gmm1d's own invariant checks can fire on garbage).
/// Returns false when the cell carries any error-severity defect — the
/// caller then skips constructing the mixture and leaves the cell
/// unmodelled.
bool validate_cell(std::span<const gmm::component1d> comps, double threshold,
                   double nll_mean, double nll_stddev, double sigma_multiplier,
                   const std::string& where, analysis::check_report& rep) {
  using analysis::severity;
  bool ok = true;
  bool stats_ok = true;
  if (!std::isfinite(threshold)) {
    rep.add(severity::error, 230, where, "non-finite NLL threshold");
    ok = stats_ok = false;
  }
  if (!std::isfinite(nll_mean) || !std::isfinite(nll_stddev) ||
      nll_stddev < 0.0) {
    rep.add(severity::error, 236, where, "invalid template NLL statistics");
    ok = stats_ok = false;
  }
  double weight_sum = 0.0;
  for (std::size_t k = 0; k < comps.size(); ++k) {
    const auto& comp = comps[k];
    const std::string comp_where = where + " component " + std::to_string(k);
    if (!std::isfinite(comp.weight) || comp.weight < 0.0) {
      rep.add(severity::error, 232, comp_where, "invalid component weight");
      ok = false;
    }
    if (!std::isfinite(comp.mean)) {
      rep.add(severity::error, 235, comp_where, "non-finite component mean");
      ok = false;
    }
    if (!std::isfinite(comp.variance) || comp.variance <= 0.0) {
      rep.add(severity::error, 233, comp_where,
              "non-positive component variance");
      ok = false;
    } else if (comp.variance <
               1e-12 * std::max(comp.mean * comp.mean, 1.0)) {
      // Below the relative epsilon of double precision: (v - mean)^2 /
      // variance is numerically meaningless, so the cell flags or passes
      // on rounding noise. Degenerate fit (constant template column at
      // the EM variance floor), not corruption — warn, don't block.
      rep.add(severity::warning, 234, comp_where,
              "variance is below the numerical floor for its mean: the "
              "component degenerates to a spike and its NLL is dominated "
              "by rounding");
    }
    weight_sum += comp.weight;
  }
  if (std::abs(weight_sum - 1.0) > 1e-6) {
    rep.add(severity::error, 231, where,
            "component weights sum to " + std::to_string(weight_sum) +
                ", expected 1");
    ok = false;
  }
  if (stats_ok && std::isfinite(sigma_multiplier) && sigma_multiplier > 0.0) {
    // The fit computes threshold = nll_mean + sigma * nll_stddev exactly
    // (core/detector.cpp); a threshold below the template's own mean NLL
    // flags typical benign traffic, a silently edited threshold is the
    // tampering the linter exists to catch.
    const double expect = nll_mean + sigma_multiplier * nll_stddev;
    const double tol = 1e-6 * std::max(1.0, std::abs(expect));
    if (threshold < nll_mean - tol) {
      rep.add(severity::error, 237, where,
              "threshold " + std::to_string(threshold) +
                  " lies below the template's mean NLL " +
                  std::to_string(nll_mean) +
                  ": typical benign traffic would flag");
      ok = false;
    } else if (std::abs(threshold - expect) > tol) {
      rep.add(severity::warning, 238, where,
              "threshold " + std::to_string(threshold) +
                  " deviates from the sigma rule nll_mean + sigma * "
                  "nll_stddev = " +
                  std::to_string(expect) +
                  ": hand-edited or written by a different fit rule");
    }
  }
  return ok;
}

void write_detector_body(std::ostream& os, const detector& det,
                         std::uint32_t version) {
  const auto& cfg = det.config();
  write_pod(os, kMagic);
  write_pod(os, version);
  write_pod(os, static_cast<std::uint64_t>(cfg.events.size()));
  for (hpc::hpc_event e : cfg.events) {
    write_pod(os, static_cast<std::uint32_t>(e));
  }
  write_pod(os, static_cast<std::uint64_t>(cfg.repeats));
  write_pod(os, static_cast<std::uint64_t>(cfg.k_max));
  write_pod(os, cfg.sigma_multiplier);
  write_pod(os, static_cast<std::uint8_t>(cfg.flag_unmodeled ? 1 : 0));
  write_pod(os, static_cast<std::uint64_t>(cfg.min_events_for_verdict));
  write_pod(os, static_cast<std::uint8_t>(cfg.flag_on_abstain ? 1 : 0));
  write_pod(os, static_cast<std::uint64_t>(det.num_classes()));

  for (std::size_t cls = 0; cls < det.num_classes(); ++cls) {
    for (std::size_t e = 0; e < cfg.events.size(); ++e) {
      const auto& em = det.model_for(cls, e);
      write_pod(os, static_cast<std::uint8_t>(em.has_value() ? 1 : 0));
      if (!em.has_value()) continue;
      write_pod(os, em->threshold);
      write_pod(os, em->nll_mean);
      write_pod(os, em->nll_stddev);
      write_pod(os, static_cast<std::uint64_t>(em->template_size));
      write_pod(os, static_cast<std::uint64_t>(em->model.order()));
      for (const auto& comp : em->model.components()) {
        write_pod(os, comp.weight);
        write_pod(os, comp.mean);
        write_pod(os, comp.variance);
      }
    }
  }
}

void write_meta(std::ostream& os, const checkpoint_meta& m) {
  write_pod(os, m.epoch);
  write_pod(os, m.shard_index);
  write_pod(os, m.shard_count);
  write_pod(os, m.content_version);
  write_pod(os, static_cast<std::uint8_t>(m.rollback ? 1 : 0));
}

// Appends the v5 whole-file checksum trailer: CRC32C over everything
// serialised so far, so a reader can verify the complete file before
// trusting any field of it.
void write_checksum_trailer(std::ostringstream& os) {
  const std::uint32_t crc = crc32c(os.view());
  write_pod(os, kCkTrailerMagic);
  write_pod(os, crc);
}

void write_drift_cell(std::ostream& os, const drift_cell& cell) {
  write_pod(os, cell.ref_offset);
  write_pod(os, cell.cusum_pos);
  write_pod(os, cell.cusum_neg);
  write_pod(os, cell.ph_mean);
  write_pod(os, cell.ph_up);
  write_pod(os, cell.ph_up_min);
  write_pod(os, cell.ph_down);
  write_pod(os, cell.ph_down_max);
  write_pod(os, cell.samples);
  write_pod(os, cell.quarantined);
  write_pod(os, static_cast<std::uint64_t>(cell.window.size()));
  for (const double v : cell.window) write_pod(os, v);
}

void write_drift_state(std::ostream& os, const drift_state& st) {
  const drift_policy& p = st.policy;
  write_pod(os, p.z_clamp);
  write_pod(os, p.cusum_slack);
  write_pod(os, p.cusum_warn);
  write_pod(os, p.cusum_alarm);
  write_pod(os, p.ph_delta);
  write_pod(os, p.ph_warn);
  write_pod(os, p.ph_alarm);
  write_pod(os, static_cast<std::uint64_t>(p.ks_window));
  write_pod(os, static_cast<std::uint64_t>(p.ks_min_samples));
  write_pod(os, p.ks_warn);
  write_pod(os, p.ks_alarm);
  write_pod(os, static_cast<std::uint64_t>(p.reservoir_capacity));
  write_pod(os, static_cast<std::uint64_t>(p.min_refit_rows));
  write_pod(os, static_cast<std::uint64_t>(p.burn_in));

  for (const auto& grid : {&st.canary, &st.victim}) {
    for (const auto& row : *grid) {
      for (const drift_cell& cell : row) write_drift_cell(os, cell);
    }
  }
  for (const auto& pool : st.reservoir) {
    write_pod(os, static_cast<std::uint64_t>(pool.size()));
    for (const auto& row : pool) {
      for (const double v : row) write_pod(os, v);
    }
  }
  write_pod(os, st.canaries_accepted);
  write_pod(os, st.canaries_rejected);
  write_pod(os, st.victims_scored);
  write_pod(os, st.quarantined_verdicts);
  write_pod(os, st.recalibrations);
}

drift_cell read_drift_cell(parser& p, std::uint64_t max_window) {
  drift_cell cell;
  cell.ref_offset = p.finite("burn-in offset");
  cell.cusum_pos = p.finite("CUSUM statistic");
  cell.cusum_neg = p.finite("CUSUM statistic");
  cell.ph_mean = p.finite("Page-Hinkley mean");
  cell.ph_up = p.finite("Page-Hinkley sum");
  cell.ph_up_min = p.finite("Page-Hinkley extremum");
  cell.ph_down = p.finite("Page-Hinkley sum");
  cell.ph_down_max = p.finite("Page-Hinkley extremum");
  if (cell.cusum_pos < 0.0 || cell.cusum_neg < 0.0) {
    p.fail(242, "drift state", "negative CUSUM statistic in drift state");
  }
  cell.samples = p.pod<std::uint64_t>("drift sample count");
  cell.quarantined = p.pod<std::uint8_t>("quarantine flag");
  if (cell.quarantined > 1) {
    p.fail(245, "drift state", "invalid quarantine flag in drift state");
  }
  const auto n = p.pod<std::uint64_t>("drift window length");
  if (n > max_window) {
    p.fail(243, "drift state",
           "drift window of " + std::to_string(n) +
               " exceeds the policy window");
  }
  cell.window.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    cell.window.push_back(p.finite("window NLL"));
  }
  return cell;
}

drift_state read_drift_state(parser& p, std::uint64_t n_classes,
                             std::uint64_t n_events) {
  drift_state st;
  drift_policy& pol = st.policy;
  pol.z_clamp = p.finite("z_clamp");
  pol.cusum_slack = p.finite("cusum_slack");
  pol.cusum_warn = p.finite("cusum_warn");
  pol.cusum_alarm = p.finite("cusum_alarm");
  pol.ph_delta = p.finite("ph_delta");
  pol.ph_warn = p.finite("ph_warn");
  pol.ph_alarm = p.finite("ph_alarm");
  pol.ks_window =
      static_cast<std::size_t>(p.pod<std::uint64_t>("ks_window"));
  pol.ks_min_samples =
      static_cast<std::size_t>(p.pod<std::uint64_t>("ks_min_samples"));
  pol.ks_warn = p.finite("ks_warn");
  pol.ks_alarm = p.finite("ks_alarm");
  pol.reservoir_capacity =
      static_cast<std::size_t>(p.pod<std::uint64_t>("reservoir_capacity"));
  pol.min_refit_rows =
      static_cast<std::size_t>(p.pod<std::uint64_t>("min_refit_rows"));
  pol.burn_in = static_cast<std::size_t>(p.pod<std::uint64_t>("burn_in"));
  if (pol.burn_in > kMaxWindow) {
    p.fail(204, "drift policy", "implausible burn-in length");
  }
  if (pol.z_clamp <= 0.0 || pol.cusum_slack < 0.0 || pol.cusum_warn <= 0.0 ||
      pol.cusum_alarm < pol.cusum_warn || pol.ph_delta < 0.0 ||
      pol.ph_warn <= 0.0 || pol.ph_alarm < pol.ph_warn || pol.ks_window < 2 ||
      pol.ks_window > kMaxWindow || pol.ks_min_samples < 2 ||
      pol.ks_min_samples > pol.ks_window || pol.ks_warn <= 0.0 ||
      pol.ks_alarm < pol.ks_warn || pol.ks_alarm > 1.0 ||
      pol.min_refit_rows < 2 ||
      pol.reservoir_capacity < pol.min_refit_rows ||
      pol.reservoir_capacity > kMaxReservoir) {
    p.fail(241, "drift policy", "inconsistent drift policy");
  }

  for (auto* grid : {&st.canary, &st.victim}) {
    grid->assign(static_cast<std::size_t>(n_classes), {});
    for (auto& row : *grid) {
      row.reserve(static_cast<std::size_t>(n_events));
      for (std::uint64_t e = 0; e < n_events; ++e) {
        row.push_back(read_drift_cell(p, pol.ks_window));
      }
    }
  }
  st.reservoir.assign(static_cast<std::size_t>(n_classes), {});
  for (auto& pool : st.reservoir) {
    const auto rows = p.pod<std::uint64_t>("reservoir row count");
    if (rows > pol.reservoir_capacity) {
      p.fail(244, "drift state",
             "reservoir of " + std::to_string(rows) +
                 " rows exceeds its capacity");
    }
    pool.reserve(static_cast<std::size_t>(rows));
    for (std::uint64_t r = 0; r < rows; ++r) {
      std::vector<double> row;
      row.reserve(static_cast<std::size_t>(n_events));
      for (std::uint64_t e = 0; e < n_events; ++e) {
        row.push_back(p.finite("reservoir count"));
      }
      pool.push_back(std::move(row));
    }
  }
  st.canaries_accepted = p.pod<std::uint64_t>("canary counter");
  st.canaries_rejected = p.pod<std::uint64_t>("canary counter");
  st.victims_scored = p.pod<std::uint64_t>("victim counter");
  st.quarantined_verdicts = p.pod<std::uint64_t>("quarantine counter");
  st.recalibrations = p.pod<std::uint64_t>("recalibration counter");
  return st;
}

/// Full linting parse of one ADET file. Structural defects abort via
/// parser::fail (finding recorded, io_error thrown); semantic defects
/// accumulate into the report and parsing continues.
checkpoint read_checkpoint(parser& p) {
  using analysis::severity;
  if (p.pod<std::uint32_t>("magic") != kMagic) {
    p.fail(201, "file", "not an AdvHunter detector file");
  }
  const auto version = p.pod<std::uint32_t>("format version");
  if (version < kOldestSupported || version > kVersionFleet) {
    p.fail(202, "file",
           "unsupported detector format version " + std::to_string(version));
  }
  if (version >= 5) {
    // Verify the whole-file checksum trailer BEFORE trusting any body
    // field: rotted bytes must fence as the checksum failure they are,
    // not as whatever structural error the rot happens to masquerade as
    // (or worse, a bogus length field driving a huge allocation).
    const std::string& raw = p.raw;
    std::uint32_t ck_magic = 0;
    std::uint32_t ck_crc = 0;
    if (raw.size() >= 8) {
      std::memcpy(&ck_magic, raw.data() + raw.size() - 8, 4);
      std::memcpy(&ck_crc, raw.data() + raw.size() - 4, 4);
    }
    if (raw.size() < 8 || ck_magic != kCkTrailerMagic) {
      p.fail(250, "checksum trailer",
             "missing or corrupt whole-file checksum trailer");
    }
    const std::uint32_t got =
        crc32c(std::string_view(raw).substr(0, raw.size() - 8));
    if (got != ck_crc) {
      p.fail(250, "checksum trailer",
             "whole-file checksum mismatch: stored " + std::to_string(ck_crc) +
                 ", computed " + std::to_string(got) +
                 " — the bytes changed after they were written");
    }
  }

  detector_config cfg;
  const auto n_events = p.pod<std::uint64_t>("event count");
  if (n_events == 0) {
    p.fail(210, "events", "detector monitors zero events");
  }
  if (n_events > 1024) {
    p.fail(204, "events",
           "implausible event count " + std::to_string(n_events));
  }
  for (std::uint64_t e = 0; e < n_events; ++e) {
    const auto raw = p.pod<std::uint32_t>("hpc_event");
    if (raw > static_cast<std::uint32_t>(hpc::hpc_event::llc_store_misses)) {
      p.fail(211, "events",
             "unknown hpc_event value " + std::to_string(raw));
    }
    cfg.events.push_back(static_cast<hpc::hpc_event>(raw));
  }
  for (std::size_t i = 0; i < cfg.events.size(); ++i) {
    for (std::size_t j = i + 1; j < cfg.events.size(); ++j) {
      if (cfg.events[i] == cfg.events[j]) {
        p.rep.add(severity::error, 212,
                  "event " + hpc::to_string(cfg.events[i]),
                  "event configured twice: its evidence would be "
                  "double-counted by the any-event fusion");
      }
    }
  }
  cfg.repeats = static_cast<std::size_t>(p.pod<std::uint64_t>("repeats"));
  if (cfg.repeats == 0) {
    p.rep.add(severity::error, 213, "repeats",
              "measurement repeat count is zero");
  }
  cfg.k_max = static_cast<std::size_t>(p.pod<std::uint64_t>("k_max"));
  if (cfg.k_max == 0) {
    p.rep.add(severity::warning, 216, "k_max",
              "BIC scan upper bound is zero: a drift recalibration under "
              "this config cannot refit any cell");
  }
  cfg.sigma_multiplier = p.pod<double>("sigma multiplier");
  const bool sigma_ok =
      std::isfinite(cfg.sigma_multiplier) && cfg.sigma_multiplier > 0.0;
  if (!sigma_ok) {
    p.rep.add(severity::error, 214, "sigma_multiplier",
              "invalid sigma multiplier");
  }
  if (version >= 2) {
    cfg.flag_unmodeled = p.pod<std::uint8_t>("flag_unmodeled") != 0;
  }
  if (version >= 3) {
    cfg.min_events_for_verdict =
        static_cast<std::size_t>(p.pod<std::uint64_t>("min_events"));
    if (cfg.min_events_for_verdict > n_events) {
      p.rep.add(severity::error, 215, "min_events_for_verdict",
                "evidence floor " +
                    std::to_string(cfg.min_events_for_verdict) +
                    " exceeds the " + std::to_string(n_events) +
                    " stored events: every verdict abstains");
    }
    cfg.flag_on_abstain = p.pod<std::uint8_t>("flag_on_abstain") != 0;
  }

  const auto n_classes = p.pod<std::uint64_t>("class count");
  if (n_classes == 0) {
    p.fail(204, "classes", "detector covers zero classes");
  }
  if (n_classes > 1u << 20) {
    p.fail(204, "classes",
           "implausible class count " + std::to_string(n_classes));
  }
  std::vector<std::vector<std::optional<event_model>>> models(
      n_classes, std::vector<std::optional<event_model>>(n_events));
  for (std::uint64_t cls = 0; cls < n_classes; ++cls) {
    for (std::uint64_t e = 0; e < n_events; ++e) {
      if (p.pod<std::uint8_t>("cell presence byte") == 0) continue;
      event_model em;
      em.threshold = p.pod<double>("cell threshold");
      em.nll_mean = p.pod<double>("cell NLL mean");
      em.nll_stddev = p.pod<double>("cell NLL stddev");
      em.template_size =
          static_cast<std::size_t>(p.pod<std::uint64_t>("template size"));
      const std::string where = cell_name(cls, cfg.events[e]);
      if (em.template_size == 0) {
        p.rep.add(severity::warning, 239, where,
                  "zero template size: the cell's statistics are "
                  "unsupported by any recorded sample");
      }
      const auto order = p.pod<std::uint64_t>("mixture order");
      if (order == 0 || order > kMaxOrder) {
        p.fail(204, where,
               "implausible mixture order " + std::to_string(order));
      }
      std::vector<gmm::component1d> comps(order);
      for (auto& c : comps) {
        c.weight = p.pod<double>("component weight");
        c.mean = p.pod<double>("component mean");
        c.variance = p.pod<double>("component variance");
      }
      if (!validate_cell(comps, em.threshold, em.nll_mean, em.nll_stddev,
                         cfg.sigma_multiplier, where, p.rep)) {
        continue;  // defective cell: recorded, left unmodelled
      }
      em.model = gmm::gmm1d(std::move(comps));
      models[cls][e] = std::move(em);
    }
  }

  checkpoint out{detector::from_parts(std::move(cfg), std::move(models)),
                 {},
                 {}};
  if (version >= 4) {
    const auto has_drift = p.pod<std::uint8_t>("drift presence byte");
    if (has_drift > 1) {
      p.fail(240, "drift state", "invalid drift-section presence byte");
    }
    if (has_drift == 1) {
      out.drift = read_drift_state(p, n_classes, n_events);
      // Coherence between the drift grids and the detector they ride
      // with: quarantine masking reads flags only from the canary grid
      // (core/drift.cpp), and the controller only ever quarantines
      // modelled cells.
      for (std::uint64_t cls = 0; cls < n_classes; ++cls) {
        for (std::uint64_t e = 0; e < n_events; ++e) {
          const auto& events = out.det.config().events;
          const std::string where = cell_name(cls, events[e]);
          if (out.drift->victim[cls][e].quarantined != 0) {
            p.rep.add(severity::error, 246, "victim " + where,
                      "quarantine flag set on a victim-grid cell: the "
                      "controller only quarantines canary cells, so this "
                      "state was not produced by a coherent checkpoint");
          }
          if (out.drift->canary[cls][e].quarantined != 0 &&
              !out.det.model_for(cls, e).has_value()) {
            p.rep.add(severity::warning, 247, "canary " + where,
                      "quarantined canary cell has no fitted model: the "
                      "flag can never be lifted by recalibration");
          }
        }
      }
    }
  }
  if (version >= 5) {
    checkpoint_meta m;
    m.epoch = p.pod<std::uint64_t>("fleet epoch");
    m.shard_index = p.pod<std::uint64_t>("fleet shard index");
    m.shard_count = p.pod<std::uint64_t>("fleet shard count");
    m.content_version = p.pod<std::uint64_t>("fleet content version");
    const auto rb = p.pod<std::uint8_t>("fleet rollback flag");
    if (m.shard_count == 0 || m.shard_index >= m.shard_count || rb > 1 ||
        m.content_version == 0) {
      p.fail(249, "fleet section",
             "inconsistent fleet metadata (shard " +
                 std::to_string(m.shard_index) + "/" +
                 std::to_string(m.shard_count) + ", content version " +
                 std::to_string(m.content_version) + ")");
    }
    m.rollback = rb != 0;
    out.meta = m;
    // The whole-file CRC32C was verified up front; here the parse must
    // land exactly on the trailer, and the end-of-file check below makes
    // sure nothing follows it.
    if (p.pod<std::uint32_t>("checksum trailer magic") != kCkTrailerMagic) {
      p.fail(250, "checksum trailer",
             "missing or corrupt whole-file checksum trailer");
    }
    (void)p.pod<std::uint32_t>("checksum trailer crc");
  }
  // A newer format revision fails as E202 above, so bytes past the last
  // section are damage: a v5 file whose version word lost a bit reads as
  // v4 up to here, with its fleet section and trailer left over.
  if (p.is.peek() != std::char_traits<char>::eof()) {
    p.fail(248, "file",
           "trailing bytes after the last section: the file is damaged "
           "(a v5 file with a flipped version bit reads as v4) or was "
           "padded by a foreign tool");
  }
  return out;
}

}  // namespace

void save_detector(const detector& det, const std::string& path,
                   const std::optional<checkpoint_meta>& meta) {
  std::ostringstream os(std::ios::binary);
  write_detector_body(os, det, meta.has_value() ? kVersionFleet : kVersion);
  write_pod(os, static_cast<std::uint8_t>(0));  // no drift section
  if (meta.has_value()) {
    write_meta(os, *meta);
    write_checksum_trailer(os);
  }
  ADVH_CHECK_MSG(os.good(), "serialisation failed for " + path);
  atomic_write_file(path, os.view());
}

void save_checkpoint(const drift_controller& ctl, const std::string& path,
                     const std::optional<checkpoint_meta>& meta) {
  std::ostringstream os(std::ios::binary);
  write_detector_body(os, ctl.det(), meta.has_value() ? kVersionFleet : kVersion);
  write_pod(os, static_cast<std::uint8_t>(1));
  write_drift_state(os, ctl.state());
  if (meta.has_value()) {
    write_meta(os, *meta);
    write_checksum_trailer(os);
  }
  ADVH_CHECK_MSG(os.good(), "serialisation failed for " + path);
  atomic_write_file(path, os.view());
}

checkpoint load_checkpoint(const std::string& path) {
  // Buffer the whole file (read_file_bytes throws io_error when it cannot
  // be opened) so the v5 checksum trailer can be verified against the
  // exact bytes on disk before any field is trusted.
  const std::string bytes = read_file_bytes(path);
  std::istringstream is(bytes, std::ios::binary);
  analysis::check_report rep;
  rep.target = path;
  parser p{is, path, rep, bytes};
  checkpoint out = read_checkpoint(p);
  if (rep.has_errors()) {
    // Semantic defects accumulated without aborting the parse: the file
    // is readable but not trustworthy. Same codes the advh_check CLI
    // reports for this file.
    throw io_error(path + ": detector file failed static checks [" +
                   rep.error_codes() + "]\n" + rep.to_text());
  }
  return out;
}

detector load_detector(const std::string& path) {
  return load_checkpoint(path).det;
}

std::optional<checkpoint> lint_checkpoint_file(
    const std::string& path, analysis::check_report& report) {
  report.target = path;
  std::string bytes;
  try {
    bytes = read_file_bytes(path);
  } catch (const io_error&) {
    report.add(analysis::severity::error, 1, "file",
               "cannot open target for reading");
    return std::nullopt;
  }
  std::istringstream is(bytes, std::ios::binary);
  parser p{is, path, report, bytes};
  std::optional<checkpoint> out;
  try {
    out.emplace(read_checkpoint(p));
  } catch (const io_error&) {
    // Structural defect: the finding is already in the report.
    return std::nullopt;
  }
  if (report.has_errors()) return std::nullopt;
  return out;
}

}  // namespace advh::core
