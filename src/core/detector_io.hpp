// Detector persistence (the ADET binary format).
//
// The offline phase (template measurement + GMM fitting) is the expensive
// part of AdvHunter; deployments fit once and load the detector at
// service start. Binary format: magic/version, config (events, repeats,
// sigma, verdict policies), then per (class, event) the fitted mixture
// and threshold; format v4 appends an optional drift section carrying the
// drift-controller state (sequential-detector cells, quarantine flags,
// canary reservoirs) so a long-running deployment can checkpoint and
// resume its feedback loop; format v5 appends a fleet section (view
// epoch, shard identity, content version, rollback flag) and a CRC32C
// trailer over the whole file. Files without fleet metadata are still
// written as v4, byte for byte — v5 only exists when metadata is attached.
// Every version ends at its last section: trailing bytes fail the load
// (ADVH-E248), which also fences a v5 file whose version word reads 4.
//
// Every writer goes through advh::atomic_write_file (write-temp + fsync +
// rename), so a process killed mid-checkpoint leaves either the previous
// complete file or the new complete file — load never sees a torn write.
#pragma once

#include <optional>
#include <string>

#include "analysis/check.hpp"
#include "core/detector.hpp"
#include "core/drift.hpp"

namespace advh::core {

/// Provenance of a shipped checkpoint (ADET v5 fleet section). The loader
/// rejects inconsistent metadata (a shard index outside the shard count,
/// a zero content version) as ADVH-E249; comparing epochs and versions
/// against the receiver's own state is the receiver's job.
struct checkpoint_meta {
  /// Membership-view epoch the writer held when it published.
  std::uint64_t epoch = 0;
  /// Which (model, class) template shard this file carries.
  std::uint64_t shard_index = 0;
  std::uint64_t shard_count = 1;
  /// Monotone per-shard version; a rollback republishes old parameters
  /// under a *higher* content version with `rollback` set.
  std::uint64_t content_version = 1;
  bool rollback = false;
};

/// Atomically writes the detector. Without `meta` the file is ADET v4,
/// byte-identical to what earlier revisions wrote; with `meta` it is v5
/// with the fleet section appended.
void save_detector(const detector& det, const std::string& path,
                   const std::optional<checkpoint_meta>& meta = std::nullopt);

/// Loads a detector from any supported ADET version, discarding a drift
/// section if one is present. Throws advh::io_error on corrupt bytes.
detector load_detector(const std::string& path);

/// A loaded ADET checkpoint: the detector plus, when the file carried
/// them, the persisted drift-controller state and fleet metadata.
struct checkpoint {
  detector det;
  std::optional<drift_state> drift;
  std::optional<checkpoint_meta> meta;
};

/// Atomically writes the controller's detector and full drift state.
void save_checkpoint(const drift_controller& ctl, const std::string& path,
                     const std::optional<checkpoint_meta>& meta = std::nullopt);

/// Loads a detector together with its drift section (nullopt for files
/// saved by save_detector or by pre-v4 writers).
///
/// Loading runs the full detector-file linter (advh_check's 2xx pass) as
/// a gating pre-pass: a file with any error-severity finding throws
/// io_error whose message embeds the same ADVH-Exxx codes advh_check
/// reports. Warning-severity findings never block a load.
checkpoint load_checkpoint(const std::string& path);

/// Non-throwing linter entry point (the advh_check detector-file pass).
/// Runs exactly the checks load_checkpoint gates on, accumulating every
/// finding into `report` instead of stopping at the first structural
/// defect's io_error. Returns the parsed checkpoint when the file is
/// loadable (possibly with warnings), nullopt when any error-severity
/// finding was recorded — so CLI verdict and loader behaviour agree by
/// construction.
std::optional<checkpoint> lint_checkpoint_file(const std::string& path,
                                               analysis::check_report& report);

}  // namespace advh::core
