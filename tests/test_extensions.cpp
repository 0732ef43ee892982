// Tests for the extension modules: prefetcher, ROC analysis, detector
// persistence, and the minimal-epsilon adaptive attack.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>

#include "attack/min_eps.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/table.hpp"
#include "core/detector_io.hpp"
#include "core/roc.hpp"
#include "data/synthetic.hpp"
#include "nn/models/models.hpp"
#include "nn/trainer.hpp"
#include "uarch/hierarchy.hpp"
#include "uarch/prefetcher.hpp"

namespace advh {
namespace {

// ---------------------------------------------------------------------------
// Prefetcher.

TEST(Prefetcher, NoneNeverIssues) {
  uarch::prefetcher p(uarch::prefetcher_kind::none);
  for (std::uint64_t l = 1; l < 100; ++l) EXPECT_EQ(p.observe(l), 0u);
  EXPECT_EQ(p.stats().issued, 0u);
}

TEST(Prefetcher, NextLinePrefetchesSuccessor) {
  uarch::prefetcher p(uarch::prefetcher_kind::next_line);
  EXPECT_EQ(p.observe(10), 11u);
  EXPECT_EQ(p.observe(42), 43u);
  EXPECT_EQ(p.stats().issued, 2u);
}

TEST(Prefetcher, StrideDetectsStreamAfterConfirmation) {
  uarch::prefetcher p(uarch::prefetcher_kind::stride);
  EXPECT_EQ(p.observe(10), 0u);  // no history yet
  EXPECT_EQ(p.observe(14), 0u);  // first stride observed, unconfirmed
  EXPECT_EQ(p.observe(18), 22u);  // stride 4 confirmed
  EXPECT_EQ(p.observe(22), 26u);
}

TEST(Prefetcher, StrideResetsOnIrregularPattern) {
  uarch::prefetcher p(uarch::prefetcher_kind::stride);
  p.observe(10);
  p.observe(14);
  EXPECT_NE(p.observe(18), 0u);
  EXPECT_EQ(p.observe(100), 0u);  // stream broken
  EXPECT_EQ(p.observe(107), 0u);  // new stride, unconfirmed
}

TEST(Prefetcher, HierarchySweepMissesDropWithNextLine) {
  // A long sequential sweep: next-line prefetching must remove most
  // demand misses compared to no prefetching.
  uarch::hierarchy_config plain;
  uarch::hierarchy_config pf = plain;
  pf.l1d_prefetch = uarch::prefetcher_kind::next_line;

  uarch::memory_hierarchy a(plain), b(pf);
  for (std::uint64_t l = 0; l < 4096; ++l) {
    a.data_access(0x100000 + l * 64, uarch::access_type::load);
    b.data_access(0x100000 + l * 64, uarch::access_type::load);
  }
  EXPECT_LT(b.l1d().stats().load_misses, a.l1d().stats().load_misses / 2);
  EXPECT_GT(b.l1d().stats().prefetch_fills, 0u);
}

TEST(Prefetcher, RandomAccessesGainLittle) {
  uarch::hierarchy_config pf;
  pf.l1d_prefetch = uarch::prefetcher_kind::stride;
  uarch::memory_hierarchy mem(pf);
  rng gen(5);
  for (int i = 0; i < 4000; ++i) {
    mem.data_access(gen.uniform_index(1 << 24) * 64, uarch::access_type::load);
  }
  // Stride prefetcher should stay almost silent on random traffic.
  EXPECT_LT(mem.l1d_prefetcher().stats().issued, 400u);
}

// ---------------------------------------------------------------------------
// ROC.

TEST(Roc, PerfectSeparationGivesUnitAuc) {
  std::vector<double> clean{1.0, 2.0, 3.0};
  std::vector<double> adv{10.0, 11.0, 12.0};
  const auto roc = core::compute_roc(clean, adv);
  EXPECT_NEAR(roc.auc, 1.0, 1e-9);
  EXPECT_NEAR(roc.tpr_at_fpr(0.0), 1.0, 1e-9);
}

TEST(Roc, IdenticalDistributionsNearHalf) {
  rng gen(12);
  std::vector<double> clean, adv;
  for (int i = 0; i < 500; ++i) {
    clean.push_back(gen.normal(0.0, 1.0));
    adv.push_back(gen.normal(0.0, 1.0));
  }
  const auto roc = core::compute_roc(clean, adv);
  EXPECT_NEAR(roc.auc, 0.5, 0.05);
}

TEST(Roc, MonotoneNonDecreasing) {
  rng gen(13);
  std::vector<double> clean, adv;
  for (int i = 0; i < 200; ++i) {
    clean.push_back(gen.normal(0.0, 1.0));
    adv.push_back(gen.normal(1.5, 1.0));
  }
  const auto roc = core::compute_roc(clean, adv);
  for (std::size_t i = 1; i < roc.points.size(); ++i) {
    EXPECT_GE(roc.points[i].fpr, roc.points[i - 1].fpr);
    EXPECT_GE(roc.points[i].tpr, roc.points[i - 1].tpr);
  }
  EXPECT_GT(roc.auc, 0.7);
  EXPECT_LT(roc.auc, 1.0);
}

TEST(Roc, EmptyPopulationRejected) {
  std::vector<double> empty, some{1.0};
  EXPECT_THROW(core::compute_roc(empty, some), invariant_error);
}

// ---------------------------------------------------------------------------
// Detector persistence.

core::detector_config two_event_cfg() {
  core::detector_config cfg;
  cfg.events = {hpc::hpc_event::cache_misses,
                hpc::hpc_event::llc_load_misses};
  return cfg;
}

TEST(DetectorIo, RoundTripPreservesVerdicts) {
  core::benign_template tpl(3, 2);
  rng gen(14);
  for (std::size_t cls = 0; cls < 3; ++cls) {
    for (int i = 0; i < 40; ++i) {
      const double base = 100.0 * static_cast<double>(cls + 1);
      tpl.add_row(cls, std::vector<double>{gen.normal(base, 5.0),
                                           gen.normal(2.0 * base, 8.0)});
    }
  }
  auto cfg = two_event_cfg();
  const auto det = core::detector::fit(tpl, cfg);

  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_det.bin").string();
  core::save_detector(det, path);
  const auto loaded = core::load_detector(path);

  EXPECT_EQ(loaded.num_classes(), det.num_classes());
  EXPECT_EQ(loaded.config().events, det.config().events);
  rng probe(15);
  for (int i = 0; i < 50; ++i) {
    const std::size_t cls = probe.uniform_index(3);
    const std::vector<double> x{probe.uniform(50.0, 700.0),
                                probe.uniform(100.0, 1400.0)};
    const auto a = det.score(cls, x);
    const auto b = loaded.score(cls, x);
    EXPECT_EQ(a.adversarial_any, b.adversarial_any);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_NEAR(a.nll[e], b.nll[e], 1e-9);
      EXPECT_EQ(a.flagged[e], b.flagged[e]);
    }
  }
  std::remove(path.c_str());
}

TEST(DetectorIo, CorruptFileRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_det_bad.bin").string();
  write_file(path, "not a detector");
  EXPECT_THROW(core::load_detector(path), io_error);
  std::remove(path.c_str());
}

// Saves a small fitted detector and returns the raw file bytes, so the
// corruption tests can flip specific fields. File layout (little-endian):
// magic(4) version(4) n_events(8) event_enum(4)xN repeats(8) k_max(8)
// sigma(8) flag_unmodeled(1) min_events_for_verdict(8) flag_on_abstain(1)
// n_classes(8), then per (class, event) cell:
// present(1) threshold(8) nll_mean(8) nll_stddev(8) template_size(8)
// order(8) order x {weight(8) mean(8) variance(8)},
// then the v4 drift-section presence byte (0 for save_detector output).
// With `meta` the file is v5: the fleet section and the ADCK CRC32C
// trailer follow that byte.
core::detector fitted_detector() {
  core::benign_template tpl(2, 2);
  rng gen(77);
  for (std::size_t cls = 0; cls < 2; ++cls) {
    for (int i = 0; i < 30; ++i) {
      const double base = 100.0 * static_cast<double>(cls + 1);
      tpl.add_row(cls, std::vector<double>{gen.normal(base, 5.0),
                                           gen.normal(3.0 * base, 9.0)});
    }
  }
  return core::detector::fit(tpl, two_event_cfg());
}

// Pid-unique name: ctest runs each corruption test as its own process,
// and a shared scratch path would let them clobber each other's bytes.
std::string scratch_detector_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("advh_det_" + tag + "." + std::to_string(::getpid()) + ".bin"))
      .string();
}

std::string fitted_detector_bytes(
    const std::optional<core::checkpoint_meta>& meta = std::nullopt) {
  const std::string path = scratch_detector_path("src");
  core::save_detector(fitted_detector(), path, meta);
  std::ifstream is(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

// Writes `bytes` to a temp file and returns the load_detector error text
// (empty if the load unexpectedly succeeded).
std::string load_error_for(const std::string& bytes) {
  const std::string path = scratch_detector_path("mut");
  write_file(path, bytes);
  std::string message;
  try {
    core::load_detector(path);
  } catch (const io_error& e) {
    message = e.what();
  }
  std::remove(path.c_str());
  return message;
}

TEST(DetectorIo, TruncatedFileRejected) {
  const auto bytes = fitted_detector_bytes();
  // Cut mid-header and mid-model: both must fail as truncation, never as
  // a partial-but-plausible detector.
  EXPECT_NE(load_error_for(bytes.substr(0, 6)).find("truncated"),
            std::string::npos);
  EXPECT_NE(load_error_for(bytes.substr(0, bytes.size() - 5)).find("truncated"),
            std::string::npos);
}

TEST(DetectorIo, BadMagicRejected) {
  auto bytes = fitted_detector_bytes();
  bytes[0] = static_cast<char>(bytes[0] ^ 0x5A);
  EXPECT_NE(load_error_for(bytes).find("not an AdvHunter detector"),
            std::string::npos);
}

TEST(DetectorIo, UnsupportedVersionRejected) {
  auto bytes = fitted_detector_bytes();
  const std::uint32_t version = 99;
  std::memcpy(bytes.data() + 4, &version, sizeof(version));
  EXPECT_NE(load_error_for(bytes).find("unsupported detector format version"),
            std::string::npos);
}

TEST(DetectorIo, ZeroEventsRejected) {
  auto bytes = fitted_detector_bytes();
  const std::uint64_t n_events = 0;
  std::memcpy(bytes.data() + 8, &n_events, sizeof(n_events));
  EXPECT_NE(load_error_for(bytes).find("zero events"), std::string::npos);
}

TEST(DetectorIo, UnknownEventEnumRejected) {
  auto bytes = fitted_detector_bytes();
  const std::uint32_t bogus = 0xFFu;  // far past llc_store_misses
  std::memcpy(bytes.data() + 16, &bogus, sizeof(bogus));
  EXPECT_NE(load_error_for(bytes).find("unknown hpc_event"), std::string::npos);
}

TEST(DetectorIo, ZeroRepeatsRejected) {
  auto bytes = fitted_detector_bytes();
  // repeats sits after magic(4) + version(4) + n_events(8) + 2 events(4x2).
  const std::uint64_t repeats = 0;
  std::memcpy(bytes.data() + 24, &repeats, sizeof(repeats));
  EXPECT_NE(load_error_for(bytes).find("repeat count is zero"),
            std::string::npos);
}

TEST(DetectorIo, NaNVarianceRejected) {
  auto bytes = fitted_detector_bytes();
  // The last cell's final component variance sits just before the v4
  // drift-section presence byte that terminates the file.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes.data() + bytes.size() - 1 - sizeof(nan), &nan,
              sizeof(nan));
  EXPECT_NE(load_error_for(bytes).find("variance"), std::string::npos);
}

TEST(DetectorIo, BadWeightSumRejected) {
  auto bytes = fitted_detector_bytes();
  // The first component's weight sits past the first cell's present byte
  // and five 8-byte fields; the cell starts right after the 66-byte header.
  const std::size_t first_weight = 66 + 1 + 5 * 8;
  double w = 0.0;
  std::memcpy(&w, bytes.data() + first_weight, sizeof(w));
  w += 0.25;  // weights no longer sum to 1
  std::memcpy(bytes.data() + first_weight, &w, sizeof(w));
  EXPECT_NE(load_error_for(bytes).find("weights sum"), std::string::npos);
}

TEST(DetectorIo, RoundTripPreservesUnmodeledPolicy) {
  core::benign_template tpl(2, 2);
  rng gen(78);
  for (int i = 0; i < 30; ++i) {
    tpl.add_row(0, std::vector<double>{gen.normal(100.0, 5.0),
                                       gen.normal(300.0, 9.0)});
  }
  auto cfg = two_event_cfg();
  cfg.flag_unmodeled = false;
  const auto det = core::detector::fit(tpl, cfg);
  const std::string path =
      (std::filesystem::temp_directory_path() / "advh_det_policy.bin").string();
  core::save_detector(det, path);
  const auto loaded = core::load_detector(path);
  std::remove(path.c_str());
  EXPECT_FALSE(loaded.config().flag_unmodeled);
  // Class 1 has no template rows; the persisted fail-open policy applies.
  const auto v = loaded.score(1, std::vector<double>{1e9, 1e9});
  EXPECT_FALSE(v.modeled);
  EXPECT_FALSE(v.adversarial_any);
}

TEST(DetectorIo, V5RoundTripPreservesMetaAndVerdicts) {
  const auto det = fitted_detector();
  core::checkpoint_meta meta;
  meta.epoch = 7;
  meta.shard_index = 2;
  meta.shard_count = 3;
  meta.content_version = 11;
  meta.rollback = true;
  const std::string path = scratch_detector_path("v5");
  core::save_detector(det, path, meta);
  const auto loaded = core::load_checkpoint(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.meta.has_value());
  EXPECT_EQ(loaded.meta->epoch, meta.epoch);
  EXPECT_EQ(loaded.meta->shard_index, meta.shard_index);
  EXPECT_EQ(loaded.meta->shard_count, meta.shard_count);
  EXPECT_EQ(loaded.meta->content_version, meta.content_version);
  EXPECT_EQ(loaded.meta->rollback, meta.rollback);
  EXPECT_FALSE(loaded.drift.has_value());
  rng probe(80);
  for (int i = 0; i < 50; ++i) {
    const std::size_t cls = probe.uniform_index(2);
    const std::vector<double> x{probe.uniform(50.0, 300.0),
                                probe.uniform(150.0, 900.0)};
    const auto a = det.score(cls, x);
    const auto b = loaded.det.score(cls, x);
    EXPECT_EQ(a.adversarial_any, b.adversarial_any);
    for (std::size_t e = 0; e < 2; ++e) {
      EXPECT_EQ(a.nll[e], b.nll[e]);
      EXPECT_EQ(a.flagged[e], b.flagged[e]);
    }
  }
}

// ---------------------------------------------------------------------------
// Shard checkpoints: an ADET v5 file carries one template shard (a
// subset of the classes) plus its provenance. Cross-shard and
// cross-version loads are typed errors, never a partial apply.

core::checkpoint load_checkpoint_bytes(const std::string& bytes) {
  const std::string path = scratch_detector_path("ckpt");
  write_file(path, bytes);
  try {
    core::checkpoint cp = core::load_checkpoint(path);
    std::remove(path.c_str());
    return cp;
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
}

core::checkpoint_meta shard_meta() {
  core::checkpoint_meta meta;
  meta.epoch = 3;
  meta.shard_index = 0;
  meta.shard_count = 2;
  meta.content_version = 2;
  return meta;
}

TEST(Checkpoint, ShardRoundtripPreservesShardModelsOnly) {
  core::benign_template tpl(4, 2);
  rng gen(31);
  for (std::size_t cls = 0; cls < 4; ++cls) {
    for (int i = 0; i < 30; ++i) {
      const double base = 100.0 * static_cast<double>(cls + 1);
      tpl.add_row(cls, std::vector<double>{gen.normal(base, 5.0),
                                           gen.normal(3.0 * base, 9.0)});
    }
  }
  const auto full = core::detector::fit(tpl, two_event_cfg());
  // Shard 0 of 2 owns the even classes; the odd ones are someone else's.
  std::vector<std::vector<std::optional<core::event_model>>> models(
      full.num_classes());
  for (std::size_t c = 0; c < full.num_classes(); ++c) {
    for (std::size_t e = 0; e < 2; ++e) {
      models[c].push_back(c % 2 == 0 ? full.model_for(c, e) : std::nullopt);
    }
  }
  const auto shard = core::detector::from_parts(full.config(), models);

  const std::string path = scratch_detector_path("shard");
  core::save_detector(shard, path, shard_meta());
  const core::checkpoint cp = core::load_checkpoint(path);
  std::remove(path.c_str());

  ASSERT_TRUE(cp.meta.has_value());
  EXPECT_EQ(cp.meta->epoch, 3u);
  EXPECT_EQ(cp.meta->shard_index, 0u);
  EXPECT_EQ(cp.meta->content_version, 2u);
  ASSERT_EQ(cp.det.num_classes(), full.num_classes());
  for (std::size_t c = 0; c < full.num_classes(); ++c) {
    for (std::size_t e = 0; e < 2; ++e) {
      const auto& got = cp.det.model_for(c, e);
      if (c % 2 != 0) {
        EXPECT_FALSE(got.has_value()) << "class " << c;
        continue;
      }
      const auto& orig = full.model_for(c, e);
      ASSERT_TRUE(orig.has_value());
      ASSERT_TRUE(got.has_value()) << "class " << c;
      EXPECT_EQ(got->threshold, orig->threshold);
      EXPECT_EQ(got->nll_mean, orig->nll_mean);
      EXPECT_EQ(got->nll_stddev, orig->nll_stddev);
    }
  }
}

TEST(Checkpoint, LoadFencesNonAdvancingVersion) {
  // Content versions start at 1 and only move up; 0 is never published.
  core::checkpoint_meta meta = shard_meta();
  meta.content_version = 0;
  const std::string err = load_error_for(fitted_detector_bytes(meta));
  EXPECT_NE(err.find("ADVH-E249"), std::string::npos) << err;
  EXPECT_NE(err.find("content version 0"), std::string::npos) << err;
}

TEST(Checkpoint, LoadFencesForeignShard) {
  // The writer does not validate meta; the reader fences a shard index
  // outside its own shard count.
  core::checkpoint_meta meta = shard_meta();
  meta.shard_index = 2;
  const std::string err = load_error_for(fitted_detector_bytes(meta));
  EXPECT_NE(err.find("ADVH-E249"), std::string::npos) << err;
  EXPECT_NE(err.find("shard 2/2"), std::string::npos) << err;
}

TEST(Checkpoint, LoadFencesForeignShardGeometry) {
  // A geometry no shard can belong to: zero shards.
  core::checkpoint_meta meta = shard_meta();
  meta.shard_count = 0;
  const std::string err = load_error_for(fitted_detector_bytes(meta));
  EXPECT_NE(err.find("ADVH-E249"), std::string::npos) << err;
  EXPECT_NE(err.find("shard 0/0"), std::string::npos) << err;
}

TEST(Checkpoint, LoadFencesLegacyFileWithoutFleetSection) {
  // A plain save is ADET v4: no fleet section, so no provenance to trust.
  const std::string v4 = fitted_detector_bytes();
  const core::checkpoint legacy = load_checkpoint_bytes(v4);
  EXPECT_FALSE(legacy.meta.has_value());

  // v5 is the v4 body plus an appended fleet section and trailer...
  const std::string v5 = fitted_detector_bytes(shard_meta());
  ASSERT_GT(v5.size(), v4.size());
  EXPECT_EQ(v5.substr(8, v4.size() - 8), v4.substr(8));
  // ...so a v5 header over a body whose section was stripped is fenced.
  const std::string stripped = v5.substr(0, v4.size());
  const std::string err = load_error_for(stripped);
  EXPECT_NE(err.find("ADVH-E250"), std::string::npos) << err;
}

TEST(Checkpoint, TruncatedFileIsTypedErrorNeverPartial) {
  const std::string bytes = fitted_detector_bytes(shard_meta());
  ASSERT_GT(bytes.size(), 64u);
  // Every cut, including inside the fleet section and the trailer, must
  // surface as a typed io_error, never a checkpoint with missing pieces.
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(load_checkpoint_bytes(bytes.substr(0, keep)), io_error)
        << "truncation at " << keep << " of " << bytes.size();
  }
}

TEST(Checkpoint, BitFlippedShardChecksumIsTypedFencingError) {
  const std::string bytes = fitted_detector_bytes(shard_meta());
  ASSERT_GT(bytes.size(), 64u);
  // One flipped bit anywhere past the magic and version word (those are
  // checked first, as ADVH-E201/E202) breaks the CRC32C trailer: body,
  // fleet section and the trailer itself.
  for (std::size_t i = 8; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    const std::string err = load_error_for(flipped);
    EXPECT_NE(err.find("ADVH-E250"), std::string::npos)
        << "byte " << i << ": " << err;
    EXPECT_NE(err.find("checksum"), std::string::npos) << "byte " << i;
  }
}

TEST(Checkpoint, VersionWordBitFlipNeverLoads) {
  // The CRC32C trailer cannot cover the word that says it exists. Every
  // single-bit flip of the version word, in a v4 and in a v5 file, must
  // still fail the load: 5 -> 4 leaves the fleet section and trailer as
  // bytes after the last v4 section.
  for (const auto& meta :
       {std::optional<core::checkpoint_meta>{}, std::optional(shard_meta())}) {
    const std::string bytes = fitted_detector_bytes(meta);
    for (int bit = 0; bit < 32; ++bit) {
      std::string flipped = bytes;
      std::uint32_t version = 0;
      std::memcpy(&version, flipped.data() + 4, sizeof(version));
      version ^= 1u << bit;
      std::memcpy(flipped.data() + 4, &version, sizeof(version));
      EXPECT_THROW(load_checkpoint_bytes(flipped), io_error)
          << (meta ? "v5" : "v4") << " version bit " << bit;
    }
  }
}

TEST(Integrity, ShardDigestIsThreadInvariant) {
  core::benign_template tpl(3, 2);
  rng gen(52);
  for (std::size_t cls = 0; cls < 3; ++cls) {
    for (int i = 0; i < 40; ++i) {
      const double base = 100.0 * static_cast<double>(cls + 1);
      tpl.add_row(cls, std::vector<double>{gen.normal(base, 5.0),
                                           gen.normal(3.0 * base, 9.0)});
    }
  }
  // The v5 trailer is the shard's CRC32C digest; equal content must
  // digest, and serialise, identically at any fit thread count.
  std::vector<std::string> files;
  for (const std::size_t threads : {1u, 4u}) {
    const std::string path = scratch_detector_path("digest");
    core::save_detector(core::detector::fit(tpl, two_event_cfg(), threads),
                        path, shard_meta());
    files.push_back(read_file_bytes(path));
    std::remove(path.c_str());
  }
  ASSERT_GT(files[0].size(), 8u);
  EXPECT_EQ(files[0].substr(files[0].size() - 4),
            files[1].substr(files[1].size() - 4));
  EXPECT_EQ(files[0], files[1]);
}

// ---------------------------------------------------------------------------
// Minimal-epsilon adaptive attack.

class MinEpsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::synthetic_spec spec;
    spec.channels = 1;
    spec.height = 16;
    spec.width = 16;
    spec.classes = 3;
    spec.seed = 61;
    spec.confusable_pairs = false;
    spec.hard_fraction = 0.0;
    auto train = data::make_synthetic(spec, 50);
    model_ = nn::make_model(nn::architecture::case_study_cnn,
                            shape{1, 16, 16}, 3, 4)
                 .release();
    nn::train_config cfg;
    cfg.epochs = 3;
    nn::train_classifier(*model_, train.images, train.labels, cfg);
    spec.sample_seed = 1;
    eval_ = new data::dataset(data::make_synthetic(spec, 5));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete eval_;
    model_ = nullptr;
    eval_ = nullptr;
  }
  static nn::model* model_;
  static data::dataset* eval_;
};

nn::model* MinEpsTest::model_ = nullptr;
data::dataset* MinEpsTest::eval_ = nullptr;

TEST_F(MinEpsTest, FindsSuccessfulMinimalAttack) {
  attack::min_eps_config cfg;
  cfg.kind = attack::attack_kind::pgd;
  std::size_t found = 0;
  for (std::size_t i = 0; i < eval_->size(); ++i) {
    tensor x = nn::single_example(eval_->images, i);
    if (model_->predict_one(x) != eval_->labels[i]) continue;
    auto r = attack::find_minimal_epsilon(*model_, x, eval_->labels[i], cfg);
    if (!r.found) continue;
    ++found;
    EXPECT_TRUE(r.result.success);
    EXPECT_LE(r.result.linf_distortion, r.epsilon + 1e-5);

    // Minimality: a clearly weaker attack at eps/2 fails (bisection is
    // within tolerance of the success boundary).
    attack::attack_config half;
    half.epsilon = r.epsilon * 0.5f;
    half.steps = cfg.pgd_steps;
    auto weaker = attack::make_attack(cfg.kind, half)
                      ->run(*model_, x, eval_->labels[i]);
    if (r.epsilon > 4.0f * cfg.tolerance) {
      EXPECT_FALSE(weaker.success);
    }
  }
  EXPECT_GT(found, 5u);
}

TEST_F(MinEpsTest, MinimalEpsilonSmallerThanDefault) {
  attack::min_eps_config cfg;
  cfg.kind = attack::attack_kind::pgd;
  for (std::size_t i = 0; i < 4; ++i) {
    tensor x = nn::single_example(eval_->images, i);
    if (model_->predict_one(x) != eval_->labels[i]) continue;
    auto r = attack::find_minimal_epsilon(*model_, x, eval_->labels[i], cfg);
    if (r.found) {
      EXPECT_LT(r.epsilon, cfg.eps_hi + 1e-6);
    }
  }
}

TEST_F(MinEpsTest, DeepFoolRejected) {
  attack::min_eps_config cfg;
  cfg.kind = attack::attack_kind::deepfool;
  tensor x = nn::single_example(eval_->images, 0);
  EXPECT_THROW(attack::find_minimal_epsilon(*model_, x, 0, cfg),
               invariant_error);
}

}  // namespace
}  // namespace advh
