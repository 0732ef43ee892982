// Pins the measured hot path bit for bit on the committed S1-S3 models.
//
// For each scenario one digest covers the predicted class, the nine
// uarch_counts of trace_generator::run and the untraced logits of a few
// fixed test inputs and two targeted-FGSM adversarial examples, the bits
// of those examples (the grad-path forward and backward), and a batched
// forward with its accuracy (the batch loop of every layer). S1 exercises
// depthwise convolutions, S2 residual blocks, S3 dense blocks and average
// pooling. A speed-up of the forward or of the replay must leave every
// digest unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <numeric>

#include "attack/fgsm.hpp"
#include "data/scenarios.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "uarch/trace_gen.hpp"

namespace advh {
namespace {

/// FNV-1a over 64-bit words, least-significant byte first.
class fnv1a {
 public:
  void feed(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void feed(const tensor& t) {
    for (float v : t.data()) feed(std::bit_cast<std::uint32_t>(v));
  }
  void feed(const uarch::uarch_counts& c) {
    for (std::uint64_t v :
         {c.instructions, c.branches, c.branch_misses, c.cache_references,
          c.cache_misses, c.l1d_load_misses, c.l1i_load_misses,
          c.llc_load_misses, c.llc_store_misses}) {
      feed(v);
    }
  }
  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hot_path_digest(data::scenario_id id) {
  constexpr std::size_t kInputs = 6;
  constexpr std::size_t kAdversarial = 2;
  constexpr std::size_t kBatch = 8;

  const data::scenario_spec spec = data::get_scenario(id);
  data::synthetic_spec ds = spec.dataset_spec;
  ds.sample_seed = 1;
  const data::dataset test = data::make_synthetic(ds, 1);
  auto m = nn::make_model(spec.arch, test.example_shape(), test.num_classes,
                          1234);
  nn::load_state(*m,
                 std::string(ADVH_REPO_DIR) + "/advh_models/" + spec.label +
                     "_" + nn::to_string(spec.arch) + ".advh",
                 /*verify=*/false);

  fnv1a h;
  uarch::trace_generator gen;
  const auto measure = [&](const tensor& x) {
    std::size_t predicted = 0;
    const nn::inference_trace trace = m->trace_inference(x, predicted);
    h.feed(predicted);
    h.feed(gen.run(trace));
    h.feed(m->forward(x));
  };

  for (std::size_t i = 0; i < kInputs; ++i) {
    measure(nn::single_example(test.images, i));
  }

  attack::attack_config cfg;
  cfg.goal = attack::attack_goal::targeted;
  cfg.target_class = spec.target_class;
  cfg.epsilon = 0.1f;
  attack::fgsm atk(cfg);
  std::size_t made = 0;
  for (std::size_t i = 0; made < kAdversarial; ++i) {
    if (test.labels.at(i) == spec.target_class) continue;
    const auto r =
        atk.run(*m, nn::single_example(test.images, i), test.labels[i]);
    h.feed(r.adversarial);
    measure(r.adversarial);
    ++made;
  }

  std::vector<std::size_t> idx(kBatch);
  std::iota(idx.begin(), idx.end(), 0);
  const data::dataset batch = data::subset(test, idx);
  h.feed(m->forward(batch.images));
  h.feed(std::bit_cast<std::uint64_t>(
      m->accuracy(batch.images, batch.labels)));
  return h.hex();
}

TEST(HotPath, GoldenCountsS1toS3) {
  EXPECT_EQ(hot_path_digest(data::scenario_id::s1), "0xa5fab38479558631");
  EXPECT_EQ(hot_path_digest(data::scenario_id::s2), "0xecb22dd6c49d5292");
  EXPECT_EQ(hot_path_digest(data::scenario_id::s3), "0xe830386aa83938af");
}

}  // namespace
}  // namespace advh
