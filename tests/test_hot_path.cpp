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
//
// The replay keeps state that depends only on a trace's shape and on its
// configuration, so the counts of the same traces are also pinned under
// four non-default geometries, and a generator that has replayed other
// shapes must agree with a fresh one.
//
// FGSM sees only the sign of an input gradient, so the gradients are pinned
// on their own: the bits of each input's gradient and of every parameter
// gradient, in inference mode and in one training-mode batch. The attacks'
// input-only backward must return the full backward's input gradient and
// leave every parameter gradient alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "attack/fgsm.hpp"
#include "data/scenarios.hpp"
#include "nn/loss.hpp"
#include "nn/serialize.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "uarch/trace_gen.hpp"

namespace advh {
namespace {

/// The nine counts in their digest order.
std::array<std::uint64_t, 9> count_words(const uarch::uarch_counts& c) {
  return {c.instructions,    c.branches,         c.branch_misses,
          c.cache_references, c.cache_misses,     c.l1d_load_misses,
          c.l1i_load_misses, c.llc_load_misses,  c.llc_store_misses};
}

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
    for (std::uint64_t v : count_words(c)) feed(v);
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

constexpr std::size_t kInputs = 6;
constexpr std::size_t kAdversarial = 2;

/// One scenario's committed model and test split, and the inputs the
/// digests measure: kInputs test images, then kAdversarial targeted-FGSM
/// examples.
struct hot_path_case {
  data::dataset test;
  std::unique_ptr<nn::model> model;
  std::vector<tensor> inputs;
};

hot_path_case load_case(data::scenario_id id) {
  const data::scenario_spec spec = data::get_scenario(id);
  data::synthetic_spec ds = spec.dataset_spec;
  ds.sample_seed = 1;
  hot_path_case c;
  c.test = data::make_synthetic(ds, 1);
  c.model = nn::make_model(spec.arch, c.test.example_shape(),
                           c.test.num_classes, 1234);
  nn::load_state(*c.model,
                 std::string(ADVH_REPO_DIR) + "/advh_models/" + spec.label +
                     "_" + nn::to_string(spec.arch) + ".advh",
                 /*verify=*/false);

  for (std::size_t i = 0; i < kInputs; ++i) {
    c.inputs.push_back(nn::single_example(c.test.images, i));
  }
  attack::attack_config cfg;
  cfg.goal = attack::attack_goal::targeted;
  cfg.target_class = spec.target_class;
  cfg.epsilon = 0.1f;
  attack::fgsm atk(cfg);
  for (std::size_t i = 0; c.inputs.size() < kInputs + kAdversarial; ++i) {
    if (c.test.labels.at(i) == spec.target_class) continue;
    c.inputs.push_back(
        atk.run(*c.model, nn::single_example(c.test.images, i),
                c.test.labels[i])
            .adversarial);
  }
  return c;
}

std::string hot_path_digest(data::scenario_id id) {
  constexpr std::size_t kBatch = 8;
  const hot_path_case c = load_case(id);

  fnv1a h;
  uarch::trace_generator gen;
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const tensor& x = c.inputs[i];
    if (i >= kInputs) h.feed(x);  // the adversarial example's own bits
    std::size_t predicted = 0;
    const nn::inference_trace trace = c.model->trace_inference(x, predicted);
    h.feed(predicted);
    h.feed(gen.run(trace));
    h.feed(c.model->forward(x));
  }

  std::vector<std::size_t> idx(kBatch);
  std::iota(idx.begin(), idx.end(), 0);
  const data::dataset batch = data::subset(c.test, idx);
  h.feed(c.model->forward(batch.images));
  h.feed(std::bit_cast<std::uint64_t>(
      c.model->accuracy(batch.images, batch.labels)));
  return h.hex();
}

TEST(HotPath, GoldenCountsS1toS3) {
  EXPECT_EQ(hot_path_digest(data::scenario_id::s1), "0xa5fab38479558631");
  EXPECT_EQ(hot_path_digest(data::scenario_id::s2), "0xecb22dd6c49d5292");
  EXPECT_EQ(hot_path_digest(data::scenario_id::s3), "0xe830386aa83938af");
}

std::string gradient_digest(data::scenario_id id) {
  constexpr std::size_t kBatch = 4;
  const hot_path_case c = load_case(id);
  nn::model& m = *c.model;

  fnv1a h;
  const auto feed_param_grads = [&] {
    for (const nn::parameter* p : m.params()) h.feed(p->grad);
  };
  // Inference mode, frozen batch-norm statistics: the attacks' input
  // gradient, then the parameter gradients of the same forward and
  // backward run with parameter gradients on.
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    const std::size_t label = i % m.num_classes();
    std::size_t predicted = 0;
    h.feed(attack::input_gradient(m, c.inputs[i], label, predicted));
    h.feed(predicted);
    m.zero_grad();
    nn::forward_ctx ctx;
    m.backward(nn::nll_grad_single(m.forward(c.inputs[i], ctx), label));
    feed_param_grads();
  }

  // Training mode: batch statistics, and a batch the linear head's
  // weight gradient sums over.
  std::vector<std::size_t> idx(kBatch);
  std::iota(idx.begin(), idx.end(), 0);
  const data::dataset batch = data::subset(c.test, idx);
  m.zero_grad();
  nn::forward_ctx ctx;
  ctx.training = true;
  const tensor logits = m.forward(batch.images, ctx);
  h.feed(logits);
  h.feed(m.backward(nn::softmax_cross_entropy(logits, batch.labels)
                        .grad_logits));
  feed_param_grads();
  return h.hex();
}

TEST(HotPath, GoldenGradientsS1toS3) {
  EXPECT_EQ(gradient_digest(data::scenario_id::s1), "0xa57024f6ef3befd0");
  EXPECT_EQ(gradient_digest(data::scenario_id::s2), "0xf5af5e0ae6096f72");
  EXPECT_EQ(gradient_digest(data::scenario_id::s3), "0x3f50ae4c805fafeb");
}

bool same_bits(const tensor& a, const tensor& b) {
  return a.dims() == b.dims() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin(),
                    [](float x, float y) {
                      return std::bit_cast<std::uint32_t>(x) ==
                             std::bit_cast<std::uint32_t>(y);
                    });
}

TEST(HotPath, InputOnlyBackwardMatchesFullS1toS3) {
  constexpr float kSentinel = -1234.5f;
  for (data::scenario_id id : {data::scenario_id::s1, data::scenario_id::s2,
                               data::scenario_id::s3}) {
    const hot_path_case c = load_case(id);
    nn::model& m = *c.model;
    const std::string name = "S" + std::to_string(static_cast<int>(id) + 1);
    const auto fill_sentinel = [&] {
      for (nn::parameter* p : m.params()) p->grad.fill(kSentinel);
    };
    const auto expect_untouched = [&](const std::string& what) {
      for (const nn::parameter* p : m.params()) {
        for (float v : p->grad.data()) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(v),
                    std::bit_cast<std::uint32_t>(kSentinel))
              << name << " " << what << ": " << p->name;
        }
      }
    };
    for (std::size_t i = 0; i < c.inputs.size(); ++i) {
      const tensor& x = c.inputs[i];
      const std::size_t label = i % m.num_classes();
      const std::string what = "input " + std::to_string(i);

      // The full backward: parameter gradients on.
      nn::forward_ctx full;
      const tensor logits = m.forward(x, full);
      const tensor want = m.backward(nn::nll_grad_single(logits, label));
      std::vector<tensor> want_logit;  // DeepFool's per-class backwards
      for (std::size_t cls = 0; cls < 3; ++cls) {
        tensor one_hot(logits.dims());
        one_hot[cls] = 1.0f;
        want_logit.push_back(m.backward(one_hot));
      }

      fill_sentinel();
      std::size_t predicted = 0;
      EXPECT_TRUE(same_bits(attack::input_gradient(m, x, label, predicted),
                            want))
          << name << " " << what;
      EXPECT_EQ(predicted, ops::argmax(logits)) << name << " " << what;
      expect_untouched(what + ", input_gradient");

      // One input-only forward, then three backwards from its caches.
      nn::forward_ctx input_only;
      input_only.param_grads = false;
      EXPECT_TRUE(same_bits(m.forward(x, input_only), logits));
      for (std::size_t cls = 0; cls < 3; ++cls) {
        tensor one_hot(logits.dims());
        one_hot[cls] = 1.0f;
        EXPECT_TRUE(same_bits(m.backward(one_hot), want_logit[cls]))
            << name << " " << what << ", logit " << cls;
      }
      expect_untouched(what + ", logit backwards");
    }
  }
}

TEST(HotPath, GoldenCountsAcrossGeometries) {
  // The traces GoldenCountsS1toS3 replays, S1's first.
  std::vector<nn::inference_trace> traces;
  for (data::scenario_id id : {data::scenario_id::s1, data::scenario_id::s2,
                               data::scenario_id::s3}) {
    const hot_path_case c = load_case(id);
    for (const tensor& x : c.inputs) {
      std::size_t predicted = 0;
      traces.push_back(c.model->trace_inference(x, predicted));
    }
  }
  const std::size_t per_case = kInputs + kAdversarial;

  std::vector<uarch::trace_gen_config> cfgs(5);  // cfgs[0]: the default
  // Next-line prefetch trains on both accesses of every accumulate.
  cfgs[1].caches.l1d_prefetch = uarch::prefetcher_kind::next_line;
  cfgs[1].panel_lines = 3;
  cfgs[1].accum_fanout = 4;
  // A 2 KiB layer footprint through a 1 KiB L1-I: every code pass misses.
  cfgs[2].caches.l1d_prefetch = uarch::prefetcher_kind::stride;
  cfgs[2].caches.l1i = {"L1-I", 1024, 64, 2};
  cfgs[2].code_sweep_interval = 17;
  // Direct-mapped L1-D, and a 16 KiB layer footprint through the 8 KiB L1-I.
  cfgs[3].caches.l1d = {"L1-D", 4 * 1024, 64, 1};
  cfgs[3].caches.llc = {"LLC", 64 * 1024, 64, 16};
  cfgs[3].code_bytes_per_layer = 16384;
  // One-set caches and a 16-counter predictor.
  cfgs[4].caches.l1d = {"L1-D", 256, 64, 4};
  cfgs[4].caches.llc = {"LLC", 512, 64, 8};
  cfgs[4].predictor_bits = 4;

  const char* const golden[] = {"0xf808b7831b4b481e", "0x6190254bce4cc60b",
                                "0xd9318a776b9b5b42", "0x78a5c45ab9afc03d",
                                "0xe76d8011f800c157"};
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    fnv1a h;
    uarch::trace_generator gen(cfgs[k]);
    for (const nn::inference_trace& t : traces) h.feed(gen.run(t));
    EXPECT_EQ(h.hex(), golden[k]) << "configuration " << k;
  }

  // Copies of S1's first trace with one shape field changed in every entry.
  using field = std::size_t nn::layer_trace_entry::*;
  const field fields[] = {
      &nn::layer_trace_entry::in_numel,     &nn::layer_trace_entry::out_numel,
      &nn::layer_trace_entry::weight_bytes, &nn::layer_trace_entry::in_channels,
      &nn::layer_trace_entry::in_spatial,   &nn::layer_trace_entry::out_channels,
      &nn::layer_trace_entry::out_spatial};
  std::vector<std::pair<std::string, nn::inference_trace>> variants;
  for (std::size_t f = 0; f < std::size(fields); ++f) {
    nn::inference_trace t = traces[0];
    for (auto& e : t.layers) e.*fields[f] = 2 * (e.*fields[f]) + 1;
    variants.emplace_back("S1 with shape field " + std::to_string(f) +
                              " changed",
                          std::move(t));
  }
  nn::inference_trace kinds = traces[0];
  for (auto& e : kinds.layers) {
    if (e.kind == nn::layer_kind::relu) e.kind = nn::layer_kind::dropout;
  }
  variants.emplace_back("S1 with its relu entries as dropout",
                        std::move(kinds));

  // One generator replays S1, S2, S3, S1 again, then each variant after
  // the S1 trace it came from; every result must equal a fresh one's.
  for (std::size_t k = 0; k < cfgs.size(); ++k) {
    uarch::trace_generator reused(cfgs[k]);
    const auto check = [&](const nn::inference_trace& t,
                           const std::string& what) {
      uarch::trace_generator fresh(cfgs[k]);
      EXPECT_EQ(count_words(reused.run(t)), count_words(fresh.run(t)))
          << what << ", configuration " << k;
    };
    for (std::size_t s : {0u, 1u, 2u, 0u}) {
      for (std::size_t i = 0; i < per_case; ++i) {
        check(traces[s * per_case + i],
              "S" + std::to_string(s + 1) + " input " + std::to_string(i));
      }
    }
    for (const auto& [what, t] : variants) {
      check(traces[0], "S1 input 0");
      check(t, what);
    }
  }
}

}  // namespace
}  // namespace advh
