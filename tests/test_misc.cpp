// Coverage for the smaller shared facilities: logging levels, layer-kind
// names, trace bookkeeping, sequential container semantics, noise-spec
// editing, CRC32C and the atomic file write.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/logging.hpp"
#include "hpc/noise.hpp"
#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/simple_layers.hpp"

namespace advh {
namespace {

TEST(Logging, LevelGating) {
  const auto saved = log::get_level();
  log::set_level(log::level::warn);
  EXPECT_EQ(log::get_level(), log::level::warn);
  // debug/info below threshold: must be no-ops (no crash, no way to
  // observe stderr here, but the gating branch is exercised).
  log::debug("dropped ", 1);
  log::info("dropped ", 2);
  log::warn("emitted ", 3);
  log::set_level(log::level::off);
  log::error("also dropped");
  log::set_level(saved);
}

TEST(LayerKind, AllNamesDistinct) {
  using nn::layer_kind;
  const layer_kind kinds[] = {
      layer_kind::input,        layer_kind::conv2d,
      layer_kind::depthwise_conv2d, layer_kind::linear,
      layer_kind::relu,         layer_kind::maxpool2d,
      layer_kind::avgpool2d,    layer_kind::global_avgpool,
      layer_kind::batchnorm2d,  layer_kind::dropout,
      layer_kind::flatten,      layer_kind::residual_add,
      layer_kind::concat};
  std::set<std::string> names;
  for (auto k : kinds) names.insert(nn::to_string(k));
  EXPECT_EQ(names.size(), std::size(kinds));
}

TEST(InferenceTrace, TotalActiveNeuronsSums) {
  nn::inference_trace t;
  nn::layer_trace_entry a;
  a.active_outputs = {1, 2, 3};
  nn::layer_trace_entry b;
  b.active_outputs = {7};
  t.layers.push_back(a);
  t.layers.push_back(b);
  EXPECT_EQ(t.total_active_neurons(), 4u);
}

TEST(Sequential, ForwardBackwardOrder) {
  rng gen(1);
  nn::sequential seq("seq");
  seq.emplace<nn::linear>("fc1", 4, 8, gen);
  seq.emplace<nn::relu>("act");
  seq.emplace<nn::linear>("fc2", 8, 2, gen);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.at(1).kind(), nn::layer_kind::relu);
  EXPECT_THROW(seq.at(3), invariant_error);

  nn::forward_ctx ctx;
  tensor x = tensor::randn(shape{2, 4}, gen);
  tensor y = seq.forward(x, ctx);
  EXPECT_EQ(y.dims(), shape({2, 2}));
  tensor gx = seq.backward(tensor::full(y.dims(), 1.0f));
  EXPECT_EQ(gx.dims(), x.dims());

  std::vector<nn::parameter*> params;
  seq.collect_params(params);
  EXPECT_EQ(params.size(), 4u);  // two weights + two biases
}

TEST(Sequential, RejectsNullLayer) {
  nn::sequential seq("seq");
  EXPECT_THROW(seq.add(nullptr), invariant_error);
}

TEST(NoiseSpec, EditablePerEvent) {
  hpc::noise_model nm;
  nm.spec(hpc::hpc_event::cache_misses) = {0.5, 1000.0};
  EXPECT_DOUBLE_EQ(nm.spec(hpc::hpc_event::cache_misses).rel_sigma, 0.5);
  // Other events untouched.
  EXPECT_LT(nm.spec(hpc::hpc_event::instructions).rel_sigma, 0.5);
}

TEST(Dropout, BackwardMatchesMask) {
  rng gen(2);
  nn::dropout d("d", 0.5f, gen);
  nn::forward_ctx ctx;
  ctx.training = true;
  tensor x = tensor::full(shape{1000}, 1.0f);
  tensor y = d.forward(x, ctx);
  tensor g = d.backward(tensor::full(shape{1000}, 1.0f));
  for (std::size_t i = 0; i < 1000; ++i) {
    // Gradient flows exactly where the forward pass kept the unit.
    EXPECT_EQ(g[i], y[i]);
  }
}

TEST(Crc32c, StandardCheckValue) {
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32c, ContinuesAcrossChunks) {
  const std::string a = "AdvHunter ADET v5 ";
  const std::string b = "checksum trailer";
  EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(a + b));
}

std::string test_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "advh_misc_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Checkpoint, AtomicWriteCreatesAncestorsAndSurfacesErrors) {
  const std::string dir = test_dir("fs_durability");
  const std::string nested = dir + "/a/b/c/ledger.bin";
  atomic_write_file(nested, "payload");
  std::ifstream is(nested, std::ios::binary);
  const std::string got{std::istreambuf_iterator<char>(is),
                        std::istreambuf_iterator<char>()};
  EXPECT_EQ(got, "payload");

  // A file in the ancestor chain cannot become a directory.
  EXPECT_THROW(atomic_write_file(nested + "/impossible.bin", "x"), io_error);
}

TEST(Relu, TraceSkippedForBatches) {
  // Tracing demands batch size 1; batched forward with a trace must throw.
  nn::relu act("r");
  nn::inference_trace trace;
  nn::forward_ctx ctx;
  ctx.trace = &trace;
  tensor x(shape{2, 1, 2, 2});
  EXPECT_THROW(act.forward(x, ctx), invariant_error);
}

}  // namespace
}  // namespace advh
