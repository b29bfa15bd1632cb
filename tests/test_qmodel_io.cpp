// Tests for the quantized-model serialization (deployment artifact).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/qmodel_io.hpp"
#include "ref/weights.hpp"
#include "tensor/ops.hpp"

namespace protea::accel {
namespace {

ref::ModelConfig small_config() {
  ref::ModelConfig c;
  c.seq_len = 16;
  c.d_model = 64;
  c.num_heads = 4;
  c.num_layers = 2;
  c.activation = ref::Activation::kGelu;
  return c;
}

struct Fixture {
  ref::ModelConfig config = small_config();
  ref::EncoderWeights weights = ref::make_random_weights(config, 201);
  tensor::MatrixF input = ref::make_random_input(config, 202);
  QuantizedModel model = prepare_model(weights, input);
  std::string path = testing::TempDir() + "/protea_qmodel.bin";
};

TEST(QModelIo, RoundTripPreservesConfig) {
  Fixture fx;
  save_quantized_model(fx.model, fx.path);
  const QuantizedModel loaded = load_quantized_model(fx.path);
  EXPECT_EQ(loaded.config.seq_len, fx.config.seq_len);
  EXPECT_EQ(loaded.config.d_model, fx.config.d_model);
  EXPECT_EQ(loaded.config.num_heads, fx.config.num_heads);
  EXPECT_EQ(loaded.config.num_layers, fx.config.num_layers);
  EXPECT_EQ(loaded.config.activation, fx.config.activation);
  std::filesystem::remove(fx.path);
}

TEST(QModelIo, RoundTripPreservesTensorsAndConstants) {
  Fixture fx;
  save_quantized_model(fx.model, fx.path);
  const QuantizedModel loaded = load_quantized_model(fx.path);
  const QLayer& a = fx.model.layers[0];
  const QLayer& b = loaded.layers[0];
  EXPECT_EQ(a.heads[0].wqt, b.heads[0].wqt);
  EXPECT_EQ(a.heads[3].wvt, b.heads[3].wvt);
  EXPECT_EQ(a.heads[1].bk, b.heads[1].bk);
  EXPECT_EQ(a.wo, b.wo);
  EXPECT_EQ(a.w1, b.w1);
  EXPECT_EQ(a.b2, b.b2);
  EXPECT_EQ(a.ln2_gamma, b.ln2_gamma);
  EXPECT_DOUBLE_EQ(a.scales.logit, b.scales.logit);
  EXPECT_DOUBLE_EQ(a.scales.ln2, b.scales.ln2);
  EXPECT_EQ(a.rq_proj.multiplier, b.rq_proj.multiplier);
  EXPECT_EQ(a.rq_proj.shift, b.rq_proj.shift);
  EXPECT_EQ(a.rq_hidden.multiplier, b.rq_hidden.multiplier);
  std::filesystem::remove(fx.path);
}

TEST(QModelIo, SavedBytesKeepTheFormat) {
  // The file holds logical row-major weights whatever layout the kernels
  // keep them in. The constants were taken from this fixture's file when
  // the model still stored its weights as plain matrices.
  Fixture fx;
  save_quantized_model(fx.model, fx.path);
  std::ifstream is(fx.path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(is)), {});
  uint64_t fnv1a = 1469598103934665603ull;
  for (char c : bytes) {
    fnv1a = (fnv1a ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  EXPECT_EQ(bytes.size(), 105800u);
  EXPECT_EQ(fnv1a, 0x936e39a2d7cb7669ull);
  std::filesystem::remove(fx.path);
}

TEST(QModelIo, RoundTripBitExactInference) {
  // The decisive deployment property: the loaded artifact produces the
  // exact same int8 computation as the in-memory one.
  Fixture fx;
  save_quantized_model(fx.model, fx.path);
  const QuantizedModel loaded = load_quantized_model(fx.path);

  AccelConfig cfg;
  ProteaAccelerator a(cfg), b(cfg);
  a.load_model(fx.model);
  b.load_model(loaded);
  EXPECT_EQ(a.forward(fx.input), b.forward(fx.input));
  std::filesystem::remove(fx.path);
}

TEST(QModelIo, RejectsGarbage) {
  const std::string path = testing::TempDir() + "/protea_qgarbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "PTQXnot really";
  }
  EXPECT_THROW(load_quantized_model(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(QModelIo, RejectsMissingFile) {
  EXPECT_THROW(load_quantized_model("/no/such/file.bin"),
               std::runtime_error);
}

TEST(QModelIo, RejectsTruncatedFile) {
  Fixture fx;
  save_quantized_model(fx.model, fx.path);
  // Truncate to half.
  const auto size = std::filesystem::file_size(fx.path);
  std::filesystem::resize_file(fx.path, size / 2);
  EXPECT_THROW(load_quantized_model(fx.path), std::runtime_error);
  std::filesystem::remove(fx.path);
}

TEST(QModelIo, BadWritePathThrows) {
  Fixture fx;
  EXPECT_THROW(save_quantized_model(fx.model, "/no_dir_xyz/m.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace protea::accel
