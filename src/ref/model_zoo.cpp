#include "ref/model_zoo.hpp"

#include <stdexcept>

namespace protea::ref {

ModelConfig bert_variant() {
  ModelConfig c;
  c.name = "bert";
  c.seq_len = 64;
  c.d_model = 768;
  c.num_heads = 8;
  c.num_layers = 12;
  c.activation = Activation::kGelu;
  return c;
}

ModelConfig model_peng21() {
  // Peng et al. [21] evaluate a pruned shallow BERT on a U200; the paper
  // reports ProTEA running their workload in 4.48 ms. A single-layer
  // d=256 encoder at SL=36 reproduces that latency on the simulator
  // (4.36 ms, 2.7 % off — see README.md "Calibration notes").
  ModelConfig c;
  c.name = "peng21";
  c.seq_len = 36;
  c.d_model = 256;
  c.num_heads = 8;
  c.num_layers = 1;
  c.activation = Activation::kGelu;
  return c;
}

ModelConfig model_wojcicki23() {
  // Wojcicki et al. [23] deploy a tiny LHC-trigger transformer: one
  // layer over a handful of jet constituents. SL=8, d=96 reproduces
  // ProTEA's reported 0.425 ms (simulated 0.437 ms).
  ModelConfig c;
  c.name = "wojcicki23";
  c.seq_len = 8;
  c.d_model = 96;
  c.num_heads = 4;
  c.num_layers = 1;
  c.activation = Activation::kRelu;
  return c;
}

ModelConfig model_efa_trans25() {
  // EFA-Trans [25] runs a compact 2-layer encoder on a ZCU102; SL=22,
  // d=256 reproduces ProTEA's reported 5.18 ms (simulated 5.32 ms).
  ModelConfig c;
  c.name = "efa_trans25";
  c.seq_len = 22;
  c.d_model = 256;
  c.num_heads = 8;
  c.num_layers = 2;
  c.activation = Activation::kRelu;
  return c;
}

ModelConfig model_qi28() {
  // Qi et al. [28] co-optimize a mid-size 2-layer encoder; SL=38, d=256
  // reproduces ProTEA's reported 9.12 ms (simulated 9.26 ms).
  ModelConfig c;
  c.name = "qi28";
  c.seq_len = 38;
  c.d_model = 256;
  c.num_heads = 4;
  c.num_layers = 2;
  c.activation = Activation::kGelu;
  return c;
}

std::vector<ModelConfig> table1_tests() {
  std::vector<ModelConfig> tests;
  auto base = bert_variant();

  auto push = [&tests](ModelConfig c, std::string name) {
    c.name = std::move(name);
    tests.push_back(std::move(c));
  };

  // Tests 1-3: heads 8, 4, 2.
  for (uint32_t h : {8u, 4u, 2u}) {
    ModelConfig c = base;
    c.num_heads = h;
    push(c, "test" + std::to_string(tests.size() + 1));
  }
  // Tests 4-5: layers 8, 4.
  for (uint32_t n : {8u, 4u}) {
    ModelConfig c = base;
    c.num_layers = n;
    push(c, "test" + std::to_string(tests.size() + 1));
  }
  // Tests 6-7: d_model 512, 256.
  for (uint32_t d : {512u, 256u}) {
    ModelConfig c = base;
    c.d_model = d;
    push(c, "test" + std::to_string(tests.size() + 1));
  }
  // Tests 8-9: seq_len 128, 32.
  for (uint32_t sl : {128u, 32u}) {
    ModelConfig c = base;
    c.seq_len = sl;
    push(c, "test" + std::to_string(tests.size() + 1));
  }
  return tests;
}

ModelConfig find_model(std::string_view name) {
  if (name == "bert") return bert_variant();
  if (name == "peng21") return model_peng21();
  if (name == "wojcicki23") return model_wojcicki23();
  if (name == "efa_trans25") return model_efa_trans25();
  if (name == "qi28") return model_qi28();
  throw std::invalid_argument("find_model: unknown model '" +
                              std::string(name) + "'");
}

std::vector<std::string> model_names() {
  return {"bert", "peng21", "wojcicki23", "efa_trans25", "qi28"};
}

}  // namespace protea::ref
