#include "accel/qmodel_io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace protea::accel {
namespace {

constexpr char kMagic[4] = {'P', 'T', 'Q', '1'};

void write_u32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void write_i32v(std::ostream& os, const std::vector<int32_t>& v) {
  write_u32(os, static_cast<uint32_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(int32_t)));
}
void write_f32v(std::ostream& os, const std::vector<float>& v) {
  write_u32(os, static_cast<uint32_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}
/// A packed weight is written as its logical row-major matrix in the
/// stored orientation, so the file format does not depend on the
/// kernel's panel layout.
void write_mat8(std::ostream& os, const tensor::PackedWeightI8& w) {
  const tensor::MatrixI8 m = w.to_matrix();
  write_u32(os, static_cast<uint32_t>(m.rows()));
  write_u32(os, static_cast<uint32_t>(m.cols()));
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size()));
}
void write_rq(std::ostream& os, const numeric::RequantParams& rq) {
  write_u32(os, static_cast<uint32_t>(rq.multiplier));
  write_u32(os, static_cast<uint32_t>(rq.shift));
}

uint32_t read_u32(std::istream& is) {
  uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("qmodel_io: truncated file");
  return v;
}
double read_f64(std::istream& is) {
  double v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("qmodel_io: truncated file");
  return v;
}
std::vector<int32_t> read_i32v(std::istream& is, size_t expected) {
  const uint32_t n = read_u32(is);
  if (n != expected) throw std::runtime_error("qmodel_io: i32 size");
  std::vector<int32_t> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(int32_t)));
  if (!is) throw std::runtime_error("qmodel_io: truncated i32v");
  return v;
}
std::vector<float> read_f32v(std::istream& is, size_t expected) {
  const uint32_t n = read_u32(is);
  if (n != expected) throw std::runtime_error("qmodel_io: f32 size");
  std::vector<float> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  if (!is) throw std::runtime_error("qmodel_io: truncated f32v");
  return v;
}
tensor::MatrixI8 read_mat8(std::istream& is, size_t rows, size_t cols) {
  const uint32_t r = read_u32(is);
  const uint32_t c = read_u32(is);
  if (r != rows || c != cols) {
    throw std::runtime_error("qmodel_io: matrix shape mismatch");
  }
  tensor::MatrixI8 m(rows, cols);
  is.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size()));
  if (!is) throw std::runtime_error("qmodel_io: truncated matrix");
  return m;
}
numeric::RequantParams read_rq(std::istream& is) {
  numeric::RequantParams rq;
  rq.multiplier = static_cast<int32_t>(read_u32(is));
  rq.shift = static_cast<int>(read_u32(is));
  return rq;
}

void write_scales(std::ostream& os, const LayerScales& s) {
  for (double v : {s.x, s.q, s.k, s.v, s.logit, s.attn_w, s.sv, s.proj,
                   s.ln1, s.hidden, s.ffn_out, s.ln2}) {
    write_f64(os, v);
  }
}
LayerScales read_scales(std::istream& is) {
  LayerScales s;
  s.x = read_f64(is);
  s.q = read_f64(is);
  s.k = read_f64(is);
  s.v = read_f64(is);
  s.logit = read_f64(is);
  s.attn_w = read_f64(is);
  s.sv = read_f64(is);
  s.proj = read_f64(is);
  s.ln1 = read_f64(is);
  s.hidden = read_f64(is);
  s.ffn_out = read_f64(is);
  s.ln2 = read_f64(is);
  return s;
}

}  // namespace

void save_quantized_model(const QuantizedModel& model,
                          const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_quantized_model: open " + path);
  os.write(kMagic, sizeof(kMagic));
  const ref::ModelConfig& c = model.config;
  write_u32(os, c.seq_len);
  write_u32(os, c.d_model);
  write_u32(os, c.num_heads);
  write_u32(os, c.num_layers);
  write_u32(os, c.ffn_hidden());
  write_u32(os, c.activation == ref::Activation::kGelu ? 1u : 0u);
  write_u32(os, c.attn_scale == ref::AttnScale::kInvDModel ? 1u : 0u);

  for (const QLayer& l : model.layers) {
    for (const auto& h : l.heads) {
      write_mat8(os, h.wqt);
      write_mat8(os, h.wkt);
      write_mat8(os, h.wvt);
      write_i32v(os, h.bq);
      write_i32v(os, h.bk);
      write_i32v(os, h.bv);
    }
    write_mat8(os, l.wo);
    write_i32v(os, l.bo);
    write_mat8(os, l.w1);
    write_i32v(os, l.b1);
    write_mat8(os, l.w2);
    write_i32v(os, l.b2);
    write_f32v(os, l.ln1_gamma);
    write_f32v(os, l.ln1_beta);
    write_f32v(os, l.ln2_gamma);
    write_f32v(os, l.ln2_beta);
    write_scales(os, l.scales);
    write_f64(os, l.s_wq);
    write_f64(os, l.s_wk);
    write_f64(os, l.s_wv);
    write_f64(os, l.s_wo);
    write_f64(os, l.s_w1);
    write_f64(os, l.s_w2);
    for (const auto* rq :
         {&l.rq_q, &l.rq_k, &l.rq_v, &l.rq_logit, &l.rq_sv, &l.rq_proj,
          &l.rq_hidden, &l.rq_ffn_out}) {
      write_rq(os, *rq);
    }
  }
  if (!os) throw std::runtime_error("save_quantized_model: write failure");
}

QuantizedModel load_quantized_model(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_quantized_model: open " + path);
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_quantized_model: bad magic");
  }
  ref::ModelConfig c;
  c.name = path;
  c.seq_len = read_u32(is);
  c.d_model = read_u32(is);
  c.num_heads = read_u32(is);
  c.num_layers = read_u32(is);
  c.ffn_dim = read_u32(is);
  c.activation = read_u32(is) != 0 ? ref::Activation::kGelu
                                   : ref::Activation::kRelu;
  c.attn_scale = read_u32(is) != 0 ? ref::AttnScale::kInvDModel
                                   : ref::AttnScale::kInvSqrtDk;
  c.validate();

  QuantizedModel model;
  model.config = c;
  model.layers.resize(c.num_layers);
  const size_t d = c.d_model;
  const size_t dk = c.head_dim();
  const size_t f = c.ffn_hidden();
  for (QLayer& l : model.layers) {
    l.heads.resize(c.num_heads);
    for (auto& h : l.heads) {
      h.wqt = tensor::PackedWeightI8::from_bt(read_mat8(is, dk, d));
      h.wkt = tensor::PackedWeightI8::from_bt(read_mat8(is, dk, d));
      h.wvt = tensor::PackedWeightI8::from_bt(read_mat8(is, dk, d));
      h.bq = read_i32v(is, dk);
      h.bk = read_i32v(is, dk);
      h.bv = read_i32v(is, dk);
    }
    l.wo = tensor::PackedWeightI8::from_b(read_mat8(is, d, d));
    l.bo = read_i32v(is, d);
    l.w1 = tensor::PackedWeightI8::from_b(read_mat8(is, d, f));
    l.b1 = read_i32v(is, f);
    l.w2 = tensor::PackedWeightI8::from_b(read_mat8(is, f, d));
    l.b2 = read_i32v(is, d);
    l.ln1_gamma = read_f32v(is, d);
    l.ln1_beta = read_f32v(is, d);
    l.ln2_gamma = read_f32v(is, d);
    l.ln2_beta = read_f32v(is, d);
    l.scales = read_scales(is);
    l.s_wq = read_f64(is);
    l.s_wk = read_f64(is);
    l.s_wv = read_f64(is);
    l.s_wo = read_f64(is);
    l.s_w1 = read_f64(is);
    l.s_w2 = read_f64(is);
    for (auto* rq : {&l.rq_q, &l.rq_k, &l.rq_v, &l.rq_logit, &l.rq_sv,
                     &l.rq_proj, &l.rq_hidden, &l.rq_ffn_out}) {
      *rq = read_rq(is);
    }
  }
  return model;
}

}  // namespace protea::accel
