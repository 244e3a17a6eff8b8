#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "matrix_helpers.hpp"
#include "nn/gat_layer.hpp"
#include "nn/sage_layer.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn {
namespace {

using nn::BipartiteCsr;

/// 3 destination nodes, 5 source rows (3 inner + 2 halo).
BipartiteCsr small_adj() {
  BipartiteCsr adj;
  adj.n_dst = 3;
  adj.n_src = 5;
  adj.offsets = {0, 2, 4, 6};
  adj.nbrs = {1, 3, 0, 4, 1, 2};
  adj.validate();
  return adj;
}

std::vector<float> full_inv_deg(const BipartiteCsr& adj) {
  std::vector<float> inv(static_cast<std::size_t>(adj.n_dst));
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto d = adj.degree(v);
    inv[static_cast<std::size_t>(v)] = d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
  }
  return inv;
}

TEST(BipartiteCsr, ValidateCatchesBadNeighbors) {
  BipartiteCsr adj;
  adj.n_dst = 1;
  adj.n_src = 2;
  adj.offsets = {0, 1};
  adj.nbrs = {5}; // out of range
  EXPECT_THROW(adj.validate(), CheckError);
}

TEST(MeanAggregate, HandComputed) {
  const auto adj = small_adj();
  Matrix src(5, 2);
  for (NodeId u = 0; u < 5; ++u) {
    src.at(u, 0) = static_cast<float>(u);
    src.at(u, 1) = static_cast<float>(10 * u);
  }
  Matrix out;
  const auto inv = full_inv_deg(adj);
  nn::mean_aggregate(adj, src, inv, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);   // (1+3)/2
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);   // (0+4)/2
  EXPECT_FLOAT_EQ(out.at(2, 1), 15.0f);  // (10+20)/2
}

TEST(MeanAggregate, ZeroDegreeRowsStayZero) {
  BipartiteCsr adj;
  adj.n_dst = 2;
  adj.n_src = 2;
  adj.offsets = {0, 0, 1};
  adj.nbrs = {0};
  Matrix src(2, 3, 5.0f);
  Matrix out;
  std::vector<float> inv{0.0f, 1.0f};
  nn::mean_aggregate(adj, src, inv, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);
}

TEST(MeanAggregate, BackwardMatchesForwardLinearity) {
  // Aggregation is linear: FD check via directional derivative.
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(1);
  Matrix src(5, 4), dir(5, 4), dout(3, 4);
  src.randomize_gaussian(rng, 1.0f);
  dir.randomize_gaussian(rng, 1.0f);
  dout.randomize_gaussian(rng, 1.0f);

  Matrix out0;
  nn::mean_aggregate(adj, src, inv, out0);
  Matrix src_eps = src;
  ops::axpy(1e-3f, dir, src_eps);
  Matrix out1;
  nn::mean_aggregate(adj, src_eps, inv, out1);

  double fd = 0.0;
  for (std::int64_t i = 0; i < out0.size(); ++i)
    fd += (out1.data()[i] - out0.data()[i]) / 1e-3 * dout.data()[i];

  // The inner (sources < 3) and halo (sources >= 3) halves of the scatter
  // together cover every source row.
  constexpr NodeId kLo = 3;
  Matrix dinner(kLo, 4), dhalo(5 - kLo, 4);
  nn::mean_aggregate_backward_inner(adj, dout, inv, kLo, dinner);
  nn::mean_aggregate_backward_halo(adj, dout, inv, kLo, dhalo);
  double analytic = 0.0;
  for (std::int64_t i = 0; i < dinner.size(); ++i)
    analytic += static_cast<double>(dinner.data()[i]) * dir.data()[i];
  for (std::int64_t i = 0; i < dhalo.size(); ++i)
    analytic += static_cast<double>(dhalo.data()[i]) *
                dir.data()[dinner.size() + i];
  EXPECT_NEAR(fd, analytic, 1e-2 * std::abs(analytic) + 1e-3);
}

/// Finite-difference gradient check of a layer: perturbs every entry of
/// every parameter and of the input features, comparing against the
/// analytic backward. Activation must be smooth at the sampled point, so
/// ReLU is disabled for the checked layers.
void check_layer_gradients(nn::Layer& layer, const BipartiteCsr& adj,
                           std::span<const float> inv_deg, Matrix feats,
                           float tol) {
  Rng rng(99);
  Matrix r(adj.n_dst, layer.d_out());
  r.randomize_gaussian(rng, 1.0f);

  const auto loss = [&](const Matrix& f) -> double {
    Matrix out =
        layer.forward(adj, f, inv_deg, /*training=*/false);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out.data()[i]) * r.data()[i];
    return acc;
  };

  // Analytic gradients.
  (void)loss(feats); // populate caches
  layer.zero_grads();
  const Matrix dfeats = layer.backward(adj, r, inv_deg);

  constexpr float kEps = 1e-2f;
  // Check input gradient on a sample of entries.
  for (std::int64_t i = 0; i < feats.size(); i += 3) {
    const float saved = feats.data()[i];
    feats.data()[i] = saved + kEps;
    const double up = loss(feats);
    feats.data()[i] = saved - kEps;
    const double down = loss(feats);
    feats.data()[i] = saved;
    const double fd = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(dfeats.data()[i], fd,
                tol * std::max(1.0, std::abs(fd)))
        << "dfeats entry " << i;
  }
  // Check parameter gradients on a sample of entries.
  auto params = layer.params();
  auto grads = layer.grads();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Matrix& p = *params[pi];
    const Matrix& g = *grads[pi];
    for (std::int64_t i = 0; i < p.size(); i += 5) {
      const float saved = p.data()[i];
      p.data()[i] = saved + kEps;
      const double up = loss(feats);
      p.data()[i] = saved - kEps;
      const double down = loss(feats);
      p.data()[i] = saved;
      const double fd = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(g.data()[i], fd, tol * std::max(1.0, std::abs(fd)))
          << "param " << pi << " entry " << i;
    }
  }
}

TEST(SageLayer, GradientsMatchFiniteDifference) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(7);
  nn::SageLayer layer(4, 3, {.relu = false, .dropout = 0.0f}, rng);
  Matrix feats(5, 4);
  feats.randomize_gaussian(rng, 1.0f);
  check_layer_gradients(layer, adj, inv, std::move(feats), 2e-2f);
}

TEST(SageLayer, ReluClampsNegative) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(8);
  nn::SageLayer layer(2, 4, {.relu = true, .dropout = 0.0f}, rng);
  Matrix feats(5, 2);
  feats.randomize_gaussian(rng, 1.0f);
  const Matrix out = layer.forward(adj, feats, inv, false);
  for (const float v : out.flat()) EXPECT_GE(v, 0.0f);
}

TEST(SageLayer, DropoutOnlyInTraining) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(9);
  nn::SageLayer layer(2, 4, {.relu = false, .dropout = 0.5f}, rng);
  Matrix feats(5, 2);
  feats.randomize_gaussian(rng, 1.0f);
  const Matrix eval1 = layer.forward(adj, feats, inv, false);
  const Matrix eval2 = layer.forward(adj, feats, inv, false);
  EXPECT_LT(ops::max_abs_diff(eval1, eval2), 1e-7f); // eval is deterministic
  const Matrix train1 = layer.forward(adj, feats, inv, true);
  EXPECT_GT(ops::max_abs_diff(eval1, train1), 1e-4f); // dropout applied
}

TEST(SageLayer, ParamsShapes) {
  Rng rng(10);
  nn::SageLayer layer(8, 16, {}, rng);
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->rows(), 16); // concat doubles the input dim
  EXPECT_EQ(params[0]->cols(), 16);
  EXPECT_EQ(params[1]->rows(), 1);
  EXPECT_EQ(layer.num_params(), 16 * 16 + 16);
}

TEST(GatLayer, GradientsMatchFiniteDifference) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(11);
  nn::GatLayer layer(3, 4,
                     {.heads = 1, .relu = false, .dropout = 0.0f}, rng);
  Matrix feats(5, 3);
  feats.randomize_gaussian(rng, 0.8f);
  check_layer_gradients(layer, adj, inv, std::move(feats), 4e-2f);
}

TEST(GatLayer, MultiHeadGradients) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(12);
  nn::GatLayer layer(3, 6,
                     {.heads = 2, .relu = false, .dropout = 0.0f}, rng);
  Matrix feats(5, 3);
  feats.randomize_gaussian(rng, 0.8f);
  check_layer_gradients(layer, adj, inv, std::move(feats), 4e-2f);
}

TEST(GatLayer, AttentionIsNormalized) {
  // With identical source rows, attention output equals W·h regardless of
  // neighborhood size (softmax weights sum to 1).
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(13);
  nn::GatLayer layer(2, 2, {.heads = 1, .relu = false}, rng);
  Matrix feats(5, 2);
  for (NodeId u = 0; u < 5; ++u) {
    feats.at(u, 0) = 1.0f;
    feats.at(u, 1) = -0.5f;
  }
  const Matrix out = layer.forward(adj, feats, inv, false);
  // All destinations see identical inputs → identical outputs.
  for (std::int64_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(out.at(0, c), out.at(1, c), 1e-5f);
    EXPECT_NEAR(out.at(1, c), out.at(2, c), 1e-5f);
  }
}

TEST(GatLayer, RejectsIndivisibleHeads) {
  Rng rng(14);
  EXPECT_THROW(nn::GatLayer(3, 5, {.heads = 2}, rng), CheckError);
}

/// Every trainer runs only B0 and B3 for layer 0, whose input gradients
/// feed nothing: the parameter gradients must be the bits the full backward
/// accumulates, dropout and activation masks included.
template <class LayerT>
void expect_params_only_backward_matches(
    const typename LayerT::Options& opts) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng_full(21), rng_params(21);
  LayerT full(4, 6, opts, rng_full);
  LayerT params_only(4, 6, opts, rng_params);
  Rng data_rng(22);
  Matrix feats(5, 4), dout(3, 6);
  feats.randomize_gaussian(data_rng, 1.0f);
  dout.randomize_gaussian(data_rng, 1.0f);
  (void)full.forward(adj, feats, inv, /*training=*/true);
  (void)params_only.forward(adj, feats, inv, /*training=*/true);

  full.zero_grads();
  params_only.zero_grads();
  (void)full.backward(adj, dout, inv);
  params_only.backward_begin(adj, dout);
  params_only.backward_params(adj);

  const auto expect = full.grads();
  const auto got = params_only.grads();
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i]->size(), got[i]->size());
    EXPECT_GT(test_helpers::frobenius_norm_sq(*expect[i]), 0.0)
        << "grad " << i;
    EXPECT_EQ(std::memcmp(expect[i]->data(), got[i]->data(),
                          static_cast<std::size_t>(expect[i]->bytes())),
              0)
        << "grad " << i;
  }
}

TEST(Layers, ParamsOnlyBackwardMatchesFullBackward) {
  expect_params_only_backward_matches<nn::SageLayer>(
      {.relu = true, .dropout = 0.5f});
  expect_params_only_backward_matches<nn::GatLayer>(
      {.heads = 2, .relu = true, .dropout = 0.5f});
}

TEST(FlattenGrads, RoundTrip) {
  Rng rng(15);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(
      std::make_unique<nn::SageLayer>(4, 3, nn::SageLayer::Options{}, rng));
  layers.push_back(
      std::make_unique<nn::SageLayer>(3, 2, nn::SageLayer::Options{}, rng));
  // Fill gradients with recognizable values.
  float fill = 1.0f;
  for (auto& l : layers)
    for (Matrix* g : l->grads()) {
      g->fill(fill);
      fill += 1.0f;
    }
  auto flat = nn::flatten_grads(layers);
  const std::size_t expect_size = static_cast<std::size_t>(
      (8 * 3 + 3) + (6 * 2 + 2));
  ASSERT_EQ(flat.size(), expect_size);
  // Scale and write back.
  for (auto& v : flat) v *= 2.0f;
  nn::apply_flat_grads(flat, layers);
  EXPECT_FLOAT_EQ(layers[0]->grads()[0]->at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(layers[1]->grads()[1]->at(0, 0), 8.0f);
}

} // namespace
} // namespace bnsgcn
