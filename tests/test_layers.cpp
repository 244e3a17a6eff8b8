#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>

#include "common/thread_pool.hpp"
#include "core/local_graph.hpp"
#include "graph/generators.hpp"
#include "matrix_helpers.hpp"
#include "nn/gat_layer.hpp"
#include "nn/sage_layer.hpp"
#include "partition/partitioning.hpp"
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
  test_helpers::axpy(1e-3f, dir, src_eps);
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
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params[0]->rows(), 8); // W_neigh
  EXPECT_EQ(params[0]->cols(), 16);
  EXPECT_EQ(params[1]->rows(), 8); // W_self
  EXPECT_EQ(params[1]->cols(), 16);
  EXPECT_EQ(params[2]->rows(), 1); // b
  EXPECT_EQ(params[2]->cols(), 16);
  // As many as the concatenated (2 * 8) x 16 weight and its bias.
  EXPECT_EQ(layer.num_params(), 16 * 16 + 16);
}

void expect_same_bits(const float* got, const float* want, std::int64_t n,
                      const char* what) {
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " differs at flat index " << i << ": " << got[i]
        << " vs " << want[i];
}

void expect_same_bits(const Matrix& got, const Matrix& want,
                      const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  expect_same_bits(got.data(), want.data(), got.size(), what);
}

/// SAGE as formulated over one (2 d_in) x d_out weight W = [W_neigh;
/// W_self] and the concatenation [z | self]: glorot_init of W after the
/// dropout seed; forward self·W_self + b, then += z·W_neigh, through
/// staging copies of the halves; B1 one gemm_nt against W, split into dz
/// and dself; B2 the scatter onto dself; B3 one gemm_tn of [z | self]
/// into dW. Built from the public kernels, in the order the layer ran
/// them when it held W whole.
struct ConcatSage {
  std::int64_t d_in, d_out;
  float dropout;
  Rng dropout_rng;
  Matrix w, b, dw, db;

  ConcatSage(std::int64_t in, std::int64_t out, float p, Rng& rng)
      : d_in(in), d_out(out), dropout(p), dropout_rng(rng.next_u64()),
        w(2 * in, out), b(1, out), dw(2 * in, out), db(1, out) {
    ops::glorot_init(w, rng);
  }

  [[nodiscard]] Matrix half(const Matrix& m, std::int64_t which) const {
    Matrix h(d_in, m.cols());
    std::copy(m.data() + which * d_in * m.cols(),
              m.data() + (which + 1) * d_in * m.cols(), h.data());
    return h;
  }

  /// One training step; returns (output, [dinner; dhalo]).
  std::pair<Matrix, Matrix> step(const BipartiteCsr& adj,
                                 std::span<const float> inv,
                                 const Matrix& feats, const Matrix& dout) {
    const NodeId n = adj.n_dst;
    Matrix self(n, d_in);
    std::copy(feats.data(), feats.data() + n * d_in, self.data());
    // z: F1, the halo folds in their own buffer, the sum, the finish.
    Matrix z(n, d_in), zh(n, d_in);
    nn::mean_aggregate_inner_rows(adj, self, 0, n, z);
    nn::HaloIncidence inc;
    inc.build(adj, n);
    std::vector<NodeId> slots(static_cast<std::size_t>(inc.n_halo));
    std::iota(slots.begin(), slots.end(), NodeId{0});
    nn::mean_aggregate_halo_fold(
        inc, slots,
        {feats.data() + n * d_in, static_cast<std::size_t>(inc.n_halo * d_in)},
        d_in, zh);
    for (std::int64_t i = 0; i < z.size(); ++i) z.data()[i] += zh.data()[i];
    nn::mean_aggregate_finish(inv, z);

    Matrix out(n, d_out), relu_mask, drop_mask;
    ops::gemm_nn_rows(self, half(w, 1), out, 0, n);
    ops::add_row_bias_rows(out, b, 0, n);
    ops::gemm_nn(z, half(w, 0), out, 1.0f);
    ops::relu_forward(out, relu_mask);
    ops::dropout_forward(out, drop_mask, dropout, dropout_rng);

    Matrix g = dout;
    ops::dropout_backward(g, drop_mask);
    ops::relu_backward(g, relu_mask);
    Matrix du(n, 2 * d_in), dz(n, d_in), dinner(n, d_in);
    ops::gemm_nt(g, w, du);
    for (NodeId v = 0; v < n; ++v)
      for (std::int64_t c = 0; c < d_in; ++c) {
        dz.at(v, c) = du.at(v, c);
        dinner.at(v, c) = du.at(v, d_in + c);
      }
    Matrix dhalo(adj.n_src - n, d_in);
    nn::mean_aggregate_backward_halo(adj, dz, inv, n, dhalo);
    BipartiteCsr scatter_adj = adj;
    scatter_adj.inner_symmetric = false;
    nn::mean_aggregate_backward_inner(scatter_adj, dz, inv, n, dinner);

    Matrix u(n, 2 * d_in);
    for (NodeId v = 0; v < n; ++v)
      for (std::int64_t c = 0; c < d_in; ++c) {
        u.at(v, c) = z.at(v, c);
        u.at(v, d_in + c) = self.at(v, c);
      }
    ops::gemm_tn(u, g, dw, 1.0f);
    ops::col_sum(g, db);

    Matrix dfeats(adj.n_src, d_in);
    std::copy(dinner.data(), dinner.data() + dinner.size(), dfeats.data());
    std::copy(dhalo.data(), dhalo.data() + dhalo.size(),
              dfeats.data() + dinner.size());
    return {std::move(out), std::move(dfeats)};
  }
};

TEST(SageLayer, TwoBlocksMatchTheConcatFormulation) {
  // A partition of a symmetric random graph: inner rows with halo
  // sources, a flagged inner block (so the layer's B2 gathers while the
  // reference scatters), ragged widths, and two training steps so the
  // gradients accumulate. Every value is compared bit for bit.
  Rng graph_rng(61);
  const Csr g = gen::erdos_renyi(320, 2600, graph_rng);
  const auto part = random_partition(g.n, 2, graph_rng);
  const auto lgs = core::build_local_graphs(g, part);
  const BipartiteCsr& adj = lgs[0].adj;
  ASSERT_TRUE(adj.inner_symmetric);
  ASSERT_GT(adj.n_src, adj.n_dst);
  const std::span<const float> inv = lgs[0].inv_full_degree;
  for (const int lanes : {1, 3}) {
    for (const auto& [d_in, d_out] :
         {std::pair<std::int64_t, std::int64_t>{37, 19}, {70, 130}}) {
      SCOPED_TRACE(::testing::Message() << lanes << " lanes, " << d_in
                                        << " -> " << d_out);
      common::set_ops_threads(lanes);
      Rng rng(62), ref_rng(62);
      nn::SageLayer layer(d_in, d_out, {.relu = true, .dropout = 0.3f}, rng);
      ConcatSage ref(d_in, d_out, 0.3f, ref_rng);
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << "draws consumed";
      const auto params = layer.params();
      ASSERT_EQ(params.size(), 3u);
      expect_same_bits(*params[0], ref.half(ref.w, 0), "initial W_neigh");
      expect_same_bits(*params[1], ref.half(ref.w, 1), "initial W_self");
      expect_same_bits(*params[2], ref.b, "initial b");
      Rng data_rng(63);
      for (int step = 0; step < 2; ++step) {
        Matrix feats(adj.n_src, d_in), dout(adj.n_dst, d_out);
        feats.randomize_gaussian(data_rng, 1.0f);
        dout.randomize_gaussian(data_rng, 1.0f);
        const Matrix out = layer.forward(adj, feats, inv, /*training=*/true);
        const Matrix dfeats = layer.backward(adj, dout, inv);
        const auto [want_out, want_dfeats] = ref.step(adj, inv, feats, dout);
        expect_same_bits(out, want_out, "forward output");
        expect_same_bits(dfeats, want_dfeats, "[dinner; dhalo]");
        const auto grads = layer.grads();
        expect_same_bits(*grads[0], ref.half(ref.dw, 0), "dW_neigh");
        expect_same_bits(*grads[1], ref.half(ref.dw, 1), "dW_self");
        expect_same_bits(*grads[2], ref.db, "db");
      }
      common::set_ops_threads(1);
    }
  }
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

/// A destination block of 40 rows over 30 halo slots owned by three peers
/// whose slots interleave (slot s belongs to peer s % 3), with arcs to
/// inner and halo sources and some isolated rows.
BipartiteCsr interleaved_halo_adj(Rng& rng) {
  BipartiteCsr adj;
  adj.n_dst = 40;
  adj.n_src = 70;
  adj.offsets.push_back(0);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto deg = static_cast<NodeId>(rng.next_u64() % 13);
    for (NodeId e = 0; e < deg; ++e)
      adj.nbrs.push_back(static_cast<NodeId>(rng.next_u64() % 70));
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  adj.validate();
  return adj;
}

/// A 140-wide layer's inputs, and its phases run with the first `peers` of
/// three peers folded in ascending order: peer 0 between two inner chunks,
/// the others after them. Inner rows come from `inner`; halo slot s comes
/// from peer s % 3 when `interleaved`, else from the peer whose third of
/// the slots holds s.
struct PeerFolds {
  BipartiteCsr adj;
  std::vector<float> inv;
  Matrix feats, inner, dout;
  nn::HaloIncidence inc;
  std::vector<std::vector<NodeId>> peer_slots;
  std::vector<std::vector<float>> peer_rows;

  explicit PeerFolds(bool interleaved) {
    Rng graph_rng(31);
    adj = interleaved_halo_adj(graph_rng);
    inv = full_inv_deg(adj);
    feats = Matrix(adj.n_src, 33);
    dout = Matrix(adj.n_dst, 140);
    feats.randomize_gaussian(graph_rng, 1.0f);
    dout.randomize_gaussian(graph_rng, 1.0f);
    peer_slots.resize(3);
    peer_rows.resize(3);
    const NodeId n_halo = adj.n_src - adj.n_dst;
    for (NodeId s = 0; s < n_halo; ++s) {
      const auto peer =
          static_cast<std::size_t>(interleaved ? s % 3 : 3 * s / n_halo);
      peer_slots[peer].push_back(s);
      const auto row = feats.row(adj.n_dst + s);
      auto& rows = peer_rows[peer];
      rows.insert(rows.end(), row.begin(), row.end());
    }
    inner = Matrix(adj.n_dst, feats.cols());
    std::copy(feats.data(), feats.data() + inner.size(), inner.data());
    inc.build(adj, adj.n_dst);
  }

  Matrix phased_forward(nn::Layer& layer, bool training, int peers) const {
    layer.forward_inner_begin(adj, inner, training);
    layer.forward_halo_begin(adj, inc);
    layer.forward_inner_chunk(adj, 0, 17);
    layer.forward_halo_fold(adj, peer_slots[0], peer_rows[0]);
    layer.forward_inner_chunk(adj, 17, adj.n_dst);
    for (int p = 1; p < peers; ++p)
      layer.forward_halo_fold(adj, peer_slots[static_cast<std::size_t>(p)],
                              peer_rows[static_cast<std::size_t>(p)]);
    return layer.forward_halo_finish(adj, inv);
  }
};

/// The phased forward with peer folds between and after the inner chunks —
/// in inference reading the caller's inner block in place — must give the
/// bits of Layer::forward, which folds the halo as one contiguous slab of
/// slots 0…n_halo−1; in training so must the input and weight gradients.
/// Two rounds, so the second runs on the first one's buffers.
template <class LayerT>
void expect_peer_folds_match_one_slab(const typename LayerT::Options& opts,
                                      bool interleaved) {
  const PeerFolds t(interleaved);
  for (const bool training : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "training " << training);
    Rng rng_ref(32), rng_phased(32);
    LayerT ref(33, 140, opts, rng_ref);
    LayerT phased(33, 140, opts, rng_phased);
    ref.set_inference(!training);
    phased.set_inference(!training);
    for (int round = 0; round < 2; ++round) {
      const Matrix want = ref.forward(t.adj, t.feats, t.inv, training);
      const Matrix got = t.phased_forward(phased, training, 3);
      expect_same_bits(got, want, "forward");
      if (!training) continue;
      ref.zero_grads();
      phased.zero_grads();
      expect_same_bits(phased.backward(t.adj, t.dout, t.inv),
                       ref.backward(t.adj, t.dout, t.inv), "input gradients");
      const auto want_g = ref.grads();
      const auto got_g = phased.grads();
      for (std::size_t i = 0; i < want_g.size(); ++i)
        expect_same_bits(*got_g[i], *want_g[i], "weight gradients");
    }
  }
}

TEST(GatLayer, InterleavedPeerFoldsMatchOneContiguousSlab) {
  // GAT folds each peer's slab straight into wh through its slot map, so
  // the peers' slots may interleave; d_head = 70 runs full and tail column
  // tiles. SAGE sums a destination's halo terms in fold order, so only a
  // split of the slots into ascending thirds gives the one-slab bits (every
  // schedule folds in the same peer order, so the trainer's parity holds
  // for any split).
  const nn::GatLayer::Options gat{.heads = 2, .relu = true, .dropout = 0.3f};
  {
    SCOPED_TRACE("GAT");
    expect_peer_folds_match_one_slab<nn::GatLayer>(gat, /*interleaved=*/true);
  }
  {
    SCOPED_TRACE("SAGE");
    expect_peer_folds_match_one_slab<nn::SageLayer>(
        {.relu = true, .dropout = 0.3f}, /*interleaved=*/false);
  }

  if constexpr (kCheckedBuild) {
    // Peer 2's slots never fold: GAT's finish must refuse to read their
    // rows of wh, left from no fold.
    const PeerFolds t(/*interleaved=*/true);
    for (const bool training : {false, true}) {
      Rng rng(33);
      nn::GatLayer layer(33, 140, gat, rng);
      layer.set_inference(!training);
      EXPECT_THROW((void)t.phased_forward(layer, training, 2), CheckError);
    }
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
  // Number every gradient element by its flat position in the layout of a
  // layer holding [W, b], W the (2 d_in) x d_out concatenated weight:
  // W_neigh's rows are W's first d_in rows, W_self's the next d_in.
  float next = 0.0f;
  for (auto& l : layers) {
    const auto grads = l->grads();
    ASSERT_EQ(grads.size(), 3u);
    Matrix w(2 * l->d_in(), l->d_out()), b(1, l->d_out());
    for (float& v : w.flat()) v = next++;
    for (float& v : b.flat()) v = next++;
    std::copy(w.data(), w.data() + grads[0]->size(), grads[0]->data());
    std::copy(w.data() + grads[0]->size(), w.data() + w.size(),
              grads[1]->data());
    *grads[2] = b;
  }
  auto flat = nn::flatten_grads(layers);
  const std::size_t expect_size = static_cast<std::size_t>(
      (8 * 3 + 3) + (6 * 2 + 2));
  ASSERT_EQ(flat.size(), expect_size);
  for (std::size_t i = 0; i < flat.size(); ++i)
    ASSERT_EQ(flat[i], static_cast<float>(i)) << "flat index " << i;
  // Scale and write back.
  for (auto& v : flat) v *= 2.0f;
  nn::apply_flat_grads(flat, layers);
  EXPECT_FLOAT_EQ(layers[0]->grads()[0]->at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(layers[0]->grads()[1]->at(0, 0), 2.0f * 12.0f);
  EXPECT_FLOAT_EQ(layers[1]->grads()[2]->at(0, 1), 2.0f * 40.0f);
}

} // namespace
} // namespace bnsgcn
