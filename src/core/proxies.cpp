#include "core/proxies.hpp"

#include <stdexcept>
#include <string>

#include "common/stopwatch.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn::core {

TrainResult run_roc_proxy(const Dataset& ds, const Partitioning& part,
                          TrainerConfig cfg) {
  cfg.sample_rate = 1.0f;
  cfg.variant = SamplingVariant::kBns;
  cfg.simulate_host_swap = true;
  BnsTrainer trainer(ds, part, cfg);
  return trainer.train();
}

namespace {

using comm::TrafficClass;

/// Per-rank state for the broadcast trainer.
struct BcastRank {
  std::vector<NodeId> inner; // global ids (sorted)
  nn::BipartiteCsr adj;      // rows = inner nodes, sources = every node,
                             // inner nodes first (src_row order)
  std::vector<float> inv_deg;
  Matrix x_local;
  std::vector<int> labels;          // full global labels (shared copy)
  std::vector<NodeId> train_rows;   // global ids of local train nodes
};

} // namespace

TrainResult run_cagnet_proxy(const Dataset& ds, const Partitioning& part,
                             TrainerConfig cfg, int c) {
  BNSGCN_CHECK(c >= 1);
  // The proxy trains the SAGE model without dropout, whatever cfg asks.
  cfg.model = ModelKind::kSage;
  cfg.dropout = 0.0f;
  const PartId m = part.nparts;
  comm::Fabric fabric(m, cfg.cost);
  const auto members = part.members();

  // Mark train membership once.
  std::vector<char> is_train(static_cast<std::size_t>(ds.num_nodes()), 0);
  for (const NodeId v : ds.train_nodes) is_train[static_cast<std::size_t>(v)] = 1;

  TrainResult result;
  result.train_loss.reserve(static_cast<std::size_t>(cfg.epochs));
  // TrainerConfig::overlap is a no-op here by design: every broadcast row
  // feeds every destination's aggregation, so the 1.5D exchange has no
  // halo-free compute to hide it behind (the knob stays safe, not useful).

  Stopwatch wall;
  comm::run_ranks(fabric, [&](PartId r) {
    auto& ep = fabric.endpoint(r);
    BcastRank st;
    st.inner = members[static_cast<std::size_t>(r)];
    const NodeId n_in = static_cast<NodeId>(st.inner.size());

    // Sources are every node, numbered inner-first — the layer contract
    // takes each destination's own row from the first n_dst sources — then
    // the rest in global order. src_row maps a global id to its source row.
    std::vector<NodeId> src_row(static_cast<std::size_t>(ds.num_nodes()), -1);
    for (NodeId i = 0; i < n_in; ++i)
      src_row[static_cast<std::size_t>(st.inner[static_cast<std::size_t>(i)])] =
          i;
    NodeId next_row = n_in;
    for (NodeId& row : src_row)
      if (row < 0) row = next_row++;

    st.adj.n_dst = n_in;
    st.adj.n_src = ds.num_nodes();
    st.adj.offsets.assign(static_cast<std::size_t>(n_in) + 1, 0);
    st.inv_deg.resize(static_cast<std::size_t>(n_in));
    for (NodeId i = 0; i < n_in; ++i) {
      const NodeId v = st.inner[static_cast<std::size_t>(i)];
      st.adj.offsets[static_cast<std::size_t>(i) + 1] =
          st.adj.offsets[static_cast<std::size_t>(i)] +
          ds.graph.degree(v);
      st.inv_deg[static_cast<std::size_t>(i)] =
          ds.graph.degree(v) > 0
              ? 1.0f / static_cast<float>(ds.graph.degree(v))
              : 0.0f;
    }
    st.adj.nbrs.reserve(static_cast<std::size_t>(st.adj.offsets.back()));
    for (const NodeId v : st.inner)
      for (const NodeId u : ds.graph.neighbors(v))
        st.adj.nbrs.push_back(src_row[static_cast<std::size_t>(u)]);

    st.x_local = slice_rows(ds.features, st.inner);
    std::vector<NodeId> train_rows;
    for (NodeId i = 0; i < n_in; ++i)
      if (is_train[static_cast<std::size_t>(
              st.inner[static_cast<std::size_t>(i)])])
        train_rows.push_back(i);
    std::vector<int> labels_local;
    Matrix targets_local;
    if (ds.multilabel) {
      targets_local = slice_rows(ds.multilabels, st.inner);
    } else {
      labels_local.resize(static_cast<std::size_t>(n_in));
      for (NodeId i = 0; i < n_in; ++i)
        labels_local[static_cast<std::size_t>(i)] =
            ds.labels[static_cast<std::size_t>(
                st.inner[static_cast<std::size_t>(i)])];
    }

    // Identical model replicas (same seed).
    auto layers = build_model(cfg, ds.feat_dim(), ds.num_classes, r);
    std::vector<Matrix*> params, grads;
    for (auto& l : layers) {
      for (Matrix* p : l->params()) params.push_back(p);
      for (Matrix* g : l->grads()) grads.push_back(g);
    }
    nn::Adam adam(std::move(params), std::move(grads), {.lr = cfg.lr});

    const float inv_total =
        ds.multilabel
            ? 1.0f / (static_cast<float>(ds.train_nodes.size()) *
                      static_cast<float>(ds.num_classes))
            : 1.0f / static_cast<float>(ds.train_nodes.size());
    int tag = 0;

    /// Broadcast own rows of `local` and assemble the full matrix.
    const auto broadcast_assemble = [&](const Matrix& local) {
      const std::int64_t d = local.cols();
      Matrix full(ds.num_nodes(), d);
      for (PartId j = 0; j < m; ++j) {
        if (j == ep.rank()) continue;
        std::vector<float> payload(local.data(),
                                   local.data() + local.size());
        ep.send_floats(j, tag, std::move(payload),
                       TrafficClass::kBroadcast);
      }
      std::copy(local.data(), local.data() + local.size(), full.data());
      for (PartId j = 0; j < m; ++j) {
        if (j == ep.rank()) continue;
        const auto payload =
            ep.recv_floats(j, tag, TrafficClass::kBroadcast);
        const auto& rows = members[static_cast<std::size_t>(j)];
        BNSGCN_CHECK(payload.size() ==
                     rows.size() * static_cast<std::size_t>(d));
        for (std::size_t t = 0; t < rows.size(); ++t) {
          std::copy(payload.data() + t * static_cast<std::size_t>(d),
                    payload.data() + (t + 1) * static_cast<std::size_t>(d),
                    full.data() +
                        static_cast<std::int64_t>(
                            src_row[static_cast<std::size_t>(rows[t])]) * d);
        }
      }
      ++tag;
      return full;
    };

    /// Reduce-scatter of a full-size gradient matrix: send each peer
    /// the rows it owns; accumulate received contributions into ours.
    const auto reduce_scatter = [&](const Matrix& dfull) {
      const std::int64_t d = dfull.cols();
      for (PartId j = 0; j < m; ++j) {
        if (j == ep.rank()) continue;
        const auto& rows = members[static_cast<std::size_t>(j)];
        std::vector<float> payload(rows.size() *
                                   static_cast<std::size_t>(d));
        for (std::size_t t = 0; t < rows.size(); ++t) {
          const float* s =
              dfull.data() +
              static_cast<std::int64_t>(
                  src_row[static_cast<std::size_t>(rows[t])]) * d;
          std::copy(s, s + d,
                    payload.data() + t * static_cast<std::size_t>(d));
        }
        ep.send_floats(j, tag, std::move(payload),
                       TrafficClass::kBroadcast);
      }
      Matrix dlocal(n_in, d);
      std::copy(dfull.data(), dfull.data() + dlocal.size(), dlocal.data());
      for (PartId j = 0; j < m; ++j) {
        if (j == ep.rank()) continue;
        const auto payload =
            ep.recv_floats(j, tag, TrafficClass::kBroadcast);
        BNSGCN_CHECK(payload.size() ==
                     st.inner.size() * static_cast<std::size_t>(d));
        for (std::size_t t = 0; t < st.inner.size(); ++t) {
          float* dst =
              dlocal.data() + static_cast<std::int64_t>(t) * d;
          const float* src =
              payload.data() + t * static_cast<std::size_t>(d);
          for (std::int64_t k = 0; k < d; ++k) dst[k] += src[k];
        }
      }
      ++tag;
      return dlocal;
    };

    Accumulator comp_acc;
    const comm::RankStats start_stats = ep.stats();
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
      // Test-only fault injection at the trainer's point
      // (TrainerConfig::fail_rank): die before the first broadcast.
      if (epoch == 0 && cfg.fail_rank == r)
        throw std::runtime_error("injected failure: rank " +
                                 std::to_string(r));
      // Forward: broadcast h, aggregate against the full matrix.
      std::vector<Matrix> h(static_cast<std::size_t>(cfg.num_layers) + 1);
      h[0] = st.x_local;
      for (int l = 0; l < cfg.num_layers; ++l) {
        Matrix full = broadcast_assemble(h[static_cast<std::size_t>(l)]);
        ScopedTimer t(comp_acc);
        h[static_cast<std::size_t>(l) + 1] =
            layers[static_cast<std::size_t>(l)]->forward(
                st.adj, full, st.inv_deg, /*training=*/false);
      }
      Matrix dlogits;
      double local_loss = 0.0;
      {
        ScopedTimer t(comp_acc);
        const Matrix& logits = h[static_cast<std::size_t>(cfg.num_layers)];
        if (ds.multilabel) {
          local_loss = nn::sigmoid_bce(logits, targets_local, train_rows,
                                       inv_total, dlogits);
        } else {
          local_loss = nn::softmax_xent(logits, labels_local, train_rows,
                                        inv_total, dlogits);
        }
      }
      for (auto& l : layers) l->zero_grads();
      Matrix grad = std::move(dlogits);
      for (int l = cfg.num_layers - 1; l > 0; --l) {
        Matrix dfull;
        {
          ScopedTimer t(comp_acc);
          dfull = layers[static_cast<std::size_t>(l)]->backward(
              st.adj, grad, st.inv_deg);
        }
        grad = reduce_scatter(dfull);
      }
      {
        // Layer 0's input gradients feed nothing: B0 and B3 only.
        ScopedTimer t(comp_acc);
        layers[0]->backward_begin(st.adj, grad);
        layers[0]->backward_params(st.adj);
      }
      auto flat = nn::flatten_grads(layers);
      ep.allreduce_sum(flat, TrafficClass::kGradient);
      nn::apply_flat_grads(flat, layers);
      {
        ScopedTimer t(comp_acc);
        adam.step();
      }
      // Global mean loss (same convention as BnsTrainer: computed from
      // this epoch's forward, before the update). Only rank 0 appends,
      // after the join-free collective has synchronized every rank.
      const double loss_total = ep.allreduce_sum_scalar(local_loss);
      if (r == 0) result.train_loss.push_back(loss_total);
    }
    const comm::RankStats delta = ep.stats() - start_stats;
    EpochBreakdown local;
    local.compute_s = comp_acc.seconds() / cfg.epochs;
    // The c-plane broadcast divides serialized transfer time by c.
    local.comm_s = delta.sim_seconds(TrafficClass::kBroadcast, cfg.cost) /
                   (static_cast<double>(c) * cfg.epochs);
    local.reduce_s =
        delta.sim_seconds(TrafficClass::kGradient, cfg.cost) / cfg.epochs;
    local.feature_bytes =
        delta.rx_bytes[static_cast<int>(TrafficClass::kBroadcast)] /
        cfg.epochs;
    const EpochBreakdown eb = reduce_breakdown(ep, local);
    if (r == 0) result.epochs.assign(static_cast<std::size_t>(cfg.epochs), eb);
  });
  result.wall_time_s = wall.elapsed_s();
  return result;
}

} // namespace bnsgcn::core
