#include "baselines/minibatch.hpp"

#include "common/stopwatch.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn::baselines {

FullGraphContext make_full_context(const Csr& g) {
  FullGraphContext ctx;
  ctx.adj.n_dst = g.n;
  ctx.adj.n_src = g.n;
  ctx.adj.offsets = g.offsets;
  ctx.adj.nbrs = g.nbrs;
  ctx.inv_deg.resize(static_cast<std::size_t>(g.n));
  for (NodeId v = 0; v < g.n; ++v) {
    ctx.inv_deg[static_cast<std::size_t>(v)] =
        g.degree(v) > 0 ? 1.0f / static_cast<float>(g.degree(v)) : 0.0f;
  }
  return ctx;
}

std::pair<double, double> evaluate_full(
    const Dataset& ds, const FullGraphContext& ctx,
    std::vector<std::unique_ptr<nn::Layer>>& layers) {
  Matrix h = ds.features;
  for (auto& layer : layers)
    h = layer->forward(ctx.adj, h, ctx.inv_deg, /*training=*/false);
  if (ds.multilabel) {
    const auto v = nn::f1_counts(h, ds.multilabels, ds.val_nodes);
    const auto t = nn::f1_counts(h, ds.multilabels, ds.test_nodes);
    return {v.micro_f1(), t.micro_f1()};
  }
  const auto [vc, vt] = nn::accuracy_counts(h, ds.labels, ds.val_nodes);
  const auto [tc, tt] = nn::accuracy_counts(h, ds.labels, ds.test_nodes);
  return {vt > 0 ? static_cast<double>(vc) / static_cast<double>(vt) : 0.0,
          tt > 0 ? static_cast<double>(tc) / static_cast<double>(tt) : 0.0};
}

api::RunReport run_minibatch_training(
    const Dataset& ds, const core::TrainerConfig& cfg,
    const MinibatchConfig& mb, const std::function<Batch(Rng&)>& next_batch) {
  // The exact model definition every other method uses.
  auto layers = core::build_model(cfg, ds.feat_dim(), ds.num_classes, 0);
  std::vector<Matrix*> params, grads;
  for (auto& l : layers) {
    for (Matrix* p : l->params()) params.push_back(p);
    for (Matrix* g : l->grads()) grads.push_back(g);
  }
  nn::Adam adam(std::move(params), std::move(grads), {.lr = mb.lr});
  const FullGraphContext full_ctx = make_full_context(ds.graph);

  Rng rng(cfg.seed ^ 0xBA5E1155ULL);
  api::RunReport result;
  result.dataset = ds.name;
  Stopwatch wall;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    Stopwatch epoch_wall;
    Accumulator sample_acc;
    double epoch_loss = 0.0;
    int counted = 0;
    for (int b = 0; b < mb.batches_per_epoch; ++b) {
      Batch batch;
      {
        ScopedTimer t(sample_acc);
        batch = next_batch(rng);
      }
      if (batch.loss_rows.empty()) continue;
      BNSGCN_CHECK(batch.adjs.size() ==
                   static_cast<std::size_t>(cfg.num_layers));

      Matrix h;
      ops::gather_rows(ds.features, batch.input_nodes, h);
      for (std::size_t l = 0; l < layers.size(); ++l)
        h = layers[l]->forward(batch.adjs[l], h, batch.inv_deg[l],
                               /*training=*/true);

      // Per-batch targets, gathered in output-row order.
      Matrix dlogits;
      double loss = 0.0;
      if (ds.multilabel) {
        Matrix targets;
        ops::gather_rows(ds.multilabels, batch.output_nodes, targets);
        const float inv = 1.0f / (static_cast<float>(batch.loss_rows.size()) *
                                  static_cast<float>(ds.num_classes));
        loss = nn::sigmoid_bce(h, targets, batch.loss_rows, inv, dlogits);
      } else {
        std::vector<int> labels(batch.output_nodes.size());
        for (std::size_t i = 0; i < labels.size(); ++i)
          labels[i] = ds.labels[static_cast<std::size_t>(
              batch.output_nodes[i])];
        const float inv = 1.0f / static_cast<float>(batch.loss_rows.size());
        loss = nn::softmax_xent(h, labels, batch.loss_rows, inv, dlogits);
      }
      epoch_loss += loss;
      ++counted;

      for (auto& l : layers) l->zero_grads();
      Matrix grad = std::move(dlogits);
      for (std::size_t l = layers.size() - 1; l > 0; --l)
        grad = layers[l]->backward(batch.adjs[l], grad, batch.inv_deg[l]);
      // Layer 0's input gradients feed nothing: B0 and B3 only.
      layers[0]->backward_begin(batch.adjs[0], grad);
      layers[0]->backward_params(batch.adjs[0]);
      adam.step();
    }
    result.train_loss.push_back(counted > 0 ? epoch_loss / counted : 0.0);

    // Single-process wall time split into sampler vs everything else; the
    // comm fields stay zero (no fabric involved).
    core::EpochBreakdown eb;
    eb.sample_s = sample_acc.seconds();
    eb.compute_s = std::max(0.0, epoch_wall.elapsed_s() - eb.sample_s);
    result.epochs.push_back(eb);

    const bool last = (epoch == cfg.epochs - 1);
    bool evaluated = false;
    if (last || (cfg.eval_every > 0 && (epoch + 1) % cfg.eval_every == 0)) {
      evaluated = true;
      const auto [val, test] = evaluate_full(ds, full_ctx, layers);
      result.curve.push_back({.epoch = epoch + 1, .val = val, .test = test,
                              .train_loss = result.train_loss.back()});
      if (last) {
        result.final_val = val;
        result.final_test = test;
      }
    }
    if (cfg.observer) {
      core::EpochSnapshot snap;
      snap.epoch = epoch + 1;
      snap.train_loss = result.train_loss.back();
      snap.breakdown = eb;
      snap.eval = evaluated ? &result.curve.back() : nullptr;
      cfg.observer(snap);
    }
  }
  result.wall_time_s = wall.elapsed_s();
  return result;
}

} // namespace bnsgcn::baselines
