#include "common/stopwatch.hpp"
#include "baselines/minibatch.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"

namespace bnsgcn::baselines {

api::RunReport train_full_graph(const Dataset& ds,
                                const core::TrainerConfig& cfg) {
  const FullGraphContext ctx = make_full_context(ds.graph);
  auto layers = core::build_model(cfg, ds.feat_dim(), ds.num_classes,
                                  /*rank=*/0);
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

  api::RunReport result;
  result.method = "full-graph";
  result.dataset = ds.name;
  Stopwatch wall;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    Stopwatch epoch_wall;
    // Forward over the whole graph (the m=1 special case of Algorithm 1).
    std::vector<Matrix> h(layers.size() + 1);
    h[0] = ds.features;
    for (std::size_t l = 0; l < layers.size(); ++l)
      h[l + 1] = layers[l]->forward(ctx.adj, h[l], ctx.inv_deg,
                                    /*training=*/true);

    Matrix dlogits;
    const double loss =
        ds.multilabel
            ? nn::sigmoid_bce(h.back(), ds.multilabels, ds.train_nodes,
                              inv_total, dlogits)
            : nn::softmax_xent(h.back(), ds.labels, ds.train_nodes, inv_total,
                               dlogits);
    result.train_loss.push_back(loss);

    for (auto& l : layers) l->zero_grads();
    Matrix grad = std::move(dlogits);
    for (std::size_t l = layers.size() - 1; l > 0; --l)
      grad = layers[l]->backward(ctx.adj, grad, ctx.inv_deg);
    // Layer 0's input gradients feed nothing: B0 and B3 only.
    layers[0]->backward_begin(ctx.adj, grad);
    layers[0]->backward_params(ctx.adj);
    adam.step();

    core::EpochBreakdown eb;
    eb.compute_s = epoch_wall.elapsed_s();
    result.epochs.push_back(eb);

    const bool last = (epoch == cfg.epochs - 1);
    bool evaluated = false;
    if (last || (cfg.eval_every > 0 && (epoch + 1) % cfg.eval_every == 0)) {
      evaluated = true;
      const auto [val, test] = evaluate_full(ds, ctx, layers);
      result.curve.push_back(
          {.epoch = epoch + 1, .val = val, .test = test, .train_loss = loss});
      if (last) {
        result.final_val = val;
        result.final_test = test;
      }
    }
    if (cfg.observer) {
      core::EpochSnapshot snap;
      snap.epoch = epoch + 1;
      snap.train_loss = loss;
      snap.breakdown = eb;
      snap.eval = evaluated ? &result.curve.back() : nullptr;
      cfg.observer(snap);
    }
  }
  result.wall_time_s = wall.elapsed_s();
  return result;
}

} // namespace bnsgcn::baselines
