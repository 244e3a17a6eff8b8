#include <gtest/gtest.h>

#include "baselines/minibatch.hpp"
#include "graph/dataset.hpp"

namespace bnsgcn {
namespace {

Dataset easy_dataset(std::uint64_t seed = 3) {
  SyntheticSpec spec;
  spec.n = 1200;
  spec.m = 14000;
  spec.communities = 6;
  spec.num_classes = 6;
  spec.feat_dim = 16;
  spec.p_intra = 0.92;
  spec.feature_noise = 1.2;
  spec.seed = seed;
  return make_synthetic(spec);
}

core::TrainerConfig fast_trainer() {
  core::TrainerConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden = 32;
  cfg.epochs = 25;
  cfg.seed = 9;
  return cfg;
}

baselines::MinibatchConfig fast_minibatch() {
  baselines::MinibatchConfig mb;
  mb.lr = 0.01f;
  mb.batches_per_epoch = 4;
  mb.batch_size = 256;
  return mb;
}

TEST(FullGraph, ConvergesOnEasyDataset) {
  const Dataset ds = easy_dataset();
  core::TrainerConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden = 32;
  cfg.epochs = 30;
  cfg.lr = 0.01f;
  cfg.seed = 1;
  const auto result = baselines::train_full_graph(ds, cfg);
  EXPECT_GT(result.final_test, 0.75);
  EXPECT_LT(result.train_loss.back(), result.train_loss.front());
}

TEST(NeighborSampling, Converges) {
  const Dataset ds = easy_dataset(5);
  const auto result =
      baselines::train_neighbor_sampling(ds, fast_trainer(), fast_minibatch());
  EXPECT_GT(result.final_test, 0.55);
  double sample_s = 0.0;
  for (const auto& e : result.epochs) sample_s += e.sample_s;
  EXPECT_GT(sample_s, 0.0);
}

TEST(LayerSampling, FastGcnConverges) {
  const Dataset ds = easy_dataset(7);
  auto mb = fast_minibatch();
  mb.layer_budget = 600;
  const auto result =
      baselines::train_layer_sampling(ds, fast_trainer(), mb, false);
  EXPECT_GT(result.final_test, 0.45);
}

TEST(LayerSampling, LadiesConverges) {
  const Dataset ds = easy_dataset(7);
  auto mb = fast_minibatch();
  mb.layer_budget = 600;
  const auto result =
      baselines::train_layer_sampling(ds, fast_trainer(), mb, true);
  EXPECT_GT(result.final_test, 0.5);
}

TEST(LayerSampling, LadiesBeatsOrMatchesFastGcnLoss) {
  // Same budget: restricting the pool to the neighbor set cannot hurt the
  // estimator (Table 2 ordering), which shows up as faster loss descent.
  const Dataset ds = easy_dataset(11);
  auto cfg = fast_trainer();
  cfg.epochs = 15;
  auto mb = fast_minibatch();
  mb.layer_budget = 300;
  const auto fast = baselines::train_layer_sampling(ds, cfg, mb, false);
  const auto ladies = baselines::train_layer_sampling(ds, cfg, mb, true);
  EXPECT_LE(ladies.train_loss.back(), fast.train_loss.back() * 1.3);
}

TEST(ClusterGcn, Converges) {
  const Dataset ds = easy_dataset(13);
  auto mb = fast_minibatch();
  mb.num_clusters = 12;
  mb.clusters_per_batch = 3;
  const auto result = baselines::train_cluster_gcn(ds, fast_trainer(), mb);
  EXPECT_GT(result.final_test, 0.55);
}

TEST(GraphSaint, Converges) {
  const Dataset ds = easy_dataset(17);
  auto mb = fast_minibatch();
  mb.saint_budget = 500;
  const auto result = baselines::train_graph_saint(ds, fast_trainer(), mb);
  EXPECT_GT(result.final_test, 0.5);
}

TEST(Baselines, MultilabelSupport) {
  SyntheticSpec spec;
  spec.n = 800;
  spec.m = 6000;
  spec.communities = 8;
  spec.num_classes = 8;
  spec.feat_dim = 16;
  spec.multilabel = true;
  spec.seed = 19;
  const Dataset ds = make_synthetic(spec);
  auto cfg = fast_trainer();
  cfg.epochs = 20;
  const auto result =
      baselines::train_neighbor_sampling(ds, cfg, fast_minibatch());
  EXPECT_GT(result.final_test, 0.3);
}

TEST(Baselines, ReportFieldsPopulated) {
  const Dataset ds = easy_dataset(23);
  auto cfg = fast_trainer();
  cfg.epochs = 5;
  const auto result =
      baselines::train_graph_saint(ds, cfg, fast_minibatch());
  EXPECT_EQ(result.method, "graph-saint");
  EXPECT_EQ(result.dataset, ds.name);
  EXPECT_EQ(result.num_epochs(), 5);
  EXPECT_EQ(result.epochs.size(), 5u);
  EXPECT_GT(result.wall_time_s, 0.0);
  EXPECT_GT(result.epoch_time_s(), 0.0);
  EXPECT_GT(result.wall_epoch_s(), 0.0);
  EXPECT_GE(result.sampler_overhead(), 0.0);
  EXPECT_LE(result.sampler_overhead(), 1.0);
  // Minibatch methods run single-process: no fabric traffic.
  EXPECT_EQ(result.mean_epoch().feature_bytes, 0);
  EXPECT_TRUE(result.memory.model_bytes.empty());
}

TEST(Baselines, ObserverStreamsEpochs) {
  const Dataset ds = easy_dataset(29);
  auto cfg = fast_trainer();
  cfg.epochs = 6;
  cfg.eval_every = 3;
  std::vector<int> seen;
  int evals = 0;
  cfg.observer = [&](const core::EpochSnapshot& snap) {
    seen.push_back(snap.epoch);
    if (snap.eval != nullptr) ++evals;
  };
  const auto result =
      baselines::train_neighbor_sampling(ds, cfg, fast_minibatch());
  ASSERT_EQ(seen.size(), 6u);
  for (int e = 0; e < 6; ++e) EXPECT_EQ(seen[static_cast<std::size_t>(e)], e + 1);
  EXPECT_EQ(evals, 2);  // epochs 3 and 6
  EXPECT_EQ(result.curve.size(), 2u);
}

} // namespace
} // namespace bnsgcn
