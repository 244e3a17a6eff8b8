#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "baselines/minibatch.hpp"
#include "core/proxies.hpp"
#include "graph/dataset.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

Dataset tiny_dataset() {
  SyntheticSpec spec;
  spec.n = 900;
  spec.m = 9000;
  spec.communities = 6;
  spec.num_classes = 6;
  spec.feat_dim = 16;
  spec.seed = 5;
  return make_synthetic(spec);
}

core::TrainerConfig proxy_config() {
  core::TrainerConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden = 24;
  cfg.epochs = 4;
  cfg.seed = 3;
  return cfg;
}

TEST(Proxies, RocAddsSwapTraffic) {
  const Dataset ds = tiny_dataset();
  const auto part = metis_like(ds.graph, 3);
  const auto cfg = proxy_config();

  core::BnsTrainer plain(ds, part, cfg);
  const auto base = plain.train();
  const auto roc = core::run_roc_proxy(ds, part, cfg);

  // Same exchange volume, plus strictly positive swap time on top. Compare
  // only the simulated (deterministic) components: measured compute time is
  // scheduling noise at this scale.
  EXPECT_EQ(base.mean_epoch().feature_bytes, roc.mean_epoch().feature_bytes);
  EXPECT_GT(roc.mean_epoch().swap_s, 0.0);
  EXPECT_NEAR(base.mean_epoch().swap_s, 0.0, 1e-12);
  const auto sim = [](const core::EpochBreakdown& e) {
    return e.comm_s + e.reduce_s + e.swap_s;
  };
  EXPECT_GT(sim(roc.mean_epoch()), sim(base.mean_epoch()));
}

TEST(Proxies, CagnetBroadcastDominatesBnsTraffic) {
  // Fig. 4's mechanism: CAGNET moves (m-1)·n·d per layer; BNS moves only
  // boundary features.
  const Dataset ds = tiny_dataset();
  const auto part = metis_like(ds.graph, 3);
  const auto cfg = proxy_config();

  core::BnsTrainer plain(ds, part, cfg);
  const auto bns = plain.train();
  const auto cagnet = core::run_cagnet_proxy(ds, part, cfg, /*c=*/1);
  EXPECT_GT(cagnet.mean_epoch().feature_bytes,
            bns.mean_epoch().feature_bytes);
}

TEST(Proxies, CagnetC2HalvesBroadcastTime) {
  const Dataset ds = tiny_dataset();
  const auto part = metis_like(ds.graph, 3);
  const auto cfg = proxy_config();
  const auto c1 = core::run_cagnet_proxy(ds, part, cfg, 1);
  const auto c2 = core::run_cagnet_proxy(ds, part, cfg, 2);
  EXPECT_NEAR(c2.mean_epoch().comm_s, c1.mean_epoch().comm_s / 2.0,
              0.2 * c1.mean_epoch().comm_s);
}

TEST(Proxies, CagnetTracksFullGraphOracle) {
  // The 1.5D proxy partitions the work, not the model: every rank's self
  // term must read its own nodes, so each epoch's loss tracks the
  // single-process full-graph oracle up to the reassociated cross-rank
  // gradient sums. The proxy trains without dropout; so does the oracle.
  const Dataset ds = tiny_dataset();
  auto cfg = proxy_config();
  cfg.dropout = 0.0f;
  const auto oracle = baselines::train_full_graph(ds, cfg);
  for (const PartId m : {2, 3}) {
    const auto cagnet =
        core::run_cagnet_proxy(ds, metis_like(ds.graph, m), cfg, /*c=*/1);
    ASSERT_EQ(cagnet.train_loss.size(), oracle.train_loss.size());
    for (std::size_t e = 0; e < oracle.train_loss.size(); ++e) {
      const double want = oracle.train_loss[e];
      EXPECT_NEAR(cagnet.train_loss[e], want,
                  5e-3 * std::max(1.0, std::abs(want)))
          << "m=" << m << " epoch " << e;
    }
  }
}

TEST(Proxies, BnsComposesWithSwapTraining) {
  // Section 3.2: BNS "can be easily plugged into any partition-parallel
  // training method". Compose host-swap (ROC-style) training with p=0.1
  // sampling: swap traffic stays, boundary traffic shrinks, training works.
  const Dataset ds = tiny_dataset();
  const auto part = metis_like(ds.graph, 3);
  auto cfg = proxy_config();
  cfg.epochs = 20;
  cfg.simulate_host_swap = true;

  cfg.sample_rate = 1.0f;
  const auto full = core::BnsTrainer(ds, part, cfg).train();
  cfg.sample_rate = 0.1f;
  const auto sampled = core::BnsTrainer(ds, part, cfg).train();

  EXPECT_GT(sampled.mean_epoch().swap_s, 0.0);
  EXPECT_LT(sampled.mean_epoch().feature_bytes,
            full.mean_epoch().feature_bytes / 5);
  EXPECT_GT(sampled.final_test, 0.4);
}

TEST(Proxies, CagnetSupportsMultilabel) {
  SyntheticSpec spec;
  spec.n = 300;
  spec.m = 1500;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.multilabel = true;
  const Dataset ds = make_synthetic(spec);
  const auto part = metis_like(ds.graph, 2);
  const auto result = core::run_cagnet_proxy(ds, part, proxy_config(), 1);
  EXPECT_GT(result.mean_epoch().feature_bytes, 0);
}

TEST(Proxies, CagnetDeadRankUnwindsPeers) {
  // One rank throws before the first broadcast; the peers blocked on its
  // rows must unwind via the fabric shutdown, and the proxy must rethrow
  // the injected root cause rather than a peer's ShutdownError. The alarm
  // turns a hang into a loud SIGALRM instead of a silent CI timeout.
  const Dataset ds = tiny_dataset();
  const auto part = metis_like(ds.graph, 3);
  auto cfg = proxy_config();
  cfg.fail_rank = 1;
  alarm(180);
  try {
    (void)core::run_cagnet_proxy(ds, part, cfg, /*c=*/1);
    FAIL() << "dead CAGNET rank went unnoticed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected failure: rank 1"),
              std::string::npos)
        << e.what();
  }
  alarm(0);
}

} // namespace
} // namespace bnsgcn
