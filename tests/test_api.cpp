#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "api/cli.hpp"
#include "api/presets.hpp"
#include "api/run.hpp"
#include "api/serialize.hpp"
#include "api/serve.hpp"
#include "common/check.hpp"
#include "partition/metis_like.hpp"

namespace bnsgcn {
namespace {

Dataset easy_dataset(std::uint64_t seed = 11) {
  SyntheticSpec spec;
  spec.name = "api-test";
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

core::TrainerConfig small_trainer() {
  core::TrainerConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden = 32;
  cfg.epochs = 10;
  cfg.seed = 7;
  cfg.sample_rate = 0.5f;
  return cfg;
}

TEST(ApiRun, BnsParityWithLegacyTrainerIsBitExact) {
  // The acceptance anchor of the api layer: run(kBns) is a thin wrapper
  // over BnsTrainer, so for a fixed seed the loss sequence, eval curve and
  // byte counts must match the direct engine call exactly.
  const Dataset ds = easy_dataset();
  const auto part = metis_like(ds.graph, 4);
  auto trainer_cfg = small_trainer();
  trainer_cfg.eval_every = 5;

  const core::TrainResult legacy =
      core::BnsTrainer(ds, part, trainer_cfg).train();

  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer = trainer_cfg;
  const api::RunReport report = api::run(ds, part, cfg);

  ASSERT_EQ(report.train_loss.size(), legacy.train_loss.size());
  for (std::size_t i = 0; i < legacy.train_loss.size(); ++i)
    EXPECT_EQ(report.train_loss[i], legacy.train_loss[i]) << "epoch " << i;
  EXPECT_EQ(report.final_val, legacy.final_val);
  EXPECT_EQ(report.final_test, legacy.final_test);
  ASSERT_EQ(report.curve.size(), legacy.curve.size());
  for (std::size_t i = 0; i < legacy.curve.size(); ++i) {
    EXPECT_EQ(report.curve[i].val, legacy.curve[i].val);
    EXPECT_EQ(report.curve[i].test, legacy.curve[i].test);
  }
  ASSERT_EQ(report.epochs.size(), legacy.epochs.size());
  for (std::size_t i = 0; i < legacy.epochs.size(); ++i) {
    // Simulated/traffic components are deterministic; measured compute
    // time is scheduling noise and deliberately not compared.
    EXPECT_EQ(report.epochs[i].feature_bytes, legacy.epochs[i].feature_bytes);
    EXPECT_EQ(report.epochs[i].grad_bytes, legacy.epochs[i].grad_bytes);
    EXPECT_EQ(report.epochs[i].comm_s, legacy.epochs[i].comm_s);
    EXPECT_EQ(report.epochs[i].reduce_s, legacy.epochs[i].reduce_s);
  }
  EXPECT_EQ(report.memory.model_bytes, legacy.memory.model_bytes);
  EXPECT_EQ(report.memory.full_bytes, legacy.memory.full_bytes);
  EXPECT_EQ(report.method, "bns");
  EXPECT_EQ(report.dataset, ds.name);
}

TEST(ApiRun, RegistryCoversEveryBuiltinMethod) {
  const auto& registry = api::method_registry();
  ASSERT_GE(registry.size(), 9u);
  for (const api::Method m :
       {api::Method::kBns, api::Method::kRocProxy, api::Method::kCagnetProxy,
        api::Method::kFullGraph, api::Method::kNeighborSampling,
        api::Method::kFastGcn, api::Method::kLadies, api::Method::kClusterGcn,
        api::Method::kGraphSaint}) {
    const auto& info = api::method_info(m);
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.display.empty());
    EXPECT_TRUE(info.runner != nullptr);
    EXPECT_EQ(api::find_method(info.name), &info);
  }
  EXPECT_EQ(api::find_method("no-such-method"), nullptr);
}

TEST(ApiRun, EveryBuiltinMethodRunsEndToEnd) {
  const Dataset ds = easy_dataset(13);
  api::RunConfig cfg;
  cfg.trainer = small_trainer();
  cfg.trainer.epochs = 3;
  cfg.partition.nparts = 3;
  cfg.minibatch.batch_size = 256;
  cfg.minibatch.batches_per_epoch = 2;
  cfg.minibatch.num_clusters = 8;
  for (const auto& info : api::method_registry()) {
    cfg.method = info.method;
    const api::RunReport r = api::run(ds, cfg);
    EXPECT_EQ(r.method, info.name);
    EXPECT_EQ(r.num_epochs(), 3) << info.name;
    EXPECT_EQ(r.epochs.size(), 3u) << info.name;
    // Every built-in method tracks losses — including the CAGNET proxy
    // since its loss path landed (ROADMAP follow-up).
    ASSERT_EQ(r.train_loss.size(), 3u) << info.name;
    EXPECT_GT(r.train_loss.front(), 0.0) << info.name;
  }
}

TEST(ApiRun, ObserverStreamsBnsEpochs) {
  const Dataset ds = easy_dataset(23);
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.trainer = small_trainer();
  cfg.trainer.epochs = 6;
  cfg.trainer.eval_every = 2;
  cfg.partition.nparts = 2;
  std::vector<core::EpochSnapshot> seen;
  int evals = 0;
  cfg.trainer.observer = [&](const core::EpochSnapshot& snap) {
    seen.push_back(snap);
    if (snap.eval != nullptr) ++evals;
  };
  const api::RunReport r = api::run(ds, cfg);
  ASSERT_EQ(seen.size(), 6u);
  for (int e = 0; e < 6; ++e) {
    EXPECT_EQ(seen[static_cast<std::size_t>(e)].epoch, e + 1);
    EXPECT_EQ(seen[static_cast<std::size_t>(e)].train_loss,
              r.train_loss[static_cast<std::size_t>(e)]);
  }
  EXPECT_EQ(evals, 3);  // epochs 2, 4, 6
}

TEST(ApiRun, InvalidExchangeSpecIsRejectedBeforeTraining) {
  // Every exchange value no engine can run must fail with a CheckError
  // naming its field, from api::run and api::serve alike, whether it was
  // set in code or round-tripped through a config document, and before any
  // epoch trains. cache_mb past INT64_MAX >> 20 overflows its byte count.
  const Dataset ds = easy_dataset(29);
  const std::pair<const char*, void (*)(api::CommSpec&)> cases[] = {
      {"inner_chunk_rows", [](api::CommSpec& c) { c.inner_chunk_rows = -1; }},
      {"cache_staleness", [](api::CommSpec& c) { c.cache_staleness = -2; }},
      {"cache_mb", [](api::CommSpec& c) { c.cache_mb = -1; }},
      {"cache_mb",
       [](api::CommSpec& c) {
         c.cache_mb = (std::numeric_limits<std::int64_t>::max() >> 20) + 1;
       }},
  };
  for (const auto& [field, set_bad] : cases) {
    api::RunConfig coded;
    coded.method = api::Method::kBns;
    coded.trainer = small_trainer();
    coded.trainer.epochs = 1;
    coded.partition.nparts = 2;
    set_bad(coded.comm);
    api::RunConfig parsed =
        api::run_config_from_json_string(api::to_json_string(coded));
    for (api::RunConfig* cfg : {&coded, &parsed}) {
      int epochs_trained = 0;
      cfg->trainer.observer = [&](const core::EpochSnapshot&) {
        ++epochs_trained;
      };
      for (const bool serve : {false, true}) {
        SCOPED_TRACE(std::string(serve ? "serve " : "run ") + field +
                     (cfg == &coded ? " (coded)" : " (parsed)"));
        try {
          if (serve)
            (void)api::serve(ds, *cfg, api::ServeConfig{});
          else
            (void)api::run(ds, *cfg);
          ADD_FAILURE() << "accepted";
        } catch (const CheckError& e) {
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
              << e.what();
        }
        EXPECT_EQ(epochs_trained, 0);
      }
    }
  }
}

TEST(ApiPresets, RegistryAndSpecs) {
  ASSERT_GE(api::dataset_registry().size(), 4u);
  for (const char* name : {"reddit", "products", "yelp", "papers"}) {
    const auto* preset = api::find_dataset(name);
    ASSERT_NE(preset, nullptr) << name;
    EXPECT_GE(preset->trainer.num_layers, 3) << name;
  }
  EXPECT_EQ(api::find_dataset("imaginary"), nullptr);
  EXPECT_THROW((void)api::preset_trainer_config("imaginary"), CheckError);

  api::DatasetSpec spec;
  spec.preset = "products";
  spec.scale = 0.1;
  const Dataset ds = api::make_dataset(spec);
  EXPECT_GT(ds.num_nodes(), 0);
  EXPECT_FALSE(ds.multilabel);
  spec.preset = "yelp";
  EXPECT_TRUE(api::make_dataset(spec).multilabel);
}

TEST(ApiPartition, SpecsProduceValidPartitionings) {
  const Dataset ds = easy_dataset(29);
  for (const auto kind :
       {api::PartitionSpec::Kind::kMetis, api::PartitionSpec::Kind::kRandom,
        api::PartitionSpec::Kind::kHash, api::PartitionSpec::Kind::kBfs}) {
    api::PartitionSpec spec;
    spec.kind = kind;
    spec.nparts = 4;
    const Partitioning part = api::make_partition(ds.graph, spec);
    part.validate();
    EXPECT_EQ(part.nparts, 4);
    EXPECT_EQ(part.num_nodes(), ds.num_nodes());
  }
}

TEST(ApiPartition, MetisSpecSeedReachesThePartitioner) {
  // Regression: make_partition used to drop PartitionSpec::seed for kMetis
  // (always calling metis_like with default options), so seed sweeps
  // silently reused one partition and the cache key would have lied.
  const Dataset ds = easy_dataset(31);
  api::PartitionSpec spec;
  spec.kind = api::PartitionSpec::Kind::kMetis;
  spec.nparts = 4;
  spec.seed = 1;
  const Partitioning a = api::make_partition(ds.graph, spec);
  spec.seed = 2;
  const Partitioning b = api::make_partition(ds.graph, spec);
  EXPECT_NE(a.owner, b.owner); // different seeds → different partitions
  // And the spec seed maps onto MetisLikeOptions::seed exactly.
  MetisLikeOptions opts;
  opts.seed = 2;
  EXPECT_EQ(b.owner, metis_like(ds.graph, 4, opts).owner);
}

TEST(ApiCli, ParsesAllFlags) {
  std::string error;
  const auto opts = api::try_parse_bench_args(
      {"--scale", "2.5", "--epochs", "7", "--json", "/tmp/out.json",
       "--part-cache", "/tmp/part-cache"},
      error);
  ASSERT_TRUE(opts.has_value()) << error;
  EXPECT_DOUBLE_EQ(opts->scale, 2.5);
  EXPECT_EQ(opts->epochs_or(99), 7);
  EXPECT_EQ(opts->json_path, "/tmp/out.json");
  EXPECT_EQ(opts->part_cache_dir, "/tmp/part-cache");
}

TEST(ApiCli, DefaultsAndErrors) {
  std::string error;
  const auto defaults = api::try_parse_bench_args({}, error);
  ASSERT_TRUE(defaults.has_value());
  EXPECT_DOUBLE_EQ(defaults->scale, 1.0);
  EXPECT_EQ(defaults->epochs_or(42), 42);
  EXPECT_TRUE(defaults->json_path.empty());

  EXPECT_FALSE(api::try_parse_bench_args({"--scale"}, error).has_value());
  EXPECT_FALSE(
      api::try_parse_bench_args({"--scale", "-1"}, error).has_value());
  EXPECT_FALSE(
      api::try_parse_bench_args({"--epochs", "zero"}, error).has_value());
  EXPECT_FALSE(api::try_parse_bench_args({"--bogus"}, error).has_value());
  EXPECT_FALSE(api::try_parse_bench_args({"--part-cache"}, error).has_value());
  EXPECT_FALSE(
      api::try_parse_bench_args({"--part-cache", ""}, error).has_value());
  EXPECT_FALSE(api::try_parse_bench_args({"--help"}, error).has_value());
  EXPECT_EQ(error, "help");
}

} // namespace
} // namespace bnsgcn
