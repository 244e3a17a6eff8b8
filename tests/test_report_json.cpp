#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "api/run.hpp"
#include "api/serialize.hpp"
#include "api/serve.hpp"
#include "common/check.hpp"
#include "common/json.hpp"

namespace bnsgcn {
namespace {

api::RunReport sample_report() {
  api::RunReport r;
  r.method = "bns";
  r.dataset = "reddit-like \"scaled\"";  // exercises string escaping
  r.train_loss = {1.51234567890123, 0.75, 0.3333333333333333};
  r.curve.push_back({.epoch = 2, .val = 0.81, .test = 0.79,
                     .train_loss = 0.75});
  r.curve.push_back({.epoch = 3, .val = 0.9, .test = 0.88,
                     .train_loss = 0.3333333333333333});
  r.final_val = 0.9;
  r.final_test = 0.88;
  core::EpochBreakdown e;
  e.compute_s = 0.125;
  e.comm_s = 0.0625;
  e.reduce_s = 1e-9;
  e.sample_s = 0.001953125;
  e.swap_s = 0.0;
  e.overlap_s = 0.015625;
  e.comm_tail_s = 0.0078125;
  e.feature_bytes = 123456789012345;  // > 2^32, < 2^53
  e.grad_bytes = 4096;
  e.control_bytes = 17;
  r.epochs = {e, e, e};
  r.memory.model_bytes = {1.5e6, 2.25e6};
  r.memory.full_bytes = {2000000, 3000000};
  r.wall_time_s = 0.4375;
  r.partition_cache = {.hits = 3, .disk_hits = 1, .misses = 2,
                       .evictions = 1};
  return r;
}

api::ServeReport sample_serve_report() {
  api::ServeReport s;
  s.method = "bns";
  s.dataset = "serve \"scaled\"";
  s.batch_size = 2;
  s.num_batches = 2;
  s.num_classes = 2;
  s.batches = {{.latency_s = 0.25, .comm_s = 0.0625, .feature_bytes = 4096,
                .control_bytes = 17},
               {.latency_s = 0.125, .comm_s = 0.1, .feature_bytes = 2048,
                .control_bytes = 9, .cache_hit_rows = 3,
                .cache_miss_rows = 1, .bytes_saved = 96}};
  s.queries = {4, 9, 1, 7};
  s.predictions = {1, 0, 0, 1};
  s.logits = {0.1f, -2.5f, 3.0f, 1e-7f, -0.0f, 7.0f, 0.33333334f, -1e30f};
  s.train_wall_s = 1.5;
  s.serve_wall_s = 0.375;
  s.timing = comm::TimingSource::kMeasured;
  return s;
}

/// sample_report() and sample_serve_report() as written before non-finite
/// numbers had tokens; every finite number must keep this text, except
/// the logit -0.0f, which is written -0.0 (it was 0, losing the sign).
constexpr const char* kSampleReportText =
    R"json({"method":"bns","dataset":"reddit-like \"scaled\"","train_loss":[1.5)json"
    R"json(1234567890123,0.75,0.33333333333333331],"curve":[{"epoch":2,"val":0.)json"
    R"json(81000000000000005,"test":0.79000000000000004,"train_loss":0.75},{"ep)json"
    R"json(och":3,"val":0.90000000000000002,"test":0.88,"train_loss":0.33333333)json"
    R"json(333333331}],"final_val":0.90000000000000002,"final_test":0.88,"epoch)json"
    R"json(s":[{"compute_s":0.125,"comm_s":0.0625,"reduce_s":1.0000000000000001)json"
    R"json(e-09,"sample_s":0.001953125,"swap_s":0,"overlap_s":0.015625,"comm_ta)json"
    R"json(il_s":0.0078125,"feature_bytes":123456789012345,"grad_bytes":4096,"c)json"
    R"json(ontrol_bytes":17},{"compute_s":0.125,"comm_s":0.0625,"reduce_s":1.00)json"
    R"json(00000000000001e-09,"sample_s":0.001953125,"swap_s":0,"overlap_s":0.0)json"
    R"json(15625,"comm_tail_s":0.0078125,"feature_bytes":123456789012345,"grad_)json"
    R"json(bytes":4096,"control_bytes":17},{"compute_s":0.125,"comm_s":0.0625,")json"
    R"json(reduce_s":1.0000000000000001e-09,"sample_s":0.001953125,"swap_s":0,")json"
    R"json(overlap_s":0.015625,"comm_tail_s":0.0078125,"feature_bytes":12345678)json"
    R"json(9012345,"grad_bytes":4096,"control_bytes":17}],"memory":{"model_byte)json"
    R"json(s":[1500000,2250000],"full_bytes":[2000000,3000000]},"wall_time_s":0)json"
    R"json(.4375,"partition_cache":{"hits":3,"disk_hits":1,"misses":2,"eviction)json"
    R"json(s":1},"derived":{"throughput_eps":5.7528089556692334,"sampler_overhe)json"
    R"json(ad":0.011235954991541472,"epoch_time_s":0.173828126,"total_train_s":)json"
    R"json(0.52148437800000003,"overlap_saved_s":0.015625,"overlap_fraction":0.)json"
    R"json(25}})json";
constexpr const char* kSampleServeReportText =
    R"json({"method":"bns","dataset":"serve \"scaled\"","batch_size":2,"num_bat)json"
    R"json(ches":2,"num_classes":2,"train_wall_s":1.5,"serve_wall_s":0.375,"tim)json"
    R"json(ing_source":"measured","batches":[{"latency_s":0.25,"comm_s":0.0625,)json"
    R"json("feature_bytes":4096,"control_bytes":17},{"latency_s":0.125,"comm_s")json"
    R"json(:0.10000000000000001,"feature_bytes":2048,"control_bytes":9,"cache_h)json"
    R"json(it_rows":3,"cache_miss_rows":1,"bytes_saved":96}],"queries":[4,9,1,7)json"
    R"json(],"predictions":[1,0,0,1],"logits":[0.10000000149011612,-2.5,3,1.000)json"
    R"json(0000116860974e-07,-0.0,7,0.3333333432674408,-1.0000000150474662e+30],)json"
    R"json("d)json"
    R"json(erived":{"total_queries":4,"p50_latency_s":0.125,"p99_latency_s":0.2)json"
    R"json(5,"qps":10.666666666666666,"cache_hit_rows":3,"cache_miss_rows":1,"c)json"
    R"json(ache_bytes_saved":96,"cache_hit_rate":0.75}})json";

/// EXPECT_EQ on every field of `table`, named by its key.
template <class S, class Table>
void expect_fields_equal(const S& a, const S& b, const Table& table) {
  for_each_field(table, [&](const auto& f) {
    EXPECT_EQ(a.*f.member, b.*f.member) << f.key;
  });
}

void expect_reports_equal(const api::RunReport& a, const api::RunReport& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.dataset, b.dataset);
  EXPECT_EQ(a.train_loss, b.train_loss);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i)
    expect_fields_equal(a.curve[i], b.curve[i], core::kEvalPointFields);
  EXPECT_EQ(a.final_val, b.final_val);
  EXPECT_EQ(a.final_test, b.final_test);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    expect_fields_equal(a.epochs[i], b.epochs[i],
                        core::kEpochBreakdownFields);
    EXPECT_EQ(a.epochs[i].timing, b.epochs[i].timing);
  }
  expect_fields_equal(a.memory, b.memory, core::kMemoryReportFields);
  EXPECT_EQ(a.wall_time_s, b.wall_time_s);
  EXPECT_EQ(a.partition_cache, b.partition_cache);
}

TEST(ReportJson, RoundTripIsExact) {
  const api::RunReport original = sample_report();
  const std::string text = api::to_json_string(original);
  const api::RunReport parsed = api::run_report_from_json_string(text);
  expect_reports_equal(original, parsed);
  // Derived quantities recompute identically from the parsed fields.
  EXPECT_EQ(original.throughput_eps(), parsed.throughput_eps());
  EXPECT_EQ(original.sampler_overhead(), parsed.sampler_overhead());
}

TEST(ReportJson, FiniteReportTextIsPinned) {
  // Finite numbers keep the text they always had (integers plainly,
  // everything else at %.17g), key for key: the non-finite tokens below
  // changed nothing a finite report writes.
  EXPECT_EQ(api::to_json_string(sample_report(), -1), kSampleReportText);
  EXPECT_EQ(api::to_json_string(sample_serve_report(), -1),
            kSampleServeReportText);
}

TEST(ReportJson, NonFiniteNumbersRoundTrip) {
  // A diverged run's losses are NaN or infinite. They cross the codec as
  // the tokens NaN, Infinity and -Infinity, which Python's json module
  // reads too, and come back as the same kind of value.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  api::RunReport r = sample_report();
  r.train_loss = {1.5, nan, inf, -inf};
  r.final_val = nan;
  r.final_test = -inf;
  r.epochs[0].comm_s = inf;
  const std::string text = api::to_json_string(r, -1);
  EXPECT_NE(text.find("[1.5,NaN,Infinity,-Infinity]"), std::string::npos)
      << text;
  const api::RunReport back = api::run_report_from_json_string(text);
  ASSERT_EQ(back.train_loss.size(), 4u);
  EXPECT_EQ(back.train_loss[0], 1.5);
  EXPECT_TRUE(std::isnan(back.train_loss[1]));
  EXPECT_EQ(back.train_loss[2], inf);
  EXPECT_EQ(back.train_loss[3], -inf);
  EXPECT_TRUE(std::isnan(back.final_val));
  EXPECT_EQ(back.final_test, -inf);
  EXPECT_EQ(back.epochs[0].comm_s, inf);

  api::ServeReport s = sample_serve_report();
  const float fnan = std::numeric_limits<float>::quiet_NaN();
  const float finf = std::numeric_limits<float>::infinity();
  s.logits[1] = fnan;
  s.logits[2] = finf;
  s.logits[3] = -finf;
  s.serve_wall_s = inf;
  s.batches[0].comm_s = -inf;
  const api::ServeReport sback =
      api::serve_report_from_json_string(api::to_json_string(s));
  ASSERT_EQ(sback.logits.size(), s.logits.size());
  EXPECT_EQ(sback.logits[0], s.logits[0]);
  EXPECT_TRUE(std::isnan(sback.logits[1]));
  EXPECT_EQ(sback.logits[2], finf);
  EXPECT_EQ(sback.logits[3], -finf);
  EXPECT_EQ(sback.serve_wall_s, inf);
  EXPECT_EQ(sback.batches[0].comm_s, -inf);
}

TEST(ReportJson, NegativeZeroKeepsItsSign) {
  // A -0.0 loss or logit comes back as -0.0, not +0.0: the two compare
  // equal, so only the sign bit can tell them apart.
  api::RunReport r = sample_report();
  r.train_loss = {1.5, -0.0, 0.0};
  r.final_val = -0.0;
  const std::string text = api::to_json_string(r, -1);
  EXPECT_NE(text.find("[1.5,-0.0,0]"), std::string::npos) << text;
  const api::RunReport back = api::run_report_from_json_string(text);
  ASSERT_EQ(back.train_loss.size(), 3u);
  EXPECT_TRUE(std::signbit(back.train_loss[1]));
  EXPECT_FALSE(std::signbit(back.train_loss[2]));
  EXPECT_TRUE(std::signbit(back.final_val));

  const api::ServeReport s = sample_serve_report();
  ASSERT_TRUE(std::signbit(s.logits[4]));
  const api::ServeReport sback =
      api::serve_report_from_json_string(api::to_json_string(s));
  ASSERT_EQ(sback.logits.size(), s.logits.size());
  EXPECT_EQ(sback.logits[4], 0.0f);
  EXPECT_TRUE(std::signbit(sback.logits[4]));
  EXPECT_FALSE(std::signbit(sback.logits[5]));
}

TEST(ReportJson, RoundTripOfRealRun) {
  api::RunConfig cfg;
  SyntheticSpec spec;
  spec.n = 500;
  spec.m = 4000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 8;
  spec.seed = 21;
  cfg.dataset.custom = spec;
  cfg.partition.nparts = 2;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4;
  cfg.trainer.sample_rate = 0.5f;
  cfg.trainer.eval_every = 2;
  const api::RunReport r = api::run(cfg);
  const api::RunReport parsed =
      api::run_report_from_json_string(api::to_json_string(r));
  expect_reports_equal(r, parsed);
}

TEST(ReportJson, CompactAndPrettyParseTheSame) {
  const api::RunReport original = sample_report();
  const auto compact =
      api::run_report_from_json_string(api::to_json_string(original, -1));
  const auto pretty =
      api::run_report_from_json_string(api::to_json_string(original, 4));
  expect_reports_equal(compact, pretty);
}

TEST(ReportJson, DerivedBlockPresent) {
  const json::Value v = api::to_json(sample_report());
  const json::Value* derived = v.get("derived");
  ASSERT_NE(derived, nullptr);
  EXPECT_GT(derived->at("throughput_eps").as_double(), 0.0);
  EXPECT_GT(derived->at("total_train_s").as_double(), 0.0);
}

/// Same value, bit for bit: -0.0 is not 0.0, and any NaN matches a NaN.
template <class T>
bool same_value(T a, T b) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    return std::signbit(a) == std::signbit(b) && a == b;
  } else {
    return a == b;
  }
}

TEST(ReportJson, EveryBreakdownFieldRoundTripsReducesAndAverages) {
  // Three mailbox ranks hold distinct values in every field. The times
  // include NaN and -0.0, whose max / min depend on the argument order, and
  // the counters exceed 2^32 and do not divide by 3.
  constexpr int kRanks = 3;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::array<core::EpochBreakdown, kRanks> local;
  for (int r = 0; r < kRanks; ++r) {
    int j = 0;
    for_each_field(core::kEpochBreakdownFields, [&](const auto& f) {
      auto& x = local[static_cast<std::size_t>(r)].*f.member;
      using M = std::remove_reference_t<decltype(x)>;
      if constexpr (std::is_floating_point_v<M>) {
        const int mix = (j + r) % 4;
        x = mix == 1 ? nan : mix == 2 ? -0.0 : 0.125 * (j + 1) - 0.25 * r;
      } else {
        x = (M{1} << 40) + 1000 * (j + 1) + 7 * r;
      }
      ++j;
    });
  }
  local[1].timing = comm::TimingSource::kMeasured;

  comm::Fabric fabric(kRanks);
  std::array<core::EpochBreakdown, kRanks> reduced;
  comm::run_ranks(fabric, [&](PartId r) {
    const auto i = static_cast<std::size_t>(r);
    reduced[i] = core::reduce_breakdown(fabric.endpoint(r), local[i]);
  });
  const core::EpochBreakdown mean = core::mean_breakdown(local);

  for_each_field(core::kEpochBreakdownFields, [&](const auto& f) {
    SCOPED_TRACE(std::string(f.key));
    using M = std::remove_cvref_t<decltype(local[0].*f.member)>;
    // The rules: overlap_s takes the min, the other times the max, the
    // counters the sum.
    const core::RankRule rule =
        f.key == "overlap_s" ? core::RankRule::kMin
        : std::is_floating_point_v<M> ? core::RankRule::kMax
                                      : core::RankRule::kSum;
    EXPECT_EQ(f.rules.rank, rule);
    // Each rule folds the ranks in order: a max from zero, a min from rank
    // 0's value, a sum from zero.
    M want = rule == core::RankRule::kMin ? local[0].*f.member : M{};
    M sum{};
    for (const auto& l : local) {
      const M v = l.*f.member;
      if (rule == core::RankRule::kMax) want = std::max(want, v);
      if (rule == core::RankRule::kMin) want = std::min(want, v);
      if (rule == core::RankRule::kSum) want += v;
      sum += v;
    }
    for (const auto& got : reduced)
      EXPECT_TRUE(same_value(got.*f.member, want));
    // The mean: the epochs summed in order, then divided; counters
    // truncate to an integer.
    EXPECT_TRUE(same_value(
        mean.*f.member, static_cast<M>(static_cast<double>(sum) / kRanks)));
    // Every value crosses the JSON codec unchanged.
    for (const auto& l : local) {
      const core::EpochBreakdown back =
          api::breakdown_from_json(json::Value::parse(api::to_json(l).dump()));
      EXPECT_TRUE(same_value(back.*f.member, l.*f.member));
      EXPECT_EQ(back.timing, l.timing);
    }
  });
  // Each rank keeps its own timing source.
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(reduced[static_cast<std::size_t>(r)].timing,
              local[static_cast<std::size_t>(r)].timing);
}

TEST(ReportJson, PreOverlapArtifactsStillParse) {
  // Artifacts written before EpochBreakdown::overlap_s existed have no such
  // key; the reader must default it to 0 rather than throw.
  json::Value v = api::to_json(sample_report());
  json::Value epochs = json::Value::array();
  for (std::size_t i = 0; i < v.at("epochs").size(); ++i) {
    json::Value e = json::Value::object();
    for (const auto& [key, val] : v.at("epochs")[i].members())
      if (key != "overlap_s") e.set(key, val);
    epochs.push_back(std::move(e));
  }
  v.set("epochs", std::move(epochs));
  const api::RunReport parsed = api::run_report_from_json(v);
  for (const auto& e : parsed.epochs) EXPECT_EQ(e.overlap_s, 0.0);
}

TEST(ReportJson, PrePartitionCacheArtifactsStillParse) {
  // Artifacts written before the partition cache existed have no
  // "partition_cache" object; the reader defaults the counters to zero.
  json::Value v = api::to_json(sample_report());
  json::Value stripped = json::Value::object();
  for (const auto& [key, val] : v.members())
    if (key != "partition_cache") stripped.set(key, val);
  const api::RunReport parsed = api::run_report_from_json(stripped);
  EXPECT_EQ(parsed.partition_cache, api::PartitionCacheStats{});
}

// ---------------------------------------------------------------------------
// RunConfig (de)serialization.
// ---------------------------------------------------------------------------

api::RunConfig sample_config() {
  api::RunConfig cfg;
  cfg.method = api::Method::kBns;
  cfg.dataset.preset = "reddit";
  cfg.dataset.scale = 0.75;
  SyntheticSpec custom;
  custom.name = "custom \"shape\"";
  custom.n = 1234;
  custom.m = 45678;
  custom.communities = 7;
  custom.num_classes = 5;
  custom.feat_dim = 24;
  custom.p_intra = 0.875;
  custom.degree_skew = 1.75;
  custom.feature_noise = 1.25;
  custom.feature_signal = 0.5;
  custom.label_noise = 0.0625;
  custom.multilabel = true;
  custom.labels_per_node = 4;
  custom.train_frac = 0.5;
  custom.val_frac = 0.25;
  custom.seed = 99;
  cfg.dataset.custom = custom;
  cfg.partition.kind = api::PartitionSpec::Kind::kBfs;
  cfg.partition.nparts = 6;
  cfg.partition.seed = 17;
  cfg.trainer.num_layers = 4;
  cfg.trainer.hidden = 96;
  cfg.trainer.model = core::ModelKind::kGat;
  cfg.trainer.gat_heads = 3;
  cfg.trainer.dropout = 0.25f;
  cfg.trainer.lr = 0.0078125f;
  cfg.trainer.epochs = 42;
  cfg.trainer.sample_rate = 0.125f;
  cfg.trainer.variant = core::SamplingVariant::kBoundaryEdge;
  cfg.trainer.unbiased_scaling = false;
  cfg.trainer.eval_every = 7;
  cfg.trainer.seed = 1234567;
  cfg.trainer.cost.latency_s = 2.5e-5;
  cfg.trainer.cost.bytes_per_s = 3.0e7;
  cfg.trainer.simulate_host_swap = true;
  cfg.trainer.threads = 6;
  cfg.comm.overlap = core::OverlapMode::kBulk;
  cfg.comm.inner_chunk_rows = 48;
  cfg.comm.cache_mb = 12;
  cfg.comm.cache_staleness = 2;
  cfg.minibatch.lr = 0.5f;
  cfg.minibatch.batch_size = 777;
  cfg.minibatch.batches_per_epoch = 3;
  cfg.minibatch.fanout = 15;
  cfg.minibatch.layer_budget = 321;
  cfg.minibatch.num_clusters = 12;
  cfg.minibatch.clusters_per_batch = 5;
  cfg.minibatch.saint_budget = 888;
  cfg.cagnet_c = 2;
  return cfg;
}

void expect_configs_equal(const api::RunConfig& a, const api::RunConfig& b) {
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.custom_method, b.custom_method);
  EXPECT_EQ(a.dataset.preset, b.dataset.preset);
  EXPECT_EQ(a.dataset.scale, b.dataset.scale);
  ASSERT_EQ(a.dataset.custom.has_value(), b.dataset.custom.has_value());
  if (a.dataset.custom) {
    const auto& x = *a.dataset.custom;
    const auto& y = *b.dataset.custom;
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.n, y.n);
    EXPECT_EQ(x.m, y.m);
    EXPECT_EQ(x.communities, y.communities);
    EXPECT_EQ(x.num_classes, y.num_classes);
    EXPECT_EQ(x.feat_dim, y.feat_dim);
    EXPECT_EQ(x.p_intra, y.p_intra);
    EXPECT_EQ(x.degree_skew, y.degree_skew);
    EXPECT_EQ(x.feature_noise, y.feature_noise);
    EXPECT_EQ(x.feature_signal, y.feature_signal);
    EXPECT_EQ(x.label_noise, y.label_noise);
    EXPECT_EQ(x.multilabel, y.multilabel);
    EXPECT_EQ(x.labels_per_node, y.labels_per_node);
    EXPECT_EQ(x.train_frac, y.train_frac);
    EXPECT_EQ(x.val_frac, y.val_frac);
    EXPECT_EQ(x.seed, y.seed);
  }
  EXPECT_EQ(a.partition.kind, b.partition.kind);
  EXPECT_EQ(a.partition.nparts, b.partition.nparts);
  EXPECT_EQ(a.partition.seed, b.partition.seed);
  EXPECT_EQ(a.trainer.num_layers, b.trainer.num_layers);
  EXPECT_EQ(a.trainer.hidden, b.trainer.hidden);
  EXPECT_EQ(a.trainer.model, b.trainer.model);
  EXPECT_EQ(a.trainer.gat_heads, b.trainer.gat_heads);
  EXPECT_EQ(a.trainer.dropout, b.trainer.dropout);
  EXPECT_EQ(a.trainer.lr, b.trainer.lr);
  EXPECT_EQ(a.trainer.epochs, b.trainer.epochs);
  EXPECT_EQ(a.trainer.sample_rate, b.trainer.sample_rate);
  EXPECT_EQ(a.trainer.variant, b.trainer.variant);
  EXPECT_EQ(a.trainer.unbiased_scaling, b.trainer.unbiased_scaling);
  EXPECT_EQ(a.trainer.eval_every, b.trainer.eval_every);
  EXPECT_EQ(a.trainer.seed, b.trainer.seed);
  EXPECT_EQ(a.trainer.cost.latency_s, b.trainer.cost.latency_s);
  EXPECT_EQ(a.trainer.cost.bytes_per_s, b.trainer.cost.bytes_per_s);
  EXPECT_EQ(a.trainer.simulate_host_swap, b.trainer.simulate_host_swap);
  EXPECT_EQ(a.trainer.threads, b.trainer.threads);
  EXPECT_EQ(a.comm.overlap, b.comm.overlap);
  EXPECT_EQ(a.comm.inner_chunk_rows, b.comm.inner_chunk_rows);
  EXPECT_EQ(a.comm.cache_mb, b.comm.cache_mb);
  EXPECT_EQ(a.comm.cache_staleness, b.comm.cache_staleness);
  EXPECT_EQ(a.comm.transport, b.comm.transport);
  EXPECT_EQ(a.minibatch.lr, b.minibatch.lr);
  EXPECT_EQ(a.minibatch.batch_size, b.minibatch.batch_size);
  EXPECT_EQ(a.minibatch.batches_per_epoch, b.minibatch.batches_per_epoch);
  EXPECT_EQ(a.minibatch.fanout, b.minibatch.fanout);
  EXPECT_EQ(a.minibatch.layer_budget, b.minibatch.layer_budget);
  EXPECT_EQ(a.minibatch.num_clusters, b.minibatch.num_clusters);
  EXPECT_EQ(a.minibatch.clusters_per_batch, b.minibatch.clusters_per_batch);
  EXPECT_EQ(a.minibatch.saint_budget, b.minibatch.saint_budget);
  EXPECT_EQ(a.cagnet_c, b.cagnet_c);
}

TEST(ConfigJson, RoundTripIsExact) {
  const api::RunConfig original = sample_config();
  const api::RunConfig parsed =
      api::run_config_from_json_string(api::to_json_string(original));
  expect_configs_equal(original, parsed);
  // The exchange knobs have one home in the document: "comm".
  const json::Value doc = api::to_json(original);
  for (const char* key :
       {"overlap", "inner_chunk_rows", "cache_mb", "cache_staleness"}) {
    EXPECT_EQ(doc.at("trainer").get(key), nullptr) << key;
    EXPECT_NE(doc.at("comm").get(key), nullptr) << key;
  }
}

TEST(ConfigJson, DefaultsRoundTrip) {
  const api::RunConfig parsed =
      api::run_config_from_json_string(api::to_json_string(api::RunConfig{}));
  expect_configs_equal(api::RunConfig{}, parsed);
}

TEST(ConfigJson, MinimalDocumentKeepsDefaults) {
  // Hand-written configs spell out only what they change.
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"method": "graph-saint", "trainer": {"epochs": 3}})");
  EXPECT_EQ(cfg.method, api::Method::kGraphSaint);
  EXPECT_EQ(cfg.trainer.epochs, 3);
  const api::RunConfig defaults;
  EXPECT_EQ(cfg.trainer.hidden, defaults.trainer.hidden);
  EXPECT_EQ(cfg.partition.nparts, defaults.partition.nparts);
  EXPECT_EQ(cfg.comm.overlap, defaults.comm.overlap);
}

TEST(ConfigJson, UnregisteredMethodNameBecomesCustom) {
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"method": "my-experimental-method"})");
  EXPECT_EQ(cfg.method, api::Method::kCustom);
  EXPECT_EQ(cfg.custom_method, "my-experimental-method");
  EXPECT_THROW((void)api::resolve_method(cfg), CheckError);
}

TEST(ConfigJson, OverlapModeRoundTripsEveryValue) {
  for (const auto mode :
       {core::OverlapMode::kBlocking, core::OverlapMode::kBulk,
        core::OverlapMode::kStream}) {
    api::RunConfig cfg;
    cfg.comm.overlap = mode;
    const api::RunConfig parsed =
        api::run_config_from_json_string(api::to_json_string(cfg));
    EXPECT_EQ(parsed.comm.overlap, mode);
  }
}

TEST(ConfigJson, ChunkKnobAbsentKeepsUnchunkedDefault) {
  // Artifacts written before the chunked inner phase have no
  // inner_chunk_rows key: the chunk must stay 0.
  const api::RunConfig cfg = api::run_config_from_json_string(
      R"({"comm": {"overlap": "stream"}, "trainer": {"epochs": 2}})");
  EXPECT_EQ(cfg.comm.inner_chunk_rows, 0);
}

TEST(ConfigJson, ThreadsKnobRoundTripsAndAbsentMeansSerial) {
  // The kernel thread-pool knob serializes as trainer.threads; artifacts
  // written before the pool landed have no such key and must load as the
  // serial default (1). The test-only oversubscribe bypass never
  // serializes.
  api::RunConfig cfg;
  cfg.trainer.threads = 4;
  cfg.trainer.threads_oversubscribe = true;
  const std::string doc = api::to_json_string(cfg);
  EXPECT_EQ(doc.find("threads_oversubscribe"), std::string::npos);
  const api::RunConfig parsed = api::run_config_from_json_string(doc);
  EXPECT_EQ(parsed.trainer.threads, 4);
  EXPECT_FALSE(parsed.trainer.threads_oversubscribe);
  const api::RunConfig legacy = api::run_config_from_json_string(
      R"({"trainer": {"epochs": 2, "inner_chunk_rows": 8}})");
  EXPECT_EQ(legacy.trainer.threads, 1);
}

TEST(ConfigJson, CacheStalenessSurvivesRoundTripWithoutCacheMb) {
  // Regression: the writer gated cache_staleness on cache_mb > 0, so a
  // config staging staleness ahead of enabling the cache (cache_mb == 0,
  // cache_staleness != 0) silently lost the staleness on round-trip —
  // replaying the artifact with the cache turned on then ran a different
  // (always-fresh) policy than the original config described.
  api::RunConfig cfg;
  cfg.comm.cache_staleness = 3;
  const api::RunConfig parsed =
      api::run_config_from_json_string(api::to_json_string(cfg));
  EXPECT_EQ(parsed.comm.cache_mb, 0);
  EXPECT_EQ(parsed.comm.cache_staleness, 3);

  // And with the cache enabled both knobs still round-trip.
  cfg.comm.cache_mb = 8;
  const api::RunConfig enabled =
      api::run_config_from_json_string(api::to_json_string(cfg));
  expect_configs_equal(cfg, enabled);
}

TEST(ConfigJson, LegacyOverlapBoolStillParses) {
  // PR 2/3 artifacts serialized the knob as a bool: true was the (then
  // only) bulk pipeline, false was blocking. Both spellings must keep
  // loading: in "comm" here, in "trainer" in
  // LegacyTrainerExchangeKeysFoldAsTheEngineDid.
  const api::RunConfig on =
      api::run_config_from_json_string(R"({"comm": {"overlap": true}})");
  EXPECT_EQ(on.comm.overlap, core::OverlapMode::kBulk);
  const api::RunConfig off =
      api::run_config_from_json_string(R"({"comm": {"overlap": false}})");
  EXPECT_EQ(off.comm.overlap, core::OverlapMode::kBlocking);
}

TEST(ConfigJson, OverlapModeStringsParse) {
  const api::RunConfig cfg =
      api::run_config_from_json_string(R"({"comm": {"overlap": "stream"}})");
  EXPECT_EQ(cfg.comm.overlap, core::OverlapMode::kStream);
  EXPECT_THROW((void)api::run_config_from_json_string(
                   R"({"comm": {"overlap": "warp"}})"),
               CheckError);
}

TEST(ConfigJson, EnumNamesWalkBothWaysAndNameTheEnumOnError) {
  const auto both_ways = [](const auto& list) {
    for (const auto& [value, spelling] : list.names) {
      EXPECT_STREQ(list.name(value), spelling);
      EXPECT_EQ(list.parse(spelling), value) << spelling;
    }
  };
  both_ways(enum_names(core::ModelKind{}));
  both_ways(enum_names(core::SamplingVariant{}));
  both_ways(enum_names(core::OverlapMode{}));
  both_ways(enum_names(api::PartitionSpec::Kind{}));
  const std::pair<const char*, const char*> bad[] = {
      {R"({"trainer": {"model": "gcn"}})", "unknown model kind: gcn"},
      {R"({"trainer": {"variant": "node"}})",
       "unknown sampling variant: node"},
      {R"({"comm": {"overlap": "warp"}})", "unknown overlap mode: warp"},
      {R"({"partition": {"kind": "spectral"}})",
       "unknown partition kind: spectral"}};
  for (const auto& [doc, message] : bad) {
    try {
      (void)api::run_config_from_json_string(doc);
      ADD_FAILURE() << doc << " parsed";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigJson, LegacyTrainerExchangeKeysFoldAsTheEngineDid) {
  // Documents written before the exchange knobs had one home carry them in
  // "trainer" too (the writer always emitted overlap and inner_chunk_rows
  // there), and the engine combined the two spellings at run time. Each
  // such document must parse to the spec that run handed its engine.
  struct Case {
    const char* trainer;
    const char* comm;
    core::ExchangeSpec want;
  };
  const Case cases[] = {
      {R"("overlap": "stream")", R"("overlap": "blocking")",
       {.overlap = core::OverlapMode::kStream}},
      {R"("overlap": "blocking")", R"("overlap": "stream")",
       {.overlap = core::OverlapMode::kStream}},
      {R"("inner_chunk_rows": 96)", R"("inner_chunk_rows": 48)",
       {.inner_chunk_rows = 48}},
      {R"("inner_chunk_rows": 96)", R"("inner_chunk_rows": 0)",
       {.inner_chunk_rows = 96}},
      {R"("cache_mb": 16, "cache_staleness": 5)", R"("cache_staleness": 3)",
       {.cache_mb = 16, .cache_staleness = 5}},
      {R"("cache_mb": 16, "cache_staleness": 5)",
       R"("cache_mb": 8, "cache_staleness": 2)",
       {.cache_mb = 8, .cache_staleness = 2}},
      {R"("overlap": true)", R"("transport": "mailbox")",
       {.overlap = core::OverlapMode::kBulk}},
      {R"("overlap": "blocking")", R"("overlap": true)",
       {.overlap = core::OverlapMode::kBulk}},
  };
  for (const Case& c : cases) {
    const std::string doc = std::string(R"({"trainer": {"epochs": 2, )") +
                            c.trainer + R"(}, "comm": {)" + c.comm + "}}";
    SCOPED_TRACE(doc);
    const api::RunConfig cfg = api::run_config_from_json_string(doc);
    EXPECT_EQ(cfg.comm.overlap, c.want.overlap);
    EXPECT_EQ(cfg.comm.inner_chunk_rows, c.want.inner_chunk_rows);
    EXPECT_EQ(cfg.comm.cache_mb, c.want.cache_mb);
    EXPECT_EQ(cfg.comm.cache_staleness, c.want.cache_staleness);
  }
}

TEST(ReportJson, PreTailArtifactsStillParse) {
  // Artifacts written before EpochBreakdown::comm_tail_s existed have no
  // such key; the reader must default it to 0 rather than throw.
  json::Value v = api::to_json(sample_report());
  json::Value epochs = json::Value::array();
  for (std::size_t i = 0; i < v.at("epochs").size(); ++i) {
    json::Value e = json::Value::object();
    for (const auto& [key, val] : v.at("epochs")[i].members())
      if (key != "comm_tail_s") e.set(key, val);
    epochs.push_back(std::move(e));
  }
  v.set("epochs", std::move(epochs));
  const api::RunReport parsed = api::run_report_from_json(v);
  for (const auto& e : parsed.epochs) EXPECT_EQ(e.comm_tail_s, 0.0);
}

TEST(ConfigJson, ReplayReproducesARunExactly) {
  // The artifact promise: a config serialized next to a report replays to
  // the identical run (observer aside, everything that matters round-trips).
  api::RunConfig cfg;
  SyntheticSpec spec;
  spec.n = 600;
  spec.m = 5000;
  spec.communities = 4;
  spec.num_classes = 4;
  spec.feat_dim = 8;
  spec.seed = 33;
  cfg.dataset.custom = spec;
  cfg.partition.nparts = 3;
  cfg.trainer.num_layers = 2;
  cfg.trainer.hidden = 16;
  cfg.trainer.epochs = 4;
  cfg.trainer.sample_rate = 0.5f;
  cfg.comm.overlap = core::OverlapMode::kStream;

  const api::RunReport first = api::run(cfg);
  const api::RunConfig replayed =
      api::run_config_from_json_string(api::to_json_string(cfg));
  const api::RunReport second = api::run(replayed);
  EXPECT_EQ(first.train_loss, second.train_loss);
  EXPECT_EQ(first.final_val, second.final_val);
  EXPECT_EQ(first.final_test, second.final_test);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(json::Value::parse("{\"a\": }"), CheckError);
  EXPECT_THROW(json::Value::parse("[1, 2"), CheckError);
  EXPECT_THROW(json::Value::parse("{} trailing"), CheckError);
  EXPECT_THROW(json::Value::parse("nul"), CheckError);
}

TEST(Json, NonFiniteTokensParseButAreNoIntegers) {
  const json::Value v = json::Value::parse("[NaN, Infinity, -Infinity, -1]");
  EXPECT_TRUE(std::isnan(v[0].as_double()));
  EXPECT_EQ(v[1].as_double(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(v[2].as_double(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.dump(), "[NaN,Infinity,-Infinity,-1]");
  // No integer field can silently take a non-finite value.
  EXPECT_THROW((void)v[0].as_int64(), CheckError);
  EXPECT_THROW((void)v[1].as_int64(), CheckError);
  EXPECT_EQ(v[3].as_int64(), -1);
  EXPECT_THROW(json::Value::parse("-NaN"), CheckError);
  EXPECT_THROW(json::Value::parse("Inf"), CheckError);
}

TEST(Json, EscapesRoundTrip) {
  json::Value v = json::Value::object();
  v.set("k", "line\nbreak\ttab \"quote\" back\\slash \x01 control");
  const json::Value parsed = json::Value::parse(v.dump());
  EXPECT_EQ(parsed.at("k").as_string(), v.at("k").as_string());
}

} // namespace
} // namespace bnsgcn
