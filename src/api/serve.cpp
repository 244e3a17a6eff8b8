#include "api/serve.hpp"

#include <utility>

#include "api/multiprocess.hpp"
#include "api/partition_cache.hpp"
#include "common/check.hpp"

namespace bnsgcn::api {

namespace {

/// Engine result -> report rows. method/dataset/train_wall_s are stamped
/// by the caller (under the forked runtime this runs in the child, which
/// does not know the training provenance).
ServeReport report_from_result(core::ServeResult&& res,
                               const ServeConfig& scfg) {
  ServeReport r;
  r.batch_size = scfg.batch_size;
  r.num_batches = scfg.num_batches;
  r.num_classes = res.num_classes;
  r.batches = std::move(res.batches);
  r.queries = std::move(res.queries);
  r.predictions = std::move(res.predictions);
  r.logits = std::move(res.logits);
  r.serve_wall_s = res.wall_time_s;
  r.timing = res.timing;
  return r;
}

/// Read `key` into `out` when present (absent keys keep the default).
template <typename T, typename Reader>
void read_if(const json::Value& v, const char* key, T& out, Reader read) {
  if (const auto* f = v.get(key)) out = read(*f);
}

const auto as_i = [](const json::Value& f) {
  return static_cast<int>(f.as_int64());
};
const auto as_i64 = [](const json::Value& f) { return f.as_int64(); };
const auto as_b = [](const json::Value& f) { return f.as_bool(); };

json::Value batch_to_json(const core::ServeBatchStats& b) {
  json::Value v = json::Value::object();
  v.set("latency_s", b.latency_s);
  v.set("comm_s", b.comm_s);
  v.set("feature_bytes", b.feature_bytes);
  v.set("control_bytes", b.control_bytes);
  // Written only when a halo cache ran (RunReport conventions).
  if (b.cache_hit_rows != 0 || b.cache_miss_rows != 0 || b.bytes_saved != 0) {
    v.set("cache_hit_rows", b.cache_hit_rows);
    v.set("cache_miss_rows", b.cache_miss_rows);
    v.set("bytes_saved", b.bytes_saved);
  }
  return v;
}

core::ServeBatchStats batch_from_json(const json::Value& v) {
  core::ServeBatchStats b;
  b.latency_s = v.at("latency_s").as_double();
  b.comm_s = v.at("comm_s").as_double();
  b.feature_bytes = v.at("feature_bytes").as_int64();
  b.control_bytes = v.at("control_bytes").as_int64();
  read_if(v, "cache_hit_rows", b.cache_hit_rows, as_i64);
  read_if(v, "cache_miss_rows", b.cache_miss_rows, as_i64);
  read_if(v, "bytes_saved", b.bytes_saved, as_i64);
  return b;
}

} // namespace

ServeReport serve(const Dataset& ds, const Partitioning& part,
                  const RunConfig& cfg, const ServeConfig& scfg) {
  const MethodInfo& info = resolve_method(cfg);
  BNSGCN_CHECK_MSG(info.method == Method::kBns,
                   "api::serve rides the partition-parallel engine: method "
                   "must be bns, got " + info.name);

  // Train on the in-process mailbox regardless of the serving transport:
  // trained weights are bit-identical across transports (the tier-1 parity
  // suites pin this), and the in-process run is what lets the snapshot be
  // captured without a serialization path.
  core::TrainerConfig tcfg = cfg.trainer;
  core::WeightSnapshot snapshot;
  tcfg.capture_weights = &snapshot;
  core::TrainResult tr = core::BnsTrainer(ds, part, tcfg, cfg.comm).train();
  BNSGCN_CHECK_MSG(!snapshot.empty(), "training produced no weight snapshot");
  tcfg.capture_weights = nullptr;
  tcfg.observer = nullptr;  // per-epoch callback is a training-only hook

  core::InferenceEngine engine(ds, part, tcfg, cfg.comm, snapshot);

  ServeReport report;
  if (cfg.comm.transport == comm::TransportKind::kMailbox) {
    report = report_from_result(engine.serve(scfg), scfg);
  } else {
    // Socket transports fork one OS process per rank through the shared
    // piped-rank runtime; the engine (weights, local graphs) was built
    // pre-fork and is inherited copy-on-write.
    const std::string payload = run_ranks_piped(
        cfg.comm.transport, part.nparts, tcfg.cost,
        [&](comm::Fabric& fabric, PartId rank) {
          core::ServeResult res = engine.serve_rank(fabric, rank, scfg);
          if (rank != 0) return std::string();
          return to_json_string(report_from_result(std::move(res), scfg));
        });
    report = serve_report_from_json_string(payload);
  }
  report.method = info.name;
  report.dataset = ds.name;
  report.train_wall_s = tr.wall_time_s;
  return report;
}

ServeReport serve(const Dataset& ds, const RunConfig& cfg,
                  const ServeConfig& scfg) {
  const std::shared_ptr<const Partitioning> part =
      partition_cache().get(ds.graph, cfg.partition);
  return serve(ds, *part, cfg, scfg);
}

ServeReport serve(const RunConfig& cfg, const ServeConfig& scfg) {
  const Dataset ds = make_dataset(cfg.dataset);
  return serve(ds, cfg, scfg);
}

json::Value to_json(const ServeConfig& scfg) {
  json::Value v = json::Value::object();
  v.set("batch_size", scfg.batch_size);
  v.set("num_batches", scfg.num_batches);
  v.set("seed", static_cast<std::int64_t>(scfg.seed));
  v.set("record_logits", scfg.record_logits);
  // fail_rank is test-only: not serialized.
  return v;
}

ServeConfig serve_config_from_json(const json::Value& v) {
  ServeConfig scfg;
  read_if(v, "batch_size", scfg.batch_size, as_i);
  read_if(v, "num_batches", scfg.num_batches, as_i);
  read_if(v, "seed", scfg.seed, [](const json::Value& f) {
    return static_cast<std::uint64_t>(f.as_int64());
  });
  read_if(v, "record_logits", scfg.record_logits, as_b);
  return scfg;
}

json::Value to_json(const ServeReport& r) {
  json::Value v = json::Value::object();
  v.set("method", r.method);
  v.set("dataset", r.dataset);
  v.set("batch_size", r.batch_size);
  v.set("num_batches", r.num_batches);
  v.set("num_classes", r.num_classes);
  v.set("train_wall_s", r.train_wall_s);
  v.set("serve_wall_s", r.serve_wall_s);
  // Written only for measured (socket-fabric) serves, RunReport style.
  if (r.timing == comm::TimingSource::kMeasured)
    v.set("timing_source", "measured");
  json::Value batches = json::Value::array();
  for (const auto& b : r.batches) batches.push_back(batch_to_json(b));
  v.set("batches", std::move(batches));
  json::Value queries = json::Value::array();
  for (const NodeId q : r.queries)
    queries.push_back(static_cast<std::int64_t>(q));
  v.set("queries", std::move(queries));
  json::Value preds = json::Value::array();
  for (const int p : r.predictions) preds.push_back(p);
  v.set("predictions", std::move(preds));
  // Logits only when recorded: floats widen to double and %.17g emission
  // round-trips them bit-exactly (the cross-transport determinism tests
  // compare logits that crossed this boundary).
  if (!r.logits.empty()) {
    json::Value logits = json::Value::array();
    for (const float f : r.logits)
      logits.push_back(static_cast<double>(f));
    v.set("logits", std::move(logits));
  }
  // Derived headline numbers, for consumers that only want the summary.
  json::Value derived = json::Value::object();
  derived.set("total_queries", r.total_queries());
  derived.set("p50_latency_s", r.p50_latency_s());
  derived.set("p99_latency_s", r.p99_latency_s());
  derived.set("qps", r.qps());
  if (r.cache_hit_rows() != 0 || r.cache_miss_rows() != 0) {
    derived.set("cache_hit_rows", r.cache_hit_rows());
    derived.set("cache_miss_rows", r.cache_miss_rows());
    derived.set("cache_bytes_saved", r.cache_bytes_saved());
    derived.set("cache_hit_rate", r.cache_hit_rate());
  }
  v.set("derived", std::move(derived));
  return v;
}

ServeReport serve_report_from_json(const json::Value& v) {
  ServeReport r;
  r.method = v.at("method").as_string();
  r.dataset = v.at("dataset").as_string();
  r.batch_size = static_cast<int>(v.at("batch_size").as_int64());
  r.num_batches = static_cast<int>(v.at("num_batches").as_int64());
  r.num_classes = static_cast<int>(v.at("num_classes").as_int64());
  r.train_wall_s = v.at("train_wall_s").as_double();
  r.serve_wall_s = v.at("serve_wall_s").as_double();
  if (const auto* ts = v.get("timing_source")) {
    const std::string s = ts->as_string();
    BNSGCN_CHECK_MSG(s == "measured" || s == "simulated",
                     "unknown timing_source: " + s);
    r.timing = s == "measured" ? comm::TimingSource::kMeasured
                               : comm::TimingSource::kSimulated;
  }
  for (const auto& b : v.at("batches").items())
    r.batches.push_back(batch_from_json(b));
  for (const auto& q : v.at("queries").items())
    r.queries.push_back(static_cast<NodeId>(q.as_int64()));
  for (const auto& p : v.at("predictions").items())
    r.predictions.push_back(static_cast<int>(p.as_int64()));
  if (const auto* logits = v.get("logits")) {
    for (const auto& f : logits->items())
      r.logits.push_back(static_cast<float>(f.as_double()));
  }
  // "derived" is recomputed from the stored fields by the accessors.
  return r;
}

std::string to_json_string(const ServeConfig& scfg, int indent) {
  return to_json(scfg).dump(indent);
}

ServeConfig serve_config_from_json_string(std::string_view text) {
  return serve_config_from_json(json::Value::parse(text));
}

std::string to_json_string(const ServeReport& r, int indent) {
  return to_json(r).dump(indent);
}

ServeReport serve_report_from_json_string(std::string_view text) {
  return serve_report_from_json(json::Value::parse(text));
}

} // namespace bnsgcn::api
