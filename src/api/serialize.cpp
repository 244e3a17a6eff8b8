#include "api/serialize.hpp"

#include <algorithm>
#include <concepts>
#include <type_traits>

#include "api/serve.hpp"

namespace bnsgcn::api {

namespace {

// ---------------------------------------------------------------------------
// The field codec. One encode/decode pair per member type — integers travel
// as int64, floats widen to double, enums by their name list, report rows
// and CostModel by their field tables — and the two walkers over a field
// table (common/fields.hpp). The non-template overloads are declared before
// the templates that call them.
// ---------------------------------------------------------------------------

json::Value encode(bool b) { return b; }
json::Value encode(double d) { return d; }
json::Value encode(float f) { return static_cast<double>(f); }
json::Value encode(const std::string& s) { return s; }
json::Value encode(const comm::CostModel& c);
json::Value encode(const core::EvalPoint& p);
json::Value encode(const core::ServeBatchStats& b);
json::Value encode(const core::EpochBreakdown& e) { return to_json(e); }

template <std::integral I>
json::Value encode(I i) {
  return static_cast<std::int64_t>(i);
}

template <class E>
  requires std::is_enum_v<E>
json::Value encode(E e) {
  return enum_names(e).name(e);
}

template <class T>
json::Value encode(const std::vector<T>& xs) {
  json::Value a = json::Value::array();
  for (const T& x : xs) a.push_back(encode(x));
  return a;
}

void decode(const json::Value& v, bool& b) { b = v.as_bool(); }
void decode(const json::Value& v, double& d) { d = v.as_double(); }
void decode(const json::Value& v, float& f) {
  f = static_cast<float>(v.as_double());
}
void decode(const json::Value& v, std::string& s) { s = v.as_string(); }
void decode(const json::Value& v, comm::CostModel& c);
void decode(const json::Value& v, core::EvalPoint& p);
void decode(const json::Value& v, core::ServeBatchStats& b);
void decode(const json::Value& v, core::EpochBreakdown& e) {
  e = breakdown_from_json(v);
}

/// Also reads the early artifact schema, where the overlap knob was a bool
/// (true meant the bulk pipeline).
void decode(const json::Value& v, core::OverlapMode& m) {
  if (v.kind() == json::Value::Kind::kBool) {
    m = v.as_bool() ? core::OverlapMode::kBulk : core::OverlapMode::kBlocking;
    return;
  }
  m = enum_names(m).parse(v.as_string());
}

template <std::integral I>
void decode(const json::Value& v, I& i) {
  i = static_cast<I>(v.as_int64());
}

template <class E>
  requires std::is_enum_v<E>
void decode(const json::Value& v, E& e) {
  e = enum_names(e).parse(v.as_string());
}

template <class T>
void decode(const json::Value& v, std::vector<T>& xs) {
  for (const auto& item : v.items()) decode(item, xs.emplace_back());
}

/// `s` as a JSON object, key by key in table order. kCache entries are
/// written only when one of them is nonzero, which keeps every artifact
/// recorded without a halo cache byte-identical.
template <class S, class Table>
json::Value write_fields(const S& s, const Table& table) {
  bool cache_ran = false;
  for_each_field(table, [&](const auto& f) {
    using M = std::remove_cvref_t<decltype(s.*f.member)>;
    if constexpr (std::is_arithmetic_v<M>)
      cache_ran |= f.presence == Presence::kCache && s.*f.member != 0;
  });
  json::Value v = json::Value::object();
  for_each_field(table, [&](const auto& f) {
    if (f.presence != Presence::kCache || cache_ran)
      v.set(std::string(f.key), encode(s.*f.member));
  });
  return v;
}

/// Read the table's keys of `v` into `s`. An absent key keeps the member's
/// value; it throws only for a kRequired entry of a report row. Config
/// documents pass `config`: every key is optional, so hand-written configs
/// spell out only what they change.
template <class S, class Table>
void read_fields(const json::Value& v, S& s, const Table& table,
                 bool config = false) {
  for_each_field(table, [&](const auto& f) {
    if (const json::Value* x = v.get(f.key)) {
      decode(*x, s.*f.member);
    } else if (!config && f.presence == Presence::kRequired) {
      (void)v.at(f.key); // throws: the key is missing
    }
  });
}

json::Value encode(const comm::CostModel& c) {
  return write_fields(c, comm::kCostModelFields);
}
void decode(const json::Value& v, comm::CostModel& c) {
  read_fields(v, c, comm::kCostModelFields, /*config=*/true);
}
json::Value encode(const core::EvalPoint& p) {
  return write_fields(p, core::kEvalPointFields);
}
void decode(const json::Value& v, core::EvalPoint& p) {
  read_fields(v, p, core::kEvalPointFields);
}
json::Value encode(const core::ServeBatchStats& b) {
  return write_fields(b, core::kServeBatchStatsFields);
}
void decode(const json::Value& v, core::ServeBatchStats& b) {
  read_fields(v, b, core::kServeBatchStatsFields);
}

/// "timing_source" is written only for measured (socket-fabric) timing;
/// absent means simulated, which keeps every pre-existing artifact
/// byte-identical.
void set_timing(json::Value& v, comm::TimingSource timing) {
  if (timing == comm::TimingSource::kMeasured)
    v.set("timing_source", "measured");
}

void read_timing(const json::Value& v, comm::TimingSource& timing) {
  const auto* ts = v.get("timing_source");
  if (ts == nullptr) return;
  const std::string s = ts->as_string();
  BNSGCN_CHECK_MSG(s == "measured" || s == "simulated",
                   "unknown timing_source: " + s);
  timing = s == "measured" ? comm::TimingSource::kMeasured
                           : comm::TimingSource::kSimulated;
}

/// The halo-cache headline of a run's "derived" block, only when a cache
/// ran (keeps old artifacts byte-identical).
template <class Run>
void set_cache_totals(json::Value& derived,
                      const core::HaloCacheTotals<Run>& r) {
  if (r.cache_hit_rows() == 0 && r.cache_miss_rows() == 0) return;
  derived.set("cache_hit_rows", r.cache_hit_rows());
  derived.set("cache_miss_rows", r.cache_miss_rows());
  derived.set("cache_bytes_saved", r.cache_bytes_saved());
  derived.set("cache_hit_rate", r.cache_hit_rate());
}

} // namespace

json::Value to_json(const core::EpochBreakdown& e) {
  json::Value v = write_fields(e, core::kEpochBreakdownFields);
  set_timing(v, e.timing);
  return v;
}

core::EpochBreakdown breakdown_from_json(const json::Value& v) {
  core::EpochBreakdown e;
  read_fields(v, e, core::kEpochBreakdownFields);
  read_timing(v, e.timing);
  return e;
}

json::Value to_json(const RunReport& r) {
  json::Value v = json::Value::object();
  v.set("method", r.method);
  v.set("dataset", r.dataset);
  v.set("train_loss", encode(r.train_loss));
  v.set("curve", encode(r.curve));
  v.set("final_val", r.final_val);
  v.set("final_test", r.final_test);
  v.set("epochs", encode(r.epochs));
  v.set("memory", write_fields(r.memory, core::kMemoryReportFields));
  v.set("wall_time_s", r.wall_time_s);
  // Headline timing provenance, mirroring the per-epoch flags.
  if (!r.epochs.empty()) set_timing(v, r.epochs.front().timing);
  v.set("partition_cache",
        write_fields(r.partition_cache, kPartitionCacheStatsFields));
  // Derived headline numbers, for consumers that only want the summary.
  json::Value derived = json::Value::object();
  derived.set("throughput_eps", r.throughput_eps());
  derived.set("sampler_overhead", r.sampler_overhead());
  derived.set("epoch_time_s", r.epoch_time_s());
  derived.set("total_train_s", r.total_train_s());
  derived.set("overlap_saved_s", r.overlap_saved_s());
  derived.set("overlap_fraction", r.overlap_fraction());
  set_cache_totals(derived, r);
  v.set("derived", std::move(derived));
  return v;
}

RunReport run_report_from_json(const json::Value& v) {
  RunReport r;
  decode(v.at("method"), r.method);
  decode(v.at("dataset"), r.dataset);
  decode(v.at("train_loss"), r.train_loss);
  decode(v.at("curve"), r.curve);
  decode(v.at("final_val"), r.final_val);
  decode(v.at("final_test"), r.final_test);
  decode(v.at("epochs"), r.epochs);
  read_fields(v.at("memory"), r.memory, core::kMemoryReportFields);
  decode(v.at("wall_time_s"), r.wall_time_s);
  // Absent in artifacts written before the partition cache existed.
  if (const auto* pc = v.get("partition_cache"))
    read_fields(*pc, r.partition_cache, kPartitionCacheStatsFields);
  // "derived" is intentionally not read back: it is recomputed from the
  // stored fields by the accessors.
  return r;
}

std::string to_json_string(const RunReport& r, int indent) {
  return to_json(r).dump(indent);
}

RunReport run_report_from_json_string(std::string_view text) {
  return run_report_from_json(json::Value::parse(text));
}

// ---------------------------------------------------------------------------
// RunConfig (de)serialization. Enums travel as their canonical short
// strings; readers accept missing keys (C++ defaults apply) so configs
// written against an older schema, or hand-written minimal ones, load.
// ---------------------------------------------------------------------------

namespace {

/// Documents written before the exchange knobs had one home also carry
/// them in "trainer", and the engine combined the two spellings at run
/// time. Fold them into `comm` once, by that same rule, so an old artifact
/// parses to the spec its run used: the stronger overlap mode; the comm
/// chunk when positive; the comm cache pair when its budget is positive.
void fold_legacy_exchange(const json::Value& trainer,
                          core::ExchangeSpec& comm) {
  bool carries_knobs = false;
  for_each_field(core::kExchangeSpecFields, [&](const auto& f) {
    carries_knobs |= trainer.get(f.key) != nullptr;
  });
  if (!carries_knobs) return;
  core::ExchangeSpec legacy;
  read_fields(trainer, legacy, core::kExchangeSpecFields, /*config=*/true);
  comm.overlap = std::max(comm.overlap, legacy.overlap);
  if (comm.inner_chunk_rows <= 0)
    comm.inner_chunk_rows = legacy.inner_chunk_rows;
  if (comm.cache_mb <= 0) {
    comm.cache_mb = legacy.cache_mb;
    comm.cache_staleness = legacy.cache_staleness;
  }
}

} // namespace

json::Value to_json(const RunConfig& cfg) {
  json::Value v = json::Value::object();
  // Methods travel by registry name (stable across enum reordering);
  // custom methods already are names and need not be registered to
  // serialize.
  v.set("method", cfg.method == Method::kCustom ? cfg.custom_method
                                                : method_info(cfg.method).name);

  json::Value ds = json::Value::object();
  ds.set("preset", cfg.dataset.preset);
  ds.set("scale", cfg.dataset.scale);
  if (cfg.dataset.custom)
    ds.set("custom", write_fields(*cfg.dataset.custom, kSyntheticSpecFields));
  v.set("dataset", std::move(ds));
  v.set("partition", write_fields(cfg.partition, kPartitionSpecFields));
  // The per-epoch observer is a process-local callback, and the
  // threads_oversubscribe test-only knob: not serialized.
  v.set("trainer", write_fields(cfg.trainer, core::kTrainerConfigFields));

  json::Value comm = json::Value::object();
  comm.set("overlap", encode(cfg.comm.overlap));
  comm.set("inner_chunk_rows", encode(cfg.comm.inner_chunk_rows));
  comm.set("transport", comm::transport_kind_name(cfg.comm.transport));
  // Halo-cache knobs: written only when non-default, so configs predating
  // them (and uncached ones) round-trip byte-identical. cache_staleness is
  // keyed on its own value too, so a staleness staged ahead of the budget
  // survives the round trip.
  if (cfg.comm.cache_mb != 0) comm.set("cache_mb", cfg.comm.cache_mb);
  if (cfg.comm.cache_mb != 0 || cfg.comm.cache_staleness != 0)
    comm.set("cache_staleness", cfg.comm.cache_staleness);
  v.set("comm", std::move(comm));

  v.set("minibatch",
        write_fields(cfg.minibatch, baselines::kMinibatchConfigFields));
  v.set("cagnet_c", cfg.cagnet_c);
  return v;
}

RunConfig run_config_from_json(const json::Value& v) {
  RunConfig cfg;
  if (const auto* m = v.get("method")) {
    const std::string name = m->as_string();
    const MethodInfo* info = find_method(name);
    if (info != nullptr && info->method != Method::kCustom) {
      cfg.method = info->method;
    } else {
      // Custom (or not-yet-registered) method: resolved by name at run().
      cfg.method = Method::kCustom;
      cfg.custom_method = name;
    }
  }
  if (const auto* ds = v.get("dataset")) {
    if (const auto* p = ds->get("preset")) decode(*p, cfg.dataset.preset);
    if (const auto* s = ds->get("scale")) decode(*s, cfg.dataset.scale);
    if (const auto* c = ds->get("custom"))
      read_fields(*c, cfg.dataset.custom.emplace(), kSyntheticSpecFields,
                  /*config=*/true);
  }
  if (const auto* p = v.get("partition"))
    read_fields(*p, cfg.partition, kPartitionSpecFields, /*config=*/true);
  if (const auto* c = v.get("comm")) {
    read_fields(*c, cfg.comm, core::kExchangeSpecFields, /*config=*/true);
    // Absent in configs written before socket transports existed: mailbox.
    if (const auto* t = c->get("transport"))
      cfg.comm.transport = comm::transport_kind_from_name(t->as_string());
  }
  if (const auto* t = v.get("trainer")) {
    read_fields(*t, cfg.trainer, core::kTrainerConfigFields, /*config=*/true);
    fold_legacy_exchange(*t, cfg.comm);
  }
  if (const auto* mb = v.get("minibatch"))
    read_fields(*mb, cfg.minibatch, baselines::kMinibatchConfigFields,
                /*config=*/true);
  if (const auto* c = v.get("cagnet_c")) decode(*c, cfg.cagnet_c);
  return cfg;
}

std::string to_json_string(const RunConfig& cfg, int indent) {
  return to_json(cfg).dump(indent);
}

RunConfig run_config_from_json_string(std::string_view text) {
  return run_config_from_json(json::Value::parse(text));
}

// ---------------------------------------------------------------------------
// ServeConfig / ServeReport (de)serialization, RunReport conventions.
// ---------------------------------------------------------------------------

json::Value to_json(const ServeConfig& scfg) {
  // fail_rank is test-only: not serialized.
  return write_fields(scfg, core::kServeOptionsFields);
}

ServeConfig serve_config_from_json(const json::Value& v) {
  ServeConfig scfg;
  read_fields(v, scfg, core::kServeOptionsFields, /*config=*/true);
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
  set_timing(v, r.timing);
  v.set("batches", encode(r.batches));
  v.set("queries", encode(r.queries));
  v.set("predictions", encode(r.predictions));
  // Logits only when recorded: floats widen to double and %.17g emission
  // round-trips them bit-exactly (the cross-transport determinism tests
  // compare logits that crossed this boundary).
  if (!r.logits.empty()) v.set("logits", encode(r.logits));
  // Derived headline numbers, for consumers that only want the summary.
  json::Value derived = json::Value::object();
  derived.set("total_queries", r.total_queries());
  derived.set("p50_latency_s", r.p50_latency_s());
  derived.set("p99_latency_s", r.p99_latency_s());
  derived.set("qps", r.qps());
  set_cache_totals(derived, r);
  v.set("derived", std::move(derived));
  return v;
}

ServeReport serve_report_from_json(const json::Value& v) {
  ServeReport r;
  decode(v.at("method"), r.method);
  decode(v.at("dataset"), r.dataset);
  decode(v.at("batch_size"), r.batch_size);
  decode(v.at("num_batches"), r.num_batches);
  decode(v.at("num_classes"), r.num_classes);
  decode(v.at("train_wall_s"), r.train_wall_s);
  decode(v.at("serve_wall_s"), r.serve_wall_s);
  read_timing(v, r.timing);
  decode(v.at("batches"), r.batches);
  decode(v.at("queries"), r.queries);
  decode(v.at("predictions"), r.predictions);
  if (const auto* logits = v.get("logits")) decode(*logits, r.logits);
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
