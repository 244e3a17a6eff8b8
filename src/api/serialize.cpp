#include "api/serialize.hpp"

#include <algorithm>

#include "api/serve.hpp"

namespace bnsgcn::api {

namespace {

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

} // namespace

json::Value to_json(const core::EpochBreakdown& e) {
  json::Value v = json::Value::object();
  v.set("compute_s", e.compute_s);
  v.set("comm_s", e.comm_s);
  v.set("reduce_s", e.reduce_s);
  v.set("sample_s", e.sample_s);
  v.set("swap_s", e.swap_s);
  v.set("overlap_s", e.overlap_s);
  v.set("comm_tail_s", e.comm_tail_s);
  v.set("feature_bytes", e.feature_bytes);
  v.set("grad_bytes", e.grad_bytes);
  v.set("control_bytes", e.control_bytes);
  // Written only when a halo cache ran (any counter nonzero); absent keeps
  // every pre-existing artifact byte-identical.
  if (e.cache_hit_rows != 0 || e.cache_miss_rows != 0 || e.bytes_saved != 0) {
    v.set("cache_hit_rows", e.cache_hit_rows);
    v.set("cache_miss_rows", e.cache_miss_rows);
    v.set("bytes_saved", e.bytes_saved);
  }
  set_timing(v, e.timing);
  return v;
}

core::EpochBreakdown breakdown_from_json(const json::Value& v) {
  core::EpochBreakdown e;
  e.compute_s = v.at("compute_s").as_double();
  e.comm_s = v.at("comm_s").as_double();
  e.reduce_s = v.at("reduce_s").as_double();
  e.sample_s = v.at("sample_s").as_double();
  e.swap_s = v.at("swap_s").as_double();
  // Absent in artifacts written before these fields existed.
  if (const auto* o = v.get("overlap_s")) e.overlap_s = o->as_double();
  if (const auto* t = v.get("comm_tail_s")) e.comm_tail_s = t->as_double();
  read_timing(v, e.timing);
  e.feature_bytes = v.at("feature_bytes").as_int64();
  e.grad_bytes = v.at("grad_bytes").as_int64();
  e.control_bytes = v.at("control_bytes").as_int64();
  // Absent in artifacts written before the halo cache (and in uncached
  // runs): the zero defaults stand.
  if (const auto* h = v.get("cache_hit_rows")) e.cache_hit_rows = h->as_int64();
  if (const auto* m = v.get("cache_miss_rows"))
    e.cache_miss_rows = m->as_int64();
  if (const auto* s = v.get("bytes_saved")) e.bytes_saved = s->as_int64();
  return e;
}

json::Value to_json(const core::EvalPoint& p) {
  json::Value v = json::Value::object();
  v.set("epoch", p.epoch);
  v.set("val", p.val);
  v.set("test", p.test);
  v.set("train_loss", p.train_loss);
  return v;
}

core::EvalPoint eval_point_from_json(const json::Value& v) {
  core::EvalPoint p;
  p.epoch = static_cast<int>(v.at("epoch").as_int64());
  p.val = v.at("val").as_double();
  p.test = v.at("test").as_double();
  p.train_loss = v.at("train_loss").as_double();
  return p;
}

json::Value to_json(const core::MemoryReport& m) {
  json::Value v = json::Value::object();
  json::Value model = json::Value::array();
  for (const double b : m.model_bytes) model.push_back(b);
  json::Value full = json::Value::array();
  for (const std::int64_t b : m.full_bytes) full.push_back(b);
  v.set("model_bytes", std::move(model));
  v.set("full_bytes", std::move(full));
  return v;
}

core::MemoryReport memory_from_json(const json::Value& v) {
  core::MemoryReport m;
  for (const auto& b : v.at("model_bytes").items())
    m.model_bytes.push_back(b.as_double());
  for (const auto& b : v.at("full_bytes").items())
    m.full_bytes.push_back(b.as_int64());
  return m;
}

json::Value to_json(const RunReport& r) {
  json::Value v = json::Value::object();
  v.set("method", r.method);
  v.set("dataset", r.dataset);
  json::Value loss = json::Value::array();
  for (const double l : r.train_loss) loss.push_back(l);
  v.set("train_loss", std::move(loss));
  json::Value curve = json::Value::array();
  for (const auto& p : r.curve) curve.push_back(to_json(p));
  v.set("curve", std::move(curve));
  v.set("final_val", r.final_val);
  v.set("final_test", r.final_test);
  json::Value epochs = json::Value::array();
  for (const auto& e : r.epochs) epochs.push_back(to_json(e));
  v.set("epochs", std::move(epochs));
  v.set("memory", to_json(r.memory));
  v.set("wall_time_s", r.wall_time_s);
  // Headline timing provenance, mirroring the per-epoch flags.
  if (!r.epochs.empty()) set_timing(v, r.epochs.front().timing);
  json::Value pc = json::Value::object();
  pc.set("hits", r.partition_cache.hits);
  pc.set("disk_hits", r.partition_cache.disk_hits);
  pc.set("misses", r.partition_cache.misses);
  pc.set("evictions", r.partition_cache.evictions);
  v.set("partition_cache", std::move(pc));
  // Derived headline numbers, for consumers that only want the summary.
  json::Value derived = json::Value::object();
  derived.set("throughput_eps", r.throughput_eps());
  derived.set("sampler_overhead", r.sampler_overhead());
  derived.set("epoch_time_s", r.epoch_time_s());
  derived.set("total_train_s", r.total_train_s());
  derived.set("overlap_saved_s", r.overlap_saved_s());
  derived.set("overlap_fraction", r.overlap_fraction());
  // Halo-cache headline, only when a cache ran (keeps old artifacts
  // byte-identical).
  if (r.cache_hit_rows() != 0 || r.cache_miss_rows() != 0) {
    derived.set("cache_hit_rows", r.cache_hit_rows());
    derived.set("cache_miss_rows", r.cache_miss_rows());
    derived.set("cache_bytes_saved", r.cache_bytes_saved());
    derived.set("cache_hit_rate", r.cache_hit_rate());
  }
  v.set("derived", std::move(derived));
  return v;
}

RunReport run_report_from_json(const json::Value& v) {
  RunReport r;
  r.method = v.at("method").as_string();
  r.dataset = v.at("dataset").as_string();
  for (const auto& l : v.at("train_loss").items())
    r.train_loss.push_back(l.as_double());
  for (const auto& p : v.at("curve").items())
    r.curve.push_back(eval_point_from_json(p));
  r.final_val = v.at("final_val").as_double();
  r.final_test = v.at("final_test").as_double();
  for (const auto& e : v.at("epochs").items())
    r.epochs.push_back(breakdown_from_json(e));
  r.memory = memory_from_json(v.at("memory"));
  r.wall_time_s = v.at("wall_time_s").as_double();
  // Absent in artifacts written before the partition cache existed.
  if (const auto* pc = v.get("partition_cache")) {
    r.partition_cache.hits = pc->at("hits").as_int64();
    r.partition_cache.disk_hits = pc->at("disk_hits").as_int64();
    r.partition_cache.misses = pc->at("misses").as_int64();
    r.partition_cache.evictions = pc->at("evictions").as_int64();
  }
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

const char* model_name(core::ModelKind m) {
  return m == core::ModelKind::kGat ? "gat" : "sage";
}

core::ModelKind model_from_name(const std::string& s) {
  if (s == "sage") return core::ModelKind::kSage;
  if (s == "gat") return core::ModelKind::kGat;
  BNSGCN_CHECK_MSG(false, "unknown model kind: " + s);
  return core::ModelKind::kSage;
}

const char* variant_name(core::SamplingVariant v) {
  switch (v) {
    case core::SamplingVariant::kBns: return "bns";
    case core::SamplingVariant::kBoundaryEdge: return "boundary-edge";
    case core::SamplingVariant::kDropEdge: return "drop-edge";
  }
  return "bns";
}

core::SamplingVariant variant_from_name(const std::string& s) {
  if (s == "bns") return core::SamplingVariant::kBns;
  if (s == "boundary-edge") return core::SamplingVariant::kBoundaryEdge;
  if (s == "drop-edge") return core::SamplingVariant::kDropEdge;
  BNSGCN_CHECK_MSG(false, "unknown sampling variant: " + s);
  return core::SamplingVariant::kBns;
}

const char* overlap_mode_name(core::OverlapMode m) {
  switch (m) {
    case core::OverlapMode::kBlocking: return "blocking";
    case core::OverlapMode::kBulk: return "bulk";
    case core::OverlapMode::kStream: return "stream";
  }
  return "blocking";
}

/// Reads both the current string spelling and the PR 2 artifact schema,
/// where the overlap knob was a bool (true meant the bulk pipeline).
core::OverlapMode overlap_mode_from_json(const json::Value& f) {
  if (f.kind() == json::Value::Kind::kBool)
    return f.as_bool() ? core::OverlapMode::kBulk
                       : core::OverlapMode::kBlocking;
  const std::string s = f.as_string();
  if (s == "blocking") return core::OverlapMode::kBlocking;
  if (s == "bulk") return core::OverlapMode::kBulk;
  if (s == "stream") return core::OverlapMode::kStream;
  BNSGCN_CHECK_MSG(false, "unknown overlap mode: " + s);
  return core::OverlapMode::kBlocking;
}

const char* partition_kind_name(PartitionSpec::Kind k) {
  switch (k) {
    case PartitionSpec::Kind::kMetis: return "metis";
    case PartitionSpec::Kind::kRandom: return "random";
    case PartitionSpec::Kind::kHash: return "hash";
    case PartitionSpec::Kind::kBfs: return "bfs";
  }
  return "metis";
}

PartitionSpec::Kind partition_kind_from_name(const std::string& s) {
  if (s == "metis") return PartitionSpec::Kind::kMetis;
  if (s == "random") return PartitionSpec::Kind::kRandom;
  if (s == "hash") return PartitionSpec::Kind::kHash;
  if (s == "bfs") return PartitionSpec::Kind::kBfs;
  BNSGCN_CHECK_MSG(false, "unknown partition kind: " + s);
  return PartitionSpec::Kind::kMetis;
}

json::Value synthetic_to_json(const SyntheticSpec& s) {
  json::Value v = json::Value::object();
  v.set("name", s.name);
  v.set("n", static_cast<std::int64_t>(s.n));
  v.set("m", static_cast<std::int64_t>(s.m));
  v.set("communities", s.communities);
  v.set("num_classes", s.num_classes);
  v.set("feat_dim", s.feat_dim);
  v.set("p_intra", s.p_intra);
  v.set("degree_skew", s.degree_skew);
  v.set("feature_noise", s.feature_noise);
  v.set("feature_signal", s.feature_signal);
  v.set("label_noise", s.label_noise);
  v.set("multilabel", s.multilabel);
  v.set("labels_per_node", s.labels_per_node);
  v.set("train_frac", s.train_frac);
  v.set("val_frac", s.val_frac);
  v.set("seed", static_cast<std::int64_t>(s.seed));
  return v;
}

/// Read `key` into `out` when present (absent keys keep the default).
template <typename T, typename Reader>
void read_if(const json::Value& v, const char* key, T& out, Reader read) {
  if (const auto* f = v.get(key)) out = read(*f);
}

const auto as_d = [](const json::Value& f) { return f.as_double(); };
const auto as_f = [](const json::Value& f) {
  return static_cast<float>(f.as_double());
};
const auto as_i = [](const json::Value& f) {
  return static_cast<int>(f.as_int64());
};
const auto as_i64 = [](const json::Value& f) { return f.as_int64(); };
const auto as_b = [](const json::Value& f) { return f.as_bool(); };
const auto as_s = [](const json::Value& f) { return f.as_string(); };
const auto as_u64 = [](const json::Value& f) {
  return static_cast<std::uint64_t>(f.as_int64());
};

SyntheticSpec synthetic_from_json(const json::Value& v) {
  SyntheticSpec s;
  read_if(v, "name", s.name, as_s);
  read_if(v, "n", s.n, [](const json::Value& f) {
    return static_cast<NodeId>(f.as_int64());
  });
  read_if(v, "m", s.m, [](const json::Value& f) {
    return static_cast<EdgeId>(f.as_int64());
  });
  read_if(v, "communities", s.communities, as_i);
  read_if(v, "num_classes", s.num_classes, as_i);
  read_if(v, "feat_dim", s.feat_dim, [](const json::Value& f) {
    return f.as_int64();
  });
  read_if(v, "p_intra", s.p_intra, as_d);
  read_if(v, "degree_skew", s.degree_skew, as_d);
  read_if(v, "feature_noise", s.feature_noise, as_d);
  read_if(v, "feature_signal", s.feature_signal, as_d);
  read_if(v, "label_noise", s.label_noise, as_d);
  read_if(v, "multilabel", s.multilabel, as_b);
  read_if(v, "labels_per_node", s.labels_per_node, as_i);
  read_if(v, "train_frac", s.train_frac, as_d);
  read_if(v, "val_frac", s.val_frac, as_d);
  read_if(v, "seed", s.seed, as_u64);
  return s;
}

json::Value trainer_to_json(const core::TrainerConfig& t) {
  json::Value v = json::Value::object();
  v.set("num_layers", t.num_layers);
  v.set("hidden", t.hidden);
  v.set("model", model_name(t.model));
  v.set("gat_heads", t.gat_heads);
  v.set("dropout", static_cast<double>(t.dropout));
  v.set("lr", static_cast<double>(t.lr));
  v.set("epochs", t.epochs);
  v.set("sample_rate", static_cast<double>(t.sample_rate));
  v.set("variant", variant_name(t.variant));
  v.set("unbiased_scaling", t.unbiased_scaling);
  v.set("eval_every", t.eval_every);
  v.set("seed", static_cast<std::int64_t>(t.seed));
  json::Value cost = json::Value::object();
  cost.set("latency_s", t.cost.latency_s);
  cost.set("bytes_per_s", t.cost.bytes_per_s);
  v.set("cost", std::move(cost));
  v.set("simulate_host_swap", t.simulate_host_swap);
  v.set("threads", t.threads);
  // The per-epoch observer is a process-local callback, and the
  // threads_oversubscribe test-only knob: not serialized.
  return v;
}

core::TrainerConfig trainer_from_json(const json::Value& v) {
  core::TrainerConfig t;
  read_if(v, "num_layers", t.num_layers, as_i);
  read_if(v, "hidden", t.hidden, [](const json::Value& f) {
    return f.as_int64();
  });
  if (const auto* f = v.get("model")) t.model = model_from_name(f->as_string());
  read_if(v, "gat_heads", t.gat_heads, as_i);
  read_if(v, "dropout", t.dropout, as_f);
  read_if(v, "lr", t.lr, as_f);
  read_if(v, "epochs", t.epochs, as_i);
  read_if(v, "sample_rate", t.sample_rate, as_f);
  if (const auto* f = v.get("variant"))
    t.variant = variant_from_name(f->as_string());
  read_if(v, "unbiased_scaling", t.unbiased_scaling, as_b);
  read_if(v, "eval_every", t.eval_every, as_i);
  read_if(v, "seed", t.seed, as_u64);
  if (const auto* c = v.get("cost")) {
    read_if(*c, "latency_s", t.cost.latency_s, as_d);
    read_if(*c, "bytes_per_s", t.cost.bytes_per_s, as_d);
  }
  read_if(v, "simulate_host_swap", t.simulate_host_swap, as_b);
  // Absent in pre-threads artifacts → the field default of 1 (serial).
  read_if(v, "threads", t.threads, as_i);
  return t;
}

constexpr const char* kExchangeKeys[] = {"overlap", "inner_chunk_rows",
                                         "cache_mb", "cache_staleness"};

/// Read the exchange knobs present in `v` (absent keys keep `xs`'s values:
/// 0 before chunking and the halo cache existed).
void exchange_from_json(const json::Value& v, core::ExchangeSpec& xs) {
  read_if(v, "overlap", xs.overlap, overlap_mode_from_json);
  read_if(v, "inner_chunk_rows", xs.inner_chunk_rows,
          [](const json::Value& f) {
            return static_cast<NodeId>(f.as_int64());
          });
  read_if(v, "cache_mb", xs.cache_mb, as_i64);
  read_if(v, "cache_staleness", xs.cache_staleness, as_i);
}

/// Documents written before the exchange knobs had one home also carry
/// them in "trainer", and the engine combined the two spellings at run
/// time. Fold them into `comm` once, by that same rule, so an old artifact
/// parses to the spec its run used: the stronger overlap mode; the comm
/// chunk when positive; the comm cache pair when its budget is positive.
void fold_legacy_exchange(const json::Value& trainer,
                          core::ExchangeSpec& comm) {
  if (std::ranges::none_of(kExchangeKeys, [&](const char* key) {
        return trainer.get(key) != nullptr;
      }))
    return;
  core::ExchangeSpec legacy;
  exchange_from_json(trainer, legacy);
  comm.overlap = std::max(comm.overlap, legacy.overlap);
  if (comm.inner_chunk_rows <= 0)
    comm.inner_chunk_rows = legacy.inner_chunk_rows;
  if (comm.cache_mb <= 0) {
    comm.cache_mb = legacy.cache_mb;
    comm.cache_staleness = legacy.cache_staleness;
  }
}

json::Value minibatch_to_json(const baselines::MinibatchConfig& mb) {
  json::Value v = json::Value::object();
  v.set("lr", static_cast<double>(mb.lr));
  v.set("batch_size", static_cast<std::int64_t>(mb.batch_size));
  v.set("batches_per_epoch", mb.batches_per_epoch);
  v.set("fanout", mb.fanout);
  v.set("layer_budget", static_cast<std::int64_t>(mb.layer_budget));
  v.set("num_clusters", mb.num_clusters);
  v.set("clusters_per_batch", mb.clusters_per_batch);
  v.set("saint_budget", static_cast<std::int64_t>(mb.saint_budget));
  return v;
}

baselines::MinibatchConfig minibatch_from_json(const json::Value& v) {
  baselines::MinibatchConfig mb;
  const auto as_node = [](const json::Value& f) {
    return static_cast<NodeId>(f.as_int64());
  };
  read_if(v, "lr", mb.lr, as_f);
  read_if(v, "batch_size", mb.batch_size, as_node);
  read_if(v, "batches_per_epoch", mb.batches_per_epoch, as_i);
  read_if(v, "fanout", mb.fanout, as_i);
  read_if(v, "layer_budget", mb.layer_budget, as_node);
  read_if(v, "num_clusters", mb.num_clusters, as_i);
  read_if(v, "clusters_per_batch", mb.clusters_per_batch, as_i);
  read_if(v, "saint_budget", mb.saint_budget, as_node);
  return mb;
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
    ds.set("custom", synthetic_to_json(*cfg.dataset.custom));
  v.set("dataset", std::move(ds));

  json::Value part = json::Value::object();
  part.set("kind", partition_kind_name(cfg.partition.kind));
  part.set("nparts", static_cast<std::int64_t>(cfg.partition.nparts));
  part.set("seed", static_cast<std::int64_t>(cfg.partition.seed));
  v.set("partition", std::move(part));

  v.set("trainer", trainer_to_json(cfg.trainer));

  json::Value comm = json::Value::object();
  comm.set("overlap", overlap_mode_name(cfg.comm.overlap));
  comm.set("inner_chunk_rows",
           static_cast<std::int64_t>(cfg.comm.inner_chunk_rows));
  comm.set("transport", comm::transport_kind_name(cfg.comm.transport));
  // Halo-cache knobs: written only when non-default, so configs predating
  // them (and uncached ones) round-trip byte-identical. cache_staleness is
  // keyed on its own value too, so a staleness staged ahead of the budget
  // survives the round trip.
  if (cfg.comm.cache_mb != 0) comm.set("cache_mb", cfg.comm.cache_mb);
  if (cfg.comm.cache_mb != 0 || cfg.comm.cache_staleness != 0)
    comm.set("cache_staleness", cfg.comm.cache_staleness);
  v.set("comm", std::move(comm));

  v.set("minibatch", minibatch_to_json(cfg.minibatch));
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
    read_if(*ds, "preset", cfg.dataset.preset, as_s);
    read_if(*ds, "scale", cfg.dataset.scale, as_d);
    if (const auto* c = ds->get("custom"))
      cfg.dataset.custom = synthetic_from_json(*c);
  }
  if (const auto* p = v.get("partition")) {
    if (const auto* k = p->get("kind"))
      cfg.partition.kind = partition_kind_from_name(k->as_string());
    read_if(*p, "nparts", cfg.partition.nparts, [](const json::Value& f) {
      return static_cast<PartId>(f.as_int64());
    });
    read_if(*p, "seed", cfg.partition.seed, as_u64);
  }
  if (const auto* c = v.get("comm")) {
    exchange_from_json(*c, cfg.comm);
    // Absent in configs written before socket transports existed: mailbox.
    read_if(*c, "transport", cfg.comm.transport, [](const json::Value& f) {
      return comm::transport_kind_from_name(f.as_string());
    });
  }
  if (const auto* t = v.get("trainer")) {
    cfg.trainer = trainer_from_json(*t);
    fold_legacy_exchange(*t, cfg.comm);
  }
  if (const auto* mb = v.get("minibatch"))
    cfg.minibatch = minibatch_from_json(*mb);
  read_if(v, "cagnet_c", cfg.cagnet_c, as_i);
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

namespace {

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
  read_if(v, "seed", scfg.seed, as_u64);
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
  set_timing(v, r.timing);
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
  read_timing(v, r.timing);
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
