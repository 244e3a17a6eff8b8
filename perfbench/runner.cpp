// Workload runner of the measured benchmark (see README.md here).
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <raw.json>
//
// Runs one workload through the public entry points (api::run /
// api::serve) on forked UDS rank processes and writes the raw
// measurements — per-step wall times, set-up times, output digests,
// program-reported counters — to --out. With --trace 1 it also replays
// each layer's public calls at the workload's shapes and records every
// timed call as a span. run.py turns the raw file into metrics, checks the
// outputs and writes the trace. Nothing inside the library is instrumented:
// every span starts and ends in this file.
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/multiprocess.hpp"
#include "api/partition_spec.hpp"
#include "api/presets.hpp"
#include "api/run.hpp"
#include "api/serve.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_cache.hpp"
#include "core/local_graph.hpp"
#include "core/trainer.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "partition/stats.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace bnsgcn;
using json::Value;

// ---------------------------------------------------------------- clock
// steady_clock is CLOCK_MONOTONIC on Linux: one time base shared by this
// process and the rank processes it forks, so rank 0's epoch stamps and
// the parent's spans line up.
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- tracing
// Spans live in memory until the run ends; run.py writes them out as
// Chrome trace events. `lane` separates the parent's own calls from the
// rank-0 timestamps shipped back from the forked processes.
struct Span {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  std::string lane = "benchmark";
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  int begin(std::string name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), now_s(), 0.0, current(), "benchmark"});
    stack_.push_back(id);
    return id;
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// A span measured elsewhere (rank 0 of a forked run), under the span
  /// that is open now.
  void add(std::string name, double t0, double t1, std::string lane) {
    if (!on_) return;
    spans_.push_back({std::move(name), t0, t1, current(), std::move(lane)});
  }
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  [[nodiscard]] Value to_json() const {
    Value arr = Value::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Value v = Value::object();
      v.set("id", static_cast<std::int64_t>(i));
      v.set("name", s.name);
      v.set("t0", s.t0);
      v.set("t1", s.t1);
      v.set("parent", s.parent);
      v.set("lane", s.lane);
      arr.push_back(std::move(v));
    }
    return arr;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Time `n` calls of `fn`, one span each; returns the median seconds.
double time_calls(Tracer& tr, const std::string& span, int n,
                  const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < n; ++i) {
    const int id = tr.begin(span);
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
    tr.end(id);
  }
  return median(t);
}

// ------------------------------------------------ shared epoch timestamps
// Rank 0's epoch observer runs inside a forked rank process; it writes its
// timestamps into an anonymous shared mapping created before the fork.
class SharedStamps {
 public:
  explicit SharedStamps(std::size_t n) : n_(n) {
    void* p = ::mmap(nullptr, n_ * sizeof(double), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    data_ = static_cast<double*>(p);
    std::fill(data_, data_ + n_, 0.0);
  }
  ~SharedStamps() { ::munmap(data_, n_ * sizeof(double)); }
  SharedStamps(const SharedStamps&) = delete;
  SharedStamps& operator=(const SharedStamps&) = delete;

  [[nodiscard]] double* data() const { return data_; }

 private:
  std::size_t n_;
  double* data_ = nullptr;
};

// ---------------------------------------------------------------- digests
// FNV-1a over raw bytes: the loss sequence and the served answers must be
// bit-identical across repetitions of one seed.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void add(const std::vector<T>& v) {
    add_bytes(v.data(), v.size() * sizeof(T));
  }
  void add(double x) { add_bytes(&x, sizeof x); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// -------------------------------------------------------------- workloads
struct Workload {
  std::string name;
  bool serve = false;
  std::string preset;
  double scale = 1.0;
  PartId nparts = 4;
  int threads = 1;
  float rate = 1.0f;
  // Share of --seconds per timed step (epoch or batch): the timed-step
  // count is a pure function of --seconds, so every run of one seed does
  // identical work.
  double step_budget_s = 1.0;
};

// A run is kSetupReps short repetitions of the whole set-up followed by
// one main repetition that also runs every timed step. Set-up time is the
// median over all of them; the short ones run only the warm-up step and
// one more, whose outputs must be a bit-exact prefix of the main run's.
constexpr int kSetupReps = 2;
// Untimed steps at the start of every repetition (pools, caches, pages).
constexpr int kWarmSteps = 1;
// Ops (epochs or batches) every repetition shares: the prefix digest.
constexpr int kPrefixOps = kWarmSteps + 1;
constexpr int kServeBatch = 32;
// Room for every layer-0 boundary row of a peer (~7k rows of 100 floats
// against ~10k of capacity), so after the warm-up batch every halo row
// hits. A budget below the boundary set times the eviction scan instead,
// whose cost swings with the seed's boundary size and with host memory
// contention (see the known gaps in README.md).
constexpr std::int64_t kServeCacheMb = 4;
constexpr int kServeTrainEpochs = 3;

// Every workload leaves at least one of a 4-core box's cores idle. The
// ranks synchronise at every layer, so when they fill every core a stall
// on any one of them (host steal, the kernel's socket work) holds up all,
// and the run-to-run spread doubles: 12% against 5% on train-full's epoch
// median with 4 partitions against 3, runs interleaved on one host.
Workload find_workload(std::string_view name) {
  if (name == "train-full")
    return {.name = "train-full", .preset = "reddit", .nparts = 3,
            .threads = 1, .rate = 1.0f, .step_budget_s = 0.80};
  if (name == "train-bns")
    return {.name = "train-bns", .preset = "reddit", .nparts = 3,
            .threads = 1, .rate = 0.1f, .step_budget_s = 0.60};
  if (name == "serve-gat")
    return {.name = "serve-gat", .serve = true, .preset = "products",
            .scale = 0.25, .nparts = 2, .threads = 1,
            .step_budget_s = 0.08};
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

/// At least 20 steps: the tail percentile keeps 10 samples beyond it, so
/// below 20 it would fall under the median.
int timed_steps(const Workload& w, double seconds) {
  return std::max(20,
                  static_cast<int>(std::lround(seconds / w.step_budget_s)));
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed).split(stream).next_u64();
}

/// Everything one repetition needs, derived from the workload and --seed.
/// The seed reseeds the graph, partitioner, trainer and query stream; the
/// shapes (nodes, arcs, widths, partitions) do not depend on it.
struct Inputs {
  api::PartitionSpec pspec;
  api::RunConfig cfg;
  api::ServeConfig scfg;
};

/// `steps` timed steps after the warm-up; training adds the final epoch,
/// whose interval also holds the validation pass and is not timed.
Inputs make_inputs(const Workload& w, std::uint64_t seed, int steps) {
  Inputs in;
  SyntheticSpec spec = api::find_dataset(w.preset)->make_spec(w.scale);
  spec.seed = derive(seed, 1);
  in.pspec = {.kind = api::PartitionSpec::Kind::kMetis,
              .nparts = w.nparts,
              .seed = derive(seed, 2)};
  api::RunConfig& cfg = in.cfg;
  cfg.method = api::Method::kBns;
  cfg.dataset.custom = spec;
  cfg.partition = in.pspec;
  cfg.trainer = api::preset_trainer_config(w.preset);
  cfg.trainer.seed = derive(seed, 3);
  cfg.trainer.threads = w.threads;
  cfg.trainer.eval_every = 0;
  cfg.comm.overlap = core::OverlapMode::kStream;
  cfg.comm.transport = comm::TransportKind::kUds;
  if (w.serve) {
    cfg.trainer.model = core::ModelKind::kGat;
    cfg.trainer.num_layers = 2;
    cfg.trainer.epochs = kServeTrainEpochs;
    cfg.comm.cache_mb = kServeCacheMb;
    in.scfg.batch_size = kServeBatch;
    in.scfg.num_batches = kWarmSteps + steps;
    in.scfg.seed = derive(seed, 4);
  } else {
    cfg.trainer.sample_rate = w.rate;
    cfg.trainer.epochs = kWarmSteps + steps + 1;
  }
  return in;
}

// ------------------------------------------------------ one repetition
struct Setup {
  Dataset ds;
  Partitioning part;
};

Setup build_inputs(Tracer& tr, const Inputs& in, double& dataset_s,
                   double& metis_s) {
  Setup s;
  {
    SpanScope sp(tr, "graph.make_dataset");
    const double t0 = now_s();
    s.ds = api::make_dataset(in.cfg.dataset);
    dataset_s = now_s() - t0;
  }
  {
    // api::make_partition always computes: a cold partitioning, never a
    // partition-cache hit.
    SpanScope sp(tr, "partition.metis");
    const double t0 = now_s();
    s.part = api::make_partition(s.ds.graph, in.pspec);
    metis_s = now_s() - t0;
  }
  return s;
}

struct RepResult {
  Value json = Value::object();
  api::RunReport run;      // train workloads
  api::ServeReport serve;  // serve workload
};

void set_common(Value& j, double setup_s, double dataset_s, double metis_s,
                Value steps, const Digest& prefix, const Digest& full) {
  j.set("setup_s", setup_s);
  j.set("dataset_s", dataset_s);
  j.set("metis_s", metis_s);
  j.set("steps_ms", std::move(steps));
  j.set("prefix_digest", prefix.hex());
  j.set("digest", full.hex());
}

RepResult train_rep(Tracer& tr, const Inputs& in, bool main_rep) {
  RepResult r;
  SpanScope rep_span(tr, main_rep ? "main-rep" : "setup-rep");
  const double t_start = now_s();
  double dataset_s = 0.0, metis_s = 0.0;
  Setup s = build_inputs(tr, in, dataset_s, metis_s);

  api::RunConfig cfg = in.cfg;
  if (!main_rep) cfg.trainer.epochs = kPrefixOps;
  const int n_stamps = cfg.trainer.epochs;
  SharedStamps stamps(static_cast<std::size_t>(n_stamps));
  double* stamp = stamps.data();
  cfg.trainer.observer = [stamp, n_stamps](const core::EpochSnapshot& snap) {
    if (snap.epoch >= 1 && snap.epoch <= n_stamps)
      stamp[snap.epoch - 1] = now_s();
  };
  ::malloc_trim(0);  // forked ranks inherit the parent's resident heap
  {
    SpanScope sp(tr, "api.run");
    r.run = api::run(s.ds, s.part, cfg);
    // Rank 0's epochs, reconstructed from its observer stamps.
    for (int e = 1; e < n_stamps; ++e)
      if (stamp[e - 1] > 0.0 && stamp[e] > stamp[e - 1])
        tr.add(e == n_stamps - 1 ? "epoch+validation" : "epoch",
               stamp[e - 1], stamp[e], "rank0");
  }

  // Set-up is everything before the first timed epoch: dataset, cold
  // partitioning, local graphs, fork/bootstrap and the warm-up epoch(s).
  const double setup_s = stamp[kWarmSteps - 1] - t_start;
  Value steps = Value::array();
  for (int e = kWarmSteps; e < n_stamps - 1; ++e)
    steps.push_back((stamp[e] - stamp[e - 1]) * 1e3);

  const auto& loss = r.run.train_loss;
  Digest prefix, full;
  for (std::size_t e = 0; e < loss.size(); ++e) {
    if (e < static_cast<std::size_t>(kPrefixOps)) prefix.add(loss[e]);
    full.add(loss[e]);
  }
  full.add(r.run.final_val);
  std::int64_t nonfinite = 0;
  for (const double l : loss)
    if (!std::isfinite(l)) ++nonfinite;
  bool stamps_ok = true;
  for (int e = 0; e < n_stamps; ++e)
    if (!(stamp[e] > 0.0) || (e > 0 && stamp[e] < stamp[e - 1]))
      stamps_ok = false;

  set_common(r.json, setup_s, dataset_s, metis_s, std::move(steps), prefix,
             full);
  r.json.set("quality", r.run.final_val);
  r.json.set("ops", static_cast<std::int64_t>(loss.size()));
  r.json.set("expected_ops", static_cast<std::int64_t>(n_stamps));
  r.json.set("nonfinite", nonfinite);
  r.json.set("stamps_ok", stamps_ok);
  return r;
}

RepResult serve_rep(Tracer& tr, const Inputs& in, bool main_rep) {
  RepResult r;
  SpanScope rep_span(tr, main_rep ? "main-rep" : "setup-rep");
  const double t_start = now_s();
  double dataset_s = 0.0, metis_s = 0.0;
  Setup s = build_inputs(tr, in, dataset_s, metis_s);
  api::ServeConfig scfg = in.scfg;
  if (!main_rep) scfg.num_batches = kPrefixOps;
  ::malloc_trim(0);
  {
    SpanScope sp(tr, "api.serve");
    r.serve = api::serve(s.ds, s.part, in.cfg, scfg);
  }
  const api::ServeReport& rep = r.serve;

  // Set-up: dataset, cold partitioning, weight training, engine build and
  // fork/bootstrap — the whole repetition minus rank 0's serve loop.
  const double setup_s = (now_s() - t_start) - rep.serve_wall_s;
  Value steps = Value::array();
  if (main_rep)
    for (std::size_t b = kWarmSteps; b < rep.batches.size(); ++b)
      steps.push_back(rep.batches[b].latency_s * 1e3);

  std::int64_t invalid = 0, correct = 0;
  const std::size_t expect =
      static_cast<std::size_t>(scfg.num_batches) * kServeBatch;
  if (rep.predictions.size() != expect || rep.queries.size() != expect)
    invalid += static_cast<std::int64_t>(expect);
  Digest prefix, full;
  for (std::size_t i = 0; i < rep.predictions.size(); ++i) {
    const int c = rep.predictions[i];
    if (c < 0 || c >= s.ds.num_classes || i >= rep.queries.size()) {
      ++invalid;
      continue;
    }
    const auto q = static_cast<std::size_t>(rep.queries[i]);
    if (q < s.ds.labels.size() && s.ds.labels[q] == c) ++correct;
    const std::int64_t pair[2] = {rep.queries[i], c};
    if (i < static_cast<std::size_t>(kPrefixOps) * kServeBatch)
      prefix.add_bytes(pair, sizeof pair);
    full.add_bytes(pair, sizeof pair);
  }

  set_common(r.json, setup_s, dataset_s, metis_s, std::move(steps), prefix,
             full);
  // Served-answer accuracy against the generator's labels.
  r.json.set("quality", rep.predictions.empty()
                            ? 0.0
                            : static_cast<double>(correct) /
                                  static_cast<double>(rep.predictions.size()));
  r.json.set("ops", static_cast<std::int64_t>(rep.predictions.size()));
  r.json.set("expected_ops", static_cast<std::int64_t>(expect));
  r.json.set("invalid_answers", invalid);
  r.json.set("serve_wall_s", rep.serve_wall_s);
  r.json.set("queries", static_cast<std::int64_t>(rep.queries.size()));
  r.json.set("nonfinite", static_cast<std::int64_t>(0));
  r.json.set("stamps_ok", true);
  return r;
}

double rank_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------- layer replays
// Each replay calls one layer's public functions at the workload's shapes,
// from this file, and records every timed call as a span.

/// Timed epochs only: drop the warm-up epochs and the final (validation)
/// epoch, as the end-to-end step times do.
std::vector<core::EpochBreakdown> timed_epochs(const api::RunReport& r) {
  std::vector<core::EpochBreakdown> out;
  for (std::size_t e = kWarmSteps; e + 1 < r.epochs.size(); ++e)
    out.push_back(r.epochs[e]);
  return out;
}

void trainer_layers(Value& L, const std::vector<api::RunReport>& runs) {
  std::vector<double> compute, exch, exposed, reduce, sample, feat, grad, ctrl;
  double hidden = 0.0, comm = 0.0;
  for (const auto& run : runs) {
    for (const auto& e : timed_epochs(run)) {
      compute.push_back(e.compute_s * 1e3);
      exch.push_back(e.comm_s * 1e3);
      exposed.push_back((e.comm_s - e.overlap_s) * 1e3);
      reduce.push_back(e.reduce_s * 1e3);
      sample.push_back(e.sample_s * 1e3);
      feat.push_back(static_cast<double>(e.feature_bytes) / 1e6);
      grad.push_back(static_cast<double>(e.grad_bytes) / 1e6);
      ctrl.push_back(static_cast<double>(e.control_bytes) / 1e3);
      hidden += e.overlap_s;
      comm += e.comm_s;
    }
  }
  L.set("core.trainer.compute_ms", median(compute));
  L.set("core.trainer.exchange_ms", median(exch));
  L.set("core.trainer.exchange_exposed_ms", median(exposed));
  L.set("core.trainer.exchange_hidden_frac", comm > 0.0 ? hidden / comm : 0.0);
  L.set("core.trainer.allreduce_ms", median(reduce));
  L.set("core.trainer.sample_ms", median(sample));
  L.set("comm.feature_mb_per_epoch", median(feat));
  L.set("comm.grad_mb_per_epoch", median(grad));
  L.set("comm.control_kb_per_epoch", median(ctrl));
  double mem = 0.0;
  for (const auto& run : runs)
    mem = std::max(mem, run.memory.max_model_bytes() / 1e6);
  L.set("core.memory_model.rank_mb", mem);
}

std::int64_t model_params(const core::TrainerConfig& tcfg, const Dataset& ds) {
  std::int64_t n = 0;
  for (auto& l : core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0))
    n += l->num_params();
  return n;
}

core::BoundarySampler::Options sampler_options(const core::TrainerConfig& tcfg,
                                               PartId rank) {
  core::BoundarySampler::Options so;
  so.variant = tcfg.variant;
  so.rate = tcfg.sample_rate;
  so.unbiased_scaling =
      tcfg.unbiased_scaling && tcfg.model == core::ModelKind::kSage;
  so.seed = Rng(tcfg.seed ^ 0xB01DFACEULL)
                .split(static_cast<std::uint64_t>(rank))
                .next_u64();
  return so;
}

/// The plans every rank draws for the first epoch, negotiated over an
/// in-process fabric (plans are transport-invariant). p = 1 takes the
/// trainer's fast path: the full plan, no draw.
std::vector<core::EpochPlan> first_plans(
    const std::vector<core::LocalGraph>& lgs,
    const core::TrainerConfig& tcfg) {
  const auto m = static_cast<PartId>(lgs.size());
  std::vector<core::EpochPlan> plans(lgs.size());
  if (tcfg.sample_rate >= 1.0f) {
    for (PartId r = 0; r < m; ++r)
      plans[static_cast<std::size_t>(r)] =
          core::BoundarySampler(lgs[static_cast<std::size_t>(r)],
                                sampler_options(tcfg, r))
              .full_plan();
    return plans;
  }
  comm::Fabric fabric(m);
  std::vector<std::exception_ptr> errs(lgs.size());
  std::vector<std::jthread> threads;  // joined by clear() or unwinding
  for (PartId r = 0; r < m; ++r) {
    threads.emplace_back([&, r] {
      const auto i = static_cast<std::size_t>(r);
      try {
        core::BoundarySampler s(lgs[i], sampler_options(tcfg, r));
        plans[i] = s.sample_epoch(fabric.endpoint(r), 0);
      } catch (...) {
        errs[i] = std::current_exception();
        fabric.shutdown(r);
      }
    });
  }
  threads.clear();
  for (const auto& e : errs)
    if (e) std::rethrow_exception(e);
  return plans;
}

/// One forked-UDS replay of the fabric-level layers: message round trip,
/// the sampler's negotiated draw, one layer's per-peer halo messages and
/// the gradient allreduce. Every rank measures; rank 0 ships the medians
/// of the per-iteration max over ranks back to the parent.
void fabric_layers(Tracer& tr, Value& L, const Workload& w,
                   const std::vector<core::LocalGraph>& lgs,
                   const core::TrainerConfig& tcfg, std::int64_t feat_dim,
                   std::int64_t nparams) {
  constexpr int kRoundTrips = 200;
  constexpr int kSamples = 10;
  constexpr int kExchanges = 10;
  constexpr int kReduces = 10;
  const bool sampled = tcfg.sample_rate < 1.0f;

  const std::string payload = api::run_ranks_piped(
      comm::TransportKind::kUds, w.nparts, tcfg.cost,
      [&](comm::Fabric& fabric, PartId r) {
        comm::Endpoint& ep = fabric.endpoint(r);
        const auto& lg = lgs[static_cast<std::size_t>(r)];
        int tag = 0;
        Value out = Value::object();
        // Rank-0 call windows, shipped back as spans.
        Value spans = Value::array();
        auto mark = [&](const char* name, double t0, double t1) {
          if (r != 0) return;
          Value s = Value::array();
          s.push_back(name);
          s.push_back(t0);
          s.push_back(t1);
          spans.push_back(std::move(s));
        };
        auto timed_max = [&](const char* name, int n,
                             const std::function<void()>& body) {
          std::vector<double> t;
          for (int i = 0; i < n; ++i) {
            ep.barrier();
            const double t0 = now_s();
            body();
            const double t1 = now_s();
            mark(name, t0, t1);
            t.push_back(ep.allreduce_max_scalar(t1 - t0));
          }
          return median(t);
        };

        // Round trip of a one-float message, rank 0 <-> rank 1.
        std::vector<double> rt;
        ep.barrier();
        const double rt0 = now_s();
        for (int i = 0; i < kRoundTrips; ++i, ++tag) {
          if (r == 0) {
            const double t0 = now_s();
            ep.send_floats(1, tag, {1.0f}, comm::TrafficClass::kControl);
            (void)ep.recv_floats(1, tag, comm::TrafficClass::kControl);
            rt.push_back(now_s() - t0);
          } else if (r == 1) {
            auto v = ep.recv_floats(0, tag, comm::TrafficClass::kControl);
            ep.send_floats(0, tag, std::move(v), comm::TrafficClass::kControl);
          }
        }
        mark("comm.uds.msg_roundtrip", rt0, now_s());
        out.set("roundtrip_us", median(rt) * 1e6);

        // The sampler's draw + index negotiation (Algorithm 1 lines 4-7).
        core::BoundarySampler sampler(lg, sampler_options(tcfg, r));
        core::EpochPlan plan;
        double sample_s = 0.0;
        if (sampled) {
          sample_s = timed_max("core.sampler.sample_epoch", kSamples, [&] {
            plan = sampler.sample_epoch(ep, tag++);
          });
        } else {
          plan = sampler.full_plan();
        }
        const double kept = lg.n_halo() > 0
                                ? static_cast<double>(plan.n_kept_halo) /
                                      static_cast<double>(lg.n_halo())
                                : 1.0;
        out.set("sample_ms", sample_s * 1e3);
        out.set("kept_halo_frac", ep.allreduce_sum_scalar(kept) /
                                      static_cast<double>(ep.nranks()));

        // One layer-0 forward exchange at this plan's per-peer sizes.
        const auto d = static_cast<std::size_t>(feat_dim);
        const double exch_s = timed_max("comm.uds.halo_exchange", kExchanges, [&] {
          comm::RequestSet recvs;
          std::vector<comm::Request> sends;
          for (PartId j = 0; j < ep.nranks(); ++j) {
            if (!plan.recv_slots[static_cast<std::size_t>(j)].empty())
              (void)recvs.add(
                  ep.irecv_floats(j, tag, comm::TrafficClass::kFeature));
          }
          for (PartId j = 0; j < ep.nranks(); ++j) {
            const auto& rows = plan.send_rows[static_cast<std::size_t>(j)];
            if (rows.empty()) continue;
            sends.push_back(ep.isend_floats(
                j, tag, ep.acquire_floats(rows.size() * d),
                comm::TrafficClass::kFeature));
          }
          recvs.wait_all();
          for (std::size_t k = 0; k < recvs.size(); ++k)
            ep.release_floats(recvs.at(k).take_floats());
          ++tag;
        });
        out.set("halo_exchange_ms", exch_s * 1e3);

        // The model-gradient allreduce.
        std::vector<float> g(static_cast<std::size_t>(nparams), 1e-3f);
        const double red_s = timed_max("comm.uds.allreduce", kReduces,
                                       [&] { ep.allreduce_sum(g); });
        out.set("allreduce_ms", red_s * 1e3);
        out.set("spans", std::move(spans));
        return r == 0 ? out.dump() : std::string();
      });

  const Value res = Value::parse(payload);
  for (const Value& s : res.at("spans").items())
    if (s[1].as_double() < s[2].as_double())
      tr.add(s[0].as_string(), s[1].as_double(), s[2].as_double(),
             "rank0-replay");
  L.set("comm.uds.msg_roundtrip_us", res.at("roundtrip_us").as_double());
  L.set("core.sampler.sample_epoch_ms", res.at("sample_ms").as_double());
  L.set("core.sampler.kept_halo_frac", res.at("kept_halo_frac").as_double());
  L.set("comm.uds.halo_exchange_ms", res.at("halo_exchange_ms").as_double());
  L.set("comm.uds.allreduce_ms", res.at("allreduce_ms").as_double());
}

/// Halo slabs for one layer, fed from memory: per peer, rows × d floats.
std::vector<std::vector<float>> halo_slabs(const core::EpochPlan& plan,
                                           std::int64_t d) {
  std::vector<std::vector<float>> slabs;
  for (const auto& slots : plan.recv_slots) {
    std::vector<float> s(slots.size() * static_cast<std::size_t>(d));
    for (std::size_t i = 0; i < s.size(); ++i)
      s[i] = 0.01f * static_cast<float>(i % 13);
    slabs.push_back(std::move(s));
  }
  return slabs;
}

/// The phased forward over every layer, as the trainer and the serving
/// engine sequence it, with every peer's slab already in memory.
Matrix phased_forward(std::vector<std::unique_ptr<nn::Layer>>& layers,
                      const core::EpochPlan& plan,
                      const core::LocalGraph& lg, const Matrix& x,
                      const std::vector<std::vector<std::vector<float>>>& slabs,
                      bool training) {
  nn::HaloIncidence inc;
  Matrix h = x;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    nn::Layer& layer = *layers[l];
    layer.forward_inner_begin(plan.adj, h, training);
    if (l == 0) inc.build(plan.adj, plan.adj.n_dst);
    layer.forward_halo_begin(plan.adj, inc);
    layer.forward_inner_chunk(plan.adj, 0, plan.adj.n_dst);
    for (std::size_t j = 0; j < plan.recv_slots.size(); ++j)
      if (!plan.recv_slots[j].empty())
        layer.forward_halo_fold(plan.adj, plan.recv_slots[j], slabs[l][j]);
    h = layer.forward_halo_finish(plan.adj, lg.inv_full_degree);
  }
  return h;
}

void fill(Matrix& m, float scale) {
  for (std::int64_t i = 0; i < m.size(); ++i)
    m.data()[i] = scale * static_cast<float>((i * 7919) % 61 - 30) / 30.0f;
}

/// Dense and sparse kernels at layer 0's shapes (n_inner × feat_dim ×
/// hidden), one kernel lane.
void kernel_layers(Tracer& tr, Value& L, const core::EpochPlan& plan,
                   const core::LocalGraph& lg, std::int64_t feat_dim,
                   std::int64_t hidden) {
  constexpr int kCalls = 10;
  common::set_ops_threads(1);
  const std::int64_t n = lg.n_inner();
  Matrix a(n, feat_dim), b(feat_dim, hidden), c(n, hidden);
  fill(a, 1.0f);
  fill(b, 0.1f);
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(feat_dim) *
                       static_cast<double>(hidden);
  const double nn_s = time_calls(tr, "tensor.gemm_nn", kCalls,
                                 [&] { ops::gemm_nn(a, b, c); });
  L.set("tensor.gemm_nn_gflops", flops / nn_s / 1e9);

  Matrix g(n, hidden), dw(feat_dim, hidden);
  fill(g, 0.1f);
  const double tn_s = time_calls(tr, "tensor.gemm_tn", kCalls,
                                 [&] { ops::gemm_tn(a, g, dw); });
  L.set("tensor.gemm_tn_gflops", flops / tn_s / 1e9);

  Matrix src(plan.adj.n_src, feat_dim), out;
  fill(src, 1.0f);
  const double agg_s = time_calls(tr, "nn.mean_aggregate", kCalls, [&] {
    nn::mean_aggregate(plan.adj, src, lg.inv_full_degree, out);
  });
  const double bytes = (static_cast<double>(plan.adj.num_edges()) +
                        static_cast<double>(plan.adj.n_dst)) *
                       static_cast<double>(feat_dim) * sizeof(float);
  L.set("tensor.mean_aggregate_gbps", bytes / agg_s / 1e9);
}

void sage_layers(Tracer& tr, Value& L, const Dataset& ds,
                 const core::TrainerConfig& tcfg, const core::EpochPlan& plan,
                 const core::LocalGraph& lg) {
  constexpr int kPasses = 5;
  constexpr int kAdamSteps = 20;
  common::set_ops_threads(1);
  auto layers = core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0);
  std::vector<std::vector<std::vector<float>>> slabs;
  for (const auto& l : layers) slabs.push_back(halo_slabs(plan, l->d_in()));
  const Matrix x = core::slice_rows(ds.features, lg.inner_global);
  std::vector<int> labels;
  for (const NodeId g : lg.inner_global)
    labels.push_back(ds.labels[static_cast<std::size_t>(g)]);
  const auto train_rows = core::local_rows_of(lg, ds.train_nodes);
  const float inv_total = 1.0f / static_cast<float>(ds.train_nodes.size());

  std::vector<double> fwd, bwd;
  for (int i = 0; i < kPasses; ++i) {
    Matrix logits;
    {
      SpanScope sp(tr, "nn.sage.forward");
      const double t0 = now_s();
      logits = phased_forward(layers, plan, lg, x, slabs, /*training=*/true);
      fwd.push_back(now_s() - t0);
    }
    Matrix grad;
    (void)nn::softmax_xent(logits, labels, train_rows, inv_total, grad);
    for (auto& l : layers) l->zero_grads();
    SpanScope sp(tr, "nn.sage.backward");
    const double t0 = now_s();
    for (std::size_t l = layers.size() - 1; l >= 1; --l) {
      (void)layers[l]->backward_halo(plan.adj, grad, lg.inv_full_degree);
      Matrix dinner = layers[l]->backward_inner(plan.adj, lg.inv_full_degree);
      layers[l]->backward_params(plan.adj);
      grad = std::move(dinner);
    }
    (void)layers[0]->backward(plan.adj, grad, lg.inv_full_degree);
    bwd.push_back(now_s() - t0);
  }
  L.set("nn.sage.forward_ms", median(fwd) * 1e3);
  L.set("nn.sage.backward_ms", median(bwd) * 1e3);

  std::vector<Matrix*> params, grads;
  for (auto& l : layers) {
    for (Matrix* p : l->params()) params.push_back(p);
    for (Matrix* g : l->grads()) grads.push_back(g);
  }
  nn::Adam adam(params, grads, nn::Adam::Options{.lr = tcfg.lr});
  L.set("nn.adam.step_ms",
        time_calls(tr, "nn.adam.step", kAdamSteps, [&] { adam.step(); }) * 1e3);
}

void gat_layers(Tracer& tr, Value& L, const Dataset& ds,
                const core::TrainerConfig& tcfg, const core::EpochPlan& plan,
                const core::LocalGraph& lg, const Workload& w) {
  constexpr int kPasses = 5;
  constexpr int kGemms = 10;
  constexpr int kCacheSteps = 8;
  auto layers = core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0);
  for (auto& l : layers) l->set_inference(true);
  std::vector<std::vector<std::vector<float>>> slabs;
  for (const auto& l : layers) slabs.push_back(halo_slabs(plan, l->d_in()));
  const Matrix x = core::slice_rows(ds.features, lg.inner_global);
  common::set_ops_threads(w.threads);
  L.set("nn.gat.forward_ms",
        time_calls(tr, "nn.gat.forward", kPasses, [&] {
          (void)phased_forward(layers, plan, lg, x, slabs, /*training=*/false);
        }) * 1e3);

  // Thread-pool scaling of the layer-0 transform at K = 1 vs K = 2.
  Matrix a(lg.n_inner(), ds.feat_dim()), b(ds.feat_dim(), tcfg.hidden),
      c(lg.n_inner(), tcfg.hidden);
  fill(a, 1.0f);
  fill(b, 0.1f);
  common::set_ops_threads(1);
  const double k1 = time_calls(tr, "tensor.gemm_nn.k1", kGemms,
                               [&] { ops::gemm_nn(a, b, c); });
  common::set_ops_threads(2);
  const double k2 = time_calls(tr, "tensor.gemm_nn.k2", kGemms,
                               [&] { ops::gemm_nn(a, b, c); });
  common::set_ops_threads(1);
  L.set("common.thread_pool.gemm_speedup_k2", k1 / k2);

  // The layer-0 cache directory of rank 0's busiest peer, stepped once per
  // request batch with the serving plan's positions at the run's capacity.
  std::size_t peer = 0;
  for (std::size_t j = 0; j < plan.recv_pos.size(); ++j)
    if (plan.recv_pos[j].size() > plan.recv_pos[peer].size()) peer = j;
  const auto cap = static_cast<NodeId>(
      kServeCacheMb * (1 << 20) /
      (ds.feat_dim() * static_cast<std::int64_t>(sizeof(float))));
  core::HaloCacheDir dir(cap);
  int batch = 0;
  L.set("core.halo_cache.step_ms",
        time_calls(tr, "core.halo_cache.step", kCacheSteps, [&] {
          (void)dir.step(plan.recv_pos[peer], batch++, /*max_age=*/-1);
        }) * 1e3);
}

Value replay_layers(Tracer& tr, const Workload& w, const Inputs& in,
                    const std::vector<RepResult>& reps) {
  SpanScope top(tr, "layer-replays");
  Value L = Value::object();
  double dataset_s = 0.0, metis_s = 0.0;
  Setup s = build_inputs(tr, in, dataset_s, metis_s);
  std::vector<double> ds_ms, metis_ms;
  for (const auto& r : reps) {
    ds_ms.push_back(r.json.at("dataset_s").as_double() * 1e3);
    metis_ms.push_back(r.json.at("metis_s").as_double() * 1e3);
  }
  L.set("graph.make_dataset_ms", median(ds_ms));
  L.set("partition.metis_ms", median(metis_ms));
  L.set("partition.boundary_rows",
        static_cast<double>(compute_stats(s.ds.graph, s.part).total_volume));

  std::vector<core::LocalGraph> lgs;
  L.set("core.local_graph.build_ms",
        time_calls(tr, "core.local_graph.build", 3, [&] {
          lgs = core::build_local_graphs(s.ds.graph, s.part);
        }) * 1e3);

  const core::TrainerConfig tcfg = api::engine_config(in.cfg);
  L.set("api.multiprocess.fork_bootstrap_ms",
        time_calls(tr, "api.multiprocess.fork_bootstrap", 5, [&] {
          (void)api::run_ranks_piped(
              comm::TransportKind::kUds, w.nparts, tcfg.cost,
              [](comm::Fabric&, PartId r) {
                return r == 0 ? std::string("{}") : std::string();
              });
        }) * 1e3);

  fabric_layers(tr, L, w, lgs, tcfg, s.ds.feat_dim(), model_params(tcfg, s.ds));
  const std::vector<core::EpochPlan> plans = first_plans(lgs, tcfg);
  kernel_layers(tr, L, plans[0], lgs[0], s.ds.feat_dim(), tcfg.hidden);

  // Layers a workload does not run report 0.
  for (const char* name :
       {"nn.sage.forward_ms", "nn.sage.backward_ms", "nn.adam.step_ms",
        "nn.gat.forward_ms", "common.thread_pool.gemm_speedup_k2",
        "core.halo_cache.step_ms", "core.halo_cache.hit_rate",
        "core.inference.feature_mb_per_batch"})
    L.set(name, 0.0);
  if (w.serve) {
    gat_layers(tr, L, s.ds, tcfg, plans[0], lgs[0], w);
    std::int64_t hits = 0, misses = 0;
    std::vector<double> feat;
    const auto& batches = reps.back().serve.batches;
    for (std::size_t b = kWarmSteps; b < batches.size(); ++b) {
      hits += batches[b].cache_hit_rows;
      misses += batches[b].cache_miss_rows;
      feat.push_back(static_cast<double>(batches[b].feature_bytes) / 1e6);
    }
    L.set("core.halo_cache.hit_rate",
          hits + misses > 0 ? static_cast<double>(hits) /
                                  static_cast<double>(hits + misses)
                            : 0.0);
    L.set("core.inference.feature_mb_per_batch", median(feat));
    for (const char* name :
         {"core.trainer.compute_ms", "core.trainer.exchange_ms",
          "core.trainer.exchange_exposed_ms",
          "core.trainer.exchange_hidden_frac", "core.trainer.allreduce_ms",
          "core.trainer.sample_ms", "comm.feature_mb_per_epoch",
          "comm.grad_mb_per_epoch", "comm.control_kb_per_epoch",
          "core.memory_model.rank_mb"})
      L.set(name, 0.0);
  } else {
    sage_layers(tr, L, s.ds, tcfg, plans[0], lgs[0]);
    std::vector<api::RunReport> runs;
    for (const auto& r : reps) runs.push_back(r.run);
    trainer_layers(L, runs);
  }
  return L;
}

// ------------------------------------------------------------------ main
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || a.out.empty() || !(a.seconds > 0.0))
    throw std::invalid_argument("need --workload, --out and --seconds > 0");
  return a;
}

int run(const Args& a) {
  const Workload w = find_workload(a.workload);
  const Inputs in = make_inputs(w, a.seed, timed_steps(w, a.seconds));
  Tracer tr(a.trace);
  {
    // Written first, so a crashed run still says how much it attempted.
    const int main_ops = w.serve ? in.scfg.num_batches * kServeBatch
                                 : in.cfg.trainer.epochs;
    const int setup_ops = kPrefixOps * (w.serve ? kServeBatch : 1);
    Value plan = Value::object();
    plan.set("attempted", main_ops + kSetupReps * setup_ops);
    std::ofstream(a.out + ".plan") << plan.dump() << '\n';
  }

  Value out = Value::object();
  out.set("workload", w.name);
  out.set("seed", static_cast<std::int64_t>(a.seed));
  out.set("seconds", a.seconds);
  out.set("traced", a.trace);

  std::vector<RepResult> reps;
  {
    SpanScope sp(tr, "workload:" + w.name);
    for (int r = 0; r <= kSetupReps; ++r) {
      const bool main_rep = r == kSetupReps;
      reps.push_back(w.serve ? serve_rep(tr, in, main_rep)
                             : train_rep(tr, in, main_rep));
    }
  }
  // Read before the replays fork processes of their own.
  out.set("rank_peak_rss_mb", rank_peak_rss_mb());
  Value rep_json = Value::array();
  for (const auto& r : reps) rep_json.push_back(r.json);
  out.set("reps", std::move(rep_json));

  if (a.trace) {
    out.set("layers", replay_layers(tr, w, in, reps));
    out.set("spans", tr.to_json());
  }
  std::ofstream f(a.out);
  f << out.dump() << '\n';
  if (!f) throw std::runtime_error("cannot write " + a.out);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 3;
  }
}
