#pragma once

#include <functional>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "comm/fabric.hpp"
#include "common/fields.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_exchange.hpp"
#include "core/local_graph.hpp"
#include "core/memory_model.hpp"
#include "graph/dataset.hpp"

namespace bnsgcn::core {

enum class ModelKind { kSage, kGat };

constexpr auto enum_names(ModelKind) {
  return EnumNames<ModelKind, 2>{
      "model kind", {{ModelKind::kSage, "sage"}, {ModelKind::kGat, "gat"}}};
}

/// Per-epoch timing/traffic breakdown (Fig. 5 / Table 6 quantities). Each
/// field's cross-rank rule — max for the times but overlap_s, min for
/// overlap_s, sum for the counters — is its entry in kEpochBreakdownFields
/// below. `compute_s` and `sample_s` are measured wall time of the local
/// work; comm/overlap/tail/reduce are simulated from exact byte counts via
/// the CostModel on the mailbox and measured on socket fabrics (`timing`;
/// docs/ARCHITECTURE.md §1).
struct EpochBreakdown {
  double compute_s = 0.0;
  double comm_s = 0.0;    // boundary feature/gradient exchange
  double reduce_s = 0.0;  // model-gradient allreduce
  double sample_s = 0.0;  // sampler: draw + index negotiation + compaction
  double swap_s = 0.0;    // ROC proxy only
  /// Exchange time hidden behind in-flight compute when
  /// communication–computation overlap is on (ExchangeSpec::overlap):
  /// per exchange, min(simulated transfer time, measured in-flight
  /// compute), summed over the epoch's forward+backward exchanges and
  /// taken as the min over ranks (a conservative lower bound on what the
  /// pipeline hides). In bulk mode the in-flight compute is the
  /// halo-independent phase alone; in stream mode it additionally counts
  /// the per-peer folds performed while later peers were still on the
  /// wire, so stream's window is a superset of bulk's. Every backward
  /// exchange's window further includes the cross-layer-deferred
  /// parameter-gradient phase of the layer above (Layer::backward_params),
  /// which the trainer executes while that exchange is in flight. Always
  /// 0 in blocking mode, and never exceeds comm_s.
  double overlap_s = 0.0;
  /// Per-peer straggler metric, simulated: each exchange's slowest single
  /// peer message (simulated transfer time), summed over the epoch's
  /// exchanges, max over ranks. Deterministic (a pure function of the
  /// sampled exchange sets), unlike overlap_s. This is the long tail the
  /// stream schedule exists to hide: a bulk wait_all cannot release any
  /// fold until the comm_tail_s straggler lands. Measured recordings hold
  /// no per-peer completion times yet: there it is a copy of comm_s's
  /// exchange span.
  double comm_tail_s = 0.0;
  std::int64_t feature_bytes = 0; // global rx over all ranks
  std::int64_t grad_bytes = 0;
  std::int64_t control_bytes = 0;
  /// Halo-cache accounting (ExchangeSpec::cache_mb; all zero when the
  /// cache is off). Counted on the receiving side and summed over ranks:
  /// hit rows were served from the local store instead of the wire,
  /// miss rows actually travelled. bytes_saved is the gross feature-byte
  /// saving (hit rows × row bytes); the index-list overhead the delta
  /// frames add is accounted honestly inside feature_bytes, so
  /// feature_bytes + bytes_saved equals the uncached volume plus that
  /// overhead. Deterministic (a pure function of the sampled plans), so
  /// replay-compared like the byte counters above.
  std::int64_t cache_hit_rows = 0;
  std::int64_t cache_miss_rows = 0;
  std::int64_t bytes_saved = 0;
  /// Whether comm/overlap/tail/reduce above are simulated from byte counts
  /// via the CostModel (mailbox fabric) or measured wall-clock spans
  /// (socket fabrics). compute_s/sample_s are measured either way.
  comm::TimingSource timing = comm::TimingSource::kSimulated;

  [[nodiscard]] double total_s() const {
    return compute_s + (comm_s - overlap_s) + reduce_s + sample_s + swap_s;
  }
};

/// How every rank's value of a breakdown field combines (reduce_breakdown):
/// the slowest rank gates the step (max), overlap claims only what every
/// rank hid (min), traffic and cache counters add up (sum).
enum class RankRule { kMax, kMin, kSum };

/// What replaying a recorded run (bench_replay) requires of a breakdown
/// field. A field older artifacts may lack (Presence::kOptional) is
/// compared only when the recording carries a nonzero value.
enum class ReplayRule {
  kExact,            // bit-equal on every recording
  kExactIfSimulated, // bit-equal on simulated recordings only: on socket
                     // fabrics it is a measured span
  kNever,            // measured wall time, never compared
};

struct BreakdownRules {
  RankRule rank;
  ReplayRule replay;
};

/// EpochBreakdown's field table (common/fields.hpp), in JSON key order: the
/// seven times, the three byte counters, the three cache counters. The JSON
/// codec, reduce_breakdown, mean_breakdown and bench_replay walk it;
/// `timing` travels beside it as "timing_source".
inline constexpr auto kEpochBreakdownFields = [] {
  using enum Presence;
  using enum RankRule;
  using enum ReplayRule;
  using E = EpochBreakdown;
  using R = BreakdownRules;
  return std::tuple{
      field("compute_s", &E::compute_s, kRequired, R{kMax, kNever}),
      field("comm_s", &E::comm_s, kRequired, R{kMax, kExactIfSimulated}),
      field("reduce_s", &E::reduce_s, kRequired, R{kMax, kExactIfSimulated}),
      field("sample_s", &E::sample_s, kRequired, R{kMax, kNever}),
      field("swap_s", &E::swap_s, kRequired, R{kMax, kExact}),
      field("overlap_s", &E::overlap_s, kOptional, R{kMin, kNever}),
      field("comm_tail_s", &E::comm_tail_s, kOptional,
            R{kMax, kExactIfSimulated}),
      field("feature_bytes", &E::feature_bytes, kRequired, R{kSum, kExact}),
      field("grad_bytes", &E::grad_bytes, kRequired, R{kSum, kExact}),
      field("control_bytes", &E::control_bytes, kRequired, R{kSum, kExact}),
      field("cache_hit_rows", &E::cache_hit_rows, kCache, R{kSum, kExact}),
      field("cache_miss_rows", &E::cache_miss_rows, kCache, R{kSum, kExact}),
      field("bytes_saved", &E::bytes_saved, kCache, R{kSum, kExact})};
}();
static_assert(member_count<EpochBreakdown>() ==
                  std::tuple_size_v<decltype(kEpochBreakdownFields)> + 1,
              "every EpochBreakdown member but `timing` needs an entry in "
              "kEpochBreakdownFields");

struct EvalPoint {
  int epoch = 0;
  double val = 0.0;  // accuracy or micro-F1 (dataset-dependent)
  double test = 0.0;
  double train_loss = 0.0;
};

inline constexpr auto kEvalPointFields =
    std::tuple{field("epoch", &EvalPoint::epoch),
               field("val", &EvalPoint::val),
               field("test", &EvalPoint::test),
               field("train_loss", &EvalPoint::train_loss)};

/// Streamed to the configured observer after every finished epoch, so
/// callers (the api layer, benches) can emit rows live instead of
/// post-processing a result. `eval` is set only on epochs that evaluated.
struct EpochSnapshot {
  int epoch = 0;  // 1-based epoch that just finished
  double train_loss = 0.0;
  EpochBreakdown breakdown;
  const EvalPoint* eval = nullptr;  // valid for the callback's duration only
};

/// Invoked from the training loop (rank 0's thread under BnsTrainer) once
/// per epoch, in epoch order. Must not block on other ranks.
using EpochObserver = std::function<void(const EpochSnapshot&)>;

/// The one cross-rank reduction of a breakdown: every rank of `ep` enters
/// it (an unaccounted allgather) with its own values, and every rank gets
/// the result, each field combined by its RankRule in
/// kEpochBreakdownFields. `timing` is kept from `local`.
[[nodiscard]] EpochBreakdown reduce_breakdown(comm::Endpoint& ep,
                                              const EpochBreakdown& local);

/// Derived run metrics, shared by every result type (core::TrainResult and
/// api::RunReport) so the definitions exist exactly once. The mean is per
/// field over the epochs; counters truncate to an integer.
[[nodiscard]] EpochBreakdown mean_breakdown(
    std::span<const EpochBreakdown> epochs);
/// Table 12 quantity: mean sampler time / mean total epoch time.
[[nodiscard]] double sampler_overhead(std::span<const EpochBreakdown> epochs);
/// Fig. 4 quantity under the cost model: epochs per simulated second.
[[nodiscard]] double throughput_eps(std::span<const EpochBreakdown> epochs);

/// Trained parameters of a layer stack, flattened in params() order (the
/// order build_model constructs and Adam/allreduce traverse). Captured by
/// TrainerConfig::capture_weights at the end of training and loaded back by
/// the serving engine (core/inference.hpp) — weights are replicated and
/// allreduce-synced, so one rank's snapshot is the whole model.
struct WeightSnapshot {
  std::vector<Matrix> params;

  [[nodiscard]] bool empty() const { return params.empty(); }
};

/// Configuration of a partition-parallel training run (Algorithm 1).
struct TrainerConfig {
  int num_layers = 2;
  std::int64_t hidden = 64;
  ModelKind model = ModelKind::kSage;
  int gat_heads = 1;
  float dropout = 0.0f;
  float lr = 0.01f;
  int epochs = 100;

  /// Boundary sampling: p for kBns (p=1 → vanilla partition parallelism,
  /// p=0 → fully isolated training), edge keep-rate q for the ablations.
  float sample_rate = 1.0f;
  SamplingVariant variant = SamplingVariant::kBns;
  /// 1/p (or 1/q) unbiased rescaling of sampled contributions.
  bool unbiased_scaling = true;

  /// Evaluate val/test every k epochs (0 = final epoch only). Evaluation
  /// always uses the full, unsampled exchange.
  int eval_every = 0;

  std::uint64_t seed = 1;
  /// Compute-normalized PCIe model by default (see CostModel::scaled_pcie3).
  comm::CostModel cost = comm::CostModel::scaled_pcie3();

  /// Kernel worker threads per rank (common::ThreadPool lanes inside each
  /// rank's tensor kernels). Results are bit-identical for every value —
  /// the pool's fixed-block decomposition preserves each output element's
  /// accumulation order (docs/ARCHITECTURE.md §6) — so this is purely a
  /// wall-clock knob. Each rank clamps its effective value to
  /// common::clamp_rank_threads(threads, nranks): P ranks × K lanes never
  /// oversubscribe hardware_concurrency, in both the threaded-mailbox and
  /// forked-process runtimes. RunConfig.trainer.threads is the config-file
  /// spelling (serialized as "threads", absent → 1).
  int threads = 1;

  /// Test-only: skip the rank×thread hardware clamp and run exactly
  /// `threads` lanes even when that oversubscribes the machine. This is
  /// how the parity/fuzz/TSAN suites exercise real multithreading on
  /// single-core CI boxes. Not serialized.
  bool threads_oversubscribe = false;

  /// ROC proxy: stage each layer's inner activations through a host swap
  /// channel (kSwap traffic), reproducing Fig. 1(b)'s CPU-GPU swaps.
  bool simulate_host_swap = false;

  /// Test-only: the named rank throws just before epoch 0's first forward
  /// exchange, exercising the fabric's deadlock-free shutdown path (peers
  /// must surface comm::ShutdownError instead of hanging in a blocking
  /// wait on the dead rank's sends). The CAGNET proxy honours it at the
  /// same point, before epoch 0's first broadcast. -1 disables. Not
  /// serialized.
  int fail_rank = -1;

  /// Optional per-epoch callback (see EpochSnapshot).
  EpochObserver observer;

  /// When set, rank 0 copies the trained parameters here after the last
  /// epoch (see WeightSnapshot) — the handoff from api::run to api::serve.
  /// Not serialized.
  WeightSnapshot* capture_weights = nullptr;
};

/// TrainerConfig's field table: every member but observer,
/// capture_weights, threads_oversubscribe and fail_rank, which do not
/// serialize.
inline constexpr auto kTrainerConfigFields = [] {
  using T = TrainerConfig;
  return std::tuple{field("num_layers", &T::num_layers),
                    field("hidden", &T::hidden),
                    field("model", &T::model),
                    field("gat_heads", &T::gat_heads),
                    field("dropout", &T::dropout),
                    field("lr", &T::lr),
                    field("epochs", &T::epochs),
                    field("sample_rate", &T::sample_rate),
                    field("variant", &T::variant),
                    field("unbiased_scaling", &T::unbiased_scaling),
                    field("eval_every", &T::eval_every),
                    field("seed", &T::seed),
                    field("cost", &T::cost),
                    field("simulate_host_swap", &T::simulate_host_swap),
                    field("threads", &T::threads)};
}();

/// The halo-cache totals of a run (docs/ARCHITECTURE.md §9), summed over
/// its rows (`Run::cache_rows()`: the training epochs or the serve batches)
/// and ranks: boundary rows served from the receiver-side cache, rows
/// shipped over the wire, and the gross feature bytes the cache kept off
/// it (the index-list overhead of delta frames is already inside
/// feature_bytes). All zero with the cache off.
template <class Run>
struct HaloCacheTotals {
  [[nodiscard]] std::int64_t cache_hit_rows() const {
    return total([](const auto& row) { return row.cache_hit_rows; });
  }
  [[nodiscard]] std::int64_t cache_miss_rows() const {
    return total([](const auto& row) { return row.cache_miss_rows; });
  }
  [[nodiscard]] std::int64_t cache_bytes_saved() const {
    return total([](const auto& row) { return row.bytes_saved; });
  }
  /// hits / (hits + misses) over the whole run; 0 with the cache off.
  [[nodiscard]] double cache_hit_rate() const {
    const std::int64_t all = cache_hit_rows() + cache_miss_rows();
    return all > 0 ? static_cast<double>(cache_hit_rows()) /
                         static_cast<double>(all)
                   : 0.0;
  }

 private:
  template <class Count>
  [[nodiscard]] std::int64_t total(Count count) const {
    std::int64_t n = 0;
    for (const auto& row : static_cast<const Run&>(*this).cache_rows())
      n += count(row);
    return n;
  }
};

struct TrainResult : HaloCacheTotals<TrainResult> {
  std::vector<double> train_loss;          // one per epoch (global mean)
  std::vector<EvalPoint> curve;            // eval_every snapshots
  double final_val = 0.0;
  double final_test = 0.0;
  std::vector<EpochBreakdown> epochs;
  MemoryReport memory;                     // empty for minibatch methods
  double wall_time_s = 0.0;                // measured end-to-end wall time
                                           // (rank 0's, for bns)

  [[nodiscard]] const std::vector<EpochBreakdown>& cache_rows() const {
    return epochs;
  }
  [[nodiscard]] EpochBreakdown mean_epoch() const {
    return mean_breakdown(epochs);
  }
  [[nodiscard]] double sampler_overhead() const {
    return core::sampler_overhead(epochs);
  }
  [[nodiscard]] double throughput_eps() const {
    return core::throughput_eps(epochs);
  }
};

/// Construct the configured layer stack (replicated per rank; all ranks and
/// the single-process oracle build bit-identical initial weights for a given
/// seed). Exposed so the baselines share the exact model definition.
[[nodiscard]] std::vector<std::unique_ptr<nn::Layer>> build_model(
    const TrainerConfig& cfg, std::int64_t feat_dim, int num_classes,
    PartId rank);

/// BNS-GCN: partition-parallel full-graph training with random boundary-node
/// sampling (the paper's core contribution, Algorithm 1). Runs one thread
/// per partition over an in-process Fabric. `xs` schedules the boundary
/// exchanges (validated here, before any rank starts).
class BnsTrainer {
 public:
  BnsTrainer(const Dataset& ds, const Partitioning& part, TrainerConfig cfg,
             ExchangeSpec xs = {});

  [[nodiscard]] TrainResult train();

  /// Run exactly one rank of the training loop against an externally
  /// constructed fabric — the rank runtime's entry point (api::run runs it
  /// on every rank through api::run_ranks_piped, on any transport). The
  /// in-process train() is a thin wrapper: a mailbox fabric plus one
  /// thread per rank calling this. Only rank 0's result carries the
  /// aggregated curves and breakdowns (the loop's collectives reduce onto
  /// rank 0); other ranks return a result that participated in those
  /// collectives but holds only their local view.
  [[nodiscard]] TrainResult train_rank(comm::Fabric& fabric, PartId rank);

 private:
  /// Post-loop collective bookkeeping for one rank: allgather the kept-halo
  /// fractions and (on rank 0) attach the memory-model report.
  void finalize_rank(comm::Endpoint& ep, double mean_kept_halo,
                     TrainResult& result) const;

  const Dataset& ds_;
  TrainerConfig cfg_;
  ExchangeSpec xs_;
  Partitioning part_;
  std::vector<LocalGraph> local_graphs_;
};

} // namespace bnsgcn::core
