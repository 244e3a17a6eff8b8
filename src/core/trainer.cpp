#include "core/trainer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/rank_model.hpp"
#include "nn/adam.hpp"
#include "nn/gat_layer.hpp"
#include "nn/loss.hpp"
#include "nn/sage_layer.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn::core {

namespace {

using comm::TrafficClass;

/// Layer input dimensions of the configured stack (for Eq. 4).
std::vector<std::int64_t> layer_input_dims(const TrainerConfig& cfg,
                                           std::int64_t feat_dim) {
  std::vector<std::int64_t> dims;
  dims.push_back(feat_dim);
  for (int l = 1; l < cfg.num_layers; ++l) dims.push_back(cfg.hidden);
  return dims;
}

} // namespace

std::vector<std::unique_ptr<nn::Layer>> build_model(const TrainerConfig& cfg,
                                                    std::int64_t feat_dim,
                                                    int num_classes,
                                                    PartId rank) {
  // Every rank seeds an identical stream so replicated weights start equal;
  // dropout streams are split per (rank, layer) so masks are independent.
  Rng init_rng(cfg.seed);
  Rng dropout_base(cfg.seed ^ 0x5EEDFACEULL);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  for (int l = 0; l < cfg.num_layers; ++l) {
    const std::int64_t d_in = (l == 0) ? feat_dim : cfg.hidden;
    const std::int64_t d_out =
        (l == cfg.num_layers - 1) ? num_classes : cfg.hidden;
    const bool last = (l == cfg.num_layers - 1);
    if (cfg.model == ModelKind::kSage) {
      auto layer = std::make_unique<nn::SageLayer>(
          d_in, d_out,
          nn::SageLayer::Options{.relu = !last,
                                 .dropout = last ? 0.0f : cfg.dropout},
          init_rng);
      layer->set_dropout_rng(dropout_base.split(
          static_cast<std::uint64_t>(rank) * 131 + static_cast<std::uint64_t>(l)));
      layers.push_back(std::move(layer));
    } else {
      auto layer = std::make_unique<nn::GatLayer>(
          d_in, d_out,
          nn::GatLayer::Options{.heads = last ? 1 : cfg.gat_heads,
                                .relu = !last,
                                .dropout = last ? 0.0f : cfg.dropout},
          init_rng);
      layer->set_dropout_rng(dropout_base.split(
          static_cast<std::uint64_t>(rank) * 131 + static_cast<std::uint64_t>(l)));
      layers.push_back(std::move(layer));
    }
  }
  return layers;
}

RankModel::RankModel(const Dataset& ds, const TrainerConfig& cfg,
                     const ExchangeSpec& xs, const LocalGraph& lg,
                     comm::Endpoint& ep)
    : ds_(ds), cfg_(cfg), ep_(ep), lg_(lg) {
  common::set_ops_threads(
      cfg.threads_oversubscribe
          ? cfg.threads
          : common::clamp_rank_threads(cfg.threads, ep_.nranks()));
  x_local_ = slice_rows(ds.features, lg_.inner_global);
  layers_ = build_model(cfg, ds.feat_dim(), ds.num_classes, ep_.rank());
  // The full plan needs no sampler state: default options draw nothing.
  full_plan_ = BoundarySampler(lg_, {}).full_plan();
  // The boundary-exchange engine (the phased layer forward, fold driver,
  // halo cache) — see core/halo_exchange.hpp.
  hx_.emplace(ep_, HaloExchanger::Options{.cost = cfg.cost,
                                          .exchange = xs,
                                          .num_layers = cfg.num_layers,
                                          .feat_dim = ds.feat_dim(),
                                          .hidden = cfg.hidden});
}

double RankModel::forward_full(bool cached, Matrix& out) {
  Accumulator untimed;
  const ForwardPass pass{.plan = full_plan_,
                         .inv_deg = lg_.inv_full_degree,
                         .inc = full_inc_,
                         .training = false,
                         .compute_acc = untimed};
  // Layer 0 reads x_local_ in place; each later layer overwrites `out`.
  double span_s = 0.0;
  for (std::size_t l = 0; l < layers_.size(); ++l)
    span_s += hx_->forward_layer(pass, *layers_[l], l == 0 ? x_local_ : out,
                                 next_tag(), cached ? static_cast<int>(l) : -1,
                                 out)
                  .span_s;
  return span_s;
}

std::vector<Matrix*> RankModel::params() {
  std::vector<Matrix*> out;
  for (auto& l : layers_)
    for (Matrix* p : l->params()) out.push_back(p);
  return out;
}

namespace {

/// An epoch's exchange records, summed into the simulated and the
/// measured view of the breakdown. Hidden time is taken per exchange: the
/// wire time its in-flight window covers (simulated), the part of its span
/// the rank did not spend blocked (measured).
struct ExchangeTotals {
  double sim_hidden_s = 0.0;
  double sim_tail_s = 0.0;
  double span_s = 0.0;
  double meas_hidden_s = 0.0;

  void add(const ExchangeRecord& r) {
    sim_hidden_s += std::min(r.sim_s, r.window_s);
    sim_tail_s += r.tail_s;
    span_s += r.span_s;
    meas_hidden_s += std::clamp(r.span_s - r.wait_s, 0.0, r.span_s);
  }
};

/// Per-rank training state and logic: the rank's model plus its labels,
/// row subsets, optimizer, sampler and swap staging. Cross-rank reductions
/// all go through the endpoint's collectives (no shared memory), so the
/// same code runs unchanged in the threaded and forked runtimes.
class RankWorker : public RankModel {
 public:
  RankWorker(const Dataset& ds, const TrainerConfig& cfg,
             const ExchangeSpec& xs, const LocalGraph& lg, comm::Endpoint& ep,
             TrainResult& result)
      : RankModel(ds, cfg, xs, lg, ep), xs_(xs), result_(result),
        measured_(ep.timing() == comm::TimingSource::kMeasured) {
    const NodeId n_in = lg_.n_inner();
    if (ds.multilabel) {
      targets_local_ = slice_rows(ds.multilabels, lg_.inner_global);
    } else {
      labels_local_.resize(static_cast<std::size_t>(n_in));
      for (NodeId i = 0; i < n_in; ++i)
        labels_local_[static_cast<std::size_t>(i)] =
            ds.labels[static_cast<std::size_t>(
                lg_.inner_global[static_cast<std::size_t>(i)])];
    }
    train_rows_ = local_rows_of(lg_, ds.train_nodes);
    val_rows_ = local_rows_of(lg_, ds.val_nodes);
    test_rows_ = local_rows_of(lg_, ds.test_nodes);

    std::vector<Matrix*> grads;
    for (auto& l : layers_)
      for (Matrix* g : l->grads()) grads.push_back(g);
    adam_.emplace(params(), std::move(grads),
                  nn::Adam::Options{.lr = cfg_.lr});

    BoundarySampler::Options so;
    so.variant = cfg_.variant;
    so.rate = cfg_.sample_rate;
    // GAT renormalizes attention over the kept neighbors — no 1/p scaling.
    so.unbiased_scaling =
        cfg_.unbiased_scaling && cfg_.model == ModelKind::kSage;
    so.seed = Rng(cfg_.seed ^ 0xB01DFACEULL)
                  .split(static_cast<std::uint64_t>(ep_.rank()))
                  .next_u64();
    sampler_.emplace(lg_, so);

    const float n_train_global = static_cast<float>(ds.train_nodes.size());
    inv_total_ = ds.multilabel
                     ? 1.0f / (n_train_global *
                               static_cast<float>(ds.num_classes))
                     : 1.0f / n_train_global;
  }

  void run() {
    if (ep_.rank() == 0) {
      result_.train_loss.reserve(static_cast<std::size_t>(cfg_.epochs));
      result_.epochs.reserve(static_cast<std::size_t>(cfg_.epochs));
    }
    // Stats are written only by their own rank (tx at post, rx at receive
    // completion), so the snapshot needs no cross-rank ordering.
    snap_ = ep_.stats();

    for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
      const double loss = run_train_epoch(epoch);
      if (ep_.rank() == 0) result_.train_loss.push_back(loss);

      const bool last = (epoch == cfg_.epochs - 1);
      bool evaluated = false;
      if (last || (cfg_.eval_every > 0 && (epoch + 1) % cfg_.eval_every == 0)) {
        evaluated = true;
        const auto [val, test] = evaluate();
        // Exclude evaluation traffic from the next epoch's breakdown. All
        // of this rank's eval receives completed inside evaluate() (every
        // exchange drains before its layer finishes), so a bare
        // re-snapshot suffices.
        snap_ = ep_.stats();
        if (ep_.rank() == 0) {
          result_.curve.push_back(
              {.epoch = epoch + 1, .val = val, .test = test,
               .train_loss = loss});
          if (last) {
            result_.final_val = val;
            result_.final_test = test;
          }
        }
      }
      // Stream the finished epoch to the observer. Only rank 0 calls it
      // (other ranks may already be training the next epoch), so the
      // callback needs no cross-rank synchronization.
      if (ep_.rank() == 0 && cfg_.observer) {
        EpochSnapshot snap;
        snap.epoch = epoch + 1;
        snap.train_loss = loss;
        snap.breakdown = result_.epochs.back();
        snap.eval = evaluated ? &result_.curve.back() : nullptr;
        cfg_.observer(snap);
      }
    }
  }

 private:
  /// ROC proxy: stage a layer activation block through the host, paying
  /// PCIe-class traffic in both directions.
  void host_swap(const Matrix& block) {
    swap_staging_ = block; // real copy, as ROC pays a real transfer
    auto& st = ep_.stats();
    st.tx_bytes[static_cast<int>(TrafficClass::kSwap)] += block.bytes();
    st.rx_bytes[static_cast<int>(TrafficClass::kSwap)] += block.bytes();
    ++st.tx_msgs[static_cast<int>(TrafficClass::kSwap)];
    ++st.rx_msgs[static_cast<int>(TrafficClass::kSwap)];
  }

  double run_train_epoch(int epoch) {
    // Snapshots chain across epochs: a fast peer may begin its next epoch's
    // sends before this rank reads a fresh snapshot, so "now" is never read
    // at epoch *start* — each delta runs from the previous epoch's end.
    const comm::RankStats before = snap_;
    Accumulator compute_acc, sample_acc;
    // Halo-cache epoch context: the directories age entries by epoch
    // index, and the per-epoch counters reset here and ride the breakdown
    // allgather below.
    hx_->begin_epoch(epoch);

    // ---- Sampling (Algorithm 1 lines 4-7) -----------------------------
    EpochPlan sampled_plan;
    const EpochPlan* plan_ptr = nullptr;
    {
      ScopedTimer t(sample_acc);
      if (cfg_.variant == SamplingVariant::kBns && cfg_.sample_rate >= 1.0f) {
        plan_ptr = &full_plan_; // vanilla partition parallelism: no overhead
      } else if (cfg_.variant == SamplingVariant::kBns &&
                 cfg_.sample_rate <= 0.0f) {
        sampled_plan = sampler_->empty_plan();
        plan_ptr = &sampled_plan;
      } else {
        sampled_plan = sampler_->sample_epoch(ep_, next_tag());
        plan_ptr = &sampled_plan;
      }
    }
    const EpochPlan& plan = *plan_ptr;
    kept_halo_accum_ += plan.n_kept_halo;
    ++epochs_run_;

    // Test-only fault injection (TrainerConfig::fail_rank): die before the
    // first forward exchange, leaving peers blocked on sends that will
    // never come — the fabric's shutdown path must unwind them.
    if (epoch == 0 && cfg_.fail_rank == ep_.rank())
      throw std::runtime_error("injected failure: rank " +
                               std::to_string(ep_.rank()));

    // ---- Forward (Algorithm 1 lines 8-11) -----------------------------
    // Every layer runs the one phased routine: post the exchange, run the
    // halo-independent phase in row chunks while rows are in flight —
    // polling the completion set between chunks, so in stream mode peer
    // folds interleave mid-F1 — then drain the remaining peers through
    // the fold driver. Blocking waits right after posting, bulk waits at
    // drain time, stream polls. Identical instruction stream in all
    // three; only the waits (and therefore the overlap window) move.
    const int L = cfg_.num_layers;
    ExchangeTotals totals;
    // Every layer of the epoch folds through the same compacted adjacency,
    // so the slot→dst reverse incidence is built once — inside layer 0's
    // in-flight window — and handed to each layer's phase F2a.
    nn::HaloIncidence halo_inc;
    const ForwardPass pass{.plan = plan,
                           .inv_deg = lg_.inv_full_degree,
                           .inc = halo_inc,
                           .training = true,
                           .compute_acc = compute_acc};
    // h[l + 1] is layer l's output; layer 0 reads x_local_ in place, so
    // h[0] stays empty.
    std::vector<Matrix> h(static_cast<std::size_t>(L) + 1);
    for (int l = 0; l < L; ++l) {
      const auto i = static_cast<std::size_t>(l);
      const Matrix& in = l == 0 ? x_local_ : h[i];
      if (cfg_.simulate_host_swap) host_swap(in);
      totals.add(hx_->forward_layer(pass, *layers_[i], in, next_tag(), l,
                                    h[i + 1]));
      if (cfg_.simulate_host_swap) host_swap(h[i + 1]);
    }

    // ---- Loss (line 12) ------------------------------------------------
    Matrix dlogits;
    double local_loss = 0.0;
    {
      ScopedTimer t(compute_acc);
      const Matrix& logits = h[static_cast<std::size_t>(L)];
      local_loss =
          ds_.multilabel
              ? nn::sigmoid_bce(logits, targets_local_, train_rows_,
                                inv_total_, dlogits)
              : nn::softmax_xent(logits, labels_local_, train_rows_,
                                 inv_total_, dlogits);
    }

    // ---- Backward (line 13) ---------------------------------------------
    // Cross-layer pipeline: layer l's parameter-gradient phase (B3 —
    // nothing reads dW/db before the epoch-end allreduce) is deferred out
    // of its own exchange window and executed while layer l−1's exchange
    // is in flight, so backward work of one layer hides the wire time of
    // the next. The deferral happens in every mode (the values cannot
    // change — each layer's accumulators are disjoint), so all three
    // schedules keep executing the identical fp instruction stream; only
    // stream/bulk credit the extra in-flight window.
    for (auto& l : layers_) l->zero_grads();
    Matrix grad = std::move(dlogits);
    int deferred_params = -1; // layer with its B3 phase still pending
    for (int l = L - 1; l >= 0; --l) {
      auto& layer = *layers_[static_cast<std::size_t>(l)];
      if (l == 0) {
        // Input-feature gradients are not needed (line 13 stops at the
        // input features): run only B0 and B3 for the parameter gradients,
        // then settle the last deferred B3 (no exchange is left to hide it
        // behind).
        ScopedTimer t(compute_acc);
        layer.backward_begin(plan.adj, grad);
        layer.backward_params(plan.adj);
        if (deferred_params >= 0) {
          layers_[static_cast<std::size_t>(deferred_params)]->backward_params(
              plan.adj);
          deferred_params = -1;
        }
        break;
      }
      // The halo-gradient rows leave for their owners first; the
      // inner-gradient block — and the layer above's deferred parameter
      // gradients — are computed while they (and the peers' contributions
      // to our rows) are on the wire, then each peer's contribution is
      // scatter-added as it lands (fixed peer order).
      Matrix dhalo;
      {
        ScopedTimer t(compute_acc);
        dhalo = layer.backward_halo(plan.adj, grad, lg_.inv_full_degree);
      }
      PendingExchange px =
          hx_->post_backward(dhalo, plan, plan.halo_scale, next_tag());
      FoldDriver fold(px, xs_.overlap);
      Accumulator window_acc;
      Matrix dinner;
      {
        ScopedTimer t(compute_acc);
        ScopedTimer w(window_acc);
        dinner = layer.backward_inner(plan.adj, lg_.inv_full_degree);
      }
      auto apply = hx_->make_backward_fold(px, plan, dinner);
      fold.poll(apply, compute_acc);
      if (deferred_params >= 0) {
        ScopedTimer t(compute_acc);
        ScopedTimer w(window_acc);
        layers_[static_cast<std::size_t>(deferred_params)]->backward_params(
            plan.adj);
      }
      deferred_params = l;
      fold.drain(apply, compute_acc);
      totals.add(fold.record(window_acc.seconds()));
      grad = std::move(dinner);
    }

    // ---- Gradient allreduce + update (lines 14-15) ----------------------
    const comm::RankStats before_reduce = ep_.stats();
    auto flat = nn::flatten_grads(layers_);
    Stopwatch reduce_sw;
    ep_.allreduce_sum(flat, TrafficClass::kGradient);
    const double reduce_meas_s = reduce_sw.elapsed_s();
    nn::apply_flat_grads(flat, layers_);
    {
      ScopedTimer t(compute_acc);
      adam_->step();
    }

    const double loss_total = ep_.allreduce_sum_scalar(local_loss);

    // ---- Per-epoch accounting -------------------------------------------
    const comm::RankStats after = ep_.stats();
    snap_ = after;
    const comm::RankStats delta = after - before;
    EpochBreakdown local;
    local.timing = ep_.timing();
    local.compute_s = compute_acc.seconds();
    local.sample_s = sample_acc.seconds();
    if (measured_) {
      local.comm_s = totals.span_s;
      // Clamped so the documented overlap_s <= comm_s invariant holds.
      local.overlap_s = std::min(totals.meas_hidden_s, local.comm_s);
      // No per-peer completion times are recorded yet, so the measured
      // tail is the whole span.
      local.comm_tail_s = totals.span_s;
      local.reduce_s = reduce_meas_s;
    } else {
      local.comm_s = delta.sim_seconds(TrafficClass::kFeature, cfg_.cost);
      // Per-exchange hidden time, clamped so the documented overlap_s <=
      // comm_s invariant holds even when the per-exchange max(tx, rx)
      // sums above the epoch-level max.
      local.overlap_s = std::min(totals.sim_hidden_s, local.comm_s);
      local.comm_tail_s = totals.sim_tail_s;
      local.reduce_s = (after - before_reduce)
                           .sim_seconds(TrafficClass::kGradient, cfg_.cost);
    }
    local.swap_s = delta.sim_seconds(TrafficClass::kSwap, cfg_.cost);
    local.feature_bytes =
        delta.rx_bytes[static_cast<int>(TrafficClass::kFeature)];
    local.grad_bytes =
        delta.rx_bytes[static_cast<int>(TrafficClass::kGradient)];
    local.control_bytes =
        delta.rx_bytes[static_cast<int>(TrafficClass::kControl)];
    local.cache_hit_rows = hx_->cache_hits();
    local.cache_miss_rows = hx_->cache_misses();
    local.bytes_saved = hx_->bytes_saved();
    const EpochBreakdown eb = reduce_breakdown(ep_, local);
    if (ep_.rank() == 0) result_.epochs.push_back(eb);
    return loss_total;
  }

  /// Full-plan forward with the cache bypassed; distributed metric
  /// reduction.
  std::pair<double, double> evaluate() {
    Matrix h;
    (void)forward_full(/*cached=*/false, h);
    if (ds_.multilabel) {
      const nn::F1Counts v =
          allreduce_counts(nn::f1_counts(h, targets_local_, val_rows_));
      const nn::F1Counts t =
          allreduce_counts(nn::f1_counts(h, targets_local_, test_rows_));
      return {v.micro_f1(), t.micro_f1()};
    }
    const auto [vc, vt] = nn::accuracy_counts(h, labels_local_, val_rows_);
    const auto [tc, tt] = nn::accuracy_counts(h, labels_local_, test_rows_);
    const double val_correct = ep_.allreduce_sum_scalar(static_cast<double>(vc));
    const double val_total = ep_.allreduce_sum_scalar(static_cast<double>(vt));
    const double test_correct = ep_.allreduce_sum_scalar(static_cast<double>(tc));
    const double test_total = ep_.allreduce_sum_scalar(static_cast<double>(tt));
    return {val_total > 0 ? val_correct / val_total : 0.0,
            test_total > 0 ? test_correct / test_total : 0.0};
  }

  /// Sum every rank's counts, in tp, fp, fn order. They travel as doubles:
  /// integers far below 2^53, so the round trip is exact.
  nn::F1Counts allreduce_counts(const nn::F1Counts& local) {
    const auto sum = [&](std::int64_t n) {
      return static_cast<std::int64_t>(
          ep_.allreduce_sum_scalar(static_cast<double>(n)));
    };
    nn::F1Counts all;
    all.tp = sum(local.tp);
    all.fp = sum(local.fp);
    all.fn = sum(local.fn);
    return all;
  }

  const ExchangeSpec& xs_;
  TrainResult& result_;
  bool measured_; // ep_.timing() == kMeasured (socket fabrics)

  std::vector<int> labels_local_;
  Matrix targets_local_;
  std::vector<NodeId> train_rows_, val_rows_, test_rows_;
  std::optional<nn::Adam> adam_;
  std::optional<BoundarySampler> sampler_;
  Matrix swap_staging_;
  float inv_total_ = 1.0f;
  double kept_halo_accum_ = 0.0;
  int epochs_run_ = 0;
  comm::RankStats snap_;

 public:
  [[nodiscard]] double mean_kept_halo() const {
    return epochs_run_ > 0 ? kept_halo_accum_ / epochs_run_ : 0.0;
  }
};

} // namespace

EpochBreakdown reduce_breakdown(comm::Endpoint& ep,
                                const EpochBreakdown& local) {
  // The reduction rides an (unaccounted) allgather instead of shared-memory
  // scratch, so it works across OS processes. Counts travel as doubles:
  // per-epoch volumes are integers far below 2^53, so the round trip is
  // exact.
  std::vector<double> mine;
  for_each_field(kEpochBreakdownFields, [&](const auto& f) {
    mine.push_back(static_cast<double>(local.*f.member));
  });
  const auto ranks = ep.allgather_doubles(std::move(mine));
  EpochBreakdown out;
  out.timing = local.timing;
  std::size_t i = 0;
  for_each_field(kEpochBreakdownFields, [&](const auto& f) {
    auto& o = out.*f.member;
    using M = std::remove_reference_t<decltype(o)>;
    // A max starts from the field's zero and a min from rank 0's value;
    // each then folds the ranks in order, so NaN and -0.0 reduce by
    // std::max / std::min's argument order.
    if (f.rules.rank == RankRule::kMin) o = static_cast<M>(ranks.front()[i]);
    for (const auto& vals : ranks) {
      const auto v = static_cast<M>(vals[i]);
      switch (f.rules.rank) {
        case RankRule::kMax: o = std::max(o, v); break;
        case RankRule::kMin: o = std::min(o, v); break;
        case RankRule::kSum: o += v; break;
      }
    }
    ++i;
  });
  return out;
}

EpochBreakdown mean_breakdown(std::span<const EpochBreakdown> epochs) {
  EpochBreakdown mean;
  if (epochs.empty()) return mean;
  const auto n = static_cast<double>(epochs.size());
  for_each_field(kEpochBreakdownFields, [&](const auto& f) {
    auto& m = mean.*f.member;
    for (const auto& e : epochs) m += e.*f.member;
    // Counters truncate to an integer mean.
    m = static_cast<std::remove_reference_t<decltype(m)>>(
        static_cast<double>(m) / n);
  });
  return mean;
}

double sampler_overhead(std::span<const EpochBreakdown> epochs) {
  const auto mean = mean_breakdown(epochs);
  const double total = mean.total_s();
  return total > 0.0 ? mean.sample_s / total : 0.0;
}

double throughput_eps(std::span<const EpochBreakdown> epochs) {
  const double t = mean_breakdown(epochs).total_s();
  return t > 0.0 ? 1.0 / t : 0.0;
}

BnsTrainer::BnsTrainer(const Dataset& ds, const Partitioning& part,
                       TrainerConfig cfg, ExchangeSpec xs)
    : ds_(ds), cfg_(cfg), xs_(xs), part_(part) {
  BNSGCN_CHECK(cfg.num_layers >= 1);
  BNSGCN_CHECK(cfg.sample_rate >= 0.0f && cfg.sample_rate <= 1.0f);
  validate_exchange_spec(xs);
  local_graphs_ = build_local_graphs(ds.graph, part_);
}

void BnsTrainer::finalize_rank(comm::Endpoint& ep, double mean_kept_halo,
                               TrainResult& result) const {
  // Memory report (Eq. 4): per rank, at the mean sampled halo and at full.
  // The kept-halo means travel over the fabric (every rank enters the
  // allgather; rank 0 builds the report), so the path is identical whether
  // the ranks are threads or processes.
  const auto kept = ep.allgather_doubles({mean_kept_halo});
  if (ep.rank() != 0) return;
  const PartId m = ep.nranks();
  const auto dims = layer_input_dims(cfg_, ds_.feat_dim());
  result.memory.model_bytes.assign(static_cast<std::size_t>(m), 0.0);
  result.memory.full_bytes.assign(static_cast<std::size_t>(m), 0);
  for (PartId r = 0; r < m; ++r) {
    const auto& lg = local_graphs_[static_cast<std::size_t>(r)];
    double model = 0.0;
    for (const std::int64_t d : dims) {
      model += (3.0 * lg.n_inner() + kept[static_cast<std::size_t>(r)][0]) *
               static_cast<double>(d) * static_cast<double>(sizeof(float));
    }
    result.memory.model_bytes[static_cast<std::size_t>(r)] = model;
    result.memory.full_bytes[static_cast<std::size_t>(r)] =
        MemoryModel::epoch_bytes(lg.n_inner(), lg.n_halo(), dims);
  }
}

TrainResult BnsTrainer::train_rank(comm::Fabric& fabric, PartId rank) {
  BNSGCN_CHECK(rank >= 0 && rank < part_.nparts &&
               fabric.nranks() == part_.nparts);
  TrainResult result;
  Stopwatch wall;
  RankWorker worker(ds_, cfg_, xs_,
                    local_graphs_[static_cast<std::size_t>(rank)],
                    fabric.endpoint(rank), result);
  worker.run();
  // Weights are replicated and kept in sync by the gradient allreduce, so
  // rank 0's copy is every rank's — and bit-identical across transports
  // and overlap modes, so parameters trained on the mailbox serve on any
  // fabric (serve_rank).
  if (rank == 0) {
    params_.clear();
    for (const Matrix* p : worker.params()) params_.push_back(*p);
  }
  finalize_rank(fabric.endpoint(rank), worker.mean_kept_halo(), result);
  result.wall_time_s = wall.elapsed_s();
  return result;
}

TrainResult BnsTrainer::train() {
  comm::Fabric fabric(part_.nparts, cfg_.cost);
  TrainResult result;
  Stopwatch wall;
  comm::run_ranks(fabric, [&](PartId r) {
    TrainResult local = train_rank(fabric, r);
    if (r == 0) result = std::move(local);
  });
  result.wall_time_s = wall.elapsed_s();
  return result;
}

} // namespace bnsgcn::core
