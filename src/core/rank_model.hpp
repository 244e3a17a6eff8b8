#pragma once

// Private to src/core: included by trainer.cpp and inference.cpp only.

#include <memory>
#include <optional>
#include <vector>

#include "comm/fabric.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_exchange.hpp"
#include "core/local_graph.hpp"
#include "core/trainer.hpp"
#include "graph/dataset.hpp"

namespace bnsgcn::core {

/// One rank's replica of the configured model over its local graph: the
/// rank state that training, evaluation and serving share, and their one
/// full-plan forward. One instance per rank — a thread on the mailbox
/// fabric, a whole OS process on a socket fabric. RankWorker (trainer.cpp)
/// adds the training state; ServeWorker (inference.cpp) loads the trained
/// parameters and runs the request loop.
class RankModel {
 public:
  /// Runs on the rank's own thread (a std::thread on the mailbox, the
  /// forked process's main thread on sockets), so the kernel-thread budget
  /// set here covers every op the rank runs. `xs` is copied into the
  /// rank's HaloExchanger; the other arguments are borrowed for the
  /// model's lifetime.
  RankModel(const Dataset& ds, const TrainerConfig& cfg,
            const ExchangeSpec& xs, const LocalGraph& lg, comm::Endpoint& ep);

  /// Full-exchange, no-dropout forward over the inner block through the
  /// training forward's own routine (HaloExchanger::forward_layer), which
  /// makes evaluated and served logits bit-identical to a training-path
  /// forward of the same weights. Layer 0 reads x_local_ in place and
  /// `out` receives the logits. `cached` picks the halo-cache channel:
  /// serving passes true (the layer index), evaluation false (-1, which
  /// bypasses the cache: evaluation must not step the per-epoch
  /// directories). Returns the summed measured exchange spans.
  double forward_full(bool cached, Matrix& out);

  /// The stack's parameters in params() order: the order build_model
  /// constructs them and Adam, the allreduce and BnsTrainer's trained copy
  /// traverse.
  [[nodiscard]] std::vector<Matrix*> params();

 protected:
  int next_tag() { return tag_seq_++; }

  const Dataset& ds_;
  const TrainerConfig& cfg_;
  comm::Endpoint& ep_;
  const LocalGraph& lg_;
  Matrix x_local_;
  std::vector<std::unique_ptr<nn::Layer>> layers_;
  EpochPlan full_plan_;
  nn::HaloIncidence full_inc_; // full plan's, built in the first forward
  std::optional<HaloExchanger> hx_;
  int tag_seq_ = 0;
};

} // namespace bnsgcn::core
