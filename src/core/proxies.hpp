#pragma once

#include "core/trainer.hpp"

namespace bnsgcn::core {

/// Throughput-shape proxies for the Fig. 4 baselines. Both run real
/// compute and move real bytes through the fabric; only wall-clock →
/// simulated-time conversion comes from the CostModel
/// (docs/ARCHITECTURE.md §1).

/// ROC-style training (Fig. 1b): vanilla partition parallelism whose layer
/// activations are additionally staged through a host "PCIe" swap channel.
/// Implemented as BnsTrainer(p=1) with host-swap traffic enabled; `xs`
/// schedules its boundary exchanges exactly as BnsTrainer's.
[[nodiscard]] TrainResult run_roc_proxy(const Dataset& ds,
                                        const Partitioning& part,
                                        TrainerConfig cfg,
                                        ExchangeSpec xs = {});

/// CAGNET-style 1.5D broadcast training (Fig. 1c): each layer broadcasts
/// every rank's inner-feature block to all ranks (volume (m-1)·n_i·d per
/// rank per layer, forward and backward), then aggregates against the full
/// feature matrix. `c` is CAGNET's replication factor: the broadcast is
/// split across c communication planes, dividing its serialized time
/// (modeled; c=1 is fully faithful). It takes no ExchangeSpec: every
/// broadcast row feeds every destination's aggregation, so there is no
/// halo-free compute to hide the exchange behind and no boundary row to
/// cache.
[[nodiscard]] TrainResult run_cagnet_proxy(const Dataset& ds,
                                           const Partitioning& part,
                                           TrainerConfig cfg, int c);

} // namespace bnsgcn::core
