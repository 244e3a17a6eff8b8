#include "api/serve.hpp"

#include <utility>

#include "api/multiprocess.hpp"
#include "api/partition_cache.hpp"
#include "common/check.hpp"

namespace bnsgcn::api {

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

  // The engine (weights, local graphs) is built before any rank starts;
  // forked ranks inherit it copy-on-write. Rank 0 hands its result back as
  // JSON on every transport; the provenance is stamped here.
  ServeReport report = serve_report_from_json_string(run_ranks_piped(
      cfg.comm.transport, part.nparts, tcfg.cost,
      [&](comm::Fabric& fabric, PartId rank) {
        ServeReport res{engine.serve_rank(fabric, rank, scfg)};
        if (rank != 0) return std::string();
        return to_json_string(res);
      }));
  report.method = info.name;
  report.dataset = ds.name;
  report.batch_size = scfg.batch_size;
  report.num_batches = scfg.num_batches;
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

} // namespace bnsgcn::api
