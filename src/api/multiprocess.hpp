#pragma once

#include <functional>
#include <string>

#include "comm/fabric.hpp"

namespace bnsgcn::api {

/// One rank's body: runs against that rank's fabric and returns the
/// payload to hand back (only rank 0's return value is read; other ranks
/// return an empty string). Under the forked half everything the body
/// captures was built before the fork and is inherited copy-on-write.
using RankPayloadFn = std::function<std::string(comm::Fabric&, PartId)>;

/// The rank runtime of every transport: run `rank_fn` once per rank and
/// return rank 0's payload.
///  - kMailbox: one thread per rank over one in-process mailbox fabric
///    (comm::run_ranks).
///  - kUds / kTcp: bind a socket group, fork one process per rank, run
///    `rank_fn` in each child over its own socket fabric, and stream rank
///    0's payload back over a report pipe.
///
/// Both halves fail alike: a failed run throws comm::RankFailure naming
/// the root-cause rank with that rank's message (comm::raise_root_cause).
/// A forked child that fails writes one outcome record to a status pipe
/// before it exits nonzero; a child killed by a signal, or exiting nonzero
/// without a record, is a failure named by its wait status. The parent
/// drains both pipes together with poll(2), to EOF: reports routinely
/// exceed the pipe capacity, and a read error other than EINTR is raised,
/// not taken for EOF. An empty rank-0 payload is an error on both halves.
[[nodiscard]] std::string run_ranks_piped(comm::TransportKind kind,
                                          PartId nranks,
                                          const comm::CostModel& cost,
                                          const RankPayloadFn& rank_fn);

} // namespace bnsgcn::api
