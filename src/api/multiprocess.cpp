#include "api/multiprocess.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/serialize.hpp"
#include "comm/process_group.hpp"
#include "comm/socket_transport.hpp"
#include "common/check.hpp"

namespace bnsgcn::api {

namespace {

void write_fully(int fd, const std::string& payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n =
        ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      BNSGCN_CHECK_MSG(errno == EINTR, "report pipe write failed");
      continue;
    }
    off += static_cast<std::size_t>(n);
  }
}

} // namespace

std::string run_ranks_piped(comm::TransportKind kind, PartId nranks,
                            const comm::CostModel& cost,
                            const RankPayloadFn& rank_fn) {
  BNSGCN_CHECK_MSG(kind != comm::TransportKind::kMailbox,
                   "multi-process runs need a socket transport (uds or tcp)");
  const PartId m = nranks;

  // Every rank's listener is bound and listening before the first fork, so
  // connects cannot race the spawn order.
  comm::LocalGroup group = comm::make_local_group(kind, m);

  int pipefd[2];
  BNSGCN_CHECK_MSG(::pipe(pipefd) == 0, "pipe failed");

  // Flush stdio before forking so buffered output is not emitted twice.
  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(m), -1);
  for (PartId r = 0; r < m; ++r) {
    const pid_t pid = ::fork();
    BNSGCN_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // ---- child: rank r -------------------------------------------------
      ::close(pipefd[0]);
      for (PartId j = 0; j < m; ++j)
        if (j != r) ::close(group.listen_fds[static_cast<std::size_t>(j)]);
      int exit_code = 0;
      try {
        comm::Fabric fabric(
            std::make_unique<comm::SocketTransport>(
                r, group.endpoints,
                group.listen_fds[static_cast<std::size_t>(r)]),
            cost);
        const std::string payload = rank_fn(fabric, r);
        if (r == 0) write_fully(pipefd[1], payload);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[bnsgcn rank %d] %s\n", static_cast<int>(r),
                     e.what());
        exit_code = 1;
      } catch (...) {
        std::fprintf(stderr, "[bnsgcn rank %d] unknown error\n",
                     static_cast<int>(r));
        exit_code = 1;
      }
      ::close(pipefd[1]);
      std::fflush(nullptr);
      ::_exit(exit_code);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // ---- parent ----------------------------------------------------------
  ::close(pipefd[1]);
  // The children carry their own copies of the listener fds; drop ours.
  // The UDS paths stay on disk until after waitpid — late ranks dial them
  // while their fabric bootstraps.
  for (int& fd : group.listen_fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  // Reports larger than PIPE_BUF arrive in several chunks, so the loop
  // reads to EOF; only EOF ends it. A non-EINTR read error is recorded and
  // raised after the children are reaped — silently treating it as EOF
  // truncated the payload and misreported the failure as a missing report.
  std::string payload;
  int read_err = 0;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(pipefd[0], buf, sizeof buf);
    if (n > 0) {
      payload.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno == EINTR) {
      continue;
    } else {
      read_err = errno;
      break;
    }
  }
  ::close(pipefd[0]);

  std::vector<PartId> failed;
  for (PartId r = 0; r < m; ++r) {
    int status = 0;
    pid_t w;
    do {
      w = ::waitpid(pids[static_cast<std::size_t>(r)], &status, 0);
    } while (w < 0 && errno == EINTR);
    const bool ok = w == pids[static_cast<std::size_t>(r)] &&
                    WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok) failed.push_back(r);
  }
  comm::cleanup_local_group(group, /*fds_taken=*/true);

  std::string failed_msg = "multi-process run failed on rank(s):";
  for (const PartId r : failed) {
    failed_msg += ' ';
    failed_msg += std::to_string(r);
  }
  BNSGCN_CHECK_MSG(failed.empty(), failed_msg);
  BNSGCN_CHECK_MSG(read_err == 0,
                   "report pipe read failed: " +
                       std::string(std::strerror(read_err)));
  BNSGCN_CHECK_MSG(!payload.empty(), "rank 0 produced no report");
  return payload;
}

RunReport run_multiprocess(const Dataset& ds, const Partitioning& part,
                           const RunConfig& cfg) {
  // Build the trainer — local graphs included — before forking: children
  // inherit every read-only structure copy-on-write, so nothing crosses a
  // serialization boundary on the way in.
  core::BnsTrainer trainer(ds, part, cfg.trainer, cfg.comm);

  const std::string payload = run_ranks_piped(
      cfg.comm.transport, part.nparts, cfg.trainer.cost,
      [&](comm::Fabric& fabric, PartId r) {
        core::TrainResult result = trainer.train_rank(fabric, r);
        if (r != 0) return std::string();
        return to_json_string(RunReport::from_train_result(
            std::move(result), "bns", ds.name));
      });

  RunReport report = run_report_from_json_string(payload);
  if (report.method.empty()) report.method = "bns";
  if (report.dataset.empty()) report.dataset = ds.name;
  return report;
}

} // namespace bnsgcn::api
