#include "api/multiprocess.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/process_group.hpp"
#include "comm/socket_transport.hpp"
#include "common/check.hpp"

namespace bnsgcn::api {

namespace {

using comm::RankOutcome;

/// A pipe whose two ends close on close() or destruction.
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;

  Pipe() {
    int fds[2] = {-1, -1};
    BNSGCN_CHECK_MSG(::pipe(fds) == 0, "pipe failed");
    read_fd = fds[0];
    write_fd = fds[1];
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  ~Pipe() {
    close(read_fd);
    close(write_fd);
  }

  static void close(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// Write all of `bytes`, retrying on EINTR; false on any other error.
bool write_fully(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// A failed child's status record: this header, then `len` bytes of its
/// message, cut so the whole record fits in PIPE_BUF. A pipe write of at
/// most PIPE_BUF bytes is atomic, so records of children failing at once
/// never interleave.
struct RecordHeader {
  std::int32_t rank;
  std::int32_t kind;
  std::int32_t len;
};

void write_record(int fd, PartId rank, const RankOutcome& outcome) {
  const std::size_t len =
      std::min(outcome.what.size(), PIPE_BUF - sizeof(RecordHeader));
  const RecordHeader h{rank, static_cast<std::int32_t>(outcome.kind),
                       static_cast<std::int32_t>(len)};
  std::string record(sizeof h, '\0');
  std::memcpy(record.data(), &h, sizeof h);
  record.append(outcome.what, 0, len);
  // Best effort: the nonzero exit status still marks the failure.
  (void)write_fully(fd, record);
}

/// Fill `outcomes` from the status pipe's bytes. A partial trailing
/// record can only follow a failed read, which the caller raises.
void read_records(const std::string& bytes,
                  std::vector<RankOutcome>& outcomes) {
  std::size_t off = 0;
  RecordHeader h{};
  while (off + sizeof h <= bytes.size()) {
    std::memcpy(&h, bytes.data() + off, sizeof h);
    const std::size_t len = static_cast<std::size_t>(h.len);
    if (bytes.size() - off - sizeof h < len) break;
    BNSGCN_CHECK_MSG(h.rank >= 0 && static_cast<std::size_t>(h.rank) <
                                        outcomes.size(),
                     "status record names no rank");
    outcomes[static_cast<std::size_t>(h.rank)] = {
        static_cast<RankOutcome::Kind>(h.kind),
        bytes.substr(off + sizeof h, len)};
    off += sizeof h + len;
  }
}

/// Read the report and status pipes to EOF, whichever has data: rank 0
/// may be blocked writing a report larger than the pipe capacity while
/// another rank writes its record, so neither read may wait for the
/// other. Returns the first error other than EINTR, 0 if none.
int drain(int report_fd, int status_fd, std::string& report,
          std::string& status) {
  pollfd fds[2] = {{report_fd, POLLIN, 0}, {status_fd, POLLIN, 0}};
  std::string* sinks[2] = {&report, &status};
  int open = 2;
  char buf[65536];
  while (open > 0) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      const ssize_t n = ::read(fds[i].fd, buf, sizeof buf);
      if (n > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(n));
      } else if (n == 0) {
        fds[i].fd = -1;  // EOF; poll skips negative descriptors
        --open;
      } else if (errno != EINTR) {
        return errno;
      }
    }
  }
  return 0;
}

/// What a child that left no record died of, from its wait status.
std::string describe_exit(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    return "killed by signal " + std::to_string(sig) + " (" +
           ::strsignal(sig) + ")";
  }
  return "exited with status " + std::to_string(WEXITSTATUS(status)) +
         " and no failure record";
}

std::string run_forked(comm::TransportKind kind, PartId m,
                       const comm::CostModel& cost,
                       const RankPayloadFn& rank_fn) {
  // Every rank's listener is bound and listening before the first fork, so
  // connects cannot race the spawn order.
  comm::LocalGroup group = comm::make_local_group(kind, m);

  Pipe report;
  Pipe status;

  // Flush stdio before forking so buffered output is not emitted twice.
  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(m), -1);
  for (PartId r = 0; r < m; ++r) {
    const pid_t pid = ::fork();
    BNSGCN_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      // ---- child: rank r -------------------------------------------------
      Pipe::close(report.read_fd);
      Pipe::close(status.read_fd);
      for (PartId j = 0; j < m; ++j)
        if (j != r) ::close(group.listen_fds[static_cast<std::size_t>(j)]);
      RankOutcome outcome;
      try {
        comm::Fabric fabric(
            std::make_unique<comm::SocketTransport>(
                r, group.endpoints,
                group.listen_fds[static_cast<std::size_t>(r)]),
            cost);
        const std::string payload = rank_fn(fabric, r);
        if (r == 0)
          BNSGCN_CHECK_MSG(write_fully(report.write_fd, payload),
                           "report pipe write failed");
      } catch (...) {
        outcome = comm::current_outcome();
        std::fprintf(stderr, "[bnsgcn rank %d] %s\n", static_cast<int>(r),
                     outcome.what.c_str());
      }
      Pipe::close(report.write_fd);
      const bool ok = outcome.kind == RankOutcome::Kind::kOk;
      if (!ok) write_record(status.write_fd, r, outcome);
      Pipe::close(status.write_fd);
      std::fflush(nullptr);
      ::_exit(ok ? 0 : 1);
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  // ---- parent ----------------------------------------------------------
  // Only the children write; EOF on each pipe means every child is done
  // with it.
  Pipe::close(report.write_fd);
  Pipe::close(status.write_fd);
  // The children carry their own copies of the listener fds; drop ours.
  // The UDS paths stay on disk until after waitpid — late ranks dial them
  // while their fabric bootstraps.
  for (int& fd : group.listen_fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  std::string payload;
  std::string records;
  const int read_err = drain(report.read_fd, status.read_fd, payload, records);
  Pipe::close(report.read_fd);
  Pipe::close(status.read_fd);

  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(m));
  read_records(records, outcomes);
  for (PartId r = 0; r < m; ++r) {
    const pid_t pid = pids[static_cast<std::size_t>(r)];
    int wstatus = 0;
    pid_t w = -1;
    do {
      w = ::waitpid(pid, &wstatus, 0);
    } while (w < 0 && errno == EINTR);
    RankOutcome& o = outcomes[static_cast<std::size_t>(r)];
    if (o.kind != RankOutcome::Kind::kOk) continue;
    if (w != pid)
      o = {RankOutcome::Kind::kFailed,
           std::string("waitpid failed: ") + std::strerror(errno)};
    else if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)
      o = {RankOutcome::Kind::kFailed, describe_exit(wstatus)};
  }
  comm::cleanup_local_group(group, /*fds_taken=*/true);

  comm::raise_root_cause(outcomes);
  BNSGCN_CHECK_MSG(read_err == 0, "report pipe read failed: " +
                                      std::string(std::strerror(read_err)));
  return payload;
}

} // namespace

std::string run_ranks_piped(comm::TransportKind kind, PartId nranks,
                            const comm::CostModel& cost,
                            const RankPayloadFn& rank_fn) {
  std::string payload;
  if (kind == comm::TransportKind::kMailbox) {
    comm::Fabric fabric(nranks, cost);
    comm::run_ranks(fabric, [&](PartId r) {
      std::string mine = rank_fn(fabric, r);
      if (r == 0) payload = std::move(mine);
    });
  } else {
    payload = run_forked(kind, nranks, cost, rank_fn);
  }
  BNSGCN_CHECK_MSG(!payload.empty(), "rank 0 produced no report");
  return payload;
}

} // namespace bnsgcn::api
