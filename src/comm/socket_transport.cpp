#include "comm/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"

namespace bnsgcn::comm {

namespace {

/// Append the bytes of `count` PODs to a frame under construction.
template <typename T>
void put_pods(std::vector<std::uint8_t>& buf, const T* data,
              std::size_t count) {
  if (count == 0) return;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data);
  buf.insert(buf.end(), bytes, bytes + count * sizeof(T));
}

template <typename T>
void write_pod(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

template <typename T>
T get_pod(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Decode `nbytes` of payload (whole Ts) into `out`.
template <typename T>
void get_pods(std::vector<T>& out, const std::uint8_t* p, std::size_t nbytes) {
  out.resize(nbytes / sizeof(T));
  if (nbytes > 0) std::memcpy(out.data(), p, nbytes);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  BNSGCN_CHECK(flags >= 0);
  BNSGCN_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

/// Blocking write of exactly n bytes (bootstrap hello only).
void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      BNSGCN_CHECK_MSG(false, "bootstrap write failed");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Blocking read of exactly n bytes (bootstrap hello only).
void read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0 && errno == EINTR) continue;
    BNSGCN_CHECK_MSG(r > 0, "bootstrap read failed (peer closed early)");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

struct ParsedTcp {
  in_addr host{};
  std::uint16_t port = 0;
};

ParsedTcp parse_tcp_addr(const std::string& addr) {
  const auto colon = addr.rfind(':');
  BNSGCN_CHECK_MSG(colon != std::string::npos, "tcp address needs host:port");
  ParsedTcp out;
  const std::string host = addr.substr(0, colon);
  BNSGCN_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &out.host) == 1,
                   "bad tcp host: " + host);
  const std::string port = addr.substr(colon + 1);
  BNSGCN_CHECK_MSG(
      !port.empty() && port.size() <= 5 &&
          port.find_first_not_of("0123456789") == std::string::npos,
      "bad tcp port: " + port);
  int value = 0;
  for (const char c : port) value = value * 10 + (c - '0');
  BNSGCN_CHECK_MSG(value <= 65535, "tcp port out of range: " + port);
  out.port = static_cast<std::uint16_t>(value);
  return out;
}

/// Whether a payload of `nbytes` is well formed for its frame kind.
bool payload_fits(WireKind kind, std::uint64_t nbytes) {
  switch (kind) {
    case WireKind::kFloats:
      return nbytes % sizeof(float) == 0;
    case WireKind::kIds:
      return nbytes % sizeof(NodeId) == 0;
    case WireKind::kDoubles:
      return nbytes % sizeof(double) == 0;
    case WireKind::kHaloDelta:
      return nbytes >= sizeof(std::uint64_t);
  }
  return false;
}

/// Payload bytes of a message's frame.
std::size_t payload_bytes(const Wire& msg) {
  switch (msg.kind) {
    case WireKind::kFloats:
      return msg.floats.size() * sizeof(float);
    case WireKind::kIds:
      return msg.ids.size() * sizeof(NodeId);
    case WireKind::kDoubles:
      return msg.doubles.size() * sizeof(double);
    case WireKind::kHaloDelta:
      return sizeof(std::uint64_t) + msg.ids.size() * sizeof(NodeId) +
             msg.floats.size() * sizeof(float);
  }
  return 0;
}

int dial(const SocketEndpoints& eps, PartId to) {
  const std::string& addr = eps.addrs[static_cast<std::size_t>(to)];
  // The listener is bound before any rank starts, so a refused connect
  // can only be transient scheduling noise — retry briefly.
  for (int attempt = 0;; ++attempt) {
    int fd = -1;
    int rc = -1;
    if (eps.kind == TransportKind::kUds) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      BNSGCN_CHECK(fd >= 0);
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      BNSGCN_CHECK_MSG(addr.size() < sizeof(sa.sun_path),
                       "uds path too long: " + addr);
      std::strncpy(sa.sun_path, addr.c_str(), sizeof(sa.sun_path) - 1);
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      BNSGCN_CHECK(fd >= 0);
      const ParsedTcp t = parse_tcp_addr(addr);
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_addr = t.host;
      sa.sin_port = htons(t.port);
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    }
    if (rc == 0) return fd;
    const int err = errno;
    ::close(fd);
    BNSGCN_CHECK_MSG(
        (err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == EINTR) && attempt < 5000,
        "connect to rank " + std::to_string(to) + " failed: " +
            std::strerror(err));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

} // namespace

std::vector<std::uint8_t> encode_frame(const Wire& msg) {
  const std::size_t nbytes = payload_bytes(msg);
  std::uint8_t header[kFrameHeaderBytes];
  write_pod(header, kFrameMagic);
  write_pod(header + 4, static_cast<std::uint32_t>(msg.kind));
  write_pod(header + 8, static_cast<std::uint32_t>(msg.tag));
  write_pod(header + 12, static_cast<std::uint64_t>(nbytes));
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + nbytes);
  out.assign(header, header + kFrameHeaderBytes);
  switch (msg.kind) {
    case WireKind::kFloats:
      put_pods(out, msg.floats.data(), msg.floats.size());
      break;
    case WireKind::kIds:
      put_pods(out, msg.ids.data(), msg.ids.size());
      break;
    case WireKind::kDoubles:
      put_pods(out, msg.doubles.data(), msg.doubles.size());
      break;
    case WireKind::kHaloDelta: {
      // The only kind carrying two payload vectors, so the index count
      // makes the split explicit (the receiver must not infer it from
      // the row width).
      const auto nids = static_cast<std::uint64_t>(msg.ids.size());
      put_pods(out, &nids, 1);
      put_pods(out, msg.ids.data(), msg.ids.size());
      put_pods(out, msg.floats.data(), msg.floats.size());
      break;
    }
  }
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameDecoder::pop(Wire& out) {
  BNSGCN_REQUIRE(pos_ <= buf_.size(),
                 "decoder consumed past the end of its buffer");
  if (buf_.size() - pos_ < kFrameHeaderBytes) return false;
  const std::uint8_t* h = buf_.data() + pos_;
  const auto magic = get_pod<std::uint32_t>(h);
  BNSGCN_CHECK_MSG(magic == kFrameMagic, "corrupt frame header");
  // The kind field carries a WireKind, whose largest value is kDoubles.
  const auto kind_field = get_pod<std::uint32_t>(h + 4);
  BNSGCN_CHECK_MSG(
      kind_field <= static_cast<std::uint32_t>(WireKind::kDoubles),
      "corrupt frame kind " + std::to_string(kind_field));
  const auto kind = static_cast<WireKind>(kind_field);
  const auto nbytes = get_pod<std::uint64_t>(h + 12);
  // Bound the wire-supplied length before any arithmetic on it: an
  // unchecked header + length sum wraps and passes the test below.
  BNSGCN_CHECK_MSG(nbytes <= kMaxFramePayloadBytes,
                   "frame length " + std::to_string(nbytes) +
                       " exceeds the frame cap");
  BNSGCN_CHECK_MSG(payload_fits(kind, nbytes),
                   "frame length " + std::to_string(nbytes) +
                       " does not fit frame kind " +
                       std::to_string(kind_field));
  const auto n = static_cast<std::size_t>(nbytes);
  if (buf_.size() - pos_ < kFrameHeaderBytes + n) return false;
  const std::uint8_t* p = h + kFrameHeaderBytes;
  Wire msg;
  msg.tag = static_cast<int>(get_pod<std::uint32_t>(h + 8));
  msg.kind = kind;
  switch (kind) {
    case WireKind::kFloats:
      get_pods(msg.floats, p, n);
      break;
    case WireKind::kIds:
      get_pods(msg.ids, p, n);
      break;
    case WireKind::kDoubles:
      get_pods(msg.doubles, p, n);
      break;
    case WireKind::kHaloDelta: {
      const auto nids = get_pod<std::uint64_t>(p);
      const std::size_t rest = n - sizeof(std::uint64_t);
      BNSGCN_CHECK_MSG(nids <= rest / sizeof(NodeId),
                       "halo delta index count " + std::to_string(nids) +
                           " runs past its " + std::to_string(n) +
                           "-byte payload");
      const std::size_t id_bytes =
          static_cast<std::size_t>(nids) * sizeof(NodeId);
      const std::size_t row_bytes = rest - id_bytes;
      BNSGCN_CHECK_MSG(row_bytes % sizeof(float) == 0,
                       "halo delta rows of " + std::to_string(row_bytes) +
                           " bytes are not whole floats");
      get_pods(msg.ids, p + sizeof(std::uint64_t), id_bytes);
      get_pods(msg.floats, p + sizeof(std::uint64_t) + id_bytes, row_bytes);
      break;
    }
  }
  out = std::move(msg);
  pos_ += kFrameHeaderBytes + n;
  // Compact once the consumed prefix dominates, keeping feed() amortised.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

SocketTransport::SocketTransport(PartId rank, const SocketEndpoints& eps,
                                 int listen_fd)
    : rank_(rank),
      nranks_(static_cast<PartId>(eps.addrs.size())),
      eps_(eps) {
  BNSGCN_CHECK(nranks_ >= 1 && rank_ >= 0 && rank_ < nranks_);
  peers_.resize(static_cast<std::size_t>(nranks_));
  connect_all(listen_fd);
  int wake[2] = {-1, -1};
  BNSGCN_CHECK_MSG(::pipe(wake) == 0, "wake pipe failed");
  wake_rd_ = wake[0];
  wake_wr_ = wake[1];
  set_nonblocking(wake_rd_);
  set_nonblocking(wake_wr_);
  // Last: from here on the I/O thread owns every peer socket.
  // lint: allow(raw-thread) — the socket I/O thread (see the member).
  io_ = std::thread([this] { io_loop(); });
}

void SocketTransport::connect_all(int listen_fd) {
  // Dial every rank below us; each connection opens with our rank hello.
  for (PartId j = 0; j < rank_; ++j) {
    const int fd = dial(eps_, j);
    const auto hello = static_cast<std::uint32_t>(rank_);
    write_all(fd, &hello, sizeof(hello));
    peers_[static_cast<std::size_t>(j)].fd = fd;
  }
  // Accept every rank above us; their hello says which peer slot.
  for (PartId k = rank_ + 1; k < nranks_; ++k) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    BNSGCN_CHECK_MSG(fd >= 0, "accept failed during bootstrap");
    std::uint32_t hello = 0;
    read_exact(fd, &hello, sizeof(hello));
    const auto from = static_cast<PartId>(hello);
    BNSGCN_CHECK(from > rank_ && from < nranks_);
    BNSGCN_CHECK(peers_[static_cast<std::size_t>(from)].fd < 0);
    peers_[static_cast<std::size_t>(from)].fd = fd;
  }
  if (listen_fd >= 0) ::close(listen_fd);
  for (auto& p : peers_) {
    if (p.fd < 0) continue;
    set_nonblocking(p.fd);
    if (eps_.kind == TransportKind::kTcp) {
      const int one = 1;
      ::setsockopt(p.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
}

SocketTransport::~SocketTransport() {
  // Graceful teardown: our final sends may still sit in the queues (a
  // peer's collective ack, the last halo slab). Give the I/O thread a
  // bounded time to push them out — a dead peer cannot wedge destruction
  // — then stop it and close.
  try {
    std::unique_lock<std::mutex> lock(mu_);
    // lint: allow(raw-clock) — teardown flush deadline; never observed by
    // numeric state, only bounds how long destruction may block.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    (void)cv_.wait_until(lock, deadline, [this] {
      if (stopped_ || io_error_) return true;
      return std::none_of(peers_.begin(), peers_.end(), [](const Peer& p) {
        return p.fd >= 0 && !p.eof && !p.sendq.empty();
      });
    });
  } catch (...) {
    // Teardown must not throw; unflushed bytes surface as the peer's
    // ShutdownError, which is the best available signal anyway.
  }
  shutdown(rank_);
  ::close(wake_rd_);
  ::close(wake_wr_);
}

void SocketTransport::check_alive_locked() const {
  if (io_error_) std::rethrow_exception(io_error_);
  if (stopped_) throw ShutdownError("socket fabric shut down");
}

ShutdownError SocketTransport::peer_gone(PartId from) const {
  return ShutdownError("rank " + std::to_string(rank_) + ": peer rank " +
                       std::to_string(from) +
                       " disconnected with receives outstanding");
}

void SocketTransport::wake_io() {
  const std::uint8_t byte = 1;
  // EAGAIN means the pipe is full, so a wake is already pending.
  const ssize_t w = ::write(wake_wr_, &byte, sizeof(byte));
  (void)w;
}

void SocketTransport::stop_io() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  if (io_.joinable()) {
    wake_io();
    io_.join();
  }
}

void SocketTransport::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<PartId> who; // peer rank of pfds[k + 1]
  PartId peer = -1;        // the peer being serviced, for error messages
  try {
    for (;;) {
      pfds.assign(1, pollfd{.fd = wake_rd_, .events = POLLIN, .revents = 0});
      who.clear();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopped_) return;
        // A send after this point writes a fresh wake byte, so none is
        // lost between this snapshot and poll().
        wake_pending_ = false;
        for (PartId j = 0; j < nranks_; ++j) {
          const Peer& p = peers_[static_cast<std::size_t>(j)];
          if (p.fd < 0 || p.eof) continue;
          const short events =
              p.sendq.empty() ? POLLIN : static_cast<short>(POLLIN | POLLOUT);
          pfds.push_back(pollfd{.fd = p.fd, .events = events, .revents = 0});
          who.push_back(j);
        }
      }
      const int rc =
          ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1);
      if (rc < 0) {
        BNSGCN_CHECK_MSG(errno == EINTR,
                         std::string("poll failed: ") + std::strerror(errno));
        continue;
      }
      if (pfds[0].revents & POLLIN) {
        std::uint8_t sink[64];
        while (::read(wake_rd_, sink, sizeof(sink)) > 0) {
        }
      }
      for (std::size_t k = 0; k < who.size(); ++k) {
        peer = who[k];
        Peer& p = peers_[static_cast<std::size_t>(peer)];
        const short re = pfds[k + 1].revents;
        if (re & (POLLIN | POLLHUP | POLLERR)) read_peer(p);
        if (re & POLLOUT) flush_peer(p);
      }
      peer = -1;
    }
  } catch (...) {
    fail_io(peer);
  }
}

void SocketTransport::fail_io(PartId peer) {
  // Runs inside the I/O thread's catch handler: rewrap the active
  // exception so its message names this rank and the peer, keeping
  // CheckError's type, and park it for the rank thread.
  std::string where = "rank " + std::to_string(rank_) + ": socket I/O";
  if (peer >= 0) where += " with peer rank " + std::to_string(peer);
  std::exception_ptr err;
  try {
    throw;
  } catch (const CheckError& e) {
    err = std::make_exception_ptr(CheckError(where + ": " + e.what()));
  } catch (const std::exception& e) {
    err = std::make_exception_ptr(std::runtime_error(where + ": " + e.what()));
  } catch (...) {
    err = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    io_error_ = err;
  }
  cv_.notify_all();
}

void SocketTransport::read_peer(Peer& p) {
  std::uint8_t buf[65536];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      p.decoder.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) { // orderly peer close
      closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closed = true; // hard error: treat as disconnect
    break;
  }
  std::vector<Wire> ready;
  for (Wire msg; p.decoder.pop(msg);) ready.push_back(std::move(msg));
  if (ready.empty() && !closed) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Wire& msg : ready) p.inbox.push_back(std::move(msg));
    if (closed) p.eof = true;
  }
  cv_.notify_all();
}

void SocketTransport::flush_peer(Peer& p) {
  for (;;) {
    const std::vector<std::uint8_t>* front = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (p.sendq.empty()) return;
      front = &p.sendq.front();
    }
    // Only this thread pops the queue and deque::push_back never moves
    // existing elements, so `front` stays valid outside the lock.
    BNSGCN_REQUIRE(p.send_off < front->size(),
                   "send cursor at or past the frame end");
    const ssize_t w = ::send(p.fd, front->data() + p.send_off,
                             front->size() - p.send_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      // EPIPE etc: the peer is gone, nothing more to write.
      {
        std::lock_guard<std::mutex> lock(mu_);
        p.eof = true;
        p.sendq.clear();
      }
      p.send_off = 0;
      cv_.notify_all();
      return;
    }
    p.send_off += static_cast<std::size_t>(w);
    if (p.send_off < front->size()) continue;
    p.send_off = 0;
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      p.sendq.pop_front();
      drained = p.sendq.empty();
    }
    if (drained) cv_.notify_all(); // the destructor's flush waits on this
  }
}

void SocketTransport::send(PartId from, PartId to, Wire msg) {
  BNSGCN_CHECK(from == rank_);
  BNSGCN_CHECK(to >= 0 && to < nranks_ && to != rank_);
  BNSGCN_REQUIRE(msg.tag != -1, "tag -1 belongs to no tag space");
  std::vector<std::uint8_t> bytes = encode_frame(msg);
  Peer& p = peers_[static_cast<std::size_t>(to)];
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    check_alive_locked();
    if (p.eof || p.fd < 0)
      throw ShutdownError("rank " + std::to_string(rank_) +
                          ": peer rank " + std::to_string(to) +
                          " disconnected");
    p.sendq.push_back(std::move(bytes));
    wake = !wake_pending_;
    wake_pending_ = true;
  }
  if (wake) wake_io();
}

bool SocketTransport::take_from_inbox(Peer& p, int tag, Wire& out) {
  const auto it =
      std::find_if(p.inbox.begin(), p.inbox.end(),
                   [tag](const Wire& m) { return m.tag == tag; });
  if (it == p.inbox.end()) return false;
  out = std::move(*it);
  p.inbox.erase(it);
  return true;
}

bool SocketTransport::try_recv(PartId rank, PartId from, int tag, Wire& out) {
  BNSGCN_CHECK(rank == rank_);
  BNSGCN_CHECK(from >= 0 && from < nranks_ && from != rank_);
  Peer& p = peers_[static_cast<std::size_t>(from)];
  std::lock_guard<std::mutex> lock(mu_);
  check_alive_locked();
  if (take_from_inbox(p, tag, out)) return true;
  if (p.eof) throw peer_gone(from);
  return false;
}

Wire SocketTransport::recv(PartId rank, PartId from, int tag) {
  BNSGCN_CHECK(rank == rank_);
  BNSGCN_CHECK(from >= 0 && from < nranks_ && from != rank_);
  // Tag spaces: point-to-point tags are non-negative (the trainer's
  // sequence), collective tags are <= -2 (Endpoint's collective
  // sequence); -1 matches neither.
  BNSGCN_REQUIRE(tag != -1, "tag -1 belongs to no tag space");
  Peer& p = peers_[static_cast<std::size_t>(from)];
  Wire msg;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    check_alive_locked();
    if (take_from_inbox(p, tag, msg)) return msg;
    if (p.eof) throw peer_gone(from);
    cv_.wait(lock);
  }
}

void SocketTransport::shutdown(PartId /*rank*/) {
  // Join first: the I/O thread must be gone before any fd closes.
  stop_io();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    p.eof = true;
    p.sendq.clear();
    p.send_off = 0;
  }
}

} // namespace bnsgcn::comm
