#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/transport.hpp"

namespace bnsgcn::comm {

/// Rank → endpoint map for a socket fabric. For kUds each address is a
/// socket path; for kTcp it is "host:port" (IPv4 dotted quad). Index r is
/// the address rank r listens on during bootstrap.
struct SocketEndpoints {
  TransportKind kind = TransportKind::kUds;
  std::vector<std::string> addrs;
};

/// Payload kind carried by a frame, one per WireKind. kHaloDelta is the
/// halo cache's miss-only frame: a u64 index count, the NodeId index list,
/// then the float rows (docs/ARCHITECTURE.md §9). Kind 3 is unassigned: a
/// header carrying it is corrupt.
enum class FrameKind : std::uint32_t {
  kFloats = 0,
  kIds = 1,
  kDoubles = 2,
  kHaloDelta = 4,
};

/// One length-prefixed message as it crosses a socket. The wire layout is
/// a 20-byte header — magic u32, kind u32, tag i32, payload-bytes u64,
/// all host-endian (same host for UDS; homogeneous hosts assumed for
/// TCP) — followed by the raw payload bytes.
struct Frame {
  FrameKind kind = FrameKind::kFloats;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

inline constexpr std::uint32_t kFrameMagic = 0x424E5347; // "BNSG"
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Largest payload a frame may carry. The biggest real frames are halo
/// slabs of a few MB; the cap keeps a corrupt length from wrapping the
/// decoder's arithmetic or making it buffer without bound.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1} << 30;

/// Serialise a frame into header + payload, ready to write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Incremental frame parser over an arbitrary byte stream. feed() bytes
/// as they arrive (any split, down to one byte at a time); pop() yields
/// complete frames in order. Throws CheckError on a corrupt header: bad
/// magic or kind, a length above kMaxFramePayloadBytes, or a length that
/// does not fit the kind (floats and doubles whole elements, ids whole
/// NodeIds, halo deltas at least their u64 count).
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Extract the next complete frame; false when more bytes are needed.
  bool pop(Frame& out);
  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0; // consumed prefix of buf_
};

/// Socket transport: carries exactly one rank per instance (one trainer
/// process or test thread), with one nonblocking stream socket per peer.
/// After bootstrap a per-rank I/O thread owns every peer socket: it
/// poll(2)s the peers plus a wake pipe, flushes the per-peer send queues
/// and decodes reads into per-peer tag-matched inboxes, so bytes cross
/// the wire while the rank computes. The rank thread never touches a peer
/// fd: send() enqueues an encoded frame and wakes the I/O thread, recv()
/// waits on a condition variable for its frame, and try_recv() only
/// probes the inbox.
///
/// Bootstrap: every rank's listener is bound (and listening) before any
/// process starts, so connects cannot race; rank r then dials every rank
/// below it and accepts from every rank above it, each connection opening
/// with a 4-byte rank hello. The I/O thread starts once all peers are
/// connected, which under the forked runtime is inside the child.
///
/// Failures: a peer's EOF turns a blocked or later receive from it into
/// ShutdownError; an error on the I/O thread (a corrupt frame, a failed
/// poll) stops that thread and is rethrown, naming the peer, from the
/// rank's next send, recv or try_recv.
class SocketTransport final : public Transport {
 public:
  /// `listen_fd` is rank's pre-bound listening socket (ownership taken;
  /// closed once all peers above have connected).
  SocketTransport(PartId rank, const SocketEndpoints& eps, int listen_fd);
  /// Waits up to 5 s for queued sends to drain, then stops and joins the
  /// I/O thread and closes every socket.
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] PartId nranks() const override { return nranks_; }
  [[nodiscard]] bool serves(PartId rank) const override {
    return rank == rank_;
  }
  [[nodiscard]] TimingSource timing() const override {
    return TimingSource::kMeasured;
  }

  void send(PartId from, PartId to, Wire msg) override;
  bool try_recv(PartId rank, PartId from, int tag, Wire& out) override;
  [[nodiscard]] Wire recv(PartId rank, PartId from, int tag) override;

  /// Stops and joins the I/O thread, then closes every socket.
  void shutdown(PartId rank) override;

 private:
  struct Peer {
    int fd = -1; // set at bootstrap, closed only after the I/O thread joins
    // Guarded by mu_.
    bool eof = false; // peer closed (or errored); reads are done
    std::deque<std::vector<std::uint8_t>> sendq; // encoded frames
    std::deque<Frame> inbox; // complete frames not yet matched
    // I/O thread only.
    std::size_t send_off = 0; // bytes of sendq.front() already written
    FrameDecoder decoder;
  };

  void connect_all(int listen_fd);
  /// The I/O thread's body: poll, read, flush until stopped or failed.
  void io_loop();
  void read_peer(Peer& p);
  void flush_peer(Peer& p);
  /// From the I/O thread's catch handler: park the active exception,
  /// renamed for this rank and `peer` (-1: none), for the rank thread.
  void fail_io(PartId peer);
  void wake_io();
  /// Set stopped_, wake and join the I/O thread. Idempotent.
  void stop_io();
  bool take_from_inbox(Peer& p, int tag, Frame& out);
  /// Throw the recorded I/O error or ShutdownError; caller holds mu_.
  void check_alive_locked() const;
  [[nodiscard]] ShutdownError peer_gone(PartId from) const;

  PartId rank_;
  PartId nranks_;
  SocketEndpoints eps_;
  std::vector<Peer> peers_;

  std::mutex mu_; // guards Peer::{eof, sendq, inbox} and the fields below
  std::condition_variable cv_; // inbox arrival, EOF, drained queue, failure
  bool stopped_ = false;
  bool wake_pending_ = false; // a wake byte is in the pipe, unconsumed
  std::exception_ptr io_error_;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  // lint: allow(raw-thread) — the socket I/O thread moves bytes between
  // the peer sockets and the queues; it touches no numeric state.
  std::thread io_;
};

/// Convert between the Endpoint-level Wire and the socket Frame.
[[nodiscard]] Frame wire_to_frame(const Wire& msg);
[[nodiscard]] Wire frame_to_wire(Frame f);

} // namespace bnsgcn::comm
