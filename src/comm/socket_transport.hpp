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

/// Socket framing (docs/ARCHITECTURE.md §3 "Framing"). A frame is a
/// 20-byte header — magic u32, kind u32 (the WireKind's value), tag i32,
/// payload-bytes u64, all host-endian (same host for UDS; homogeneous
/// hosts assumed for TCP) — followed by the message's payload: its raw
/// floats, ids or doubles, or for a halo delta a u64 index count, the
/// NodeId index list, then the float rows.
inline constexpr std::uint32_t kFrameMagic = 0x424E5347; // "BNSG"
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Largest payload a frame may carry. The biggest real frames are halo
/// slabs of a few MB; the cap keeps a corrupt length from wrapping the
/// decoder's arithmetic or making it buffer without bound.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1} << 30;

/// Serialise a message into one frame, header and payload written into a
/// single buffer in one pass, ready to write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Wire& msg);

/// Incremental frame parser over an arbitrary byte stream. feed() bytes
/// as they arrive (any split, down to one byte at a time); pop() decodes
/// complete frames, in order, straight into a Wire. Throws CheckError on
/// a corrupt header — bad magic, a kind above WireKind::kDoubles, a
/// length above kMaxFramePayloadBytes, or a length that does not fit the
/// kind (floats and doubles whole elements, ids whole NodeIds, halo
/// deltas at least their u64 count) — as soon as the header is buffered,
/// and on a halo delta whose index count runs past its payload or whose
/// rows are not whole floats. A throwing pop consumes nothing, so every
/// later pop throws again.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Decode the next complete frame into `out`; false when more bytes
  /// are needed (then `out` is untouched).
  bool pop(Wire& out);
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
/// and decodes reads straight into Wires in per-peer tag-matched inboxes,
/// so bytes cross the wire while the rank computes. The rank thread never
/// touches a peer fd: send() encodes the message into a frame, enqueues it
/// and wakes the I/O thread; recv() waits on a condition variable for its
/// message and try_recv() only probes the inbox, each moving a decoded
/// Wire out.
///
/// Bootstrap: every rank's listener is bound (and listening) before any
/// process starts, so connects cannot race; rank r then dials every rank
/// below it and accepts from every rank above it, each connection opening
/// with a 4-byte rank hello. The I/O thread starts once all peers are
/// connected, which under the forked runtime is inside the child.
///
/// Failures: a peer's EOF turns a blocked or later receive from it into
/// ShutdownError; an error on the I/O thread (a corrupt header or halo
/// delta, a failed poll) stops that thread and is rethrown, naming the
/// peer, from the rank's next send, recv or try_recv.
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
    std::deque<Wire> inbox; // decoded messages not yet matched
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
  bool take_from_inbox(Peer& p, int tag, Wire& out);
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

} // namespace bnsgcn::comm
