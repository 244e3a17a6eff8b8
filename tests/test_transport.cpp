// Socket transport unit tests: frame codec round-trips (any byte split),
// header and halo-delta validation (length cap, length-fits-kind, index
// count), a seeded frame fuzzer (random splits, truncation, header damage,
// oversized lengths), real UDS/TCP rank groups driven from threads (one
// SocketTransport per rank, exactly the shape of the multi-process runtime
// minus the fork), out-of-order tag completion through RequestSet, large
// payloads that force partial writes through the nonblocking send queues,
// background progress by the per-rank I/O thread while the sender makes
// no transport call, corrupt frames on a live socket surfacing on the rank
// thread, and the deadlock-free shutdown contract (a dead peer surfaces
// ShutdownError on survivors instead of a hang). Cross-process parity with
// the mailbox is pinned separately in tests/test_multiprocess.cpp.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/process_group.hpp"
#include "comm/socket_transport.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"

namespace bnsgcn {
namespace {

using comm::CostModel;
using comm::Fabric;
using comm::FrameDecoder;
using comm::TrafficClass;
using comm::TransportKind;
using comm::Wire;
using comm::WireKind;

// ---------------------------------------------------------------------------
// The frame codec
// ---------------------------------------------------------------------------

/// A floats message of `n` distinct values.
Wire floats_wire(int tag, std::size_t n) {
  Wire w{.tag = tag, .kind = WireKind::kFloats, .floats = {}, .ids = {}};
  for (std::size_t i = 0; i < n; ++i)
    w.floats.push_back(static_cast<float>(i) * 0.5f - 3.0f);
  return w;
}

/// Whether two messages agree in tag, kind and every payload vector (the
/// values compared are finite, so == on the floats is exact).
bool same_wire(const Wire& a, const Wire& b) {
  return a.tag == b.tag && a.kind == b.kind && a.floats == b.floats &&
         a.ids == b.ids && a.doubles == b.doubles;
}

TEST(FrameCodec, RoundTripAllKinds) {
  const Wire msgs[] = {
      Wire{.tag = 42, .kind = WireKind::kFloats,
           .floats = {1.5f, -2.0f, 3.25f}, .ids = {}},
      Wire{.tag = -3, .kind = WireKind::kIds, .floats = {}, .ids = {10, 20}},
      Wire{.tag = 0, .kind = WireKind::kDoubles, .floats = {}, .ids = {},
           .doubles = {0.5, -1e300, 7.0}},
      // An empty floats message, as a barrier sends.
      Wire{.tag = 7, .kind = WireKind::kFloats, .floats = {}, .ids = {}},
      // The halo delta is the only kind carrying two vectors: the index
      // list of present rows plus their features must survive together,
      // including the all-hits message that carries neither.
      Wire{.tag = 42, .kind = WireKind::kHaloDelta,
           .floats = {0.5f, 1.5f, 2.5f, 3.5f}, .ids = {1, 3}},
      Wire{.tag = 5, .kind = WireKind::kHaloDelta, .floats = {}, .ids = {}},
  };
  const std::size_t payload_bytes[] = {12, 8, 24, 0, 8 + 8 + 16, 8};
  FrameDecoder dec;
  for (std::size_t i = 0; i < std::size(msgs); ++i) {
    const auto bytes = comm::encode_frame(msgs[i]);
    ASSERT_EQ(bytes.size(), comm::kFrameHeaderBytes + payload_bytes[i]);
    // The header's kind field is the WireKind's value.
    std::uint32_t kind = 0;
    std::memcpy(&kind, bytes.data() + 4, sizeof(kind));
    EXPECT_EQ(kind, static_cast<std::uint32_t>(msgs[i].kind));
    dec.feed(bytes.data(), bytes.size());
    Wire out;
    ASSERT_TRUE(dec.pop(out));
    EXPECT_TRUE(same_wire(out, msgs[i])) << "message " << i;
    Wire none;
    EXPECT_FALSE(dec.pop(none)); // stream fully consumed
  }
}

TEST(FrameCodec, ByteAtATimeFeed) {
  // The decoder must assemble frames from any split — down to one byte at
  // a time — and report "need more" everywhere short of a full frame.
  const Wire msg = floats_wire(1234, 10);
  const auto bytes = comm::encode_frame(msg);
  FrameDecoder dec;
  Wire out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    EXPECT_FALSE(dec.pop(out)) << "frame popped " << bytes.size() - 1 - i
                               << " byte(s) early";
  }
  dec.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_TRUE(dec.pop(out));
  EXPECT_TRUE(same_wire(out, msg));
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, BackToBackFramesSplitMidHeader) {
  // Two frames in one stream, fed in chunks that straddle the header of
  // the second frame.
  const Wire a{.tag = 5, .kind = WireKind::kIds, .floats = {},
               .ids = {1, 2, 3, 4}};
  const Wire b = floats_wire(6, 1);
  auto stream = comm::encode_frame(a);
  const auto tail = comm::encode_frame(b);
  stream.insert(stream.end(), tail.begin(), tail.end());

  FrameDecoder dec;
  // First chunk ends 3 bytes into frame b's header.
  const std::size_t cut = comm::kFrameHeaderBytes + 4 * sizeof(NodeId) + 3;
  dec.feed(stream.data(), cut);
  Wire out;
  ASSERT_TRUE(dec.pop(out));
  EXPECT_TRUE(same_wire(out, a));
  EXPECT_FALSE(dec.pop(out));
  dec.feed(stream.data() + cut, stream.size() - cut);
  ASSERT_TRUE(dec.pop(out));
  EXPECT_TRUE(same_wire(out, b));
}

TEST(FrameCodec, CorruptMagicThrows) {
  auto bytes = comm::encode_frame(floats_wire(0, 1));
  bytes[0] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Wire out;
  EXPECT_THROW((void)dec.pop(out), CheckError);
}

/// A frame header as a hostile or broken peer could write it, followed by
/// `payload` zero bytes.
std::vector<std::uint8_t> raw_header(std::uint32_t magic, WireKind kind,
                                     std::uint64_t nbytes,
                                     std::size_t payload = 0) {
  std::vector<std::uint8_t> h(comm::kFrameHeaderBytes + payload, 0);
  const auto k = static_cast<std::uint32_t>(kind);
  const std::uint32_t tag = 0;
  std::memcpy(h.data(), &magic, sizeof(magic));
  std::memcpy(h.data() + 4, &k, sizeof(k));
  std::memcpy(h.data() + 8, &tag, sizeof(tag));
  std::memcpy(h.data() + 12, &nbytes, sizeof(nbytes));
  return h;
}

/// A halo-delta frame whose payload claims `nids` indices and then
/// carries `rest` more (zero) bytes.
std::vector<std::uint8_t> raw_halo_delta(std::uint64_t nids,
                                         std::size_t rest) {
  auto f = raw_header(comm::kFrameMagic, WireKind::kHaloDelta,
                      sizeof(nids) + rest, sizeof(nids) + rest);
  std::memcpy(f.data() + comm::kFrameHeaderBytes, &nids, sizeof(nids));
  return f;
}

TEST(FrameCodec, OversizedLengthThrowsBeforeArithmetic) {
  // 2^64-1 would wrap header + length to 19 bytes and look complete; the
  // length itself must be rejected, with a CheckError.
  Wire out;
  for (const std::uint64_t nbytes :
       {~std::uint64_t{0}, comm::kMaxFramePayloadBytes + 4}) {
    FrameDecoder dec;
    const auto h = raw_header(comm::kFrameMagic, WireKind::kFloats, nbytes);
    dec.feed(h.data(), h.size());
    EXPECT_THROW((void)dec.pop(out), CheckError) << nbytes;
  }
  // A frame exactly at the cap is legal: the decoder just waits for bytes.
  FrameDecoder dec;
  const auto h = raw_header(comm::kFrameMagic, WireKind::kFloats,
                            comm::kMaxFramePayloadBytes);
  dec.feed(h.data(), h.size());
  EXPECT_FALSE(dec.pop(out));
}

TEST(FrameCodec, LengthMustFitTheKind) {
  // Five bytes hold no whole float: rejected, not truncated to one float.
  const auto floats = raw_header(comm::kFrameMagic, WireKind::kFloats, 5, 5);
  FrameDecoder dec;
  dec.feed(floats.data(), floats.size());
  Wire out;
  EXPECT_THROW((void)dec.pop(out), CheckError);
  // Every other kind's misfit is caught from the header alone.
  const std::pair<WireKind, std::uint64_t> misfits[] = {
      {WireKind::kIds, sizeof(NodeId) + 2},
      {WireKind::kDoubles, 12},
      {WireKind::kHaloDelta, sizeof(std::uint64_t) - 1},
  };
  for (const auto& [kind, nbytes] : misfits) {
    FrameDecoder d;
    const auto h = raw_header(comm::kFrameMagic, kind, nbytes);
    d.feed(h.data(), h.size());
    EXPECT_THROW((void)d.pop(out), CheckError)
        << "kind " << static_cast<int>(kind) << ", " << nbytes << " bytes";
  }
  // Kind 4, the first past WireKind::kDoubles, names no message kind: no
  // length fits it.
  FrameDecoder d;
  const auto h = raw_header(comm::kFrameMagic, static_cast<WireKind>(4), 0);
  d.feed(h.data(), h.size());
  EXPECT_THROW((void)d.pop(out), CheckError);
}

TEST(FrameCodec, MalformedHaloDeltaThrows) {
  // The header only knows a halo delta's total length; the split between
  // index list and rows is the payload's u64 count. A count running past
  // the payload, or rows that are not whole floats, must throw from pop —
  // and keep throwing, since the frame is never consumed.
  Wire out;
  for (const auto& bad : {raw_halo_delta(2, sizeof(NodeId)),
                          raw_halo_delta(~std::uint64_t{0}, sizeof(NodeId)),
                          raw_halo_delta(1, sizeof(NodeId) + 6)}) {
    FrameDecoder dec;
    dec.feed(bad.data(), bad.size());
    EXPECT_THROW((void)dec.pop(out), CheckError);
    EXPECT_THROW((void)dec.pop(out), CheckError);
    EXPECT_EQ(dec.buffered(), bad.size());
  }
  // A count that exactly fills the payload leaves no rows, which is legal.
  const auto ok = raw_halo_delta(2, 2 * sizeof(NodeId));
  FrameDecoder dec;
  dec.feed(ok.data(), ok.size());
  ASSERT_TRUE(dec.pop(out));
  EXPECT_EQ(out.kind, WireKind::kHaloDelta);
  EXPECT_EQ(out.ids, (std::vector<NodeId>{0, 0}));
  EXPECT_TRUE(out.floats.empty());
}

// ---------------------------------------------------------------------------
// The frame fuzzer: a fixed seed and fixed iteration counts, so every run
// draws the same streams and a failure reproduces as is.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFuzzSeed = 20261019;
constexpr int kFuzzIters = 200;

/// An element count: empty, one element, a small odd count, or enough
/// elements that the frame outgrows the socket reader's 64 KiB buffer.
std::size_t fuzz_count(Rng& rng, std::size_t elem_bytes) {
  switch (rng.next_below(4)) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return 2 * rng.next_below(50) + 3;
    default:
      return (std::size_t{65536} + rng.next_below(65536)) / elem_bytes + 1;
  }
}

/// A random message of a random kind; halo deltas come with and without
/// rows.
Wire fuzz_wire(Rng& rng) {
  Wire w;
  w.tag = static_cast<int>(rng.next_int(-100000, 100000));
  w.kind = static_cast<WireKind>(rng.next_below(4));
  switch (w.kind) {
    case WireKind::kFloats:
      w.floats.resize(fuzz_count(rng, sizeof(float)));
      break;
    case WireKind::kIds:
      w.ids.resize(fuzz_count(rng, sizeof(NodeId)));
      break;
    case WireKind::kDoubles:
      w.doubles.resize(fuzz_count(rng, sizeof(double)));
      break;
    case WireKind::kHaloDelta:
      w.ids.resize(fuzz_count(rng, sizeof(NodeId)));
      if (rng.next_bool(0.5))
        w.floats.resize(w.ids.size() * (1 + rng.next_below(3)));
      break;
  }
  for (float& v : w.floats) v = rng.next_float() * 8.0f - 4.0f;
  for (NodeId& v : w.ids) v = static_cast<NodeId>(rng.next_u64());
  for (double& v : w.doubles) v = rng.next_gaussian();
  return w;
}

/// 1-6 random messages encoded back to back into one stream; `ends[i]` is
/// where frame i ends.
struct FuzzStream {
  std::vector<Wire> msgs;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> ends;

  /// Where frame i starts.
  [[nodiscard]] std::size_t begin(std::size_t i) const {
    return i == 0 ? 0 : ends[i - 1];
  }
};

FuzzStream fuzz_stream(Rng& rng) {
  FuzzStream s;
  const auto n = 1 + rng.next_below(6);
  for (std::uint64_t i = 0; i < n; ++i) {
    s.msgs.push_back(fuzz_wire(rng));
    const auto frame = comm::encode_frame(s.msgs.back());
    s.bytes.insert(s.bytes.end(), frame.begin(), frame.end());
    s.ends.push_back(s.bytes.size());
  }
  return s;
}

/// Feeds a stream to a decoder in random splits — single bytes, short
/// runs, or runs beyond the socket reader's 64 KiB buffer — and pops
/// every complete frame after each feed, as the socket I/O thread does.
/// A throwing pop propagates with `popped` and `fed` left as they were.
struct SplitFeeder {
  FrameDecoder dec;
  std::vector<Wire> popped;
  std::size_t fed = 0;

  void feed(Rng& rng, const std::vector<std::uint8_t>& bytes,
            std::size_t end) {
    while (fed < end) {
      std::size_t n = 1;
      switch (rng.next_below(3)) {
        case 0:
          break;
        case 1:
          n += rng.next_below(64);
          break;
        default:
          n += rng.next_below(100000);
          break;
      }
      n = std::min(n, end - fed);
      dec.feed(bytes.data() + fed, n);
      fed += n;
      for (Wire w; dec.pop(w);) popped.push_back(std::move(w));
    }
  }

  /// The popped messages re-encoded back to back.
  [[nodiscard]] std::vector<std::uint8_t> reencoded() const {
    std::vector<std::uint8_t> out;
    for (const Wire& w : popped) {
      const auto frame = comm::encode_frame(w);
      out.insert(out.end(), frame.begin(), frame.end());
    }
    return out;
  }
};

TEST(FrameFuzz, RandomSplitsRoundTripEveryKind) {
  Rng rng(kFuzzSeed);
  std::size_t large = 0, halo_rows = 0, halo_bare = 0;
  for (int it = 0; it < kFuzzIters; ++it) {
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    const FuzzStream s = fuzz_stream(rng);
    SplitFeeder f;
    f.feed(rng, s.bytes, s.bytes.size());
    ASSERT_EQ(f.popped.size(), s.msgs.size());
    for (std::size_t i = 0; i < s.msgs.size(); ++i)
      ASSERT_TRUE(same_wire(f.popped[i], s.msgs[i])) << "message " << i;
    EXPECT_EQ(f.dec.buffered(), 0u);
    for (std::size_t i = 0; i < s.msgs.size(); ++i) {
      if (s.ends[i] - s.begin(i) > 65536) ++large;
      if (s.msgs[i].kind != WireKind::kHaloDelta) continue;
      ++(s.msgs[i].floats.empty() ? halo_bare : halo_rows);
    }
  }
  // The draws really cover frames spanning several reads and both shapes
  // of halo delta.
  EXPECT_GT(large, 50u);
  EXPECT_GT(halo_rows, 20u);
  EXPECT_GT(halo_bare, 20u);
}

TEST(FrameFuzz, TruncatedStreamNeverPopsTheCutFrame) {
  // Cut the stream anywhere short of its end (half the cuts inside a
  // header): exactly the frames wholly before the cut pop, nothing
  // throws, and the cut frame's bytes stay buffered.
  Rng rng(kFuzzSeed + 1);
  for (int it = 0; it < kFuzzIters; ++it) {
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    const FuzzStream s = fuzz_stream(rng);
    const std::size_t k = rng.next_below(s.msgs.size());
    const std::size_t begin = s.begin(k);
    const std::size_t cut =
        rng.next_bool(0.5)
            ? begin + rng.next_below(comm::kFrameHeaderBytes)
            : begin + rng.next_below(s.ends[k] - begin);
    SplitFeeder f;
    f.feed(rng, s.bytes, cut);
    ASSERT_EQ(f.popped.size(), k);
    for (std::size_t i = 0; i < k; ++i)
      ASSERT_TRUE(same_wire(f.popped[i], s.msgs[i])) << "message " << i;
    EXPECT_EQ(f.dec.buffered(), cut - begin);
    Wire none;
    EXPECT_FALSE(f.dec.pop(none));
  }
}

TEST(FrameFuzz, DamagedHeaderPopsWhatItsBytesSayOrThrows) {
  // Flip one bit of a frame's header, or splice in the byte at the same
  // offset of another frame's header. Frames carry no checksum, so a
  // damaged tag, or a kind or length swapped for another that fits,
  // decodes as what the damaged bytes say. The property: frames before
  // the damage pop unchanged; everything that pops re-encodes to exactly
  // the bytes it consumed (the original message when the damage left the
  // frame intact); everything else is a CheckError or a wait for bytes
  // that never come. Damage to the magic always throws.
  Rng rng(kFuzzSeed + 2);
  int threw = 0, popped_damaged = 0;
  for (int it = 0; it < kFuzzIters; ++it) {
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    FuzzStream s = fuzz_stream(rng);
    const std::size_t k = rng.next_below(s.msgs.size());
    const std::size_t begin = s.begin(k);
    const std::size_t off = rng.next_below(comm::kFrameHeaderBytes);
    std::uint8_t& byte = s.bytes[begin + off];
    const std::uint8_t before = byte;
    if (rng.next_bool(0.5)) {
      byte ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    } else {
      const std::size_t j = rng.next_below(s.msgs.size());
      byte = s.bytes[s.begin(j) + off];
    }
    SplitFeeder f;
    bool threw_here = false;
    try {
      f.feed(rng, s.bytes, s.bytes.size());
    } catch (const CheckError&) {
      threw_here = true;
      ++threw;
    }
    ASSERT_GE(f.popped.size(), k);
    for (std::size_t i = 0; i < k; ++i)
      ASSERT_TRUE(same_wire(f.popped[i], s.msgs[i])) << "message " << i;
    const auto again = f.reencoded();
    ASSERT_EQ(again.size(), f.fed - f.dec.buffered());
    ASSERT_TRUE(std::equal(again.begin(), again.end(), s.bytes.begin()));
    if (f.popped.size() > k) ++popped_damaged;
    if (off < sizeof(comm::kFrameMagic) && byte != before) {
      EXPECT_TRUE(threw_here) << "damaged magic at byte " << off;
      EXPECT_EQ(f.popped.size(), k);
    }
    if (byte == before) { // a splice that changed nothing
      EXPECT_FALSE(threw_here);
      ASSERT_EQ(f.popped.size(), s.msgs.size());
      EXPECT_TRUE(same_wire(f.popped[k], s.msgs[k]));
    }
  }
  // Both outcomes are really exercised.
  EXPECT_GT(threw, 20);
  EXPECT_GT(popped_damaged, 20);
}

TEST(FrameFuzz, OversizedLengthThrowsOnItsHeader) {
  // A length past kMaxFramePayloadBytes is rejected the moment its header
  // is complete: before the decoder waits for, or buffers, any payload.
  Rng rng(kFuzzSeed + 3);
  for (int it = 0; it < kFuzzIters; ++it) {
    SCOPED_TRACE(::testing::Message() << "iteration " << it);
    FuzzStream s = fuzz_stream(rng);
    const std::size_t k = rng.next_below(s.msgs.size());
    const std::size_t begin = s.begin(k);
    const std::uint64_t nbytes =
        comm::kMaxFramePayloadBytes + 1 +
        rng.next_below(~std::uint64_t{0} - comm::kMaxFramePayloadBytes);
    std::memcpy(s.bytes.data() + begin + 12, &nbytes, sizeof(nbytes));
    SplitFeeder f;
    f.feed(rng, s.bytes, begin + comm::kFrameHeaderBytes - 1);
    ASSERT_EQ(f.popped.size(), k);
    EXPECT_THROW(f.feed(rng, s.bytes, begin + comm::kFrameHeaderBytes),
                 CheckError);
    EXPECT_EQ(f.dec.buffered(), comm::kFrameHeaderBytes);
  }
}

// ---------------------------------------------------------------------------
// Socket groups (threads standing in for the rank processes)
// ---------------------------------------------------------------------------

/// Build a socket group and run fn(endpoint) on one thread per rank, each
/// thread owning its own SocketTransport+Fabric (the process shape, minus
/// the fork). Rethrows the first rank's exception after joining.
void run_socket_ranks(TransportKind kind, PartId nranks,
                      const std::function<void(comm::Endpoint&)>& fn) {
  auto group = comm::make_local_group(kind, nranks);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  for (PartId r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Fabric fabric(std::make_unique<comm::SocketTransport>(
                          r, group.endpoints, group.listen_fds[r]),
                      CostModel::pcie3_x16());
        fn(fabric.endpoint(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  comm::cleanup_local_group(group, /*fds_taken=*/true);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(SocketTransport, UdsPointToPointDelivers) {
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 7, {1.0f, 2.0f, 3.0f}, TrafficClass::kFeature);
      ep.send_ids(1, 8, {40, 50}, TrafficClass::kControl);
    } else {
      const auto f = ep.recv_floats(0, 7, TrafficClass::kFeature);
      EXPECT_EQ(f, (std::vector<float>{1.0f, 2.0f, 3.0f}));
      const auto ids = ep.recv_ids(0, 8, TrafficClass::kControl);
      EXPECT_EQ(ids, (std::vector<NodeId>{40, 50}));
    }
  });
}

TEST(SocketTransport, UdsOutOfOrderTagsThroughRequestSet) {
  // Sends land in one order, receives posted in another; the per-peer
  // inbox must tag-match every request and RequestSet must report each
  // completion exactly once.
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      for (const int tag : {12, 10, 11})
        ep.send_floats(1, tag, {static_cast<float>(tag)},
                       TrafficClass::kFeature);
      ep.barrier();
    } else {
      comm::RequestSet set;
      for (const int tag : {10, 11, 12})
        (void)set.add(ep.irecv_floats(0, tag, TrafficClass::kFeature));
      std::vector<std::size_t> done;
      while (!set.all_done()) (void)set.wait_any(done);
      std::sort(done.begin(), done.end());
      EXPECT_EQ(done, (std::vector<std::size_t>{0, 1, 2}));
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(set.at(i).take_floats()[0],
                        static_cast<float>(10 + i));
      ep.barrier();
    }
  });
}

TEST(SocketTransport, UdsLargePayloadPartialWrites) {
  // A payload far beyond any socket buffer: the nonblocking send queue
  // must drain it across many partial writes while the receiver reads
  // partial frames, and the bytes must arrive intact and accounted.
  static constexpr std::size_t kFloats = 1 << 20; // 4 MiB
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      std::vector<float> big(kFloats);
      for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<float>(i % 977);
      ep.send_floats(1, 0, std::move(big), TrafficClass::kFeature);
      ep.barrier();
    } else {
      const auto got = ep.recv_floats(0, 0, TrafficClass::kFeature);
      ASSERT_EQ(got.size(), kFloats);
      for (std::size_t i = 0; i < got.size(); i += 4096)
        ASSERT_FLOAT_EQ(got[i], static_cast<float>(i % 977));
      EXPECT_EQ(
          ep.stats().rx_bytes[static_cast<int>(TrafficClass::kFeature)],
          static_cast<std::int64_t>(kFloats * sizeof(float)));
      ep.barrier();
    }
  });
}

TEST(SocketTransport, UdsSlabCrossesWhileSenderMakesNoCall) {
  // Rank 0 posts a frame far beyond the socket buffers, then makes no
  // transport call at all — a rank busy computing. Rank 1 only probes
  // Request::test(), which moves no bytes itself, so the whole frame must
  // cross through the ranks' I/O threads alone, within 5 s of the post.
  static constexpr std::size_t kFloats = std::size_t{8} << 20; // 32 MiB
  std::mutex mu;
  std::condition_variable cv;
  bool posted = false;
  bool received = false;
  const auto signal = [&](bool& flag) {
    {
      std::lock_guard<std::mutex> lock(mu);
      flag = true;
    }
    cv.notify_all();
  };
  const auto await = [&](const bool& flag, std::chrono::seconds limit) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, limit, [&] { return flag; });
  };
  run_socket_ranks(TransportKind::kUds, 2, [&](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      std::vector<float> big(kFloats);
      for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<float>(i % 1013);
      ep.send_floats(1, 0, std::move(big), TrafficClass::kFeature);
      signal(posted);
      (void)await(received, std::chrono::seconds(5));
      return;
    }
    comm::Request req = ep.irecv_floats(0, 0, TrafficClass::kFeature);
    ASSERT_TRUE(await(posted, std::chrono::seconds(60)));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    bool done = req.test();
    while (!done && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      done = req.test();
    }
    signal(received);
    ASSERT_TRUE(done) << "the frame did not cross while its sender was busy";
    const auto got = req.take_floats();
    ASSERT_EQ(got.size(), kFloats);
    for (std::size_t i = 0; i < got.size(); i += 4099)
      ASSERT_FLOAT_EQ(got[i], static_cast<float>(i % 1013));
  });
}

TEST(SocketTransport, UdsCollectivesMatchMailboxSemantics) {
  constexpr PartId kRanks = 4;
  run_socket_ranks(TransportKind::kUds, kRanks, [](comm::Endpoint& ep) {
    // allreduce_sum: every rank ends with the same vector sum.
    std::vector<float> data{static_cast<float>(ep.rank()),
                            static_cast<float>(ep.rank() * 10)};
    ep.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 0 + 1 + 2 + 3);
    EXPECT_FLOAT_EQ(data[1], 10 * (0 + 1 + 2 + 3));
    // Scalar collectives.
    EXPECT_DOUBLE_EQ(ep.allreduce_sum_scalar(ep.rank() + 1.0), 10.0);
    EXPECT_DOUBLE_EQ(ep.allreduce_max_scalar(ep.rank() * 2.0), 6.0);
    // allgather_ids, indexed by rank.
    std::vector<NodeId> mine(static_cast<std::size_t>(ep.rank()) + 1,
                             ep.rank());
    const auto all = ep.allgather_ids(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    for (PartId r = 0; r < kRanks; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r) + 1);
      for (const NodeId v : all[static_cast<std::size_t>(r)])
        EXPECT_EQ(v, r);
    }
    // allgather_doubles, indexed by rank.
    const auto sl = ep.allgather_doubles({ep.rank() * 1.5, 7.0});
    ASSERT_EQ(sl.size(), static_cast<std::size_t>(kRanks));
    for (PartId r = 0; r < kRanks; ++r) {
      EXPECT_DOUBLE_EQ(sl[static_cast<std::size_t>(r)][0], r * 1.5);
      EXPECT_DOUBLE_EQ(sl[static_cast<std::size_t>(r)][1], 7.0);
    }
    // Repeated rounds must not cross (the reserved collective-tag
    // sequence advances in lockstep).
    for (int round = 0; round < 8; ++round) {
      std::vector<float> v{static_cast<float>(round + ep.rank())};
      ep.allreduce_sum(v);
      EXPECT_FLOAT_EQ(v[0], 4.0f * round + 6.0f);
      ep.barrier();
    }
  });
}

TEST(SocketTransport, UdsAllreduceSumIsBitIdenticalOnEveryRank) {
  // The same contributions as Fabric.AllreduceSumIsBitIdenticalOnEveryRank,
  // over real sockets: every rank must end with c_0 + c_1 + c_2 in rank
  // order, bit for bit.
  const std::vector<float> c{1e8f, 1.0f, -1e8f};
  const float expect = (c[0] + c[1]) + c[2];
  std::vector<float> got(c.size());
  run_socket_ranks(TransportKind::kUds, 3, [&](comm::Endpoint& ep) {
    const auto r = static_cast<std::size_t>(ep.rank());
    std::vector<float> data{c[r]};
    ep.allreduce_sum(data);
    got[r] = data[0];
  });
  for (std::size_t r = 0; r < c.size(); ++r)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r]),
              std::bit_cast<std::uint32_t>(expect))
        << "rank " << r << " got " << got[r];
}

TEST(SocketTransport, TcpLoopbackDelivers) {
  run_socket_ranks(TransportKind::kTcp, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 1, {5.0f, 6.0f}, TrafficClass::kFeature);
      const double sum = ep.allreduce_sum_scalar(1.0);
      EXPECT_DOUBLE_EQ(sum, 3.0);
    } else {
      EXPECT_EQ(ep.recv_floats(0, 1, TrafficClass::kFeature),
                (std::vector<float>{5.0f, 6.0f}));
      const double sum = ep.allreduce_sum_scalar(2.0);
      EXPECT_DOUBLE_EQ(sum, 3.0);
    }
  });
}

TEST(SocketTransport, PeerDisconnectSurfacesShutdownError) {
  // Rank 1 tears its transport down while rank 0 is blocked waiting on a
  // message that will never come. Rank 0 must unwind with ShutdownError —
  // not hang, not crash. This is the fabric's deadlock-free shutdown
  // contract; the process-level version (a dead rank's exit closing its
  // sockets) exercises the identical eof path.
  auto group = comm::make_local_group(TransportKind::kUds, 2);
  std::exception_ptr survivor_error;
  std::thread t0([&] {
    try {
      Fabric fabric(std::make_unique<comm::SocketTransport>(
                        0, group.endpoints, group.listen_fds[0]),
                    CostModel::pcie3_x16());
      // Blocks until rank 1's close lands as eof.
      (void)fabric.endpoint(0).recv_floats(1, 0, TrafficClass::kFeature);
    } catch (...) {
      survivor_error = std::current_exception();
    }
  });
  std::thread t1([&] {
    // Connect, then vanish without sending: transport dtor closes the
    // sockets (the graceful path a failing rank's unwind takes).
    Fabric fabric(std::make_unique<comm::SocketTransport>(
                      1, group.endpoints, group.listen_fds[1]),
                  CostModel::pcie3_x16());
    fabric.shutdown(1);
  });
  t0.join();
  t1.join();
  comm::cleanup_local_group(group, /*fds_taken=*/true);
  ASSERT_TRUE(survivor_error != nullptr)
      << "survivor returned instead of unwinding";
  EXPECT_THROW(std::rethrow_exception(survivor_error), comm::ShutdownError);
}

TEST(SocketTransport, CorruptFrameOnLiveSocketNamesThePeer) {
  // A raw client stands in for rank 1: it sends rank 1's hello, then a
  // corrupt frame — a header with a bad magic, or a halo delta whose
  // payload fails its split checks. Rank 0's I/O thread decodes it; the
  // CheckError must reach the rank thread's blocking recv naming peer 1 —
  // never std::terminate — and stay sticky for the rank's next calls.
  const std::pair<const char*, std::vector<std::uint8_t>> corrupt[] = {
      {"bad magic",
       raw_header(comm::kFrameMagic ^ 0xFFu, WireKind::kFloats, 4)},
      {"halo delta index count past its payload",
       raw_halo_delta(2, sizeof(NodeId))},
      {"halo delta rows not whole floats",
       raw_halo_delta(1, sizeof(NodeId) + 6)},
  };
  for (const auto& [what, bad] : corrupt) {
    SCOPED_TRACE(what);
    auto group = comm::make_local_group(TransportKind::kUds, 2);
    ::close(group.listen_fds[1]);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, group.endpoints.addrs[0].c_str(),
                 sizeof(sa.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
              0);
    const std::uint32_t hello = 1;
    ASSERT_EQ(::send(fd, &hello, sizeof(hello), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(hello)));
    ASSERT_EQ(::send(fd, bad.data(), bad.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bad.size()));
    {
      comm::SocketTransport rank0(0, group.endpoints, group.listen_fds[0]);
      try {
        (void)rank0.recv(0, 1, 0);
        ADD_FAILURE() << "recv returned from a corrupt stream";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("peer rank 1"),
                  std::string::npos)
            << e.what();
      }
      Wire w;
      EXPECT_THROW((void)rank0.try_recv(0, 1, 0, w), CheckError);
      EXPECT_THROW(rank0.send(0, 1, Wire{}), CheckError);
    }
    ::close(fd);
    comm::cleanup_local_group(group, /*fds_taken=*/true);
  }
}

} // namespace
} // namespace bnsgcn
