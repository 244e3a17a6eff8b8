#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "comm/fabric.hpp"

namespace bnsgcn {
namespace {

using comm::CostModel;
using comm::Fabric;
using comm::TrafficClass;

/// Run fn(rank_endpoint) on one thread per rank and join.
template <typename Fn>
void run_ranks(Fabric& fabric, Fn fn) {
  std::vector<std::thread> threads;
  for (PartId r = 0; r < fabric.nranks(); ++r) {
    threads.emplace_back([&fabric, r, &fn] { fn(fabric.endpoint(r)); });
  }
  for (auto& t : threads) t.join();
}

TEST(Fabric, PointToPointDelivers) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, /*tag=*/7, {1.0f, 2.0f, 3.0f}, TrafficClass::kFeature);
    } else {
      const auto payload = ep.recv_floats(0, 7, TrafficClass::kFeature);
      ASSERT_EQ(payload.size(), 3u);
      EXPECT_FLOAT_EQ(payload[1], 2.0f);
    }
  });
}

TEST(Fabric, TagMatchingOutOfOrder) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 1, {1.0f}, TrafficClass::kFeature);
      ep.send_floats(1, 2, {2.0f}, TrafficClass::kFeature);
    } else {
      // Receive tag 2 first even though tag 1 was sent first.
      const auto second = ep.recv_floats(0, 2, TrafficClass::kFeature);
      const auto first = ep.recv_floats(0, 1, TrafficClass::kFeature);
      EXPECT_FLOAT_EQ(second[0], 2.0f);
      EXPECT_FLOAT_EQ(first[0], 1.0f);
    }
  });
}

TEST(Fabric, IdPayloads) {
  Fabric fabric(3);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_ids(1, 0, {5, 6, 7}, TrafficClass::kControl);
      ep.send_ids(2, 0, {8}, TrafficClass::kControl);
    } else {
      const auto ids = ep.recv_ids(0, 0, TrafficClass::kControl);
      if (ep.rank() == 1) {
        EXPECT_EQ(ids, (std::vector<NodeId>{5, 6, 7}));
      } else {
        EXPECT_EQ(ids, (std::vector<NodeId>{8}));
      }
    }
  });
}

TEST(Fabric, AllreduceSum) {
  constexpr PartId kRanks = 5;
  Fabric fabric(kRanks);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    std::vector<float> data{static_cast<float>(ep.rank()),
                            static_cast<float>(ep.rank() * 10)};
    ep.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 0 + 1 + 2 + 3 + 4);
    EXPECT_FLOAT_EQ(data[1], 10 * (0 + 1 + 2 + 3 + 4));
  });
}

TEST(Fabric, AllreduceSumIsBitIdenticalOnEveryRank) {
  // Float addition is not associative: folding each rank's own value
  // first gives different sums on different ranks (replicas drift). Every
  // rank must end with the one sum c_0 + c_1 + ... taken in rank order.
  for (const std::vector<float>& c :
       {std::vector<float>{1e8f, 1.0f, -1e8f},
        std::vector<float>{1e8f, 1.0f, -1e8f, 3.0f}}) {
    float expect = c[0];
    for (std::size_t r = 1; r < c.size(); ++r) expect += c[r];
    Fabric fabric(static_cast<PartId>(c.size()));
    std::vector<float> got(c.size());
    run_ranks(fabric, [&](comm::Endpoint& ep) {
      const auto r = static_cast<std::size_t>(ep.rank());
      std::vector<float> data{c[r]};
      ep.allreduce_sum(data);
      got[r] = data[0];
    });
    for (std::size_t r = 0; r < c.size(); ++r)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r]),
                std::bit_cast<std::uint32_t>(expect))
          << c.size() << " ranks, rank " << r << " got " << got[r];
  }
}

TEST(Fabric, AllreduceRepeatedRounds) {
  // Back-to-back collectives must not corrupt each other.
  constexpr PartId kRanks = 4;
  Fabric fabric(kRanks);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    for (int round = 0; round < 20; ++round) {
      std::vector<float> data{static_cast<float>(round + ep.rank())};
      ep.allreduce_sum(data);
      EXPECT_FLOAT_EQ(data[0], 4.0f * round + 6.0f);
    }
  });
}

TEST(Fabric, AllreduceScalars) {
  Fabric fabric(3);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    const double sum = ep.allreduce_sum_scalar(ep.rank() + 1.0);
    EXPECT_DOUBLE_EQ(sum, 6.0);
    const double mx = ep.allreduce_max_scalar(ep.rank() * 2.0);
    EXPECT_DOUBLE_EQ(mx, 4.0);
  });
}

TEST(Fabric, AllgatherIds) {
  Fabric fabric(3);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    std::vector<NodeId> mine(static_cast<std::size_t>(ep.rank()) + 1,
                             ep.rank());
    const auto all = ep.allgather_ids(mine);
    ASSERT_EQ(all.size(), 3u);
    for (PartId r = 0; r < 3; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r) + 1);
      for (const NodeId v : all[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
    }
  });
}

TEST(Fabric, ByteAccounting) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 0, std::vector<float>(100, 1.0f),
                     TrafficClass::kFeature);
    } else {
      (void)ep.recv_floats(0, 0, TrafficClass::kFeature);
    }
    ep.barrier();
  });
  const auto& tx = fabric.endpoint(0).stats();
  const auto& rx = fabric.endpoint(1).stats();
  EXPECT_EQ(tx.tx_bytes[static_cast<int>(TrafficClass::kFeature)], 400);
  EXPECT_EQ(rx.rx_bytes[static_cast<int>(TrafficClass::kFeature)], 400);
  EXPECT_EQ(fabric.total_rx_bytes(TrafficClass::kFeature), 400);
}

TEST(CostModel, MessageTime) {
  const CostModel m{.latency_s = 1e-6, .bytes_per_s = 1e9};
  EXPECT_NEAR(m.message_time(1'000'000), 1e-6 + 1e-3, 1e-9);
}

TEST(CostModel, AllreduceRingScaling) {
  const CostModel m{.latency_s = 0.0, .bytes_per_s = 1e9};
  // 2 ranks: exactly one payload crosses the wire per direction.
  EXPECT_NEAR(m.allreduce_time(1e9, 2), 1.0, 1e-9);
  // Many ranks: approaches 2x payload.
  EXPECT_NEAR(m.allreduce_time(1e9, 100), 1.98, 1e-9);
  EXPECT_DOUBLE_EQ(m.allreduce_time(12345, 1), 0.0);
}

TEST(CostModel, SimSecondsUsesMaxOfDirections) {
  comm::RankStats st;
  st.tx_bytes[0] = 8'000'000'000LL; // 1s at 8GB/s
  st.rx_bytes[0] = 0;
  const auto cost = CostModel{.latency_s = 0.0, .bytes_per_s = 8e9};
  EXPECT_NEAR(st.sim_seconds(TrafficClass::kFeature, cost), 1.0, 1e-9);
  st.rx_bytes[0] = 16'000'000'000LL; // rx dominates now
  EXPECT_NEAR(st.sim_seconds(TrafficClass::kFeature, cost), 2.0, 1e-9);
}

TEST(Fabric, IsendIrecvDelivers) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      auto req = ep.isend_floats(1, 3, {4.0f, 5.0f}, TrafficClass::kFeature);
      EXPECT_TRUE(req.done()); // eager deposit: sends complete on posting
      req.wait();
    } else {
      auto req = ep.irecv_floats(0, 3, TrafficClass::kFeature);
      const auto payload = req.take_floats(); // waits internally
      ASSERT_EQ(payload.size(), 2u);
      EXPECT_FLOAT_EQ(payload[1], 5.0f);
    }
  });
}

TEST(Fabric, IrecvOutOfOrderTagDelivery) {
  // Receives posted in the opposite order of the sends; tag matching must
  // route each payload to its request regardless of arrival order.
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 10, {10.0f}, TrafficClass::kFeature);
      ep.send_floats(1, 11, {11.0f}, TrafficClass::kFeature);
      ep.send_floats(1, 12, {12.0f}, TrafficClass::kFeature);
    } else {
      std::vector<comm::Request> reqs;
      for (const int tag : {12, 10, 11})
        reqs.push_back(ep.irecv_floats(0, tag, TrafficClass::kFeature));
      comm::wait_all(reqs);
      EXPECT_FLOAT_EQ(reqs[0].take_floats()[0], 12.0f);
      EXPECT_FLOAT_EQ(reqs[1].take_floats()[0], 10.0f);
      EXPECT_FLOAT_EQ(reqs[2].take_floats()[0], 11.0f);
    }
  });
}

TEST(Fabric, RequestTestPollsWithoutBlocking) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.barrier(); // hold the send until rank 1 has probed emptiness
      ep.send_ids(1, 0, {42}, TrafficClass::kControl);
    } else {
      auto req = ep.irecv_floats(0, 0, TrafficClass::kControl);
      EXPECT_FALSE(req.test()); // nothing sent yet: must not block
      EXPECT_FALSE(req.done());
      ep.barrier();
      req.wait();
      EXPECT_TRUE(req.done());
      const comm::Wire msg = req.take_payload();
      EXPECT_EQ(msg.kind, comm::WireKind::kIds);
      EXPECT_EQ(msg.ids, (std::vector<NodeId>{42}));
    }
  });
}

TEST(Fabric, WaitAllUnderConcurrentRanks) {
  // Every rank exchanges with every other rank over several rounds with
  // all receives posted up front — the all-to-all shape of the trainer's
  // pipelined boundary exchange, at 8 concurrent ranks.
  constexpr PartId kRanks = 8;
  constexpr int kRounds = 5;
  Fabric fabric(kRanks);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    const PartId n = ep.nranks();
    for (int round = 0; round < kRounds; ++round) {
      std::vector<comm::Request> reqs;
      std::vector<PartId> peer_of;
      // Post all receives first (reversed peer order), then the sends.
      for (PartId j = n - 1; j >= 0; --j) {
        if (j == ep.rank()) continue;
        reqs.push_back(ep.irecv_floats(j, round, TrafficClass::kFeature));
        peer_of.push_back(j);
      }
      for (PartId j = 0; j < n; ++j) {
        if (j == ep.rank()) continue;
        (void)ep.isend_floats(
            j, round, {static_cast<float>(ep.rank() * 100 + round)},
            TrafficClass::kFeature);
      }
      comm::wait_all(reqs);
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        const auto payload = reqs[k].take_floats();
        ASSERT_EQ(payload.size(), 1u);
        EXPECT_FLOAT_EQ(payload[0],
                        static_cast<float>(peer_of[k] * 100 + round));
      }
    }
  });
}

TEST(Fabric, AsyncAccountingMatchesBlocking) {
  // isend/irecv must account bytes exactly like send/recv.
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      (void)ep.isend_floats(1, 0, std::vector<float>(64, 1.0f),
                            TrafficClass::kFeature);
    } else {
      auto req = ep.irecv_floats(0, 0, TrafficClass::kFeature);
      (void)req.take_floats();
    }
    ep.barrier();
  });
  EXPECT_EQ(fabric.endpoint(0).stats().tx_bytes[static_cast<int>(
                TrafficClass::kFeature)],
            256);
  EXPECT_EQ(fabric.total_rx_bytes(TrafficClass::kFeature), 256);
}

TEST(RequestSet, PollReportsEachCompletionExactlyOnce) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.barrier(); // let rank 1 probe the empty set first
      ep.send_floats(1, 0, {1.0f}, TrafficClass::kFeature);
      ep.send_floats(1, 1, {2.0f}, TrafficClass::kFeature);
      ep.barrier();
    } else {
      comm::RequestSet set;
      EXPECT_EQ(set.add(ep.irecv_floats(0, 0, TrafficClass::kFeature)), 0u);
      EXPECT_EQ(set.add(ep.irecv_floats(0, 1, TrafficClass::kFeature)), 1u);
      EXPECT_EQ(set.size(), 2u);
      EXPECT_EQ(set.pending(), 2u);
      std::vector<std::size_t> done;
      EXPECT_EQ(set.poll(done), 0u); // nothing sent yet: must not block
      EXPECT_TRUE(done.empty());
      ep.barrier();
      // Drain with wait_any until both land; indices must appear exactly
      // once across all passes.
      while (!set.all_done()) (void)set.wait_any(done);
      std::sort(done.begin(), done.end());
      EXPECT_EQ(done, (std::vector<std::size_t>{0, 1}));
      EXPECT_EQ(set.pending(), 0u);
      EXPECT_EQ(set.poll(done), 0u); // completed requests never re-report
      EXPECT_FLOAT_EQ(set.at(0).take_floats()[0], 1.0f);
      EXPECT_FLOAT_EQ(set.at(1).take_floats()[0], 2.0f);
      ep.barrier();
    }
  });
}

TEST(RequestSet, WaitAllCompletesTheRemainder) {
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      for (int tag = 0; tag < 3; ++tag)
        ep.send_floats(1, tag, {static_cast<float>(tag)},
                       TrafficClass::kFeature);
    } else {
      comm::RequestSet set;
      for (int tag = 0; tag < 3; ++tag)
        (void)set.add(ep.irecv_floats(0, tag, TrafficClass::kFeature));
      set.wait_all();
      EXPECT_TRUE(set.all_done());
      std::vector<std::size_t> done;
      EXPECT_EQ(set.poll(done), 0u); // wait_all already accounted for them
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(set.at(i).take_floats()[0], static_cast<float>(i));
    }
  });
}

TEST(RequestSet, EmptySetIsTriviallyDone) {
  // Zero requests: every operation must be a no-op, not a hang — the
  // trainer hits this on ranks whose sampled plan keeps no halo (p=0, or
  // an isolated partition).
  comm::RequestSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.pending(), 0u);
  EXPECT_TRUE(set.all_done());
  std::vector<std::size_t> done;
  EXPECT_EQ(set.poll(done), 0u);
  EXPECT_EQ(set.wait_any(done), 0u); // must return, not block
  set.wait_all();
  EXPECT_TRUE(done.empty());
}

TEST(RequestSet, WaitAnyAfterExhaustionReturnsImmediately) {
  // Once every member completed, further wait_any calls must return 0
  // without blocking (a buggy loop re-entering wait_any after the last
  // fold would otherwise deadlock) and report no duplicate indices.
  Fabric fabric(2);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 0, {1.0f}, TrafficClass::kFeature);
      ep.send_floats(1, 1, {2.0f}, TrafficClass::kFeature);
    } else {
      comm::RequestSet set;
      (void)set.add(ep.irecv_floats(0, 0, TrafficClass::kFeature));
      (void)set.add(ep.irecv_floats(0, 1, TrafficClass::kFeature));
      std::vector<std::size_t> done;
      while (!set.all_done()) (void)set.wait_any(done);
      ASSERT_EQ(done.size(), 2u);
      for (int repeat = 0; repeat < 3; ++repeat) {
        EXPECT_EQ(set.wait_any(done), 0u);
        EXPECT_EQ(set.poll(done), 0u);
      }
      EXPECT_EQ(done.size(), 2u); // no re-reports
      set.wait_all();             // idempotent on the exhausted set
      EXPECT_EQ(set.pending(), 0u);
    }
  });
}

TEST(RequestSet, PollDuringPartialCompletionAccountsBytesExactly) {
  // Three posted receives, deliveries staggered one at a time: after each
  // delivery a poll must report exactly that one new completion, and the
  // receiver-side byte counters must show exactly the delivered slabs —
  // pending irecvs contribute nothing.
  constexpr int kFloats = 10;
  const auto slab_bytes = static_cast<std::int64_t>(kFloats * sizeof(float));
  Fabric fabric(2);
  run_ranks(fabric, [&](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      for (int tag = 0; tag < 3; ++tag) {
        ep.barrier(); // rank 1 probed the current state
        ep.send_floats(1, tag, std::vector<float>(kFloats, 1.0f),
                       TrafficClass::kFeature);
        ep.barrier(); // delivery visible before the next probe
      }
      ep.barrier();
    } else {
      comm::RequestSet set;
      for (int tag = 0; tag < 3; ++tag)
        (void)set.add(ep.irecv_floats(0, tag, TrafficClass::kFeature));
      std::vector<std::size_t> done;
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(set.poll(done), 0u) << "nothing new before delivery " << k;
        ep.barrier();
        ep.barrier();
        done.clear();
        EXPECT_EQ(set.poll(done), 1u);
        EXPECT_EQ(done, (std::vector<std::size_t>{static_cast<std::size_t>(k)}));
        EXPECT_EQ(set.pending(), static_cast<std::size_t>(2 - k));
        EXPECT_EQ(ep.stats().rx_bytes[static_cast<int>(TrafficClass::kFeature)],
                  slab_bytes * (k + 1));
        EXPECT_EQ(ep.stats().rx_msgs[static_cast<int>(TrafficClass::kFeature)],
                  k + 1);
      }
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(set.at(i).take_floats().size(),
                  static_cast<std::size_t>(kFloats));
      ep.barrier();
    }
  });
  EXPECT_EQ(fabric.total_rx_bytes(TrafficClass::kFeature), slab_bytes * 3);
}

TEST(Fabric, DeliveryShuffleHoldsProbesButNotBlockingTakes) {
  // The test-only arrival shuffle defers nonblocking probes for a bounded
  // number of passes and never touches blocking receives or the byte
  // accounting.
  Fabric fabric(2);
  fabric.enable_delivery_shuffle(/*seed=*/12345, /*max_hold=*/4);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 0, {1.0f, 2.0f}, TrafficClass::kFeature);
      ep.send_floats(1, 1, {3.0f}, TrafficClass::kFeature);
      ep.barrier();
    } else {
      ep.barrier(); // both messages deposited
      // Nonblocking path: at most max_hold failed probes, then delivery.
      auto req = ep.irecv_floats(0, 0, TrafficClass::kFeature);
      int probes = 0;
      while (!req.test()) {
        ASSERT_LE(++probes, 4) << "hold must expire within max_hold probes";
      }
      EXPECT_EQ(req.take_floats(), (std::vector<float>{1.0f, 2.0f}));
      // Blocking path: delivers immediately regardless of any hold.
      EXPECT_EQ(ep.recv_floats(0, 1, TrafficClass::kFeature),
                (std::vector<float>{3.0f}));
    }
  });
  EXPECT_EQ(fabric.total_rx_bytes(TrafficClass::kFeature),
            static_cast<std::int64_t>(3 * sizeof(float)));
}

TEST(Fabric, StreamingSlabStressAcrossManyRanks) {
  // The streaming fold's wire pattern at full stress: every rank sends
  // every other rank several tagged slabs in a rank-dependent (scrambled)
  // order while concurrently polling a RequestSet over interleaved irecvs
  // posted in yet another order. No slab may be lost, duplicated, or
  // routed to the wrong request, and the byte accounting must add up
  // exactly — out-of-order tagged delivery is what the deterministic
  // fold's buffer-then-apply rule relies on.
  constexpr PartId kRanks = 5;
  constexpr int kRounds = 4;   // "layers": one exchange per round
  constexpr int kSlabFloats = 7;
  Fabric fabric(kRanks);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    const PartId n = ep.nranks();
    const PartId me = ep.rank();
    for (int round = 0; round < kRounds; ++round) {
      // Tags encode (round, sender) so concurrent rounds cannot cross.
      const auto tag_of = [round](PartId sender) {
        return round * 64 + static_cast<int>(sender);
      };
      comm::RequestSet set;
      std::vector<PartId> peer_of;
      // Post receives in a rank-rotated order (every rank different).
      for (PartId off = 1; off < n; ++off) {
        const PartId peer = (me + off) % n;
        peer_of.push_back(peer);
        (void)set.add(ep.irecv_floats(peer, tag_of(peer),
                                      TrafficClass::kFeature));
      }
      // Sends interleave with polling; order rotates the other way.
      std::vector<std::size_t> done;
      for (PartId off = 1; off < n; ++off) {
        const PartId to = (me + n - off) % n;
        std::vector<float> slab(kSlabFloats);
        for (int c = 0; c < kSlabFloats; ++c)
          slab[static_cast<std::size_t>(c)] =
              static_cast<float>(me * 1000 + round * 100 + c);
        (void)ep.isend_floats(to, tag_of(me), std::move(slab),
                              TrafficClass::kFeature);
        (void)set.poll(done); // make progress mid-send, test() path
      }
      while (!set.all_done()) (void)set.wait_any(done);
      // Exactly one completion per peer, none duplicated.
      std::sort(done.begin(), done.end());
      ASSERT_EQ(done.size(), static_cast<std::size_t>(n - 1));
      for (std::size_t k = 0; k < done.size(); ++k) EXPECT_EQ(done[k], k);
      // Every slab intact and from the right peer.
      for (std::size_t k = 0; k < peer_of.size(); ++k) {
        const auto payload = set.at(k).take_floats();
        ASSERT_EQ(payload.size(), static_cast<std::size_t>(kSlabFloats));
        for (int c = 0; c < kSlabFloats; ++c)
          EXPECT_FLOAT_EQ(payload[static_cast<std::size_t>(c)],
                          static_cast<float>(peer_of[k] * 1000 + round * 100 +
                                             c));
      }
    }
    ep.barrier();
  });
  // Byte accounting: every rank sent and received (n-1) slabs per round.
  const auto slab_bytes =
      static_cast<std::int64_t>(kSlabFloats * sizeof(float));
  const std::int64_t expect_per_rank =
      slab_bytes * (kRanks - 1) * kRounds;
  for (PartId r = 0; r < kRanks; ++r) {
    const auto& st = fabric.endpoint(r).stats();
    EXPECT_EQ(st.tx_bytes[static_cast<int>(TrafficClass::kFeature)],
              expect_per_rank);
    EXPECT_EQ(st.rx_bytes[static_cast<int>(TrafficClass::kFeature)],
              expect_per_rank);
    EXPECT_EQ(st.rx_msgs[static_cast<int>(TrafficClass::kFeature)],
              (kRanks - 1) * kRounds);
  }
  EXPECT_EQ(fabric.total_rx_bytes(TrafficClass::kFeature),
            expect_per_rank * kRanks);
}

TEST(Fabric, ManyRanksStress) {
  constexpr PartId kRanks = 12;
  Fabric fabric(kRanks);
  run_ranks(fabric, [](comm::Endpoint& ep) {
    // Ring exchange repeated: each rank sends to (r+1)%n, receives from
    // (r-1+n)%n, then allreduces a checksum.
    const PartId n = ep.nranks();
    const PartId next = (ep.rank() + 1) % n;
    const PartId prev = (ep.rank() + n - 1) % n;
    double checksum = 0.0;
    for (int round = 0; round < 10; ++round) {
      ep.send_floats(next, round, {static_cast<float>(ep.rank())},
                     TrafficClass::kFeature);
      const auto got = ep.recv_floats(prev, round, TrafficClass::kFeature);
      checksum += got[0];
    }
    const double total = ep.allreduce_sum_scalar(checksum);
    // Each round moves the full 0+..+n-1 around: 10 rounds * n*(n-1)/2.
    EXPECT_DOUBLE_EQ(total, 10.0 * n * (n - 1) / 2.0);
  });
}

} // namespace
} // namespace bnsgcn
