#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>

#include "net/inproc.hpp"
#include "net/mailbox.hpp"
#include "net/socket.hpp"

namespace parade::net {
namespace {

Message make_msg(NodeId src, NodeId dst, Tag tag, std::size_t bytes = 0) {
  MessageHeader h;
  h.src = src;
  h.dst = dst;
  h.tag = tag;
  return Message(h, std::vector<std::uint8_t>(bytes, 0x5A));
}

TEST(Mailbox, FifoWithinMatch) {
  Mailbox box;
  box.deliver(make_msg(0, 1, 7, 1));
  box.deliver(make_msg(0, 1, 7, 2));
  auto m1 = box.try_recv_match([](const MessageHeader& h) { return h.tag == 7; });
  auto m2 = box.try_recv_match([](const MessageHeader& h) { return h.tag == 7; });
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->payload.size(), 1u);
  EXPECT_EQ(m2->payload.size(), 2u);
}

TEST(Mailbox, PredicateSkipsNonMatching) {
  Mailbox box;
  box.deliver(make_msg(0, 1, 3));
  box.deliver(make_msg(0, 1, 9));
  auto m = box.try_recv_match([](const MessageHeader& h) { return h.tag == 9; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.tag, 9);
  EXPECT_EQ(box.pending(), 1u);  // tag 3 still queued
}

TEST(Mailbox, BlockingRecvWakesOnDeliver) {
  Mailbox box;
  std::thread producer([&] { box.deliver(make_msg(2, 0, 11)); });
  auto m = box.recv_match([](const MessageHeader& h) { return h.tag == 11; });
  producer.join();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.src, 2);
}

TEST(Mailbox, CloseWakesBlockedReceivers) {
  Mailbox box;
  std::atomic<bool> got_null{false};
  std::thread consumer([&] {
    auto m = box.recv_match([](const MessageHeader&) { return true; });
    got_null.store(!m.has_value());
  });
  box.close();
  consumer.join();
  EXPECT_TRUE(got_null.load());
}

TEST(Mailbox, DrainsMatchesAfterClose) {
  Mailbox box;
  box.deliver(make_msg(0, 1, 5));
  box.close();
  auto m = box.recv_match([](const MessageHeader& h) { return h.tag == 5; });
  EXPECT_TRUE(m.has_value());
  auto none = box.recv_match([](const MessageHeader&) { return true; });
  EXPECT_FALSE(none.has_value());
}

TEST(Mailbox, PeerDownWakesBlockedWaiterWithUnavailable) {
  // Regression: a receiver blocked (no timeout) on a specific peer must not
  // hang forever when that peer's link dies — mark_peer_down has to wake it
  // with kUnavailable.
  Mailbox box;
  std::atomic<bool> woke_unavailable{false};
  std::thread waiter([&] {
    auto outcome = box.recv_match_from(
        /*peer=*/2, [](const MessageHeader&) { return true; });
    woke_unavailable.store(!outcome.message.has_value() &&
                           outcome.status.code() == ErrorCode::kUnavailable);
  });
  box.mark_peer_down(2);
  waiter.join();
  EXPECT_TRUE(woke_unavailable.load());
  EXPECT_TRUE(box.peer_down(2));
  EXPECT_FALSE(box.closed());  // the mailbox itself stays usable
}

TEST(Mailbox, PeerDownDrainsQueuedMessagesFirst) {
  Mailbox box;
  box.deliver(make_msg(2, 0, 7));
  box.mark_peer_down(2);
  // The queued message outlives the peer: drain it, then observe the error.
  auto first = box.recv_match_from(2, [](const MessageHeader& h) {
    return h.tag == 7;
  });
  ASSERT_TRUE(first.message.has_value());
  EXPECT_TRUE(first.status.is_ok());
  auto second = box.recv_match_from(2, [](const MessageHeader&) {
    return true;
  });
  EXPECT_FALSE(second.message.has_value());
  EXPECT_EQ(second.status.code(), ErrorCode::kUnavailable);
}

TEST(Mailbox, PeerDownLeavesOtherPeersAlone) {
  Mailbox box;
  box.mark_peer_down(2);
  // A bounded wait on a healthy peer times out normally instead of
  // inheriting the dead peer's error.
  auto outcome = box.recv_match_from(
      /*peer=*/3, [](const MessageHeader&) { return true; },
      std::chrono::milliseconds(10));
  EXPECT_FALSE(outcome.message.has_value());
  EXPECT_EQ(outcome.status.code(), ErrorCode::kTimeout);
}

TEST(Mailbox, DeliveryRunsOnlyTheWaitersMatcher) {
  // A blocked receiver's matcher runs once per queued message at its scan
  // and once per later delivery; being woken never triggers a rescan.
  Mailbox box;
  box.deliver(make_msg(0, 1, 1));  // queued before the receiver arrives
  std::atomic<int> calls{0};
  std::thread receiver([&] {
    auto m = box.recv_match([&](const MessageHeader& h) {
      calls.fetch_add(1);
      return h.tag == 2;
    });
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->header.tag, 2);
  });
  // The first call is the scan; the receiver registers under the same lock.
  while (calls.load() < 1) std::this_thread::yield();
  for (int i = 0; i < 100; ++i) box.deliver(make_msg(0, 1, 1));
  box.deliver(make_msg(0, 1, 2));
  receiver.join();
  EXPECT_EQ(calls.load(), 102);
  EXPECT_EQ(box.pending(), 101u);
}

TEST(Mailbox, TimedReceiveNeverLosesARacingDelivery) {
  // Each delivery races a 1 ms receive: it is either returned by that
  // receive or still queued afterwards, never both and never neither.
  Mailbox box;
  const auto is_ours = [](const MessageHeader& h) { return h.tag == 4; };
  for (int round = 0; round < 1000; ++round) {
    std::thread producer([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(round * 7 % 1500));
      box.deliver(make_msg(0, 1, 4));
    });
    auto got = box.recv_match_for(is_ours, std::chrono::milliseconds(1));
    producer.join();
    auto queued = box.try_recv_match(is_ours);
    ASSERT_NE(got.has_value(), queued.has_value()) << "round " << round;
  }
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, OverlappingMatchersSplitMessagesInOrder) {
  // Receiver A takes tags {1, 2}, receiver B tags {2, 3}; tag 2 may go to
  // either. Each message reaches exactly one receiver, and each receiver
  // sees its messages in arrival order. `src` carries a sequence number;
  // tags 10 and 11 stop A and B.
  constexpr int kMessages = 3000;
  Mailbox box;
  const auto receive_until = [&box](Tag first, Tag second, Tag stop) {
    std::vector<int> seqs;
    for (;;) {
      auto m = box.recv_match([&](const MessageHeader& h) {
        return h.tag == first || h.tag == second || h.tag == stop;
      });
      if (!m || m->header.tag == stop) return seqs;
      seqs.push_back(m->header.src);
    }
  };
  std::vector<int> a_seqs, b_seqs;
  std::thread a([&] { a_seqs = receive_until(1, 2, 10); });
  std::thread b([&] { b_seqs = receive_until(2, 3, 11); });
  for (int seq = 0; seq < kMessages; ++seq) {
    box.deliver(make_msg(seq, 0, 1 + seq % 3));
  }
  box.deliver(make_msg(0, 0, 10));
  box.deliver(make_msg(0, 0, 11));
  a.join();
  b.join();

  EXPECT_TRUE(std::is_sorted(a_seqs.begin(), a_seqs.end()));
  EXPECT_TRUE(std::is_sorted(b_seqs.begin(), b_seqs.end()));
  for (int seq : a_seqs) EXPECT_NE(seq % 3, 2) << seq;  // never a tag 3
  for (int seq : b_seqs) EXPECT_NE(seq % 3, 0) << seq;  // never a tag 1
  std::vector<int> all = a_seqs;
  all.insert(all.end(), b_seqs.begin(), b_seqs.end());
  std::sort(all.begin(), all.end());
  std::vector<int> expected(kMessages);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(all, expected);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(InProc, DeliversAcrossChannels) {
  InProcFabric fabric(3);
  ASSERT_TRUE(fabric.channel(0).send(2, 42, {1, 2, 3}, 0.0).is_ok());
  auto m = fabric.channel(2).inbox().recv_match(
      [](const MessageHeader& h) { return h.tag == 42; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.src, 0);
  EXPECT_EQ(m->payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(InProc, SelfSend) {
  InProcFabric fabric(2);
  ASSERT_TRUE(fabric.channel(1).send(1, 9, {}, 0.0).is_ok());
  auto m = fabric.channel(1).inbox().try_recv_match(
      [](const MessageHeader& h) { return h.tag == 9; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.src, 1);
}

TEST(InProc, SendToClosedInboxReturnsUnavailable) {
  InProcFabric fabric(2);
  fabric.channel(1).shutdown();
  Status s = fabric.channel(0).send(1, 5, {1}, 0.0);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
}

TEST(InProc, ManyThreadsManyMessages) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 200;
  InProcFabric fabric(kSenders + 1);
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        ASSERT_TRUE(fabric.channel(s)
                        .send(kSenders, 100 + s,
                              {static_cast<std::uint8_t>(i)}, 0.0)
                        .is_ok());
      }
    });
  }
  int received = 0;
  while (received < kSenders * kPerSender) {
    auto m = fabric.channel(kSenders).inbox().recv_match(
        [](const MessageHeader& h) { return h.tag >= 100; });
    ASSERT_TRUE(m);
    ++received;
  }
  for (auto& t : senders) t.join();
}

TEST(Socket, FullMeshRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "parade-socket-test").string();
  std::filesystem::create_directories(dir);

  constexpr int kNodes = 3;
  std::vector<std::unique_ptr<SocketFabric>> fabrics(kNodes);
  std::vector<std::thread> joiners;
  for (int r = 0; r < kNodes; ++r) {
    joiners.emplace_back([&, r] {
      auto fabric = SocketFabric::create(r, kNodes, dir);
      ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
      fabrics[static_cast<std::size_t>(r)] = std::move(fabric).value();
    });
  }
  for (auto& t : joiners) t.join();

  // Every node sends its rank to every other node.
  for (int r = 0; r < kNodes; ++r) {
    for (int peer = 0; peer < kNodes; ++peer) {
      if (peer == r) continue;
      ASSERT_TRUE(fabrics[static_cast<std::size_t>(r)]
                      ->send(peer, 55, {static_cast<std::uint8_t>(r)}, 1.5)
                      .is_ok());
    }
  }
  for (int r = 0; r < kNodes; ++r) {
    std::set<int> sources;
    for (int k = 0; k < kNodes - 1; ++k) {
      auto m = fabrics[static_cast<std::size_t>(r)]->inbox().recv_match(
          [](const MessageHeader& h) { return h.tag == 55; });
      ASSERT_TRUE(m);
      EXPECT_DOUBLE_EQ(m->header.vtime, 1.5);
      sources.insert(m->header.src);
    }
    EXPECT_EQ(sources.size(), static_cast<std::size_t>(kNodes - 1));
  }
  for (auto& fabric : fabrics) fabric->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(Socket, LargePayload) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "parade-socket-large").string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<SocketFabric> f0, f1;
  std::thread t0([&] { f0 = std::move(SocketFabric::create(0, 2, dir)).value(); });
  std::thread t1([&] { f1 = std::move(SocketFabric::create(1, 2, dir)).value(); });
  t0.join();
  t1.join();

  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  ASSERT_TRUE(f0->send(1, 77, big, 0.0).is_ok());
  auto m = f1->inbox().recv_match(
      [](const MessageHeader& h) { return h.tag == 77; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->payload, big);
  f0->shutdown();
  f1->shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace parade::net
