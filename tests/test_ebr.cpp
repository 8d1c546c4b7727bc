// Tests for the epoch-based reclamation domain.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ebr/ebr.hpp"

namespace wstm::ebr {
namespace {

std::atomic<int> g_freed{0};

struct Tracked {
  ~Tracked() { g_freed.fetch_add(1, std::memory_order_relaxed); }
};

class EbrTest : public ::testing::Test {
 protected:
  void SetUp() override { g_freed.store(0); }
};

TEST_F(EbrTest, RetireDefersUntilEpochsPass) {
  Domain domain;
  Handle h = domain.attach();
  h.pin();
  h.retire(new Tracked());
  EXPECT_EQ(g_freed.load(), 0);  // same epoch: must not free yet
  h.unpin();

  // Advance twice; the bin is only swept on reuse or collect, so push the
  // epoch and trigger another retire cycle.
  EXPECT_TRUE(domain.try_advance());
  EXPECT_TRUE(domain.try_advance());
  h.pin();
  h.retire(new Tracked());  // lands in a different bin
  h.unpin();
  EXPECT_TRUE(domain.try_advance());
  h.pin();
  h.retire(new Tracked());
  h.unpin();
  // First object was retired 3 epochs ago; its bin got reused and freed it.
  EXPECT_GE(g_freed.load(), 1);
}

TEST_F(EbrTest, PinnedThreadBlocksAdvance) {
  Domain domain;
  Handle a = domain.attach();
  Handle b = domain.attach();
  a.pin();
  EXPECT_TRUE(domain.try_advance());   // a observed the current epoch
  EXPECT_FALSE(domain.try_advance());  // now a is pinned one epoch behind
  a.unpin();
  EXPECT_TRUE(domain.try_advance());
  b.detach();
}

// The pinned-handle scan behind Runtime::shutdown's gate: it sees a pin in
// any shard, stops seeing it at unpin, and ignores detached handles.
TEST_F(EbrTest, AnyPinnedSeesEveryPinnedHandle) {
  Domain domain;
  EXPECT_FALSE(domain.any_pinned());
  std::vector<Handle> handles;
  for (int i = 0; i < 20; ++i) handles.push_back(domain.attach());
  EXPECT_FALSE(domain.any_pinned());
  for (Handle& h : handles) {
    h.pin();
    EXPECT_TRUE(domain.any_pinned());
    h.unpin();
    EXPECT_FALSE(domain.any_pinned());
  }
  handles.back().pin();
  handles.back().detach();  // detaching unpins
  EXPECT_FALSE(domain.any_pinned());
}

TEST_F(EbrTest, DetachMovesGarbageToOrphans) {
  {
    Domain domain;
    {
      Handle h = domain.attach();
      h.pin();
      h.retire(new Tracked());
      h.unpin();
      h.detach();
    }
    EXPECT_EQ(g_freed.load(), 0);  // parked as orphan
    domain.drain();
    EXPECT_EQ(g_freed.load(), 1);
  }
}

TEST_F(EbrTest, DomainDestructorFreesOrphans) {
  {
    Domain domain;
    Handle h = domain.attach();
    h.pin();
    h.retire(new Tracked());
    h.unpin();
    h.detach();
  }
  EXPECT_EQ(g_freed.load(), 1);
}

TEST_F(EbrTest, PendingCountsUnfreedRetirements) {
  Domain domain;
  Handle h = domain.attach();
  h.pin();
  h.retire(new Tracked());
  h.retire(new Tracked());
  EXPECT_EQ(h.pending(), 2u);
  h.unpin();
  h.detach();
  domain.drain();
  EXPECT_EQ(g_freed.load(), 2);
}

TEST_F(EbrTest, SlotsAreReusedAfterDetach) {
  Domain domain;
  std::vector<Handle> handles;
  for (unsigned i = 0; i < Domain::kMaxThreads; ++i) handles.push_back(domain.attach());
  EXPECT_THROW(domain.attach(), std::runtime_error);
  handles.pop_back();  // detaches one slot
  EXPECT_NO_THROW({ Handle h = domain.attach(); });
}

TEST_F(EbrTest, HandleMoveTransfersOwnership) {
  Domain domain;
  Handle a = domain.attach();
  a.pin();
  a.retire(new Tracked());
  a.unpin();
  Handle b = std::move(a);
  EXPECT_FALSE(a.attached());
  EXPECT_TRUE(b.attached());
  EXPECT_EQ(b.pending(), 1u);
}

// Stress: one writer repeatedly swaps a shared node and retires the old
// one; readers chase the pointer under a guard and must always observe a
// live object (checked via a magic field that the destructor poisons).
TEST_F(EbrTest, ConcurrentSwapAndReadStress) {
  struct MagicNode {
    std::atomic<std::uint64_t> magic{0xfeedfacecafebeefULL};
    ~MagicNode() { magic.store(0xdeadULL, std::memory_order_relaxed); }
  };

  Domain domain;
  std::atomic<MagicNode*> shared{new MagicNode()};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bad_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      Handle h = domain.attach();
      while (!stop.load(std::memory_order_acquire)) {
        Guard g(h);
        MagicNode* node = shared.load(std::memory_order_acquire);
        if (node->magic.load(std::memory_order_relaxed) != 0xfeedfacecafebeefULL) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread writer([&] {
    Handle h = domain.attach();
    for (int i = 0; i < 3000; ++i) {
      Guard g(h);
      MagicNode* fresh = new MagicNode();
      MagicNode* old = shared.exchange(fresh, std::memory_order_acq_rel);
      h.retire(old);
    }
    stop.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  delete shared.load();
}

}  // namespace
}  // namespace wstm::ebr
