// Common interface for the transactional integer-set benchmarks (List,
// RBTree, SkipList — paper Section III). Operations run inside a caller-
// provided transaction so one benchmark transaction can batch several
// operations (as Vacation does with its map).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stm/runtime.hpp"

namespace wstm::structs {

class TxIntSet {
 public:
  virtual ~TxIntSet() = default;

  /// Inserts `key`; returns false if it was already present.
  virtual bool insert(stm::Tx& tx, long key) = 0;
  /// Removes `key`; returns false if it was absent.
  virtual bool remove(stm::Tx& tx, long key) = 0;
  /// Membership test.
  virtual bool contains(stm::Tx& tx, long key) = 0;

  /// Sorted contents, read without synchronization — only valid at
  /// quiescence (tests and benchmark validation).
  virtual std::vector<long> quiescent_elements() const = 0;

  virtual std::string kind() const = 0;

  /// Leaves the nodes to the runtime: the destructor then frees none. A
  /// runtime under the deterministic checker frees every committed node
  /// itself, including those a seeded bug's lost update orphans.
  void disown_nodes() noexcept { owns_nodes_ = false; }

 protected:
  bool owns_nodes_ = true;
};

/// Factory: kind is "list", "rbtree", "skiplist" or "hashtable" (extension).
std::unique_ptr<TxIntSet> make_intset(const std::string& kind);

}  // namespace wstm::structs
