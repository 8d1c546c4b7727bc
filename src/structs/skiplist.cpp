#include "structs/skiplist.hpp"

namespace wstm::structs {

SkipList::SkipList() : head_(NodeData{}) {}

SkipList::~SkipList() {
  if (!owns_nodes_) return;
  const NodeData* hd = head_.peek();
  Node* n = hd->next[0];
  while (n != nullptr) {
    Node* next = n->peek()->next[0];
    delete n;
    n = next;
  }
}

int SkipList::random_height(Xoshiro256& rng) {
  int h = 1;
  while (h < kMaxLevel && (rng() & 1ULL) != 0) ++h;
  return h;
}

SkipList::Search SkipList::locate(stm::Tx& tx, long key) {
  Search s;
  Node* pred = &head_;
  const NodeData* pred_data = head_.open_read(tx);
  for (int level = kMaxLevel - 1; level >= 0; --level) {
    Node* curr = pred_data->next[static_cast<std::size_t>(level)];
    while (curr != nullptr) {
      const NodeData* curr_data = curr->open_read(tx);
      if (curr_data->key >= key) {
        if (curr_data->key == key) s.found = curr;
        break;
      }
      pred = curr;
      pred_data = curr_data;
      curr = curr_data->next[static_cast<std::size_t>(level)];
    }
    s.preds[static_cast<std::size_t>(level)] = pred;
    s.pred_data[static_cast<std::size_t>(level)] = pred_data;
  }
  return s;
}

bool SkipList::insert(stm::Tx& tx, long key) {
  Search s = locate(tx, key);
  if (s.found != nullptr) return false;

  const int height = random_height(tx.rng());
  NodeData fresh;
  fresh.key = key;
  fresh.height = height;
  for (int l = 0; l < height; ++l) {
    fresh.next[static_cast<std::size_t>(l)] =
        s.pred_data[static_cast<std::size_t>(l)]->next[static_cast<std::size_t>(l)];
  }
  Node* node = tx.make<Node>(fresh);
  for (int l = 0; l < height; ++l) {
    // open_write is idempotent within a transaction: towers sharing a
    // predecessor mutate the same private clone.
    s.preds[static_cast<std::size_t>(l)]->open_write(tx)->next[static_cast<std::size_t>(l)] =
        node;
  }
  return true;
}

bool SkipList::remove(stm::Tx& tx, long key) {
  Search s = locate(tx, key);
  if (s.found == nullptr) return false;
  const NodeData* victim = s.found->open_write(tx);
  for (int l = 0; l < victim->height; ++l) {
    NodeData* pred = s.preds[static_cast<std::size_t>(l)]->open_write(tx);
    // The predecessor at this level links to the victim unless the victim
    // is taller than where the search path last descended; linking is
    // re-checked against the clone to stay correct in every interleaving
    // of same-transaction writes.
    if (pred->next[static_cast<std::size_t>(l)] == s.found) {
      pred->next[static_cast<std::size_t>(l)] = victim->next[static_cast<std::size_t>(l)];
    }
  }
  tx.retire_on_commit(s.found);
  return true;
}

bool SkipList::contains(stm::Tx& tx, long key) {
  Search s = locate(tx, key);
  return s.found != nullptr;
}

std::vector<long> SkipList::quiescent_elements() const {
  std::vector<long> out;
  const Node* n = head_.peek()->next[0];
  while (n != nullptr) {
    const NodeData* d = n->peek();
    out.push_back(d->key);
    n = d->next[0];
  }
  return out;
}

}  // namespace wstm::structs
