#include "structs/intset_list.hpp"

namespace wstm::structs {

IntSetList::IntSetList() : head_(NodeData{LONG_MIN, nullptr}) {}

IntSetList::~IntSetList() {
  // Quiescent teardown: walk the committed chain and free every node.
  if (!owns_nodes_) return;
  const auto* hd = head_.peek();
  Node* n = hd->next;
  while (n != nullptr) {
    Node* next = n->peek()->next;
    delete n;
    n = next;
  }
}

IntSetList::Cursor IntSetList::locate(stm::Tx& tx, long key) {
  Node* prev = &head_;
  const NodeData* prev_data = head_.open_read(tx);
  Node* curr = prev_data->next;
  const NodeData* curr_data = nullptr;
  while (curr != nullptr) {
    curr_data = curr->open_read(tx);
    if (curr_data->key >= key) break;
    prev = curr;
    prev_data = curr_data;
    curr = curr_data->next;
    curr_data = nullptr;
  }
  return Cursor{prev, prev_data, curr, curr_data};
}

bool IntSetList::insert(stm::Tx& tx, long key) {
  Cursor c = locate(tx, key);
  if (c.curr != nullptr && c.curr_data->key == key) return false;
  Node* node = tx.make<Node>(NodeData{key, c.curr});
  c.prev->open_write(tx)->next = node;
  return true;
}

bool IntSetList::remove(stm::Tx& tx, long key) {
  Cursor c = locate(tx, key);
  if (c.curr == nullptr || c.curr_data->key != key) return false;
  // Open the victim for writing too: concurrent operations that hold it in
  // their read/write sets conflict here instead of vanishing silently.
  const NodeData* victim = c.curr->open_write(tx);
  c.prev->open_write(tx)->next = victim->next;
  tx.retire_on_commit(c.curr);
  return true;
}

bool IntSetList::contains(stm::Tx& tx, long key) {
  Cursor c = locate(tx, key);
  return c.curr != nullptr && c.curr_data->key == key;
}

std::vector<long> IntSetList::quiescent_elements() const {
  std::vector<long> out;
  const Node* n = head_.peek()->next;
  while (n != nullptr) {
    const NodeData* d = n->peek();
    out.push_back(d->key);
    n = d->next;
  }
  return out;
}

}  // namespace wstm::structs
