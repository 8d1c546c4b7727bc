// Transactional red-black tree (the paper's RBTree benchmark; also the
// table substrate for Vacation, as in STAMP).
//
// The algorithm is the classic null-children/parent-pointer variant (as in
// java.util.TreeMap / CLR): no sentinel node, colorOf(null) = black. Every
// node is a TObject; reads always re-open (open_read after an own
// open_write returns the private clone, so a transaction sees its own
// writes), rotations and recolorings open the touched nodes for writing.
//
// RBMapT is generic over the value type V (copy-constructible — values are
// cloned with their node). RBMap = RBMapT<long> is explicitly instantiated
// in rbtree.cpp.
#pragma once

#include <climits>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "structs/intset.hpp"

namespace wstm::structs {

/// Transactional ordered map<long, V>.
template <typename V>
class RBMapT {
 public:
  RBMapT() : root_(RootData{}) {}
  ~RBMapT() {
    if (owns_nodes) free_subtree(root_.peek()->root);
  }
  RBMapT(const RBMapT&) = delete;
  RBMapT& operator=(const RBMapT&) = delete;

  /// False when a checker's runtime frees the nodes (TxIntSet::disown_nodes).
  bool owns_nodes = true;

  /// Inserts key->value; returns false (and changes nothing) if present.
  bool insert(stm::Tx& tx, long key, V value);
  /// Replaces the value of an existing key; returns false if absent.
  bool update(stm::Tx& tx, long key, V value);
  /// Removes key; returns false if absent.
  bool erase(stm::Tx& tx, long key);
  std::optional<V> get(stm::Tx& tx, long key);
  bool contains(stm::Tx& tx, long key) { return find(tx, key) != nullptr; }

  /// Opens the node of `key` for writing and returns its value slot for
  /// in-place mutation; null if absent.
  V* get_for_update(stm::Tx& tx, long key);

  /// In-order entries, unsynchronized — quiescence only.
  std::vector<std::pair<long, V>> quiescent_entries() const;

  /// Checks BST order, red-red freedom, black-height balance and parent
  /// links at quiescence. On failure stores a diagnostic in `why`.
  bool quiescent_invariants_ok(std::string* why = nullptr) const;

 private:
  struct NodeData;
  using Node = stm::TObject<NodeData>;

  struct NodeData {
    long key = 0;
    V value{};
    bool red = false;
    Node* left = nullptr;
    Node* right = nullptr;
    Node* parent = nullptr;
  };

  struct RootData {
    Node* root = nullptr;
  };

  // Fresh-open helpers (never cache across writes).
  static const NodeData* rd(stm::Tx& tx, Node* n) { return n->open_read(tx); }
  static NodeData* wr(stm::Tx& tx, Node* n) { return n->open_write(tx); }

  Node* root_node(stm::Tx& tx) { return root_.open_read(tx)->root; }
  void set_root(stm::Tx& tx, Node* n) { root_.open_write(tx)->root = n; }

  Node* parent_of(stm::Tx& tx, Node* n) { return n != nullptr ? rd(tx, n)->parent : nullptr; }
  Node* left_of(stm::Tx& tx, Node* n) { return n != nullptr ? rd(tx, n)->left : nullptr; }
  Node* right_of(stm::Tx& tx, Node* n) { return n != nullptr ? rd(tx, n)->right : nullptr; }
  bool is_red(stm::Tx& tx, Node* n) { return n != nullptr && rd(tx, n)->red; }
  void set_color(stm::Tx& tx, Node* n, bool red) {
    if (n != nullptr && rd(tx, n)->red != red) wr(tx, n)->red = red;
  }

  Node* find(stm::Tx& tx, long key);
  Node* successor(stm::Tx& tx, Node* n);
  void rotate_left(stm::Tx& tx, Node* p);
  void rotate_right(stm::Tx& tx, Node* p);
  void fix_after_insertion(stm::Tx& tx, Node* x);
  void fix_after_deletion(stm::Tx& tx, Node* x);
  void delete_entry(stm::Tx& tx, Node* p);

  static void free_subtree(Node* n) {
    if (n == nullptr) return;
    const NodeData* d = n->peek();
    free_subtree(d->left);
    free_subtree(d->right);
    delete n;
  }

  stm::TObject<RootData> root_;
};

using RBMap = RBMapT<long>;

/// TxIntSet adapter over RBMap (value = key).
class RBTreeSet final : public TxIntSet {
 public:
  ~RBTreeSet() override { map_.owns_nodes = owns_nodes_; }
  bool insert(stm::Tx& tx, long key) override { return map_.insert(tx, key, key); }
  bool remove(stm::Tx& tx, long key) override { return map_.erase(tx, key); }
  bool contains(stm::Tx& tx, long key) override { return map_.contains(tx, key); }
  std::vector<long> quiescent_elements() const override;
  std::string kind() const override { return "rbtree"; }

  RBMap& map() noexcept { return map_; }
  const RBMap& map() const noexcept { return map_; }

 private:
  RBMap map_;
};

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

template <typename V>
typename RBMapT<V>::Node* RBMapT<V>::find(stm::Tx& tx, long key) {
  Node* p = root_node(tx);
  while (p != nullptr) {
    const NodeData* d = rd(tx, p);
    if (key < d->key) {
      p = d->left;
    } else if (key > d->key) {
      p = d->right;
    } else {
      return p;
    }
  }
  return nullptr;
}

template <typename V>
std::optional<V> RBMapT<V>::get(stm::Tx& tx, long key) {
  Node* p = find(tx, key);
  if (p == nullptr) return std::nullopt;
  return rd(tx, p)->value;
}

template <typename V>
bool RBMapT<V>::update(stm::Tx& tx, long key, V value) {
  Node* p = find(tx, key);
  if (p == nullptr) return false;
  wr(tx, p)->value = std::move(value);
  return true;
}

template <typename V>
V* RBMapT<V>::get_for_update(stm::Tx& tx, long key) {
  Node* p = find(tx, key);
  if (p == nullptr) return nullptr;
  return &wr(tx, p)->value;
}

template <typename V>
bool RBMapT<V>::insert(stm::Tx& tx, long key, V value) {
  Node* t = root_node(tx);
  if (t == nullptr) {
    Node* n = tx.make<Node>(
        NodeData{key, std::move(value), /*red=*/false, nullptr, nullptr, nullptr});
    set_root(tx, n);
    return true;
  }
  Node* parent;
  for (;;) {
    const NodeData* d = rd(tx, t);
    parent = t;
    if (key < d->key) {
      t = d->left;
    } else if (key > d->key) {
      t = d->right;
    } else {
      return false;  // present
    }
    if (t == nullptr) break;
  }
  Node* n =
      tx.make<Node>(NodeData{key, std::move(value), /*red=*/true, nullptr, nullptr, parent});
  NodeData* pd = wr(tx, parent);
  if (key < pd->key) {
    pd->left = n;
  } else {
    pd->right = n;
  }
  fix_after_insertion(tx, n);
  return true;
}

template <typename V>
typename RBMapT<V>::Node* RBMapT<V>::successor(stm::Tx& tx, Node* n) {
  Node* r = right_of(tx, n);
  if (r != nullptr) {
    Node* p = r;
    for (Node* l = left_of(tx, p); l != nullptr; l = left_of(tx, p)) p = l;
    return p;
  }
  Node* p = parent_of(tx, n);
  Node* ch = n;
  while (p != nullptr && ch == right_of(tx, p)) {
    ch = p;
    p = parent_of(tx, p);
  }
  return p;
}

template <typename V>
void RBMapT<V>::rotate_left(stm::Tx& tx, Node* p) {
  Node* r = right_of(tx, p);
  Node* rl = left_of(tx, r);
  wr(tx, p)->right = rl;
  if (rl != nullptr) wr(tx, rl)->parent = p;
  Node* gp = parent_of(tx, p);
  wr(tx, r)->parent = gp;
  if (gp == nullptr) {
    set_root(tx, r);
  } else if (left_of(tx, gp) == p) {
    wr(tx, gp)->left = r;
  } else {
    wr(tx, gp)->right = r;
  }
  wr(tx, r)->left = p;
  wr(tx, p)->parent = r;
}

template <typename V>
void RBMapT<V>::rotate_right(stm::Tx& tx, Node* p) {
  Node* l = left_of(tx, p);
  Node* lr = right_of(tx, l);
  wr(tx, p)->left = lr;
  if (lr != nullptr) wr(tx, lr)->parent = p;
  Node* gp = parent_of(tx, p);
  wr(tx, l)->parent = gp;
  if (gp == nullptr) {
    set_root(tx, l);
  } else if (right_of(tx, gp) == p) {
    wr(tx, gp)->right = l;
  } else {
    wr(tx, gp)->left = l;
  }
  wr(tx, l)->right = p;
  wr(tx, p)->parent = l;
}

template <typename V>
void RBMapT<V>::fix_after_insertion(stm::Tx& tx, Node* x) {
  set_color(tx, x, true);
  while (x != nullptr && x != root_node(tx) && is_red(tx, parent_of(tx, x))) {
    Node* xp = parent_of(tx, x);
    Node* xpp = parent_of(tx, xp);
    if (xp == left_of(tx, xpp)) {
      Node* y = right_of(tx, xpp);
      if (is_red(tx, y)) {
        set_color(tx, xp, false);
        set_color(tx, y, false);
        set_color(tx, xpp, true);
        x = xpp;
      } else {
        if (x == right_of(tx, xp)) {
          x = xp;
          rotate_left(tx, x);
        }
        Node* xp2 = parent_of(tx, x);
        set_color(tx, xp2, false);
        Node* xpp2 = parent_of(tx, xp2);
        set_color(tx, xpp2, true);
        if (xpp2 != nullptr) rotate_right(tx, xpp2);
      }
    } else {
      Node* y = left_of(tx, xpp);
      if (is_red(tx, y)) {
        set_color(tx, xp, false);
        set_color(tx, y, false);
        set_color(tx, xpp, true);
        x = xpp;
      } else {
        if (x == left_of(tx, xp)) {
          x = xp;
          rotate_right(tx, x);
        }
        Node* xp2 = parent_of(tx, x);
        set_color(tx, xp2, false);
        Node* xpp2 = parent_of(tx, xp2);
        set_color(tx, xpp2, true);
        if (xpp2 != nullptr) rotate_left(tx, xpp2);
      }
    }
  }
  set_color(tx, root_node(tx), false);
}

template <typename V>
bool RBMapT<V>::erase(stm::Tx& tx, long key) {
  Node* p = find(tx, key);
  if (p == nullptr) return false;
  delete_entry(tx, p);
  return true;
}

template <typename V>
void RBMapT<V>::delete_entry(stm::Tx& tx, Node* p) {
  // Internal node: copy the successor's entry, then unlink the successor.
  if (left_of(tx, p) != nullptr && right_of(tx, p) != nullptr) {
    Node* s = successor(tx, p);
    const NodeData* sd = rd(tx, s);
    const long skey = sd->key;
    V sval = sd->value;
    NodeData* pd = wr(tx, p);
    pd->key = skey;
    pd->value = std::move(sval);
    p = s;
  }

  Node* replacement = left_of(tx, p) != nullptr ? left_of(tx, p) : right_of(tx, p);
  if (replacement != nullptr) {
    Node* pp = parent_of(tx, p);
    wr(tx, replacement)->parent = pp;
    if (pp == nullptr) {
      set_root(tx, replacement);
    } else if (p == left_of(tx, pp)) {
      wr(tx, pp)->left = replacement;
    } else {
      wr(tx, pp)->right = replacement;
    }
    const bool p_black = !is_red(tx, p);
    {
      NodeData* pd = wr(tx, p);
      pd->left = pd->right = pd->parent = nullptr;
    }
    if (p_black) fix_after_deletion(tx, replacement);
  } else if (parent_of(tx, p) == nullptr) {
    set_root(tx, nullptr);  // only node
  } else {
    // No children: p itself is the phantom replacement during fixup.
    if (!is_red(tx, p)) fix_after_deletion(tx, p);
    Node* pp = parent_of(tx, p);
    if (pp != nullptr) {
      NodeData* ppd = wr(tx, pp);
      if (ppd->left == p) {
        ppd->left = nullptr;
      } else if (ppd->right == p) {
        ppd->right = nullptr;
      }
      wr(tx, p)->parent = nullptr;
    }
  }
  tx.retire_on_commit(p);
}

template <typename V>
void RBMapT<V>::fix_after_deletion(stm::Tx& tx, Node* x) {
  while (x != root_node(tx) && !is_red(tx, x)) {
    Node* xp = parent_of(tx, x);
    if (x == left_of(tx, xp)) {
      Node* sib = right_of(tx, xp);
      if (is_red(tx, sib)) {
        set_color(tx, sib, false);
        set_color(tx, xp, true);
        rotate_left(tx, xp);
        xp = parent_of(tx, x);
        sib = right_of(tx, xp);
      }
      if (!is_red(tx, left_of(tx, sib)) && !is_red(tx, right_of(tx, sib))) {
        set_color(tx, sib, true);
        x = xp;
      } else {
        if (!is_red(tx, right_of(tx, sib))) {
          set_color(tx, left_of(tx, sib), false);
          set_color(tx, sib, true);
          rotate_right(tx, sib);
          xp = parent_of(tx, x);
          sib = right_of(tx, xp);
        }
        set_color(tx, sib, is_red(tx, xp));
        set_color(tx, xp, false);
        set_color(tx, right_of(tx, sib), false);
        rotate_left(tx, xp);
        x = root_node(tx);
      }
    } else {
      Node* sib = left_of(tx, xp);
      if (is_red(tx, sib)) {
        set_color(tx, sib, false);
        set_color(tx, xp, true);
        rotate_right(tx, xp);
        xp = parent_of(tx, x);
        sib = left_of(tx, xp);
      }
      if (!is_red(tx, right_of(tx, sib)) && !is_red(tx, left_of(tx, sib))) {
        set_color(tx, sib, true);
        x = xp;
      } else {
        if (!is_red(tx, left_of(tx, sib))) {
          set_color(tx, right_of(tx, sib), false);
          set_color(tx, sib, true);
          rotate_left(tx, sib);
          xp = parent_of(tx, x);
          sib = left_of(tx, xp);
        }
        set_color(tx, sib, is_red(tx, xp));
        set_color(tx, xp, false);
        set_color(tx, left_of(tx, sib), false);
        rotate_right(tx, xp);
        x = root_node(tx);
      }
    }
  }
  set_color(tx, x, false);
}

template <typename V>
std::vector<std::pair<long, V>> RBMapT<V>::quiescent_entries() const {
  std::vector<std::pair<long, V>> out;
  std::function<void(const Node*)> walk = [&](const Node* n) {
    if (n == nullptr) return;
    const NodeData* d = n->peek();
    walk(d->left);
    out.emplace_back(d->key, d->value);
    walk(d->right);
  };
  walk(root_.peek()->root);
  return out;
}

template <typename V>
bool RBMapT<V>::quiescent_invariants_ok(std::string* why) const {
  const Node* root = root_.peek()->root;
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (root == nullptr) return true;
  if (root->peek()->red) return fail("root is red");
  if (root->peek()->parent != nullptr) return fail("root has a parent");

  bool ok = true;
  std::string reason;
  // Returns the black height of the subtree, -1 on violation.
  std::function<int(const Node*, long, long)> check = [&](const Node* n, long lo,
                                                          long hi) -> int {
    if (n == nullptr) return 1;
    const NodeData* d = n->peek();
    if ((lo != LONG_MIN && d->key <= lo) || (hi != LONG_MAX && d->key >= hi)) {
      ok = false;
      reason = "BST order violated at key " + std::to_string(d->key);
      return -1;
    }
    if (d->red) {
      const bool left_red = d->left != nullptr && d->left->peek()->red;
      const bool right_red = d->right != nullptr && d->right->peek()->red;
      if (left_red || right_red) {
        ok = false;
        reason = "red-red violation at key " + std::to_string(d->key);
        return -1;
      }
    }
    if (d->left != nullptr && d->left->peek()->parent != n) {
      ok = false;
      reason = "bad parent link (left) at key " + std::to_string(d->key);
      return -1;
    }
    if (d->right != nullptr && d->right->peek()->parent != n) {
      ok = false;
      reason = "bad parent link (right) at key " + std::to_string(d->key);
      return -1;
    }
    const int bl = check(d->left, lo, d->key);
    const int br = check(d->right, d->key, hi);
    if (bl < 0 || br < 0) return -1;
    if (bl != br) {
      ok = false;
      reason = "black-height mismatch at key " + std::to_string(d->key);
      return -1;
    }
    return bl + (d->red ? 0 : 1);
  };
  check(root, LONG_MIN, LONG_MAX);
  if (!ok) return fail(reason);
  return true;
}

extern template class RBMapT<long>;

}  // namespace wstm::structs
