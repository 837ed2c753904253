// prefix_trie.h - binary (Patricia-style, one bit per level) trie keyed by
// IPv6 prefixes, supporting exact insert/lookup and longest-prefix match.
//
// Used as the forwarding/attribution substrate everywhere an address must be
// mapped to its covering prefix: the simulated Internet's route table, and
// the Routeviews-substitute BGP table that turns response addresses into
// <BGP prefix, origin ASN> pairs for Figure 7 and Table 2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "netbase/prefix.h"

namespace scent::routing {

/// A compact binary trie mapping Prefix -> T. One node per bit keeps the
/// implementation obviously correct; IPv6 routing prefixes are <= 64 bits in
/// this system so depth is bounded and lookups are cheap.
template <typename T>
class PrefixTrie {
 public:
  PrefixTrie() : root_(std::make_unique<Node>()) {}

  /// Inserts or replaces the value at `prefix`. Returns true if a new entry
  /// was created, false if an existing one was replaced.
  bool insert(const net::Prefix& prefix, T value) {
    Node* node = root_.get();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const bool bit = prefix.base().bits().bit(127 - depth);
      auto& child = bit ? node->one : node->zero;
      if (!child) child = std::make_unique<Node>();
      node = child.get();
    }
    const bool created = !node->value.has_value();
    node->value = std::move(value);
    if (created) ++size_;
    return created;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* find(const net::Prefix& prefix) const {
    const Node* node = root_.get();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const bool bit = prefix.base().bits().bit(127 - depth);
      const auto& child = bit ? node->one : node->zero;
      if (!child) return nullptr;
      node = child.get();
    }
    return node->value ? &*node->value : nullptr;
  }

  /// Longest-prefix match for an address: the value on the deepest node
  /// along the address's bit path that holds one, together with the matched
  /// prefix.
  struct Match {
    net::Prefix prefix;
    const T* value = nullptr;
  };

  [[nodiscard]] std::optional<Match> longest_match(
      net::Ipv6Address addr) const {
    unsigned bits_read = 0;
    return longest_match(addr, bits_read);
  }

  /// Same, also reporting in `bits_read` how many leading bits of `addr`
  /// the walk examined. The walk branches only on those bits, so every
  /// address that agrees with `addr` on them takes the same path and gets
  /// the same match — even when more-specific routes nest below it. That
  /// makes (leading bits, bits_read) an exact cache key for the result.
  [[nodiscard]] std::optional<Match> longest_match(net::Ipv6Address addr,
                                                   unsigned& bits_read) const {
    const Node* node = root_.get();
    std::optional<Match> best;
    unsigned depth = 0;
    for (;;) {
      if (node->value) {
        best = Match{net::Prefix{addr, depth}, &*node->value};
      }
      if (depth == 128) {
        bits_read = 128;
        break;
      }
      const bool bit = addr.bits().bit(127 - depth);
      const auto& child = bit ? node->one : node->zero;
      if (!child) {
        bits_read = depth + 1;
        break;
      }
      node = child.get();
      ++depth;
    }
    return best;
  }

  /// Removes the entry at `prefix` (its subtree is retained: children may
  /// hold more-specific routes). Returns true if an entry was removed.
  bool erase(const net::Prefix& prefix) {
    Node* node = root_.get();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      const bool bit = prefix.base().bits().bit(127 - depth);
      auto& child = bit ? node->one : node->zero;
      if (!child) return false;
      node = child.get();
    }
    if (!node->value) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Visits every <prefix, value> entry in lexicographic prefix order.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    visit_node(root_.get(), net::Uint128{}, 0, visit);
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

 private:
  struct Node {
    std::optional<T> value;
    std::unique_ptr<Node> zero;
    std::unique_ptr<Node> one;
  };

  template <typename Visitor>
  static void visit_node(const Node* node, net::Uint128 bits, unsigned depth,
                         Visitor& visit) {
    if (node->value) {
      visit(net::Prefix{net::Ipv6Address{bits}, depth}, *node->value);
    }
    if (depth == 128) return;
    if (node->zero) visit_node(node->zero.get(), bits, depth + 1, visit);
    if (node->one) {
      visit_node(node->one.get(),
                 bits | (net::Uint128{1} << (127 - depth)), depth + 1, visit);
    }
  }

  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace scent::routing
