#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/check.hpp"

namespace bnsgcn {

/// How a field's JSON key is written and read.
enum class Presence {
  kRequired, // always written; a reader throws when it is absent
  kOptional, // always written; absent (an older artifact) reads as default
  kCache,    // written only when a kCache field of the row is nonzero (a
             // halo cache ran); absent reads as default
};

struct NoRules {};

/// One entry of a struct's field table: the JSON key, the member, how the
/// key is written and read, and any further per-field rules the table's
/// walkers need (EpochBreakdown's cross-rank and replay rules). A table is
/// a std::tuple of entries in key order, declared beside its struct: the
/// JSON writer and reader — and for EpochBreakdown the cross-rank
/// reduction and the replay check — walk it instead of keeping their own
/// lists, so a new field costs one entry.
template <class S, class M, class Rules = NoRules>
struct Field {
  std::string_view key;
  M S::*member;
  Presence presence = Presence::kRequired;
  Rules rules{};
};

template <class S, class M, class Rules = NoRules>
constexpr Field<S, M, Rules> field(std::string_view key, M S::*member,
                                   Presence presence = Presence::kRequired,
                                   Rules rules = {}) {
  return {key, member, presence, rules};
}

/// Call f(entry) on every entry of `table`, in order.
template <class Table, class F>
constexpr void for_each_field(const Table& table, F&& f) {
  std::apply([&f](const auto&... entry) { (f(entry), ...); }, table);
}

namespace detail {
struct AnyMember {
  template <class T>
  operator T() const; // only named in unevaluated aggregate initializations
};
} // namespace detail

/// The member count of aggregate S. A static_assert beside a table compares
/// it with the table's size, so a member added without an entry fails to
/// compile.
template <class S, class... Init>
consteval std::size_t member_count() {
  if constexpr (requires { S{Init{}..., detail::AnyMember{}}; })
    return member_count<S, Init..., detail::AnyMember>();
  else
    return sizeof...(Init);
}

/// One enum's (value, name) list, walked in both directions: the name each
/// value is written as, and the value each name parses to. An enum's list
/// is returned by an `enum_names(E)` overload beside it, which the JSON
/// codec finds by argument-dependent lookup.
template <class E, std::size_t N>
struct EnumNames {
  const char* what; // "model kind": a bad name reads "unknown model kind: x"
  std::pair<E, const char*> names[N];

  [[nodiscard]] constexpr const char* name(E e) const {
    for (const auto& [value, spelling] : names)
      if (value == e) return spelling;
    return names[0].second;
  }
  [[nodiscard]] E parse(const std::string& s) const {
    for (const auto& [value, spelling] : names)
      if (s == spelling) return value;
    BNSGCN_CHECK_MSG(false, "unknown " + std::string(what) + ": " + s);
    return names[0].first;
  }
};

} // namespace bnsgcn
