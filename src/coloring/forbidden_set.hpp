#pragma once
/// \file forbidden_set.hpp
/// \brief First-fit forbidden-color set shared by the distance-1 and
/// distance-2 colorings (internal header).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hpp"

namespace parmis::coloring::detail {

/// Stamp-based set of forbidden colors: `begin()` empties it in O(1).
/// Callers `ensure` room for every color they forbid (n + 1 covers any
/// first-fit coloring of n vertices).
class ForbiddenSet {
 public:
  void ensure(std::size_t max_colors) {
    if (stamp_of_.size() < max_colors) stamp_of_.assign(max_colors, 0);
  }
  void begin() { ++stamp_; }
  /// Forbid color `c`; `invalid_ordinal` (an uncolored neighbor) is skipped.
  void forbid(ordinal_t c) {
    if (c != invalid_ordinal) stamp_of_[static_cast<std::size_t>(c)] = stamp_;
  }
  [[nodiscard]] ordinal_t first_allowed() const { return nth_allowed(0); }

  /// The (k+1)-th smallest color not in the forbidden set. Used by the
  /// windowed speculation of the distance-2 coloring: spreading
  /// speculators over several allowed colors instead of all picking the
  /// same first-fit color keeps the per-round conflict sets small on dense
  /// graphs.
  [[nodiscard]] ordinal_t nth_allowed(ordinal_t k) const {
    ordinal_t c = 0;
    for (;;) {
      const bool forbidden = static_cast<std::size_t>(c) < stamp_of_.size() &&
                             stamp_of_[static_cast<std::size_t>(c)] == stamp_;
      if (!forbidden) {
        if (k == 0) return c;
        --k;
      }
      ++c;
    }
  }

 private:
  std::vector<std::uint64_t> stamp_of_;
  std::uint64_t stamp_{0};
};

}  // namespace parmis::coloring::detail
