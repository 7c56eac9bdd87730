#pragma once

#include <cstddef>
#include <deque>
#include <string_view>

#include "hpack/header.hpp"

namespace h2sim::hpack {

/// RFC 7541 §2.3.2 dynamic table: FIFO of recently inserted fields with a
/// byte-size budget. Index 1 is the most recently inserted entry (the full
/// HPACK index space maps it to static_table::kEntries + 1).
class DynamicTable {
 public:
  explicit DynamicTable(std::size_t max_size = 4096) : max_size_(max_size) {}

  /// Inserts at the head, evicting from the tail until within budget. An
  /// entry larger than the whole budget empties the table (per spec).
  void insert(HeaderField field);

  /// Table size update (SETTINGS_HEADER_TABLE_SIZE / dynamic table size
  /// update instruction). Evicts as needed.
  void set_max_size(std::size_t max_size);

  const HeaderField& at(std::size_t index) const;  // 1-based, 1 = newest

  /// Finds a match; returns 1-based dynamic index or 0.
  struct Match {
    std::size_t index = 0;
    bool value_matched = false;
  };
  Match find(std::string_view name, std::string_view value) const;

  std::size_t entry_count() const { return entries_.size(); }
  std::size_t max_size() const { return max_size_; }

 private:
  void evict_to(std::size_t budget);

  std::deque<HeaderField> entries_;  // front = newest
  std::size_t size_ = 0;
  std::size_t max_size_;
};

}  // namespace h2sim::hpack
