#pragma once

#include <cstdint>
#include <vector>

#include "hpack/dynamic_table.hpp"
#include "hpack/header.hpp"

namespace h2sim::hpack {

/// HPACK encoder: one per connection direction. Stateful (owns the encoding
/// dynamic table, 4096 bytes to start), so header blocks must be encoded in
/// transmission order. A string literal is Huffman-coded whenever that makes
/// it shorter; sensitive fields (authorization, cookies) are emitted
/// never-indexed (RFC 7541 §7.1.3).
class Encoder {
 public:
  /// Signals a table-size change; emitted as a dynamic table size update at
  /// the start of the next header block.
  void set_table_size(std::size_t size);

  /// Encodes one header block.
  std::vector<std::uint8_t> encode(const HeaderList& headers);

  const DynamicTable& table() const { return table_; }

 private:
  void encode_string(std::string_view s, std::vector<std::uint8_t>& out) const;
  static bool is_sensitive(std::string_view name);

  DynamicTable table_;
  bool pending_size_update_ = false;
  std::size_t pending_size_ = 0;
};

}  // namespace h2sim::hpack
