#include "hpack/encoder.hpp"

#include "hpack/huffman.hpp"
#include "hpack/integer.hpp"
#include "hpack/static_table.hpp"

namespace h2sim::hpack {

void Encoder::set_table_size(std::size_t size) {
  table_.set_max_size(size);
  pending_size_update_ = true;
  pending_size_ = size;
}

bool Encoder::is_sensitive(std::string_view name) {
  return name == "authorization" || name == "proxy-authorization" ||
         name == "cookie" || name == "set-cookie";
}

void Encoder::encode_string(std::string_view s, std::vector<std::uint8_t>& out) const {
  const std::size_t hsize = huffman::encoded_size(s);
  if (hsize < s.size()) {
    encode_integer(hsize, 7, 0x80, out);
    std::string enc;
    enc.reserve(hsize);
    huffman::encode(s, enc);
    out.insert(out.end(), enc.begin(), enc.end());
    return;
  }
  encode_integer(s.size(), 7, 0x00, out);
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> Encoder::encode(const HeaderList& headers) {
  std::vector<std::uint8_t> out;
  if (pending_size_update_) {
    encode_integer(pending_size_, 5, 0x20, out);
    pending_size_update_ = false;
  }

  for (const HeaderField& f : headers) {
    // 1. Fully indexed representation when a complete match exists.
    const auto sm = static_table::find(f.name, f.value);
    if (sm.index != 0 && sm.value_matched) {
      encode_integer(sm.index, 7, 0x80, out);
      continue;
    }
    const auto dm = table_.find(f.name, f.value);
    if (dm.index != 0 && dm.value_matched) {
      encode_integer(static_table::kEntries + dm.index, 7, 0x80, out);
      continue;
    }

    // 2. Literal. Sensitive fields are never indexed; the rest enter the
    //    dynamic table (incremental indexing).
    const bool sensitive = is_sensitive(f.name);
    std::size_t name_index = 0;
    if (sm.index != 0) {
      name_index = sm.index;
    } else if (dm.index != 0) {
      name_index = static_table::kEntries + dm.index;
    }

    if (sensitive) {
      encode_integer(name_index, 4, 0x10, out);
    } else {
      encode_integer(name_index, 6, 0x40, out);
    }
    if (name_index == 0) encode_string(f.name, out);
    encode_string(f.value, out);
    if (!sensitive) table_.insert(f);
  }
  return out;
}

}  // namespace h2sim::hpack
