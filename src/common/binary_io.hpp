#pragma once

#include <cstdint>
#include <fstream>
#include <vector>

#include "common/check.hpp"

namespace bnsgcn::io {

/// Raw-array (de)serialization helpers for the binary partition cache
/// format (partition/io.cpp). Little-endian, not portable across
/// endianness — local caching only, as partition/io.hpp documents.

template <typename T>
void write_pod(std::ofstream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  BNSGCN_CHECK_MSG(static_cast<bool>(is), "truncated file");
  return value;
}

template <typename T>
void write_vec(std::ofstream& os, const std::vector<T>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::ifstream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  std::vector<T> v(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  BNSGCN_CHECK_MSG(static_cast<bool>(is), "truncated file");
  return v;
}

} // namespace bnsgcn::io
