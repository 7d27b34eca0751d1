#include "dsm/diff.hpp"

#include <cstring>

#include "common/status.hpp"

namespace parade::dsm {
namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &value, 4);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t value;
  std::memcpy(&value, p, 4);
  return value;
}

bool word_changed(const std::uint8_t* current, const std::uint8_t* twin,
                  std::size_t word) {
  return read_u32(current + word * kDiffWordBytes) !=
         read_u32(twin + word * kDiffWordBytes);
}

/// The one run scanner both encoders share: calls emit(offset, length) for
/// each maximal run of changed 4-byte words, in page order.
template <typename Emit>
void for_each_run(const std::uint8_t* current, const std::uint8_t* twin,
                  std::size_t page_bytes, Emit&& emit) {
  PARADE_CHECK_MSG(page_bytes % kDiffWordBytes == 0,
                   "page size must be 4-byte aligned");
  const std::size_t words = page_bytes / kDiffWordBytes;
  std::size_t w = 0;
  while (w < words) {
    if (!word_changed(current, twin, w)) {
      ++w;
      continue;
    }
    const std::size_t start = w;
    while (w < words && word_changed(current, twin, w)) ++w;
    emit(static_cast<std::uint32_t>(start * kDiffWordBytes),
         static_cast<std::uint32_t>((w - start) * kDiffWordBytes));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_diff(const std::uint8_t* current,
                                      const std::uint8_t* twin,
                                      std::size_t page_bytes) {
  std::vector<std::uint8_t> out;
  for_each_run(current, twin, page_bytes,
               [&](std::uint32_t offset, std::uint32_t length) {
                 append_u32(out, offset);
                 append_u32(out, length);
                 const std::size_t at = out.size();
                 out.resize(at + length);
                 std::memcpy(out.data() + at, current + offset, length);
               });
  return out;
}

std::size_t append_diff(WireBuffer& out, const std::uint8_t* current,
                        const std::uint8_t* twin, std::size_t page_bytes) {
  const std::size_t count_at = out.reserve_u32();
  const std::size_t payload_start = out.size();
  for_each_run(current, twin, page_bytes,
               [&](std::uint32_t offset, std::uint32_t length) {
                 out.put(offset);
                 out.put(length);
                 out.put_bytes(current + offset, length);
               });
  const std::size_t diff_bytes = out.size() - payload_start;
  out.patch_u32(count_at, static_cast<std::uint32_t>(diff_bytes));
  return diff_bytes;
}

bool apply_diff(std::uint8_t* target, std::size_t page_bytes,
                const std::uint8_t* diff, std::size_t diff_bytes) {
  std::size_t pos = 0;
  while (pos < diff_bytes) {
    if (pos + 8 > diff_bytes) return false;
    const std::uint32_t offset = read_u32(diff + pos);
    const std::uint32_t length = read_u32(diff + pos + 4);
    pos += 8;
    if (length == 0 || pos + length > diff_bytes) return false;
    if (static_cast<std::size_t>(offset) + length > page_bytes) return false;
    std::memcpy(target + offset, diff + pos, length);
    pos += length;
  }
  return pos == diff_bytes;
}

std::size_t diff_payload_bytes(const std::uint8_t* diff,
                               std::size_t diff_bytes) {
  std::size_t total = 0;
  std::size_t pos = 0;
  while (pos + 8 <= diff_bytes) {
    const std::uint32_t length = read_u32(diff + pos + 4);
    total += length;
    pos += 8 + length;
  }
  return total;
}

}  // namespace parade::dsm
