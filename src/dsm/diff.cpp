#include "dsm/diff.hpp"

#include <cstring>

#include "common/status.hpp"

namespace parade::dsm {
namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t value;
  std::memcpy(&value, p, 4);
  return value;
}

std::uint16_t read_u16(const std::uint8_t* p) {
  std::uint16_t value;
  std::memcpy(&value, p, 2);
  return value;
}

bool word_changed(const std::uint8_t* current, const std::uint8_t* twin,
                  std::size_t word) {
  return read_u32(current + word * kDiffWordBytes) !=
         read_u32(twin + word * kDiffWordBytes);
}

/// The one run scanner both encoders share: calls emit(first word, word
/// count) for each maximal run of changed 4-byte words (split every
/// kMaxRunWords), in page order.
template <typename Emit>
void for_each_run(const std::uint8_t* current, const std::uint8_t* twin,
                  std::size_t page_bytes, Emit&& emit) {
  PARADE_CHECK_MSG(page_bytes % kDiffWordBytes == 0,
                   "page size must be 4-byte aligned");
  PARADE_CHECK_MSG(page_bytes <= kMaxDiffPageBytes,
                   "page size exceeds the diff run header's reach");
  const std::size_t words = page_bytes / kDiffWordBytes;
  std::size_t w = 0;
  while (w < words) {
    if (!word_changed(current, twin, w)) {
      ++w;
      continue;
    }
    const std::size_t start = w;
    while (w < words && w - start < kMaxRunWords &&
           word_changed(current, twin, w)) {
      ++w;
    }
    emit(static_cast<std::uint16_t>(start),
         static_cast<std::uint16_t>(w - start));
  }
}

}  // namespace

std::vector<std::uint8_t> encode_diff(const std::uint8_t* current,
                                      const std::uint8_t* twin,
                                      std::size_t page_bytes) {
  std::vector<std::uint8_t> out;
  for_each_run(current, twin, page_bytes,
               [&](std::uint16_t first, std::uint16_t words) {
                 const std::size_t length = words * kDiffWordBytes;
                 const std::size_t at = out.size();
                 out.resize(at + kDiffRunHeaderBytes + length);
                 std::memcpy(out.data() + at, &first, 2);
                 std::memcpy(out.data() + at + 2, &words, 2);
                 std::memcpy(out.data() + at + kDiffRunHeaderBytes,
                             current + first * kDiffWordBytes, length);
               });
  return out;
}

std::size_t append_diff(WireBuffer& out, const std::uint8_t* current,
                        const std::uint8_t* twin, std::size_t page_bytes) {
  const std::size_t count_at = out.reserve_u32();
  const std::size_t payload_start = out.size();
  for_each_run(current, twin, page_bytes,
               [&](std::uint16_t first, std::uint16_t words) {
                 out.put(first);
                 out.put(words);
                 out.put_bytes(current + first * kDiffWordBytes,
                               words * kDiffWordBytes);
               });
  const std::size_t diff_bytes = out.size() - payload_start;
  out.patch_u32(count_at, static_cast<std::uint32_t>(diff_bytes));
  return diff_bytes;
}

bool apply_diff(std::uint8_t* target, std::size_t page_bytes,
                const std::uint8_t* diff, std::size_t diff_bytes) {
  std::size_t pos = 0;
  while (pos < diff_bytes) {
    if (pos + kDiffRunHeaderBytes > diff_bytes) return false;
    const std::size_t offset = read_u16(diff + pos) * kDiffWordBytes;
    const std::size_t length = read_u16(diff + pos + 2) * kDiffWordBytes;
    pos += kDiffRunHeaderBytes;
    if (length == 0 || pos + length > diff_bytes) return false;
    if (offset + length > page_bytes) return false;
    std::memcpy(target + offset, diff + pos, length);
    pos += length;
  }
  return pos == diff_bytes;
}

std::size_t diff_payload_bytes(const std::uint8_t* diff,
                               std::size_t diff_bytes) {
  std::size_t total = 0;
  std::size_t pos = 0;
  while (pos + kDiffRunHeaderBytes <= diff_bytes) {
    const std::size_t length = read_u16(diff + pos + 2) * kDiffWordBytes;
    total += length;
    pos += kDiffRunHeaderBytes + length;
  }
  return total;
}

}  // namespace parade::dsm
