// Twin/diff codec for the HLRC invalidate protocol.
//
// A non-home writer copies the page to a "twin" on its first write fault; at
// flush time (barrier or lock release) the current page is compared to the
// twin and only the changed bytes travel to the home, encoded as runs:
//   { u16 first word, u16 word count, word count x 4 bytes } *
// Comparison is word-granular at 4 bytes, the sharing granularity: writers
// on different nodes may share a page down to distinct 4-byte words (an
// `int` array split between nodes), but two writers of one 4-byte word in
// one interval (`char`/`short` neighbours) collide at the home. Adjacent
// changed words coalesce into one run of at most kMaxRunWords words. The
// u16 word fields cover pages up to kMaxDiffPageBytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/serialize.hpp"

namespace parade::dsm {

/// Diff comparison unit and run alignment, in bytes.
inline constexpr std::size_t kDiffWordBytes = 4;
/// Bytes of a run header: u16 first word, u16 word count.
inline constexpr std::size_t kDiffRunHeaderBytes = 4;
/// Longest run a u16 word count describes; longer changed spans split.
inline constexpr std::size_t kMaxRunWords = 0xFFFF;
/// Largest page whose words a u16 word index reaches: 256 KiB.
inline constexpr std::size_t kMaxDiffPageBytes = 0x10000 * kDiffWordBytes;

/// Encodes the byte runs where `current` differs from `twin` into a vector.
/// Both buffers are `page_bytes` long; `page_bytes` must be a multiple of
/// kDiffWordBytes and at most kMaxDiffPageBytes.
/// Reference encoder: the flush path runs append_diff, and the tests check
/// it (and codec<DiffMsg> frames) against this.
std::vector<std::uint8_t> encode_diff(const std::uint8_t* current,
                                      const std::uint8_t* twin,
                                      std::size_t page_bytes);

/// The flush-path encoder: streams the runs straight into `out` in the
/// exact wire layout of put_vector<uint8_t> (u32 byte count, then the runs),
/// so a DiffMsg is encoded without staging the diff in its own vector.
/// Returns the number of diff bytes written (0 = clean page).
std::size_t append_diff(WireBuffer& out, const std::uint8_t* current,
                        const std::uint8_t* twin, std::size_t page_bytes);

/// Applies an encoded diff onto `target` (a page of `page_bytes`).
/// Returns false if the diff is malformed or out of range.
bool apply_diff(std::uint8_t* target, std::size_t page_bytes,
                const std::uint8_t* diff, std::size_t diff_bytes);

/// Number of payload bytes (sum of run lengths) described by a diff.
std::size_t diff_payload_bytes(const std::uint8_t* diff,
                               std::size_t diff_bytes);

}  // namespace parade::dsm
