// Shared test fixtures: a seeded RNG factory, tiny deterministic
// synthetic interaction matrices, an OCLR v2 downgrader and a page
// residency probe, so individual test files stop re-implementing the same
// builders.

#ifndef OCULAR_TESTS_TEST_UTIL_H_
#define OCULAR_TESTS_TEST_UTIL_H_

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "sparse/coo.h"
#include "sparse/csr.h"

namespace ocular {
namespace test {

/// Default seed for tests that just need "some" deterministic randomness.
inline constexpr uint64_t kDefaultSeed = 42;

/// Seeded RNG factory — one call site to change if Rng's constructor or
/// seeding scheme ever evolves.
inline Rng MakeRng(uint64_t seed = kDefaultSeed) { return Rng(seed); }

/// Random sparse interaction matrix with `nnz` draws (duplicates collapse,
/// so the realized nnz may be slightly lower). Deterministic in `seed`.
inline CsrMatrix RandomCsr(uint32_t rows, uint32_t cols, size_t nnz,
                           uint64_t seed = kDefaultSeed) {
  Rng rng = MakeRng(seed);
  CooBuilder coo;
  for (size_t e = 0; e < nnz; ++e) {
    coo.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{rows})),
            static_cast<uint32_t>(rng.UniformInt(uint64_t{cols})));
  }
  return CsrMatrix::FromCoo(coo.Finalize(rows, cols).value());
}

/// Random matrix parameterized by density instead of an absolute count.
inline CsrMatrix RandomCsrDense(uint32_t rows, uint32_t cols, double density,
                                uint64_t seed = kDefaultSeed) {
  return RandomCsr(rows, cols, static_cast<size_t>(rows * cols * density),
                   seed);
}

/// Two disjoint dense blocks (users 0-9 x items 0-7, users 10-19 x items
/// 8-15) with a few holes: the easiest co-clustering instance — any
/// co-clustering method must nail it. Fully deterministic.
inline CsrMatrix TinyBlocksCsr() {
  CooBuilder coo;
  for (uint32_t u = 0; u < 10; ++u) {
    for (uint32_t i = 0; i < 8; ++i) {
      if ((u + i) % 9 != 0) coo.Add(u, i);  // block 1 with holes
    }
  }
  for (uint32_t u = 10; u < 20; ++u) {
    for (uint32_t i = 8; i < 16; ++i) {
      if ((u + i) % 9 != 0) coo.Add(u, i);  // block 2 with holes
    }
  }
  return CsrMatrix::FromCoo(coo.Finalize(20, 16).value());
}

/// Rewrites the OCLR file at `path` in place as format v2 — version 2 and
/// FNV-1a 64 section checksums, the previous release's output for the
/// same factors — so tests can prove old artifacts still open. Reads the
/// section table at the offsets docs/MODEL_FORMAT.md fixes. False when
/// the file cannot be read or written.
inline bool StampOclrV2(const std::string& path) {
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr size_t kTableOffset = 64, kEntryBytes = 32, kSections = 3;
  if (bytes.size() < kTableOffset + kSections * kEntryBytes) return false;
  const uint32_t version = 2;
  std::memcpy(&bytes[4], &version, sizeof(version));
  for (size_t i = 0; i < kSections; ++i) {
    char* entry = &bytes[kTableOffset + i * kEntryBytes];
    uint64_t offset = 0, length = 0;
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&length, entry + 16, sizeof(length));
    if (offset > bytes.size() || length > bytes.size() - offset) return false;
    const uint64_t checksum = Fnv1a64(bytes.data() + offset, length);
    std::memcpy(entry + 24, &checksum, sizeof(checksum));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

/// Pages of this process's address range [begin, begin + bytes) that are
/// present in its page table — mapped in, not merely cached — read from
/// bit 63 of each page's /proc/self/pagemap entry (readable without
/// privilege; only the frame numbers are hidden). Counts every page the
/// range touches, partial ones at either end included. -1 when pagemap
/// cannot be read.
inline long PresentPages(const void* begin, size_t bytes) {
  const uintptr_t page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  const uintptr_t first = reinterpret_cast<uintptr_t>(begin) / page;
  const uintptr_t last =
      (reinterpret_cast<uintptr_t>(begin) + bytes + page - 1) / page;
  std::vector<uint64_t> entries(last - first);
  const int fd = ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  const size_t want = entries.size() * sizeof(uint64_t);
  const ssize_t got = ::pread(fd, entries.data(), want,
                              static_cast<off_t>(first * sizeof(uint64_t)));
  ::close(fd);
  if (got != static_cast<ssize_t>(want)) return -1;
  long present = 0;
  for (const uint64_t entry : entries) present += (entry >> 63) & 1;
  return present;
}

}  // namespace test
}  // namespace ocular

#endif  // OCULAR_TESTS_TEST_UTIL_H_
