#include "core/model_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/fault.h"
#include "common/hash.h"
#include "core/model_shard.h"
#include "sparse/linalg.h"

namespace ocular {

namespace {

// ---------------------------------------------------------------- layout
//
// All integers little-endian. See docs/MODEL_FORMAT.md for the normative
// byte-level spec; the constants here ARE that spec.

constexpr char kMagic[4] = {'O', 'C', 'L', 'R'};
// Writers emit v4: XXH64 section checksums and an empty row-major item
// section. v3 (XXH64) and v2 (FNV-1a) files carry that section in full;
// they are read, never written, so artifacts of earlier releases keep
// opening.
constexpr uint32_t kVersion = 4;
constexpr uint32_t kVersionFnv1a = 2;
// Written as an integer, read back as an integer: a mapping made on a
// big-endian machine would see the bytes reversed and reject the file
// instead of serving garbage factors.
constexpr uint32_t kEndianTag = 0x0C0FFEE1;
constexpr uint32_t kSectionCount = 3;
constexpr size_t kAlgorithmBytes = 16;  // NUL-padded tag
constexpr size_t kFixedHeaderBytes = 64;
constexpr size_t kSectionEntryBytes = 32;
constexpr size_t kHeaderBytes =
    kFixedHeaderBytes + kSectionCount * kSectionEntryBytes;  // 160
constexpr size_t kSectionAlignment = 64;

// Section kinds, in the order the writer emits them. Kind 1 is empty in
// v4 files.
enum SectionKind : uint32_t {
  kSectionUserFactors = 0,
  kSectionItemFactors = 1,
  kSectionItemFactorsT = 2,
};

// Header flag bits.
constexpr uint32_t kFlagUseBiases = 1u << 0;
constexpr uint32_t kFlagRelativeVariant = 1u << 1;

constexpr size_t AlignUp(size_t n) {
  return (n + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

// Non-empty sections start at or after this offset: the header and
// table, aligned up.
constexpr size_t kFirstSectionOffset = AlignUp(kHeaderBytes);  // 192

// Little-endian scalar put/get against a byte buffer. The build targets
// little-endian hosts (enforced below), so these are memcpys; the
// indirection documents intent and keeps alignment rules honest.
template <typename T>
void PutScalar(unsigned char* buf, size_t offset, T value) {
  std::memcpy(buf + offset, &value, sizeof(T));
}

template <typename T>
T GetScalar(const unsigned char* buf, size_t offset) {
  T value;
  std::memcpy(&value, buf + offset, sizeof(T));
  return value;
}

Status RequireLittleEndianHost() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotImplemented(
        "binary model files are little-endian; this host is not");
  }
  return Status::OK();
}

/// Writes all of `bytes` at the file's current offset, or at `offset`
/// when it is not negative.
Status WriteAll(int fd, const void* bytes, size_t n, const std::string& path,
                off_t offset = -1) {
  const char* p = static_cast<const char*>(bytes);
  while (n > 0) {
    const ssize_t wrote = offset < 0 ? ::write(fd, p, n)
                                     : ::pwrite(fd, p, n, offset);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      return Status::IOError("write failure on '" + path +
                             "': " + std::strerror(wrote < 0 ? errno : EIO));
    }
    p += wrote;
    n -= static_cast<size_t>(wrote);
    if (offset >= 0) offset += wrote;
  }
  return Status::OK();
}

/// Streams one section through `buf`: fill, hash, write, one buffer at a
/// time. Returns the section's XXH64 in `*digest`.
Status StreamSection(int fd, const SectionSource& section,
                     std::span<double> buf, const std::string& path,
                     uint64_t* digest) {
  Xxh64State xxh;
  size_t used = 0;
  const auto flush = [&]() -> Status {
    xxh.Update(buf.data(), used * sizeof(double));
    const Status st = WriteAll(fd, buf.data(), used * sizeof(double), path);
    used = 0;
    return st;
  };
  for (uint32_t r = 0; r < section.rows; ++r) {
    for (uint32_t c = 0; c < section.cols;) {
      if (used == buf.size()) OCULAR_RETURN_IF_ERROR(flush());
      const auto n = static_cast<uint32_t>(
          std::min<size_t>(section.cols - c, buf.size() - used));
      section.fill(r, c, buf.subspan(used, n));
      used += n;
      c += n;
    }
  }
  OCULAR_RETURN_IF_ERROR(flush());
  *digest = xxh.Digest();
  return Status::OK();
}

}  // namespace

SectionSource SectionSource::Rows(ConstMatrixView view) {
  return {view.rows(), view.cols(),
          [view](uint32_t row, uint32_t col, std::span<double> out) {
            const std::span<const double> cells = view.Row(row).subspan(col);
            std::copy_n(cells.begin(), out.size(), out.begin());
          }};
}

SectionSource SectionSource::Transposed(ConstMatrixView view) {
  return {view.cols(), view.rows(),
          [view](uint32_t row, uint32_t col, std::span<double> out) {
            for (size_t j = 0; j < out.size(); ++j) {
              out[j] = view.At(col + static_cast<uint32_t>(j), row);
            }
          }};
}

Status WriteModelSections(const BinaryModelMeta& meta,
                          const SectionSource& users,
                          const SectionSource& items_t,
                          const std::string& path) {
  OCULAR_RETURN_IF_ERROR(RequireLittleEndianHost());
  if (meta.k == 0 || users.cols != meta.k || items_t.rows != meta.k) {
    return Status::InvalidArgument(
        "users must have meta.k columns and items_t meta.k rows");
  }
  if (meta.algorithm.size() >= kAlgorithmBytes) {
    return Status::InvalidArgument("algorithm tag longer than 15 bytes");
  }

  const SectionSource no_item_rows = {0, meta.k, nullptr};
  const SectionSource* sources[kSectionCount] = {&users, &no_item_rows,
                                                 &items_t};
  const uint32_t kinds[kSectionCount] = {
      kSectionUserFactors, kSectionItemFactors, kSectionItemFactorsT};
  uint64_t offsets[kSectionCount] = {};
  uint64_t lengths[kSectionCount] = {};
  uint64_t digests[kSectionCount] = {};
  size_t offset = kFirstSectionOffset;
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    offsets[i] = offset;
    lengths[i] = uint64_t{sources[i]->rows} * sources[i]->cols * sizeof(double);
    offset = AlignUp(offset + lengths[i]);
  }

  if (fault::Maybe("store.write")) return fault::InjectedError("store.write");
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return Status::IOError("cannot open '" + path + "' for writing");
  std::vector<double> buffer(kWriteBufferBytes / sizeof(double));
  // Zeros where the header goes, so a write cut short leaves no magic;
  // then each section after its alignment padding.
  const unsigned char zeros[kFirstSectionOffset] = {};
  Status st = WriteAll(fd, zeros, sizeof(zeros), path);
  uint64_t written = kFirstSectionOffset;
  for (uint32_t i = 0; i < kSectionCount && st.ok(); ++i) {
    st = WriteAll(fd, zeros, offsets[i] - written, path);
    if (st.ok()) {
      st = StreamSection(fd, *sources[i], buffer, path, &digests[i]);
    }
    written = offsets[i] + lengths[i];
  }

  unsigned char header[kHeaderBytes] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutScalar<uint32_t>(header, 4, kVersion);
  PutScalar<uint32_t>(header, 8, kEndianTag);
  PutScalar<uint32_t>(header, 12, static_cast<uint32_t>(meta.kind));
  PutScalar<uint32_t>(header, 16, meta.k);
  PutScalar<uint32_t>(header, 20, users.rows);
  PutScalar<uint32_t>(header, 24, items_t.cols);
  uint32_t flags = 0;
  if (meta.use_biases) flags |= kFlagUseBiases;
  if (meta.relative_variant) flags |= kFlagRelativeVariant;
  PutScalar<uint32_t>(header, 28, flags);
  PutScalar<double>(header, 32, meta.lambda);
  std::memcpy(header + 40, meta.algorithm.data(), meta.algorithm.size());
  PutScalar<uint32_t>(header, 56, kSectionCount);
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const size_t base = kFixedHeaderBytes + i * kSectionEntryBytes;
    PutScalar<uint32_t>(header, base, kinds[i]);
    PutScalar<uint64_t>(header, base + 8, offsets[i]);
    PutScalar<uint64_t>(header, base + 16, lengths[i]);
    PutScalar<uint64_t>(header, base + 24, digests[i]);
  }
  if (st.ok()) st = WriteAll(fd, header, sizeof(header), path, 0);
  if (::close(fd) != 0 && st.ok()) {
    st = Status::IOError("write failure on '" + path +
                         "': " + std::strerror(errno));
  }
  return st;
}

OcularConfig OcularConfigFromMeta(const BinaryModelMeta& meta) {
  OcularConfig config;
  config.use_biases = meta.use_biases;
  config.k = meta.k - (meta.use_biases ? 2 : 0);
  config.lambda = meta.lambda;
  config.variant = meta.relative_variant ? OcularVariant::kRelative
                                         : OcularVariant::kAbsolute;
  return config;
}

Status SaveModelBinary(const OcularModel& model, const OcularConfig& config,
                       const std::string& path) {
  OCULAR_RETURN_IF_ERROR(model.Validate());
  if (model.k() != config.TotalDims()) {
    return Status::InvalidArgument(
        "model dimensions do not match the config being saved (did you "
        "forget use_biases?)");
  }
  BinaryModelMeta meta;
  meta.kind = BinaryModelKind::kOcularProbability;
  meta.k = model.k();
  meta.lambda = config.lambda;
  meta.use_biases = config.use_biases;
  meta.relative_variant = config.variant == OcularVariant::kRelative;
  meta.algorithm =
      config.variant == OcularVariant::kRelative ? "R-OCuLaR" : "OCuLaR";
  return SaveFactorsBinary(meta, model.user_factors(), model.item_factors(),
                           path);
}

Status SaveFactorsBinary(const BinaryModelMeta& meta, const DenseMatrix& users,
                         const DenseMatrix& items, const std::string& path) {
  return WriteModelSections(meta, SectionSource::Rows(users),
                            SectionSource::Transposed(items), path);
}

Status SaveDotProductFactors(const std::string& algorithm, uint32_t k,
                             double lambda, const DenseMatrix& users,
                             const DenseMatrix& items,
                             const std::string& path) {
  if (users.rows() == 0) {
    return Status::FailedPrecondition(algorithm + " model is not fitted");
  }
  BinaryModelMeta meta;
  meta.kind = BinaryModelKind::kDotProduct;
  meta.k = k;
  meta.lambda = lambda;
  meta.algorithm = algorithm;
  return SaveFactorsBinary(meta, users, items, path);
}

Status ConvertTextModelToBinary(const std::string& text_path,
                                const std::string& binary_path) {
  OCULAR_ASSIGN_OR_RETURN(LoadedModel loaded, LoadModel(text_path));
  return SaveModelBinary(loaded.model, loaded.config, binary_path);
}

// ------------------------------------------------------------ ModelStore

ModelStore::ModelStore(ModelStore&& other) noexcept { *this = std::move(other); }

ModelStore& ModelStore::operator=(ModelStore&& other) noexcept {
  if (this == &other) return *this;
  if (mapping_ != nullptr) ::munmap(mapping_, mapped_bytes_);
  path_ = std::move(other.path_);
  mapping_ = other.mapping_;
  mapped_bytes_ = other.mapped_bytes_;
  meta_ = std::move(other.meta_);
  num_users_ = other.num_users_;
  num_items_ = other.num_items_;
  user_factors_ = other.user_factors_;
  item_factors_t_ = other.item_factors_t_;
  other.Reset();
  return *this;
}

ModelStore::~ModelStore() {
  if (mapping_ != nullptr) ::munmap(mapping_, mapped_bytes_);
}

void ModelStore::Reset() noexcept {
  mapping_ = nullptr;
  mapped_bytes_ = 0;
  num_users_ = 0;
  num_items_ = 0;
  user_factors_ = nullptr;
  item_factors_t_ = nullptr;
}

Result<ModelStore> ModelStore::Open(const std::string& path) {
  OCULAR_RETURN_IF_ERROR(RequireLittleEndianHost());
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat('" + path + "'): " + std::strerror(err));
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    return Status::ParseError("'" + path +
                              "' is too small to be a binary model file");
  }
  void* mapping = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping pins the file contents; the descriptor is no longer needed.
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return Status::IOError("mmap('" + path + "'): " + std::strerror(errno));
  }

  ModelStore store;
  store.path_ = path;
  store.mapping_ = mapping;
  store.mapped_bytes_ = file_bytes;

  const unsigned char* h = static_cast<const unsigned char*>(mapping);
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("'" + path +
                              "' has no OCLR magic; not a binary model file");
  }
  const uint32_t version = GetScalar<uint32_t>(h, 4);
  if (version < kVersionFnv1a || version > kVersion) {
    return Status::ParseError("unsupported binary model version " +
                              std::to_string(version) +
                              " (this build reads 2, 3 and 4)");
  }
  if (GetScalar<uint32_t>(h, 8) != kEndianTag) {
    return Status::ParseError(
        "endianness tag mismatch; file written on a foreign byte order");
  }
  const uint32_t kind = GetScalar<uint32_t>(h, 12);
  if (kind > static_cast<uint32_t>(BinaryModelKind::kDotProduct)) {
    return Status::ParseError("unknown model kind " + std::to_string(kind));
  }
  store.meta_.kind = static_cast<BinaryModelKind>(kind);
  store.meta_.k = GetScalar<uint32_t>(h, 16);
  store.num_users_ = GetScalar<uint32_t>(h, 20);
  store.num_items_ = GetScalar<uint32_t>(h, 24);
  if (store.meta_.k == 0) return Status::ParseError("k must be positive");
  const uint32_t flags = GetScalar<uint32_t>(h, 28);
  store.meta_.use_biases = (flags & kFlagUseBiases) != 0;
  store.meta_.relative_variant = (flags & kFlagRelativeVariant) != 0;
  store.meta_.lambda = GetScalar<double>(h, 32);
  {
    const char* tag = reinterpret_cast<const char*>(h + 40);
    store.meta_.algorithm.assign(tag, strnlen(tag, kAlgorithmBytes));
  }
  if (GetScalar<uint32_t>(h, 56) != kSectionCount) {
    return Status::ParseError("unexpected section count");
  }

  // Hostile-header guard: the factor cell counts are u32 x u32 products
  // (they fit a u64), but the BYTE counts could wrap at *8. Every section
  // must fit in the file anyway, so bound the cell counts by the file
  // size first — after this check the byte products below cannot overflow.
  const uint64_t user_cells =
      static_cast<uint64_t>(store.num_users_) * store.meta_.k;
  const uint64_t item_cells =
      static_cast<uint64_t>(store.num_items_) * store.meta_.k;
  if (user_cells > file_bytes / sizeof(double) ||
      item_cells > file_bytes / sizeof(double)) {
    return Status::ParseError(
        "header dimensions exceed the file size; corrupt or hostile header");
  }
  // A v4 file keeps the row-major item section as an empty entry; a v2
  // or v3 file carries it in full, and it is bounded, overlap-checked and
  // hashed like the others, but never exposed.
  const size_t item_bytes = static_cast<size_t>(item_cells * sizeof(double));
  const size_t expected_bytes[kSectionCount] = {
      static_cast<size_t>(user_cells * sizeof(double)),
      version < kVersion ? item_bytes : 0,
      item_bytes,
  };
  const double* section_data[kSectionCount] = {};
  uint64_t section_offset[kSectionCount] = {};
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const size_t base = kFixedHeaderBytes + i * kSectionEntryBytes;
    const uint32_t section_kind = GetScalar<uint32_t>(h, base);
    const uint64_t offset = GetScalar<uint64_t>(h, base + 8);
    const uint64_t length = GetScalar<uint64_t>(h, base + 16);
    if (section_kind >= kSectionCount || section_data[section_kind] != nullptr) {
      return Status::ParseError("malformed section table");
    }
    if (offset % kSectionAlignment != 0) {
      return Status::ParseError("section " + std::to_string(section_kind) +
                                " is not 64-byte aligned");
    }
    if (section_kind == kSectionItemFactors && version == kVersion &&
        length != 0) {
      return Status::ParseError(
          "section 1 (row-major item factors) is not part of a v4 file");
    }
    if (length != expected_bytes[section_kind]) {
      return Status::ParseError(
          "section " + std::to_string(section_kind) +
          " length does not match the header dimensions");
    }
    if (offset > file_bytes || length > file_bytes - offset) {
      return Status::ParseError("'" + path +
                                "' is truncated: section " +
                                std::to_string(section_kind) +
                                " extends past end of file");
    }
    section_data[section_kind] = reinterpret_cast<const double*>(h + offset);
    section_offset[section_kind] = offset;
  }
  // A non-empty section may alias neither the header (a trusting open
  // would serve header bytes as factors) nor another section (items_t
  // over items hands the kernel a Vᵀ operand that is not the transpose).
  // Empty sections — the missing half of an items or shard file — hold no
  // bytes and may share an offset. The bounds checks above keep every
  // offset + length within the file, so the sums cannot wrap.
  for (uint32_t a = 0; a < kSectionCount; ++a) {
    if (expected_bytes[a] == 0) continue;
    if (section_offset[a] < kFirstSectionOffset) {
      return Status::ParseError("section " + std::to_string(a) +
                                " starts inside the header (offset " +
                                std::to_string(section_offset[a]) + " < " +
                                std::to_string(kFirstSectionOffset) + ")");
    }
    for (uint32_t b = a + 1; b < kSectionCount; ++b) {
      if (expected_bytes[b] != 0 &&
          section_offset[a] < section_offset[b] + expected_bytes[b] &&
          section_offset[b] < section_offset[a] + expected_bytes[a]) {
        return Status::ParseError("sections " + std::to_string(a) + " and " +
                                  std::to_string(b) + " overlap");
      }
    }
  }
  store.user_factors_ = section_data[kSectionUserFactors];
  store.item_factors_t_ = section_data[kSectionItemFactorsT];

  OCULAR_RETURN_IF_ERROR(store.VerifyChecksums());
  return store;
}

Status ModelStore::VerifyChecksums() const {
  unsigned char* const base = static_cast<unsigned char*>(mapping_);
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  // Every hashed block's pages go back once hashed, a page shared with a
  // neighbouring section included (it faults back in when that section
  // is hashed), so the table is copied out of the header page first.
  unsigned char table[kHeaderBytes];
  std::memcpy(table, base, sizeof(table));
  const uint32_t version = GetScalar<uint32_t>(table, 4);
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const size_t entry = kFixedHeaderBytes + i * kSectionEntryBytes;
    const uint32_t kind = GetScalar<uint32_t>(table, entry);
    const uint64_t offset = GetScalar<uint64_t>(table, entry + 8);
    const uint64_t end = offset + GetScalar<uint64_t>(table, entry + 16);
    const uint64_t recorded = GetScalar<uint64_t>(table, entry + 24);
    Xxh64State xxh;
    uint64_t fnv = kFnv1a64Offset;
    for (uint64_t at = offset; at < end;) {
      const uint64_t block_end =
          std::min(end, (at / kVerifyBlockBytes + 1) * kVerifyBlockBytes);
      if (version == kVersionFnv1a) {
        fnv = Fnv1a64(base + at, block_end - at, fnv);
      } else {
        xxh.Update(base + at, block_end - at);
      }
      // The mapping is read-only and private: a later read faults the
      // same page-cache page back in. The drop reaches back over the
      // previous block too, which fault-around (the kernel maps a window
      // of neighbours on each fault) mapped again when this block's
      // first page faulted.
      const uint64_t drop_begin =
          (at > kVerifyBlockBytes ? at - kVerifyBlockBytes : 0) / page * page;
      const uint64_t drop_end = std::min<uint64_t>(
          mapped_bytes_, (block_end + page - 1) / page * page);
      ::madvise(base + drop_begin, drop_end - drop_begin, MADV_DONTNEED);
      at = block_end;
    }
    const uint64_t actual = version == kVersionFnv1a ? fnv : xxh.Digest();
    if (actual != recorded) {
      return Status::ParseError("checksum mismatch in section " +
                                std::to_string(kind) + " of '" + path_ +
                                "' (file corrupted?)");
    }
  }
  // One last drop takes the pages fault-around mapped past the last
  // block and the header page: the whole file leaves memory.
  DropResidentPages();
  return Status::OK();
}

void ModelStore::DropResidentPages() const {
  if (mapping_ != nullptr) ::madvise(mapping_, mapped_bytes_, MADV_DONTNEED);
}

Result<LoadedModel> ModelStore::MaterializeOcular() const {
  if (mapping_ == nullptr) {
    return Status::FailedPrecondition("ModelStore is not open");
  }
  if (meta_.kind != BinaryModelKind::kOcularProbability) {
    return Status::FailedPrecondition(
        "model '" + meta_.algorithm + "' is not an OCuLaR-family model");
  }
  LoadedModel out;
  out.config = OcularConfigFromMeta(meta_);
  DenseMatrix users(num_users_, meta_.k);
  std::memcpy(users.data(), user_factors_,
              users.size() * sizeof(double));
  out.model = OcularModel(std::move(users), TransposedCopy(item_factors_t()));
  return out;
}

bool IsBinaryModelFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  return in.gcount() == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

Result<LoadedModel> LoadModelAuto(const std::string& path) {
  // A shardset manifest also starts with "OCLR" ("OCLRSHARDSET ..."), so
  // this sniff must run before the binary one or the manifest would be
  // misparsed as a v2 file with a garbage version.
  if (IsShardSetFile(path)) {
    OCULAR_ASSIGN_OR_RETURN(ShardSetStores set, OpenShardSet(path));
    return MaterializeShardSetOcular(set);
  }
  if (!IsBinaryModelFile(path)) return LoadModel(path);
  OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(path));
  return store.MaterializeOcular();
}

}  // namespace ocular
