#ifndef OCULAR_CORE_MODEL_STORE_H_
#define OCULAR_CORE_MODEL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "common/result.h"
#include "core/model_io.h"
#include "core/ocular_trainer.h"
#include "sparse/dense.h"

namespace ocular {

/// \file
/// \brief Binary model format ("OCLR", written as v4, v2 and v3 still
/// read) and the mmap-backed zero-copy ModelStore that serves it.
///
/// The v1 text format (core/model_io.h) is portable and diffable but has
/// to be *parsed*: loading re-tokenizes and re-converts every factor entry,
/// which for a production catalog (millions of users x K doubles) costs
/// seconds of CPU before the first request can be served. The binary
/// format is the deployable artifact: factor sections are stored
/// little-endian, 64-byte aligned, exactly as the serving kernels consume
/// them (the item factors only in the K x n_i transposed serving layout),
/// so a ModelStore opens a model by mmapping the file — no parse, no copy,
/// and the pages are shared between processes by the page cache. Every
/// open also hashes every section once: XXH64 in v3 and v4 files, which
/// runs at memory bandwidth, FNV-1a in v2 files.
/// See docs/MODEL_FORMAT.md for the byte-level specification.

/// \brief Scoring rule recorded in a binary file, which tells a model-agnostic
/// server how to map the factor product to a score.
enum class BinaryModelKind : uint32_t {
  /// score = 1 - e^{-<f_u, f_i>} (OCuLaR / R-OCuLaR probability map).
  kOcularProbability = 0,
  /// score = <f_u, f_i> (wALS, iALS, BPR and any plain MF model).
  kDotProduct = 1,
};

/// \brief Model-level metadata carried in the binary header.
struct BinaryModelMeta {
  /// Scoring rule of the stored factors.
  BinaryModelKind kind = BinaryModelKind::kOcularProbability;
  /// Factor dimension (columns of both factor matrices, bias dims
  /// included).
  uint32_t k = 0;
  /// Regularization weight the model was trained with (informational).
  double lambda = 0.0;
  /// True when the last two factor dimensions are the bias extension of
  /// OcularConfig::use_biases.
  bool use_biases = false;
  /// True for R-OCuLaR (relative-preference) training.
  bool relative_variant = false;
  /// Short algorithm tag ("OCuLaR", "wALS", ...; at most 15 bytes).
  std::string algorithm = "OCuLaR";
};

/// \brief The training config an OCuLaR model's meta records: the
/// factor dimension without the two bias dimensions, lambda, biases and
/// variant; every other field keeps its default. How every reader of a
/// stored model (the daemon's fold-in context, MaterializeOcular,
/// MaterializeShardSetOcular) rebuilds the config.
OcularConfig OcularConfigFromMeta(const BinaryModelMeta& meta);

/// \brief One factor section as the streaming writer pulls it: `rows` x
/// `cols` doubles in on-disk (row-major) order. `fill(row, col, out)`
/// writes cells [col, col + out.size()) of `row` into `out`; the writer
/// asks for every row in ascending order, each in one or more ascending
/// column runs, so a source may derive its cells on the fly (from the
/// other layout, from a mapping, from freshly folded rows) without ever
/// holding the section.
struct SectionSource {
  uint32_t rows = 0;
  uint32_t cols = 0;
  std::function<void(uint32_t row, uint32_t col, std::span<double> out)> fill;

  /// The cells of `view` as they are (the view must outlive the write).
  static SectionSource Rows(ConstMatrixView view);
  /// The transpose of `view`: row c holds column c of `view`.
  static SectionSource Transposed(ConstMatrixView view);
};

/// Bytes of the one buffer a streaming write fills, hashes and writes. At
/// the serving daemon's pinned 128 KiB mmap threshold the buffer is its
/// own mapping, so a write gives it back to the kernel when it returns.
inline constexpr size_t kWriteBufferBytes = size_t{128} << 10;

/// \brief The v4 writer every save path goes through: streams the user
/// factors and the item factors' K x n_i serving layout through one
/// kWriteBufferBytes buffer, hashing each section as it goes, then writes
/// the header, which carries the checksums, at offset 0 last, so a file
/// cut short has no OCLR magic. Holds no copy of any section. `users`
/// must be meta.k wide and `items_t` meta.k rows of n_items columns;
/// either side may be empty (an items or shard file). The section table
/// keeps the row-major item section (kind 1) as an empty entry. A failed
/// write returns IOError "write failure on '<path>'" and leaves the
/// partial file for the caller to remove.
Status WriteModelSections(const BinaryModelMeta& meta,
                          const SectionSource& users,
                          const SectionSource& items_t,
                          const std::string& path);

/// \brief Writes `model` (+ its training config) as a binary v4 file.
///
/// The file holds the user factors (n_u x K, row-major) and the K x n_i
/// transposed serving layout of the item factors, each checksummed and
/// 64-byte aligned so the mmapped views are cache-line aligned. Fails
/// like SaveModel on invalid models or config/model dimension mismatch.
Status SaveModelBinary(const OcularModel& model, const OcularConfig& config,
                       const std::string& path);

/// \brief Generic v4 writer for any user x item factor pair — how the
/// factor baselines (wALS/iALS/BPR) persist themselves; see
/// WalsRecommender::SaveBinary.
///
/// `users` and `items` must have meta.k columns each; `items` is written
/// transposed, as the serving section.
Status SaveFactorsBinary(const BinaryModelMeta& meta, const DenseMatrix& users,
                         const DenseMatrix& items, const std::string& path);

/// \brief Shared save path of the dot-product factor baselines
/// (wALS/iALS/BPR `SaveBinary`): writes `users`/`items` as a
/// BinaryModelKind::kDotProduct v4 file tagged `algorithm`.
/// FailedPrecondition when `users` is empty (unfitted model).
Status SaveDotProductFactors(const std::string& algorithm, uint32_t k,
                             double lambda, const DenseMatrix& users,
                             const DenseMatrix& items,
                             const std::string& path);

/// \brief Converts a v1 text model (core/model_io.h) to a v4 binary file.
///
/// Factors are preserved bit-exactly ("%.17g" text round-trips doubles);
/// config fields map onto the binary header.
Status ConvertTextModelToBinary(const std::string& text_path,
                                const std::string& binary_path);

/// Bytes per block of the checksum pass: what one verifying open adds to
/// the process's resident size, plus the kernel's fault-around window
/// (64 KiB by default) on either side. Blocks sit at multiples of this
/// file offset (so every block edge inside a section is page-aligned in
/// the mapping) and are clipped to each section.
inline constexpr size_t kVerifyBlockBytes = size_t{128} << 10;

/// \brief Zero-copy read view of a binary model file (v4, v3 or v2).
///
/// Open() mmaps the file read-only, validates the header and the section
/// table, verifies every section checksum, and exposes the user factors
/// and Vᵀ as ConstMatrixViews pointing directly into the mapping — no
/// factor bytes are parsed or copied, and the page cache shares them
/// across every process serving the same model. The store owns the
/// mapping; views remain valid for its lifetime. Movable, not copyable.
class ModelStore {
 public:
  /// \brief Opens `path` and validates it. IOError on unreadable files,
  /// ParseError on malformed/foreign/truncated content, a version other
  /// than 2, 3 or 4, a non-empty row-major item section in a v4 file,
  /// sections that alias the header or each other, or a checksum mismatch
  /// in any section. The row-major item section of a v2 or v3 file is
  /// checked like the others and never exposed.
  static Result<ModelStore> Open(const std::string& path);

  /// \brief An empty (not-open) store; only assignment and destruction
  /// are valid.
  ModelStore() = default;
  /// \brief Transfers the mapping; `other` becomes not-open.
  ModelStore(ModelStore&& other) noexcept;
  /// \brief Transfers the mapping, unmapping any currently held one.
  ModelStore& operator=(ModelStore&& other) noexcept;
  ModelStore(const ModelStore&) = delete;             ///< not copyable
  ModelStore& operator=(const ModelStore&) = delete;  ///< not copyable
  /// \brief Unmaps the file. All views die with the store.
  ~ModelStore();

  /// Header metadata of the opened file.
  const BinaryModelMeta& meta() const { return meta_; }
  /// Users (rows of user_factors()).
  uint32_t num_users() const { return num_users_; }
  /// Items (columns of item_factors_t()).
  uint32_t num_items() const { return num_items_; }
  /// Factor dimension (bias dims included).
  uint32_t k() const { return meta_.k; }
  /// Path the store was opened from.
  const std::string& path() const { return path_; }
  /// Total bytes mapped (the file size).
  size_t mapped_bytes() const { return mapped_bytes_; }

  /// User factors, n_u x K row-major, viewing the mapping.
  ConstMatrixView user_factors() const {
    return {user_factors_, num_users_, meta_.k};
  }
  /// Item factors in the K x n_i serving layout (vec::AffinityBlock's Vᵀ
  /// operand), viewing the mapping — the one item layout of the file,
  /// read by scoring, fold-in solves and materialization alike.
  ConstMatrixView item_factors_t() const {
    return {item_factors_t_, meta_.k, num_items_};
  }

  /// \brief Drops every page of the mapping from the process's resident
  /// set (MADV_DONTNEED); a later read faults the page back in from the
  /// page cache. For a generation that stopped serving while requests
  /// may still drain on it. A failed drop is ignored.
  void DropResidentPages() const;

  /// \brief Materializes an owning OcularModel + config copy (an O(model)
  /// copy — for retraining/conversion tooling, not the serving path).
  /// The item rows are transposed back from item_factors_t(). Fails
  /// unless meta().kind is kOcularProbability.
  Result<LoadedModel> MaterializeOcular() const;

 private:
  void Reset() noexcept;

  /// Walks every section of the table, the row-major item section of a v2
  /// or v3 file included, and recomputes its checksum; OK when all match.
  /// Every byte is hashed through the mapping, one kVerifyBlockBytes
  /// block at a time, and the pages of each block are dropped from the
  /// mapping (MADV_DONTNEED) once hashed: a verify adds about one block
  /// to the resident size, however large the file, and leaves none of
  /// the file resident. A dropped page faults back in from the page
  /// cache when serving next reads it, and a failed drop is ignored.
  Status VerifyChecksums() const;

  std::string path_;
  void* mapping_ = nullptr;  // mmap base, nullptr when default-constructed
  size_t mapped_bytes_ = 0;
  BinaryModelMeta meta_;
  uint32_t num_users_ = 0;
  uint32_t num_items_ = 0;
  const double* user_factors_ = nullptr;    // into the mapping
  const double* item_factors_t_ = nullptr;  // into the mapping
};

/// \brief True when the first bytes of `path` carry the OCLR magic — how
/// format-sniffing loaders decide between ModelStore::Open and the v1 text
/// LoadModel.
bool IsBinaryModelFile(const std::string& path);

/// \brief Loads an OCuLaR model of any on-disk format into an owning
/// LoadedModel: `*.shardset` manifests are opened and gathered
/// (MaterializeShardSetOcular), binary files are opened and materialized,
/// anything else goes through the v1 text LoadModel. For zero-copy
/// serving use ModelStore::Open / OpenShardSet directly.
Result<LoadedModel> LoadModelAuto(const std::string& path);

}  // namespace ocular

#endif  // OCULAR_CORE_MODEL_STORE_H_
