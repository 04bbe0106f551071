#ifndef OCULAR_CORE_MODEL_SHARD_H_
#define OCULAR_CORE_MODEL_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/model_store.h"
#include "sparse/dense.h"

namespace ocular {

/// \file
/// \brief User-sharded OCLR stores: one logical model split into N
/// user-range shard files behind a small `*.shardset` manifest.
///
/// The paper's factor model is embarrassingly partitionable by user: a
/// recommendation for user u reads exactly one row of F_user plus the
/// (shared) item factors, so the user matrix can be cut into contiguous
/// row ranges and each range persisted as its own OCLR file. The item
/// factors — the K x n_i transposed serving layout — live once in a
/// shared items file, NOT duplicated per shard; every shard file carries
/// only its user-factor section (its item sections are empty, which the
/// format permits).
///
/// A `*.shardset` manifest (deterministic line-oriented text, see
/// docs/MODEL_FORMAT.md) names the members with their user ranges and
/// content fingerprints. Opening validates every member against the
/// manifest — fingerprint, header dimensions, range tiling — and refuses
/// with a distinct error per corruption class, so a torn or half-updated
/// shardset can never be served. Because each member is an independently
/// mmapped ModelStore, a single touched shard can be rewritten and
/// republished without reopening (or even re-reading) its siblings —
/// serving/registry.h builds its per-shard generation swap on exactly
/// that property.
///
/// A plain `.oclr` store is the degenerate case: a one-shard set whose
/// items file is itself (OpenOneShardSet). ShardSetStores is therefore
/// the one model binding the serving stack knows.

/// \brief Pure user → shard routing over contiguous user ranges.
///
/// Shard s owns the half-open range [begin(s), end(s)); ranges tile
/// [0, num_users) with no gaps and no empty shards (the one exception is
/// Single(0)). The table is a few words, routing is one branch-free
/// upper_bound — cheap enough to sit on the per-request serving path.
/// Value type; a default-constructed map is empty (0 shards, 0 users) and
/// routes nothing.
class ShardMap {
 public:
  /// \brief One shard owning all of [0, num_users) — the map of a
  /// monolithic store. Unlike EvenSplit it accepts zero users: a
  /// shardset's items file bound on its own is a one-shard model that
  /// routes nobody.
  static ShardMap Single(uint32_t num_users);

  /// \brief Splits `num_users` into `num_shards` contiguous ranges whose
  /// sizes differ by at most one (the first `num_users % num_shards`
  /// shards take the extra user). InvalidArgument when `num_shards` is 0
  /// or exceeds `num_users` (some shard would be empty).
  static Result<ShardMap> EvenSplit(uint32_t num_users, uint32_t num_shards);

  /// \brief Builds a map from explicit range starts: `begins[s]` is the
  /// first user of shard s, so begins must start at 0 and be strictly
  /// increasing below `num_users`. InvalidArgument on empty input, a
  /// nonzero first begin, or any empty shard (non-increasing begins or a
  /// final begin at/after num_users).
  static Result<ShardMap> FromBoundaries(std::vector<uint32_t> begins,
                                         uint32_t num_users);

  /// An empty map: 0 shards, 0 users.
  ShardMap() = default;

  /// Number of shards (0 for a default-constructed map).
  uint32_t num_shards() const { return static_cast<uint32_t>(begins_.size()); }
  /// Total users routed.
  uint32_t num_users() const { return num_users_; }
  /// First user of shard `s`. Precondition: s < num_shards().
  uint32_t begin(uint32_t s) const { return begins_[s]; }
  /// One past the last user of shard `s`. Precondition: s < num_shards().
  uint32_t end(uint32_t s) const {
    return s + 1 < begins_.size() ? begins_[s + 1] : num_users_;
  }
  /// The shard owning `user`. Precondition: user < num_users().
  uint32_t shard_of(uint32_t user) const;

  /// Maps are equal when they route every user identically.
  friend bool operator==(const ShardMap& a, const ShardMap& b) = default;

 private:
  std::vector<uint32_t> begins_;  // begins_[s] = first user of shard s
  uint32_t num_users_ = 0;
};

/// \brief One shard file as recorded in a manifest.
struct ShardSetEntry {
  uint32_t user_begin = 0;   ///< first user of the shard
  uint32_t user_end = 0;     ///< one past the last user
  std::string file;          ///< file name, relative to the manifest's dir
  uint64_t fingerprint = 0;  ///< fs::FileFingerprint of the file
};

/// \brief Parsed `*.shardset` manifest.
struct ShardSetManifest {
  uint32_t num_users = 0;  ///< users across all shards
  uint32_t num_items = 0;  ///< items of the shared items file
  uint32_t k = 0;          ///< factor dimension of every member
  std::string split = "user-range";  ///< split rule tag
  std::string items_file;            ///< shared items file, relative name
  uint64_t items_fingerprint = 0;    ///< fingerprint of the items file
  std::vector<ShardSetEntry> shards;  ///< members, in user order

  /// \brief The routing table implied by the shard ranges. InvalidArgument
  /// when the ranges do not tile [0, num_users).
  Result<ShardMap> Map() const;
};

/// \brief True when `path` starts with the shardset magic line — the
/// format-sniffing counterpart of IsBinaryModelFile.
bool IsShardSetFile(const std::string& path);

/// \brief Resolves a manifest-relative member name against the manifest's
/// directory ("/models/a.shardset" + "a.shard-000.oclr" →
/// "/models/a.shard-000.oclr").
std::string ShardSetResolve(const std::string& manifest_path,
                            const std::string& file);

/// \brief Parses a manifest. IOError on unreadable files; ParseError (each
/// with a distinct message) on bad magic, truncation, a shard-count
/// disagreement, malformed lines, or ranges that do not tile the user
/// space. Does NOT touch the member files — OpenShardSet does.
Result<ShardSetManifest> LoadShardSetManifest(const std::string& path);

/// \brief Writes `manifest` in the canonical text form (not durable by
/// itself — publish paths write to a temp name and DurableRename).
Status SaveShardSetManifest(const ShardSetManifest& manifest,
                            const std::string& path);

/// \brief An opened model binding: a shardset with every member mmapped
/// and validated, or a plain store opened as a one-shard set.
///
/// Members are shared_ptr so a later partial reopen (registry reload, the
/// daemon's per-shard update republish) can alias the untouched stores
/// into a new generation instead of remapping them. For a one-shard set
/// (OpenOneShardSet) `items` and `shards[0]` are the same store and the
/// manifest is empty.
struct ShardSetStores {
  /// The parsed manifest; empty (no members) for a one-shard set.
  ShardSetManifest manifest;
  /// user → shard routing, covering [0, users of the binding).
  ShardMap map;
  /// The store holding the item factors and their serving layout.
  std::shared_ptr<const ModelStore> items;
  /// Per-shard user-factor stores, aligned with `map`.
  std::vector<std::shared_ptr<const ModelStore>> shards;

  /// Bytes mapped across the distinct member stores (a one-shard set's
  /// one file counts once).
  size_t mapped_bytes() const;
  /// Every shard's user-factor view, in global row order.
  std::vector<ConstMatrixView> user_blocks() const;
};

/// \brief Opens and validates every member of a shardset. IOError for
/// unreadable members; ParseError (distinct messages) for fingerprint
/// mismatches and manifest/header disagreements.
///
/// With `previous`, every member whose file name, fingerprint and user
/// range match the previous set's is aliased instead of remapped (it is
/// still fingerprint-checked, so a torn set refuses either way).
/// `*reopened`, when given, receives the number of members actually
/// opened — 0 means the set is byte-identical to `previous`.
Result<ShardSetStores> OpenShardSet(const std::string& manifest_path,
                                    const ShardSetStores* previous = nullptr,
                                    uint32_t* reopened = nullptr);

/// \brief Opens a plain OCLR store as a one-shard set: one
/// ModelStore::Open, no manifest or fingerprint work. `items` and
/// `shards[0]` share the mapping and the map covers every stored user
/// (zero users included).
Result<ShardSetStores> OpenOneShardSet(const std::string& path);

/// \brief Produces the factor row of `user` into `out` (length k) — how
/// WriteShardSetStreaming pulls user rows without the caller ever holding
/// the full user matrix.
using ShardRowFn = std::function<void(uint32_t user, std::span<double> out)>;

/// \brief Streams a shardset to disk: the shared items file first, then
/// one shard at a time with rows pulled from `row_fn`, then the manifest.
/// Each shard streams through WriteModelSections, so peak memory is its
/// one kWriteBufferBytes buffer and one factor row, whatever the shard
/// size — what lets the scale tooling write a multi-million-user catalog
/// on a small machine. `items_t` is the K x n_i transposed layout of the
/// item factors. The manifest lands last, so a crash mid-write leaves no
/// openable shardset.
Status WriteShardSetStreaming(const BinaryModelMeta& meta, const ShardMap& map,
                              ConstMatrixView items_t,
                              const ShardRowFn& row_fn,
                              const std::string& manifest_path);

/// \brief Materializes an owning OcularModel + config from an opened
/// shardset by gathering every shard's user rows and the shared item
/// factors, transposed back from the items file's Vᵀ (an O(model) copy —
/// for offline tooling like `ocular_cli
/// recommend/explain` on a manifest; the serving path keeps the members
/// mmapped instead). LoadModelAuto routes manifests here, so every
/// model-file CLI surface accepts a shardset transparently. Fails unless
/// the set holds an OCuLaR-family model.
Result<LoadedModel> MaterializeShardSetOcular(const ShardSetStores& set);

/// \brief Splits the user factors and the K x n_i item layout `items_t`
/// into `num_shards` user-range shards: `<stem>.items.oclr`,
/// `<stem>.shard-NNN.oclr` and the manifest at `manifest_path` (stem =
/// manifest_path minus its ".shardset" suffix). This is `ocular_cli
/// shard`'s save path.
Status SaveModelSharded(const BinaryModelMeta& meta, ConstMatrixView users,
                        ConstMatrixView items_t, uint32_t num_shards,
                        const std::string& manifest_path);

}  // namespace ocular

#endif  // OCULAR_CORE_MODEL_SHARD_H_
