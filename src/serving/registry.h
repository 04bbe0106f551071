#ifndef OCULAR_SERVING_REGISTRY_H_
#define OCULAR_SERVING_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/fold_in.h"
#include "core/model_shard.h"
#include "serving/store_recommender.h"
#include "sparse/csr.h"
#include "sparse/packed_rows.h"

namespace ocular {

/// \brief One resident servable model: its mmapped store binding, the
/// zero-copy recommender over it, and the optional training matrix, held
/// as packed rows, whose rows are excluded from that user's
/// recommendations (the Section IV-C "recommend unknowns only" rule).
///
/// Every binding is a ShardSetStores: a `*.shardset` manifest opens as
/// itself, a plain `.oclr` store as a one-shard set whose items store is
/// the whole model. Immutable once published: a reload builds a NEW
/// ServableModel and swaps the registry pointer, so requests already
/// holding a shared_ptr keep serving the old mapping until they drain —
/// at which point the last reference unmaps it. The member stores are
/// shared_ptrs, and a rebuild ALIASES every untouched member from the
/// previous generation instead of remapping it — that is the per-shard
/// generation swap: republishing one shard costs one mmap, not N.
struct ServableModel {
  /// \brief Takes ownership of an opened binding; `store` views its items
  /// store.
  explicit ServableModel(ShardSetStores opened)
      : binding(std::move(opened)), store(*binding.items) {}

  /// Registry key the model is served under.
  std::string name;
  /// File the binding was opened from (re-opened on reload): an `.oclr`
  /// store, or a `.shardset` manifest when `sharded` is true.
  std::string model_path;
  /// True when `model_path` is a shardset manifest. Decides only what the
  /// protocol reports (`shard` fields, the shard-request count) and which
  /// update algorithm runs; serving reads every binding the same way.
  bool sharded = false;
  /// The open stores, the user → shard map and (sharded only) the parsed
  /// manifest. Members are shared with the previous generation when
  /// their fingerprint did not change.
  ShardSetStores binding;
  /// The binding's items store: the whole model when monolithic, the
  /// shared items file (no users) when sharded.
  const ModelStore& store;
  /// Zero-copy recommender over the binding. Held by pointer so the views
  /// stay valid when ServableModel moves.
  std::unique_ptr<Recommender> recommender;
  /// Per-user exclusion rows (nullptr = no exclusions), packed at about
  /// one byte per positive. Shared with the reloaded generations of the
  /// model — only the factor file is re-opened on reload, the interaction
  /// history is not re-read.
  std::shared_ptr<const PackedRows> train;
  /// Fold-in serving state over the store's mmapped factor views, built
  /// once per published generation (nullptr for stores that are not
  /// OCuLaR probability models — history requests against those fail
  /// with FailedPrecondition). The popularity fallback ranks by `train`
  /// column degrees when a dataset is bound, else by expected affinity.
  /// Declared after `binding` so its views die before the mapping does.
  std::unique_ptr<FoldInContext> fold_in;

  /// \brief The exclusion row for `u` (empty without a matrix or for users
  /// beyond it), decoded into a buffer of the calling thread. The buffer
  /// is sized at the matrix's longest row on its first use, so a thread
  /// decodes every row of one matrix without allocating, and the span
  /// stays valid until this thread decodes a row again: decoding the
  /// same row of the same matrix rewrites it with the same ids.
  std::span<const uint32_t> ExcludeRow(uint32_t u) const {
    if (train == nullptr || u >= train->num_rows()) return {};
    thread_local std::vector<uint32_t> row;
    return train->DecodeRow(u, &row);
  }

  // Binding-agnostic accessors: the daemon and CLI read model shape
  // through these so one request path serves both monolithic stores and
  // shardsets.

  /// Users served by this binding (all shards combined).
  uint32_t num_users() const { return binding.map.num_users(); }
  /// Items of the (shared) item factors.
  uint32_t num_items() const { return store.num_items(); }
  /// Factor dimension.
  uint32_t k() const { return store.k(); }
  /// Header metadata of the items store.
  const BinaryModelMeta& meta() const { return store.meta(); }
  /// Bytes mapped across every distinct member store.
  size_t mapped_bytes() const { return binding.mapped_bytes(); }
  /// Shards of the binding (1 for a monolithic store).
  uint32_t num_shards() const { return binding.map.num_shards(); }
  /// The shard serving `u` (0 for a monolithic store). Precondition:
  /// u < num_users().
  uint32_t shard_of(uint32_t u) const { return binding.map.shard_of(u); }
};

/// \brief Named collection of servable models with atomic hot-reload —
/// the model-management half of the serving daemon (serving/daemon.h).
///
/// Readers call Get() and hold the returned shared_ptr for the duration of
/// one request; Load()/ReloadAll() publish replacement models by swapping
/// the map entry under a mutex. No request is ever served from a
/// half-loaded model, and an old model's mapping is retired exactly when
/// its last in-flight request completes (shared_ptr drain). All methods
/// are thread-safe.
class ModelRegistry {
 public:
  /// \brief Opens `model_path` — a binary OCLR store, or a `*.shardset`
  /// manifest (sniffed via IsShardSetFile) — and publishes it as `name`,
  /// replacing any previous model of that name. `train` supplies per-user
  /// exclusion rows (pass nullptr for none): once the model is open and
  /// covers its columns, it is packed (PackedRows) and its column degrees
  /// counted in the same pass, and the registry keeps only the packed
  /// rows, so a caller that hands over its last reference frees the
  /// matrix. On failure the previous model (if any) keeps serving.
  /// Re-loading a shardset name reuses every member store whose manifest
  /// fingerprint is unchanged, so publishing one rewritten shard remaps
  /// only that shard; generation() advances by the number of members
  /// actually reopened.
  Status Load(const std::string& name, const std::string& model_path,
              std::shared_ptr<const CsrMatrix> train = nullptr);

  /// \brief Load with exclusion rows that are already packed: an update's
  /// merged matrix. Their column degrees are counted by decoding them.
  Status LoadPacked(const std::string& name, const std::string& model_path,
                    std::shared_ptr<const PackedRows> train);

  /// \brief The current model for `name`, or nullptr when absent. The
  /// returned pointer pins the model (and its mapping) until released.
  std::shared_ptr<const ServableModel> Get(const std::string& name) const;

  /// \brief Re-opens every model from its recorded path and swaps each
  /// atomically — the SIGHUP hot-reload. A model whose file no longer
  /// opens keeps its previous version; the first such error is returned
  /// (after attempting every model). Sharded bindings reload
  /// incrementally: members whose manifest fingerprint is unchanged are
  /// shared with the outgoing generation, and a shardset with NO changed
  /// members is left untouched entirely (no swap, no generation bump).
  Status ReloadAll();

  /// \brief Registered model names, sorted.
  std::vector<std::string> Names() const;

  /// \brief Number of registered models.
  size_t size() const;

  /// \brief Monotonic publication counter, bumped on every successful
  /// Load() and on each model swapped by ReloadAll(). Serving workers
  /// cache their Get() leases and re-resolve only when this moves, so
  /// the steady-state request path never touches the registry mutex
  /// while hot reloads still propagate promptly (each worker drains onto
  /// the new generation at its next request).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  /// Load and LoadPacked: builds and publishes `name` with the exclusion
  /// rows `csr` (packed here) or `packed`.
  Status Publish(const std::string& name, const std::string& model_path,
                 const CsrMatrix* csr,
                 std::shared_ptr<const PackedRows> packed);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ServableModel>> models_;
  std::atomic<uint64_t> generation_{1};
};

}  // namespace ocular

#endif  // OCULAR_SERVING_REGISTRY_H_
