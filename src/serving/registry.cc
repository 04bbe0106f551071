#include "serving/registry.h"

#include <algorithm>
#include <utility>

namespace ocular {

namespace {

/// Builds the fold-in serving context over the binding's mapped views.
/// `degrees` holds the bound dataset's column degrees (empty without
/// one): per-item interaction counts, the natural deterministic fallback
/// ranking for signal-free histories.
void AttachFoldIn(ServableModel* servable, std::vector<double> degrees) {
  const BinaryModelMeta& meta = servable->meta();
  if (meta.kind != BinaryModelKind::kOcularProbability) return;
  const OcularConfig config = OcularConfigFromMeta(meta);
  std::vector<double> popularity = std::move(degrees);
  if (servable->train != nullptr) {
    popularity.resize(servable->num_items(), 0.0);
  }
  // Without a dataset the fallback is the expected affinity over every
  // shard's user rows, summed in global row order — bit-identical to the
  // monolithic store of the same factors.
  auto ctx = MakeFoldInContext(servable->binding.user_blocks(),
                               servable->store.item_factors_t(), config,
                               popularity);
  // Fold-in is an optional capability: a store whose meta cannot seed a
  // valid solver config still serves stored users.
  if (ctx.ok()) {
    servable->fold_in = std::make_unique<FoldInContext>(std::move(ctx).value());
  }
}

/// Builds a servable from `model_path`. A shardset manifest opens through
/// OpenShardSet, aliasing every member of `previous` whose bytes are
/// unchanged; any other file opens as a one-shard set. `*reopened` counts
/// the members actually (re)opened — 0 means the set is byte-identical to
/// the previous generation and the caller may skip publishing. The
/// exclusion rows are `csr`, packed here, or `packed` (both null: none);
/// their width is checked against the model before any per-column state
/// is sized by it.
Result<std::shared_ptr<const ServableModel>> BuildServable(
    const std::string& name, const std::string& model_path,
    const CsrMatrix* csr, std::shared_ptr<const PackedRows> packed,
    const ServableModel* previous, uint32_t* reopened) {
  const bool sharded = IsShardSetFile(model_path);
  *reopened = 1;  // a plain store always remaps its one file
  Result<ShardSetStores> opened =
      sharded ? OpenShardSet(model_path,
                             previous != nullptr ? &previous->binding : nullptr,
                             reopened)
              : OpenOneShardSet(model_path);
  if (!opened.ok()) return opened.status();
  const uint32_t train_cols = csr != nullptr      ? csr->num_cols()
                              : packed != nullptr ? packed->num_cols()
                                                  : 0;
  if (train_cols > opened->items->num_items()) {
    return Status::InvalidArgument(
        "training matrix has more items than model '" + name + "'");
  }
  // Column degrees: counted in the pack's own pass, or by decoding rows
  // that are already packed.
  std::vector<double> degrees;
  if (csr != nullptr) {
    packed =
        std::make_shared<const PackedRows>(PackedRows::Pack(*csr, &degrees));
  } else if (packed != nullptr) {
    degrees = packed->ColumnCounts();
  }
  auto servable = std::make_shared<ServableModel>(std::move(opened).value());
  servable->name = name;
  servable->model_path = model_path;
  servable->sharded = sharded;
  servable->train = std::move(packed);
  servable->recommender = std::make_unique<StoreRecommender>(servable->binding);
  AttachFoldIn(servable.get(), std::move(degrees));
  return std::shared_ptr<const ServableModel>(std::move(servable));
}

/// A replaced generation's members stop serving once the requests
/// leasing them drain, which under load can take a while. Dropping their
/// pages now keeps the old and the new generation from both being
/// resident meanwhile; a draining request faults back only what it
/// reads. Members the new generation aliases keep their pages.
void RetireReplacedMembers(const ServableModel* old_model,
                           const ServableModel& fresh) {
  if (old_model == nullptr) return;
  const auto still_serving = [&fresh](const ModelStore* store) {
    if (fresh.binding.items.get() == store) return true;
    for (const auto& shard : fresh.binding.shards) {
      if (shard.get() == store) return true;
    }
    return false;
  };
  if (!still_serving(old_model->binding.items.get())) {
    old_model->binding.items->DropResidentPages();
  }
  for (const auto& shard : old_model->binding.shards) {
    if (!still_serving(shard.get())) shard->DropResidentPages();
  }
}

}  // namespace

Status ModelRegistry::Load(const std::string& name,
                           const std::string& model_path,
                           std::shared_ptr<const CsrMatrix> train) {
  // The matrix is freed on return when `train` was its last owner.
  return Publish(name, model_path, train.get(), nullptr);
}

Status ModelRegistry::LoadPacked(const std::string& name,
                                 const std::string& model_path,
                                 std::shared_ptr<const PackedRows> train) {
  return Publish(name, model_path, nullptr, std::move(train));
}

Status ModelRegistry::Publish(const std::string& name,
                              const std::string& model_path,
                              const CsrMatrix* csr,
                              std::shared_ptr<const PackedRows> packed) {
  if (name.empty()) return Status::InvalidArgument("model name is empty");
  uint32_t reopened = 0;
  OCULAR_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServableModel> servable,
      BuildServable(name, model_path, csr, std::move(packed), Get(name).get(),
                    &reopened));
  std::shared_ptr<const ServableModel> previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    previous = std::exchange(models_[name], servable);
    // One generation step per member actually reopened — the per-shard
    // swap. An explicit Load always publishes (the caller may be binding
    // a new dataset), so even a byte-identical shardset steps once.
    generation_.fetch_add(std::max(reopened, 1u), std::memory_order_acq_rel);
  }
  RetireReplacedMembers(previous.get(), *servable);
  return Status::OK();
}

std::shared_ptr<const ServableModel> ModelRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second;
}

Status ModelRegistry::ReloadAll() {
  // Snapshot under the lock, re-open outside it (opens touch the
  // filesystem), publish each replacement atomically.
  std::vector<std::shared_ptr<const ServableModel>> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current.reserve(models_.size());
    for (const auto& [name, servable] : models_) current.push_back(servable);
  }
  Status first_error = Status::OK();
  for (const auto& old_model : current) {
    uint32_t reopened = 0;
    auto rebuilt = BuildServable(old_model->name, old_model->model_path,
                                 nullptr, old_model->train, old_model.get(),
                                 &reopened);
    if (!rebuilt.ok()) {
      if (first_error.ok()) first_error = rebuilt.status();
      continue;  // keep serving the previous version
    }
    if (reopened == 0) {
      // Every member is byte-identical to what is already serving: the
      // reload is a no-op for this name, so leave the generation alone
      // and spare the workers a lease refresh.
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      models_[old_model->name] = *rebuilt;
      generation_.fetch_add(reopened, std::memory_order_acq_rel);
    }
    RetireReplacedMembers(old_model.get(), **rebuilt);
  }
  return first_error;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, servable] : models_) names.push_back(name);
  return names;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return models_.size();
}

}  // namespace ocular
