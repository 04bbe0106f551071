#include "core/model_shard.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fs_util.h"
#include "sparse/linalg.h"

namespace ocular {

namespace {

// Magic first line of a manifest; the trailing integer is the format
// version. Line-oriented text (not another binary page) because a
// manifest is O(shards) tiny, and operators diff and hand-inspect it the
// way they do the v1 text models.
constexpr char kManifestMagic[] = "OCLRSHARDSET";
constexpr uint32_t kManifestVersion = 1;

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

/// Directory prefix of `path` including the trailing '/', empty when the
/// path has no directory component.
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash + 1);
}

/// `manifest_path` minus a trailing ".shardset", with the directory
/// stripped — the stem member files are named after.
std::string MemberStem(const std::string& manifest_path) {
  std::string base = manifest_path.substr(DirOf(manifest_path).size());
  const std::string suffix = ".shardset";
  if (base.size() > suffix.size() &&
      base.compare(base.size() - suffix.size(), suffix.size(), suffix) == 0) {
    base.resize(base.size() - suffix.size());
  }
  return base;
}

std::string ShardFileName(const std::string& stem, uint32_t shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%03u", shard);
  return stem + ".shard-" + buf + ".oclr";
}

Status TruncatedError(const std::string& path) {
  return Status::ParseError("shardset manifest '" + path +
                            "' is truncated (missing 'end' marker)");
}

Status MalformedLine(const std::string& path, const std::string& line) {
  return Status::ParseError("shardset manifest '" + path +
                            "' has a malformed line: '" + line + "'");
}

}  // namespace

// ------------------------------------------------------------- ShardMap

Result<ShardMap> ShardMap::EvenSplit(uint32_t num_users, uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("a shard map needs at least one shard");
  }
  if (num_users < num_shards) {
    return Status::InvalidArgument(
        "splitting " + std::to_string(num_users) + " users into " +
        std::to_string(num_shards) + " shards would leave empty shards");
  }
  const uint32_t quota = num_users / num_shards;
  const uint32_t extra = num_users % num_shards;
  std::vector<uint32_t> begins(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    begins[s] = s * quota + std::min(s, extra);
  }
  return FromBoundaries(std::move(begins), num_users);
}

Result<ShardMap> ShardMap::FromBoundaries(std::vector<uint32_t> begins,
                                          uint32_t num_users) {
  if (begins.empty()) {
    return Status::InvalidArgument("a shard map needs at least one shard");
  }
  if (begins.front() != 0) {
    return Status::InvalidArgument("the first shard must begin at user 0");
  }
  for (size_t s = 0; s + 1 < begins.size(); ++s) {
    if (begins[s] >= begins[s + 1]) {
      return Status::InvalidArgument("shard " + std::to_string(s) +
                                     " would be empty (begins must be "
                                     "strictly increasing)");
    }
  }
  if (begins.back() >= num_users) {
    return Status::InvalidArgument(
        "shard " + std::to_string(begins.size() - 1) +
        " would be empty (its begin is at or past num_users)");
  }
  ShardMap map;
  map.begins_ = std::move(begins);
  map.num_users_ = num_users;
  return map;
}

ShardMap ShardMap::Single(uint32_t num_users) {
  ShardMap map;
  map.begins_ = {0};
  map.num_users_ = num_users;
  return map;
}

uint32_t ShardMap::shard_of(uint32_t user) const {
  const auto it = std::upper_bound(begins_.begin(), begins_.end(), user);
  return static_cast<uint32_t>(it - begins_.begin()) - 1;
}

// ------------------------------------------------------------- manifest

Result<ShardMap> ShardSetManifest::Map() const {
  std::vector<uint32_t> begins;
  begins.reserve(shards.size());
  uint32_t expected_begin = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    const ShardSetEntry& e = shards[s];
    if (e.user_begin != expected_begin || e.user_begin >= e.user_end) {
      return Status::InvalidArgument(
          "shard ranges do not tile [0, num_users) at shard " +
          std::to_string(s));
    }
    begins.push_back(e.user_begin);
    expected_begin = e.user_end;
  }
  if (expected_begin != num_users) {
    return Status::InvalidArgument(
        "shard ranges cover " + std::to_string(expected_begin) +
        " users but the manifest declares " + std::to_string(num_users));
  }
  return ShardMap::FromBoundaries(std::move(begins), num_users);
}

bool IsShardSetFile(const std::string& path) {
  // open/read, not a std::ifstream: every registry load sniffs its file,
  // and a stream would start libstdc++'s locale machinery in the daemon.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char head[sizeof(kManifestMagic)] = {};  // magic + the following space
  size_t got = 0;
  while (got < sizeof(head)) {
    const ssize_t n = ::read(fd, head + got, sizeof(head) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return got == sizeof(head) &&
         std::memcmp(head, kManifestMagic, sizeof(kManifestMagic) - 1) == 0 &&
         head[sizeof(head) - 1] == ' ';
}

std::string ShardSetResolve(const std::string& manifest_path,
                            const std::string& file) {
  if (!file.empty() && file.front() == '/') return file;
  return DirOf(manifest_path) + file;
}

Result<ShardSetManifest> LoadShardSetManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open shardset manifest '" + path + "'");
  }
  std::string line;
  if (!std::getline(in, line)) return TruncatedError(path);
  {
    std::istringstream head(line);
    std::string magic;
    uint32_t version = 0;
    if (!(head >> magic >> version) || magic != kManifestMagic) {
      return Status::ParseError("'" + path +
                                "' is not a shardset manifest (bad magic)");
    }
    if (version != kManifestVersion) {
      return Status::ParseError("shardset manifest '" + path +
                                "' has unsupported version " +
                                std::to_string(version));
    }
  }

  ShardSetManifest m;
  uint32_t declared_shards = 0;
  bool saw_shard_count = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "users") {
      if (!(fields >> m.num_users)) return MalformedLine(path, line);
    } else if (key == "items") {
      if (!(fields >> m.num_items)) return MalformedLine(path, line);
    } else if (key == "k") {
      if (!(fields >> m.k)) return MalformedLine(path, line);
    } else if (key == "split") {
      if (!(fields >> m.split)) return MalformedLine(path, line);
    } else if (key == "items-file") {
      std::string hex;
      if (!(fields >> m.items_file >> hex)) return MalformedLine(path, line);
      m.items_fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
    } else if (key == "shards") {
      if (!(fields >> declared_shards)) return MalformedLine(path, line);
      saw_shard_count = true;
    } else if (key == "shard") {
      ShardSetEntry e;
      std::string hex;
      if (!(fields >> e.user_begin >> e.user_end >> e.file >> hex)) {
        return MalformedLine(path, line);
      }
      e.fingerprint = std::strtoull(hex.c_str(), nullptr, 16);
      m.shards.push_back(std::move(e));
    } else {
      return MalformedLine(path, line);
    }
  }
  if (!saw_end) return TruncatedError(path);
  if (!saw_shard_count || declared_shards != m.shards.size()) {
    return Status::ParseError(
        "shardset manifest '" + path + "' shard count disagreement: declares " +
        std::to_string(declared_shards) + " shards but lists " +
        std::to_string(m.shards.size()));
  }
  if (m.k == 0 || m.num_users == 0 || m.items_file.empty()) {
    return Status::ParseError("shardset manifest '" + path +
                              "' is missing required fields");
  }
  if (m.split != "user-range") {
    return Status::ParseError("shardset manifest '" + path +
                              "' has unsupported split rule '" + m.split +
                              "'");
  }
  // Ranges must tile the user space; a gap or overlap is a manifest
  // corruption, not a routing choice.
  if (Result<ShardMap> map = m.Map(); !map.ok()) {
    return Status::ParseError("shardset manifest '" + path +
                              "': " + map.status().message());
  }
  return m;
}

Status SaveShardSetManifest(const ShardSetManifest& manifest,
                            const std::string& path) {
  std::ostringstream out;
  out << kManifestMagic << ' ' << kManifestVersion << '\n';
  out << "users " << manifest.num_users << '\n';
  out << "items " << manifest.num_items << '\n';
  out << "k " << manifest.k << '\n';
  out << "split " << manifest.split << '\n';
  out << "items-file " << manifest.items_file << ' '
      << HexFingerprint(manifest.items_fingerprint) << '\n';
  out << "shards " << manifest.shards.size() << '\n';
  for (const ShardSetEntry& e : manifest.shards) {
    out << "shard " << e.user_begin << ' ' << e.user_end << ' ' << e.file
        << ' ' << HexFingerprint(e.fingerprint) << '\n';
  }
  out << "end\n";
  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  file << out.str();
  if (!file) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

// ----------------------------------------------------------- validation

namespace {

/// Checks one member file against its manifest fingerprint: IOError when
/// the file is missing/unreadable, ParseError ("fingerprint mismatch")
/// when its content changed since the manifest was written.
Status CheckShardSetMember(const std::string& manifest_path,
                           const std::string& file, uint64_t expected) {
  const std::string full = ShardSetResolve(manifest_path, file);
  Result<uint64_t> fp = fs::FileFingerprint(full);
  if (!fp.ok()) {
    return Status::IOError("shardset member '" + file +
                           "' is missing or unreadable: " +
                           fp.status().message());
  }
  if (*fp != expected) {
    return Status::ParseError(
        "fingerprint mismatch on shardset member '" + file +
        "': manifest records " + HexFingerprint(expected) + ", file has " +
        HexFingerprint(*fp) + " — refusing to serve a torn shardset");
  }
  return Status::OK();
}

/// Validates the shared items file's header against the manifest (no
/// users, exactly num_items items, matching k). ParseError ("header
/// disagrees") otherwise.
Status ValidateItemsHeader(const ShardSetManifest& manifest,
                           const ModelStore& store) {
  if (store.num_users() != 0 || store.num_items() != manifest.num_items ||
      store.k() != manifest.k) {
    return Status::ParseError(
        "items file header disagrees with the manifest: file has " +
        std::to_string(store.num_users()) + " users, " +
        std::to_string(store.num_items()) + " items, k=" +
        std::to_string(store.k()) + "; manifest expects 0 users, " +
        std::to_string(manifest.num_items) + " items, k=" +
        std::to_string(manifest.k));
  }
  return Status::OK();
}

/// Validates shard `index`'s header against its manifest range (exactly
/// user_end-user_begin users, no items, matching k). ParseError ("header
/// disagrees") otherwise.
Status ValidateShardHeader(const ShardSetManifest& manifest, size_t index,
                           const ModelStore& store) {
  const ShardSetEntry& e = manifest.shards[index];
  const uint32_t want_users = e.user_end - e.user_begin;
  if (store.num_users() != want_users || store.num_items() != 0 ||
      store.k() != manifest.k) {
    return Status::ParseError(
        "shard " + std::to_string(index) +
        " header disagrees with the manifest: file has " +
        std::to_string(store.num_users()) + " users, " +
        std::to_string(store.num_items()) + " items, k=" +
        std::to_string(store.k()) + "; manifest expects " +
        std::to_string(want_users) + " users, 0 items, k=" +
        std::to_string(manifest.k));
  }
  return Status::OK();
}

/// Fingerprint-checks one member, then aliases `reuse` (the previous
/// generation's mapping of the same bytes) when given, else maps the file
/// and counts it in `*opened`.
Result<std::shared_ptr<const ModelStore>> OpenMember(
    const std::string& manifest_path, const std::string& file,
    uint64_t fingerprint, std::shared_ptr<const ModelStore> reuse,
    uint32_t* opened) {
  // Every member is fingerprint-checked against the manifest even when
  // reused — a torn shardset (manifest republished, member write lost)
  // must refuse to load rather than serve a mix of generations.
  OCULAR_RETURN_IF_ERROR(
      CheckShardSetMember(manifest_path, file, fingerprint));
  if (reuse != nullptr) return reuse;
  OCULAR_ASSIGN_OR_RETURN(
      ModelStore store,
      ModelStore::Open(ShardSetResolve(manifest_path, file)));
  ++*opened;
  return std::make_shared<const ModelStore>(std::move(store));
}

}  // namespace

size_t ShardSetStores::mapped_bytes() const {
  size_t total = items->mapped_bytes();
  for (const auto& shard : shards) {
    if (shard != items) total += shard->mapped_bytes();
  }
  return total;
}

std::vector<ConstMatrixView> ShardSetStores::user_blocks() const {
  std::vector<ConstMatrixView> out;
  out.reserve(shards.size());
  for (const auto& shard : shards) out.push_back(shard->user_factors());
  return out;
}

Result<ShardSetStores> OpenShardSet(const std::string& manifest_path,
                                    const ShardSetStores* previous,
                                    uint32_t* reopened) {
  ShardSetStores out;
  OCULAR_ASSIGN_OR_RETURN(out.manifest, LoadShardSetManifest(manifest_path));
  OCULAR_ASSIGN_OR_RETURN(out.map, out.manifest.Map());
  const ShardSetManifest* prev =
      previous != nullptr ? &previous->manifest : nullptr;
  uint32_t opened = 0;

  const bool same_items =
      prev != nullptr && prev->items_file == out.manifest.items_file &&
      prev->items_fingerprint == out.manifest.items_fingerprint;
  OCULAR_ASSIGN_OR_RETURN(
      out.items,
      OpenMember(manifest_path, out.manifest.items_file,
                 out.manifest.items_fingerprint,
                 same_items ? previous->items : nullptr, &opened));
  OCULAR_RETURN_IF_ERROR(ValidateItemsHeader(out.manifest, *out.items));

  out.shards.reserve(out.manifest.shards.size());
  for (size_t s = 0; s < out.manifest.shards.size(); ++s) {
    const ShardSetEntry& e = out.manifest.shards[s];
    const bool same_shard = prev != nullptr && s < prev->shards.size() &&
                            prev->shards[s].file == e.file &&
                            prev->shards[s].fingerprint == e.fingerprint &&
                            prev->shards[s].user_begin == e.user_begin &&
                            prev->shards[s].user_end == e.user_end;
    OCULAR_ASSIGN_OR_RETURN(
        std::shared_ptr<const ModelStore> shard,
        OpenMember(manifest_path, e.file, e.fingerprint,
                   same_shard ? previous->shards[s] : nullptr, &opened));
    OCULAR_RETURN_IF_ERROR(ValidateShardHeader(out.manifest, s, *shard));
    out.shards.push_back(std::move(shard));
  }
  if (reopened != nullptr) *reopened = opened;
  return out;
}

Result<ShardSetStores> OpenOneShardSet(const std::string& path) {
  OCULAR_ASSIGN_OR_RETURN(ModelStore store, ModelStore::Open(path));
  ShardSetStores out;
  out.map = ShardMap::Single(store.num_users());
  out.items = std::make_shared<const ModelStore>(std::move(store));
  out.shards = {out.items};
  return out;
}

// -------------------------------------------------------------- writers

Status WriteShardSetStreaming(const BinaryModelMeta& meta, const ShardMap& map,
                              ConstMatrixView items_t,
                              const ShardRowFn& row_fn,
                              const std::string& manifest_path) {
  if (map.num_shards() == 0) {
    return Status::InvalidArgument("cannot write a shardset with no shards");
  }
  if (meta.k == 0 || items_t.rows() != meta.k) {
    return Status::InvalidArgument("items_t does not have meta.k rows");
  }

  const std::string dir = DirOf(manifest_path);
  const std::string stem = MemberStem(manifest_path);

  ShardSetManifest manifest;
  manifest.num_users = map.num_users();
  manifest.num_items = items_t.cols();
  manifest.k = meta.k;
  manifest.items_file = stem + ".items.oclr";

  OCULAR_RETURN_IF_ERROR(WriteModelSections(
      meta, {0, meta.k, nullptr}, SectionSource::Rows(items_t),
      dir + manifest.items_file));
  OCULAR_ASSIGN_OR_RETURN(manifest.items_fingerprint,
                          fs::FileFingerprint(dir + manifest.items_file));

  // Each shard streams through the writer's buffer: a row is pulled from
  // `row_fn` into `row` when the writer first asks for it (it asks in
  // ascending order, a row possibly in several column runs), so one row
  // is the only user-factor storage this function holds.
  std::vector<double> row(meta.k);
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    const uint32_t begin = map.begin(s);
    uint32_t pulled = UINT32_MAX;
    const SectionSource users = {
        map.end(s) - begin, meta.k,
        [&](uint32_t r, uint32_t c, std::span<double> out) {
          if (r != pulled) {
            row_fn(begin + r, row);
            pulled = r;
          }
          std::copy_n(row.begin() + c, out.size(), out.begin());
        }};
    ShardSetEntry e;
    e.user_begin = begin;
    e.user_end = map.end(s);
    e.file = ShardFileName(stem, s);
    OCULAR_RETURN_IF_ERROR(
        WriteModelSections(meta, users, {meta.k, 0, nullptr}, dir + e.file));
    OCULAR_ASSIGN_OR_RETURN(e.fingerprint, fs::FileFingerprint(dir + e.file));
    manifest.shards.push_back(std::move(e));
  }

  // The manifest lands last: a crash anywhere above leaves member files
  // but nothing that OpenShardSet would accept.
  return SaveShardSetManifest(manifest, manifest_path);
}

Result<LoadedModel> MaterializeShardSetOcular(const ShardSetStores& set) {
  const BinaryModelMeta& meta = set.items->meta();
  if (meta.kind != BinaryModelKind::kOcularProbability) {
    return Status::FailedPrecondition(
        "model '" + meta.algorithm + "' is not an OCuLaR-family model");
  }
  LoadedModel out;
  out.config = OcularConfigFromMeta(meta);
  DenseMatrix users(set.manifest.num_users, meta.k);
  for (size_t s = 0; s < set.shards.size(); ++s) {
    const ConstMatrixView slice = set.shards[s]->user_factors();
    std::memcpy(users.data() +
                    static_cast<size_t>(set.manifest.shards[s].user_begin) *
                        meta.k,
                slice.Row(0).data(), slice.size() * sizeof(double));
  }
  out.model = OcularModel(std::move(users),
                          TransposedCopy(set.items->item_factors_t()));
  return out;
}

Status SaveModelSharded(const BinaryModelMeta& meta, ConstMatrixView users,
                        ConstMatrixView items_t, uint32_t num_shards,
                        const std::string& manifest_path) {
  if (users.cols() != meta.k) {
    return Status::InvalidArgument("users does not have meta.k columns");
  }
  OCULAR_ASSIGN_OR_RETURN(ShardMap map,
                          ShardMap::EvenSplit(users.rows(), num_shards));
  const ShardRowFn copy_row = [&users](uint32_t user, std::span<double> out) {
    const std::span<const double> row = users.Row(user);
    std::copy(row.begin(), row.end(), out.begin());
  };
  return WriteShardSetStreaming(meta, map, items_t, copy_row, manifest_path);
}

}  // namespace ocular
