// Shared driver of the `ocular_served` binary and the `ocular_cli serve`
// subcommand: declares the serve flags, parses --models/--datasets specs,
// fills a ModelRegistry, and runs the RequestServer over stdio or TCP.
//
// The process pins glibc's mmap threshold before it loads anything,
// installs the SIGHUP hot-reload handler and the SIGTERM/SIGINT
// graceful-drain handler before serving, and replays each model's update
// journal (crash recovery) before accepting requests.

#ifndef OCULAR_TOOLS_SERVE_MAIN_H_
#define OCULAR_TOOLS_SERVE_MAIN_H_

#include <malloc.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "data/loaders.h"
#include "serving/daemon.h"
#include "serving/registry.h"

namespace ocular {

/// Splits `--flag`'s "name=path[,name=path...]" into pairs (first '='
/// delimits). A name given twice is an error: one of the two entries
/// would be dropped without a word.
inline Result<std::vector<std::pair<std::string, std::string>>>
ParseNamePathSpecs(const std::string& flag, const std::string& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::string_view spec : Split(specs, ',')) {
    const size_t eq = spec.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == spec.size()) {
      return Status::InvalidArgument("malformed spec '" + std::string(spec) +
                                     "' (expected name=path)");
    }
    std::string name(spec.substr(0, eq));
    for (const auto& earlier : out) {
      if (earlier.first == name) {
        return Status::InvalidArgument("--" + flag + " entry '" +
                                       std::string(spec) +
                                       "' repeats the name '" + name + "'");
      }
    }
    out.emplace_back(std::move(name), std::string(spec.substr(eq + 1)));
  }
  return out;
}

/// Loads every --models (and --datasets) entry into `registry`. A
/// --datasets entry must name a --models entry: it would otherwise serve
/// without the exclusions the operator asked for.
inline Status LoadRegistryFromFlags(const Flags& flags,
                                    ModelRegistry* registry) {
  OCULAR_ASSIGN_OR_RETURN(auto model_specs,
                          ParseNamePathSpecs("models", flags.String("models")));

  std::vector<std::pair<std::string, std::string>> dataset_specs;
  if (flags.Has("datasets")) {
    OCULAR_ASSIGN_OR_RETURN(
        dataset_specs,
        ParseNamePathSpecs("datasets", flags.String("datasets")));
  }
  for (const auto& [data_name, data_path] : dataset_specs) {
    const bool served = std::any_of(
        model_specs.begin(), model_specs.end(),
        [&](const auto& model) { return model.first == data_name; });
    if (!served) {
      return Status::InvalidArgument("--datasets entry '" + data_name + "=" +
                                     data_path + "' names no --models entry");
    }
  }
  for (const auto& [name, model_path] : model_specs) {
    std::shared_ptr<const CsrMatrix> train;
    for (const auto& [data_name, data_path] : dataset_specs) {
      if (data_name != name) continue;
      CsvOptions opts;
      opts.delimiter = flags.Char("delimiter");
      // Keep raw ids so dataset row u IS model/request user u — compact
      // remapping would silently bind exclusions to the wrong users.
      opts.compact_ids = false;
      OCULAR_ASSIGN_OR_RETURN(Dataset ds, LoadCsv(data_path, opts));
      train = std::make_shared<const CsrMatrix>(ds.TakeInteractions());
      break;
    }
    OCULAR_RETURN_IF_ERROR(registry->Load(name, model_path, std::move(train)));
  }
  return Status::OK();
}

/// The serve flags of `program` (`ocular_served` or `ocular serve`).
inline FlagTable ServeFlagTable(std::string program) {
  return {std::move(program),
          "Serves binary OCLR (.oclr) models and shardsets; convert v1 text\n"
          "models with `ocular_cli convert`. Requests are one JSON object per\n"
          "line: {\"cmd\":\"recommend\",\"user\":3,\"m\":10}, "
          "{\"cmd\":\"stats\"}, ... (see\n"
          "docs/OPERATIONS.md). SIGHUP hot-reloads every model; SIGTERM "
          "drains\n(answers everything already read, prints a final stats "
          "line, exits 0).",
          {StringFlag("models", "",
                      "binary models, name=path[,name=path...] (required)"),
           StringFlag("datasets", "",
                      "exclusion datasets, name=path[,...]; each name must be "
                      "a --models name"),
           CharFlag("delimiter", '\t', "--datasets field delimiter"),
           IntFlag("port", 0, 65535, "0",
                   "TCP port on 127.0.0.1; 0 serves stdin/stdout"),
           IntFlag("m", 0, UINT32_MAX, "50",
                   "top-M of a request that does not set \"m\""),
           IntFlag("workers", 0, 4096, "0",
                   "TCP worker threads; 0 = one per usable CPU"),
           IntFlag("accept-queue", 1, 1 << 20, "128",
                   "requests queued from the IO thread to the workers; a "
                   "full queue is backpressure, not shedding"),
           IntFlag("max-connections", 0, 1 << 20, "0",
                   "open connections before new ones get a 503 shed reply; "
                   "0 = unlimited"),
           IntFlag("max-outbound-bytes", 64 << 10, 1 << 30, "8388608",
                   "unread reply bytes a client may hold before it is "
                   "disconnected"),
           IntFlag("max-request-bytes", 1024, 1 << 30, "1048576",
                   "longest request line; longer ones get a 413 reply and "
                   "are closed"),
           IntFlag("io-timeout-ms", 0, 3600000, "1000",
                   "deadline tick and write-stall deadline; 0 = none"),
           IntFlag("idle-timeout-ms", 0, 86400000, "30000",
                   "close a connection with no complete request for this "
                   "long (408); 0 = never"),
           IntFlag("retry-after-ms", 1, 60000, "50",
                   "backoff hint in 503 shed replies"),
           BoolFlag("journal", true,
                    "journal updates to <model>.update.journal and recover "
                    "them at startup")}};
}

/// glibc's initial mmap threshold. Left dynamic, glibc raises it to the
/// size of each mmapped block freed (up to 32 MiB), after which an
/// update's model-sized buffers come from the arena of the worker thread
/// that ran it, and the arena keeps them resident once freed. Pinned,
/// every allocation of 128 KiB or more is its own mapping, returned to
/// the kernel when freed.
inline constexpr int kServeMmapThresholdBytes = 128 * 1024;

/// Full serve command of `program`: flags + registry + SIGHUP handler +
/// stdio/TCP loop. Returns a process exit code.
inline int RunServeCommand(const std::string& program, int argc,
                           const char* const* argv) {
  const FlagTable table = ServeFlagTable(program);
  const Flags flags = ParseFlagsOrExit(table, argc, argv);
  if (!flags.Has("models")) return PrintUsage(table);
  ::mallopt(M_MMAP_THRESHOLD, kServeMmapThresholdBytes);
  ModelRegistry registry;
  Status st = LoadRegistryFromFlags(flags, &registry);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  RequestServer::Options options;
  options.serve.m = flags.Int<uint32_t>("m");
  options.num_workers = flags.Int<size_t>("workers");
  options.accept_queue = flags.Int<size_t>("accept-queue");
  options.max_connections = flags.Int<size_t>("max-connections");
  options.max_outbound_bytes = flags.Int<size_t>("max-outbound-bytes");
  options.max_request_bytes = flags.Int<size_t>("max-request-bytes");
  options.io_timeout_ms = flags.Int<uint32_t>("io-timeout-ms");
  options.idle_timeout_ms = flags.Int<uint32_t>("idle-timeout-ms");
  options.retry_after_ms = flags.Int<uint32_t>("retry-after-ms");
  options.update_journal = flags.Bool("journal");
  RequestServer server(&registry, options);
  RequestServer::InstallReloadSignalHandler();
  LineServer::InstallShutdownSignalHandler();
  // The daemon's socket writes use MSG_NOSIGNAL, but ignore SIGPIPE
  // process-wide too: no disconnecting client may take the server down.
  ::signal(SIGPIPE, SIG_IGN);

  // Crash recovery before the first request: re-merge journaled update
  // deltas into each model's training base, and resolve any update the
  // previous incarnation crashed inside (replay or heal — see
  // RequestServer::RecoverJournal). Refusing to serve on a recovery error
  // beats silently serving a model that is missing acked updates.
  if (options.update_journal) {
    for (const std::string& name : registry.Names()) {
      auto recovered = server.RecoverJournal(name);
      if (!recovered.ok()) {
        std::fprintf(stderr, "journal recovery for '%s' failed: %s\n",
                     name.c_str(), recovered.status().ToString().c_str());
        return 1;
      }
      if (recovered->applied_merged > 0 || recovered->replayed_pending ||
          recovered->healed_commit) {
        std::fprintf(
            stderr,
            "journal recovery for '%s': %llu committed updates re-merged%s%s%s\n",
            name.c_str(),
            static_cast<unsigned long long>(recovered->applied_merged),
            recovered->replayed_pending ? ", crashed update replayed" : "",
            recovered->healed_commit ? ", missing commit healed" : "",
            recovered->torn_tail ? ", torn tail discarded" : "");
      }
    }
  }

  const auto port = flags.Int<uint16_t>("port");
  for (const std::string& name : registry.Names()) {
    auto model = registry.Get(name);
    std::fprintf(stderr,
                 "loaded '%s': %s %u users x %u items, K=%u (%zu MB, %u "
                 "shard%s)\n",
                 name.c_str(), model->meta().algorithm.c_str(),
                 model->num_users(), model->num_items(), model->k(),
                 model->mapped_bytes() >> 20, model->num_shards(),
                 model->num_shards() == 1 ? "" : "s");
  }
  if (port > 0) {
    std::fprintf(stderr,
                 "serving on 127.0.0.1:%u with %zu workers "
                 "(SIGHUP reloads, SIGTERM drains)\n",
                 static_cast<unsigned>(port), server.num_workers());
    st = server.RunTcpLoop(port);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "serving on stdin/stdout (SIGHUP reloads)\n");
    server.RunStdioLoop(STDIN_FILENO, STDOUT_FILENO);
  }
  return 0;
}

}  // namespace ocular

#endif  // OCULAR_TOOLS_SERVE_MAIN_H_
