// Shared driver of the `ocular_served` binary and the `ocular_cli serve`
// subcommand: parses --models/--datasets specs, fills a ModelRegistry, and
// runs the RequestServer over stdio or TCP.
//
// Flags:
//   --models=name=path[,name=path...]    binary OCLR model files (required)
//   --datasets=name=path[,...]           optional per-model exclusion data;
//                                        each name must be a --models name
//   --delimiter=C                        dataset delimiter, one character
//                                        (default tab)
//   --port=N                             TCP on 127.0.0.1:N (default stdio)
//   --m=N                                default top-M per request (50)
//   --workers=N                          TCP worker threads (0 = one per
//                                        hardware thread)
//   --accept-queue=N                     dispatch-queue depth between the
//                                        IO thread and the workers (128);
//                                        a full queue is backpressure,
//                                        not shedding
//   --max-connections=N                  open connections admitted before
//                                        new arrivals get a 503 shed
//                                        (0 = unlimited)
//   --max-outbound-bytes=N               per-connection reply backlog a
//                                        slow consumer may hold before
//                                        disconnect (8 MiB)
//   --update-sweeps=N                    default trainer sweeps an `update`
//                                        request runs when it does not set
//                                        its own "sweeps" (5)
//   --max-request-bytes=N                longest request line before a
//                                        413-style reply + close (1 MiB)
//   --io-timeout-ms=N                    IO-loop deadline sweep tick and
//                                        write-stall deadline (1000;
//                                        0 = no deadlines)
//   --idle-timeout-ms=N                  close connections with no complete
//                                        request for this long (30000;
//                                        0 = never)
//   --retry-after-ms=N                   backoff hint in 503 shed replies
//                                        (50)
//   --journal=0|1                        write-ahead journal every update
//                                        to <model>.update.journal and
//                                        recover it at startup (1)
//
// The process pins glibc's mmap threshold before it loads anything,
// installs the SIGHUP hot-reload handler and the SIGTERM/SIGINT
// graceful-drain handler before serving, and replays each model's update
// journal (crash recovery) before accepting requests.

#ifndef OCULAR_TOOLS_SERVE_MAIN_H_
#define OCULAR_TOOLS_SERVE_MAIN_H_

#include <malloc.h>
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
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
/// --datasets entry must name a --models entry, and --delimiter must be
/// one character: each would otherwise serve without the exclusions the
/// operator asked for.
inline Status LoadRegistryFromFlags(const Flags& flags,
                                    ModelRegistry* registry) {
  OCULAR_ASSIGN_OR_RETURN(std::string models_spec,
                          flags.RequireString("models"));
  OCULAR_ASSIGN_OR_RETURN(auto model_specs,
                          ParseNamePathSpecs("models", models_spec));

  std::vector<std::pair<std::string, std::string>> dataset_specs;
  if (flags.Has("datasets")) {
    OCULAR_ASSIGN_OR_RETURN(
        dataset_specs,
        ParseNamePathSpecs("datasets", flags.GetString("datasets")));
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
  const std::string delimiter = flags.GetString("delimiter", "\t");
  if (delimiter.size() != 1) {
    return Status::InvalidArgument("--delimiter='" + delimiter +
                                   "' is not one character");
  }
  for (const auto& [name, model_path] : model_specs) {
    std::shared_ptr<const CsrMatrix> train;
    for (const auto& [data_name, data_path] : dataset_specs) {
      if (data_name != name) continue;
      CsvOptions opts;
      opts.delimiter = delimiter[0];
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

/// glibc's initial mmap threshold. Left dynamic, glibc raises it to the
/// size of each mmapped block freed (up to 32 MiB), after which an
/// update's model-sized buffers come from the arena of the worker thread
/// that ran it, and the arena keeps them resident once freed. Pinned,
/// every allocation of 128 KiB or more is its own mapping, returned to
/// the kernel when freed.
inline constexpr int kServeMmapThresholdBytes = 128 * 1024;

/// Full serve command: registry + SIGHUP handler + stdio/TCP loop.
/// Returns a process exit code.
inline int RunServeCommand(const Flags& flags) {
  ::mallopt(M_MMAP_THRESHOLD, kServeMmapThresholdBytes);
  ModelRegistry registry;
  Status st = LoadRegistryFromFlags(flags, &registry);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  RequestServer::Options options;
  options.serve.m = static_cast<uint32_t>(flags.GetInt("m", 50));
  const int64_t workers = flags.GetInt("workers", 0);
  if (workers < 0 || workers > 4096) {
    std::fprintf(stderr, "--workers must be in [0, 4096] (0 = one per "
                         "hardware thread)\n");
    return 1;
  }
  options.num_workers = static_cast<size_t>(workers);
  const int64_t accept_queue = flags.GetInt("accept-queue", 128);
  if (accept_queue < 1 || accept_queue > 1 << 20) {
    std::fprintf(stderr, "--accept-queue must be in [1, 1048576]\n");
    return 1;
  }
  options.accept_queue = static_cast<size_t>(accept_queue);
  const int64_t max_connections = flags.GetInt("max-connections", 0);
  if (max_connections < 0 || max_connections > 1 << 20) {
    std::fprintf(stderr,
                 "--max-connections must be in [0, 1048576] (0 = unlimited)\n");
    return 1;
  }
  options.max_connections = static_cast<size_t>(max_connections);
  const int64_t max_outbound_bytes =
      flags.GetInt("max-outbound-bytes", 8 << 20);
  if (max_outbound_bytes < (64 << 10) || max_outbound_bytes > (1 << 30)) {
    std::fprintf(stderr, "--max-outbound-bytes must be in [65536, 2^30]\n");
    return 1;
  }
  options.max_outbound_bytes = static_cast<size_t>(max_outbound_bytes);
  const int64_t update_sweeps = flags.GetInt("update-sweeps", 5);
  if (update_sweeps < 1 || update_sweeps > 100000) {
    std::fprintf(stderr, "--update-sweeps must be in [1, 100000]\n");
    return 1;
  }
  options.update_sweeps = static_cast<uint32_t>(update_sweeps);
  const int64_t max_request_bytes =
      flags.GetInt("max-request-bytes", 1 << 20);
  if (max_request_bytes < 1024 || max_request_bytes > (1 << 30)) {
    std::fprintf(stderr, "--max-request-bytes must be in [1024, 2^30]\n");
    return 1;
  }
  options.max_request_bytes = static_cast<size_t>(max_request_bytes);
  const int64_t io_timeout_ms = flags.GetInt("io-timeout-ms", 1000);
  if (io_timeout_ms < 0 || io_timeout_ms > 3600000) {
    std::fprintf(stderr, "--io-timeout-ms must be in [0, 3600000]\n");
    return 1;
  }
  options.io_timeout_ms = static_cast<uint32_t>(io_timeout_ms);
  const int64_t idle_timeout_ms = flags.GetInt("idle-timeout-ms", 30000);
  if (idle_timeout_ms < 0 || idle_timeout_ms > 86400000) {
    std::fprintf(stderr, "--idle-timeout-ms must be in [0, 86400000]\n");
    return 1;
  }
  options.idle_timeout_ms = static_cast<uint32_t>(idle_timeout_ms);
  const int64_t retry_after_ms = flags.GetInt("retry-after-ms", 50);
  if (retry_after_ms < 1 || retry_after_ms > 60000) {
    std::fprintf(stderr, "--retry-after-ms must be in [1, 60000]\n");
    return 1;
  }
  options.retry_after_ms = static_cast<uint32_t>(retry_after_ms);
  options.update_journal = flags.GetBool("journal", true);
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

  const int64_t port = flags.GetInt("port", 0);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "--port must be in [1, 65535] (0 = stdio)\n");
    return 1;
  }
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
                 "serving on 127.0.0.1:%lld with %zu workers "
                 "(SIGHUP reloads, SIGTERM drains)\n",
                 static_cast<long long>(port), server.num_workers());
    st = server.RunTcpLoop(static_cast<uint16_t>(port));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "serving on stdin/stdout (SIGHUP reloads)\n");
    server.RunStdioLoop(std::cin, std::cout);
  }
  return 0;
}

}  // namespace ocular

#endif  // OCULAR_TOOLS_SERVE_MAIN_H_
