// ocular_served — long-running model server for OCuLaR binary models.
//
// Holds one or more mmapped binary OCLR models resident (ModelRegistry) and
// answers newline-delimited JSON requests through the blocked scoring
// engine, over stdin/stdout by default or a loopback TCP port with
// --port=N. SIGHUP hot-reloads every model file atomically; in-flight
// requests finish on the old mapping.
//
// Examples:
//   ocular_served --models=default=/models/b2b.oclr \
//       --datasets=default=/data/b2b.tsv
//   ocular_served --models=a=/models/a.oclr,b=/models/b.oclr --port=7700
//
//   $ echo '{"cmd":"recommend","user":3,"m":5}' | ocular_served \
//       --models=default=/models/b2b.oclr
//   {"ok":true,"model":"default","user":3,"items":[...]}
//
// See docs/OPERATIONS.md for the full train -> save -> serve -> hot-reload
// walkthrough and the protocol reference in src/serving/daemon.h.

#include "tools/serve_main.h"

namespace ocular {
namespace {

constexpr char kUsage[] = R"(usage: ocular_served --models=name=path[,...]
        [--datasets=name=path[,...]] [--delimiter=C] [--port=N] [--m=N]
        [--workers=N] [--accept-queue=N] [--max-connections=N]
        [--max-outbound-bytes=N] [--update-sweeps=N]
        [--max-request-bytes=N] [--io-timeout-ms=N] [--idle-timeout-ms=N]
        [--retry-after-ms=N] [--journal=0|1]

Serves binary OCLR (.oclr) model files; convert v1 text models first with
`ocular_cli convert`. Requests are one JSON object per line:
  {"cmd":"recommend","model":"default","user":3,"m":10}
  {"cmd":"models"} | {"cmd":"stats"} | {"cmd":"reload"} | {"cmd":"quit"}

With --port the daemon runs one epoll IO thread plus --workers serving
threads (default: one per hardware thread). A full --accept-queue (the
IO thread's dispatch queue to the workers, 128) is backpressure: the
parsed requests wait for a free worker and nothing is shed. Only
admission sheds: a connection arriving past --max-connections open ones
(default 0 = unlimited) or when the process is out of file descriptors
gets a {"ok":false,...,"code":503,"retry_after_ms":N} reply and is
closed. A client that leaves more than --max-outbound-bytes of replies
unread (default 8 MiB) is disconnected. Request lines longer than
--max-request-bytes are answered with code 413 and closed; connections
idle past
--idle-timeout-ms are reaped with code 408. Updates are journaled to
<model>.update.journal and recovered at startup (--journal=0 disables).
SIGHUP hot-reloads models; SIGTERM drains gracefully (stops accepting,
answers everything already read, prints a final stats line, exits 0).
)";

int Run(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (!flags.Has("models")) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  return RunServeCommand(flags);
}

}  // namespace
}  // namespace ocular

int main(int argc, char** argv) { return ocular::Run(argc, argv); }
