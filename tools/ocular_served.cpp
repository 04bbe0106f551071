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
// Run it with no arguments for its flags. See docs/OPERATIONS.md for the
// full train -> save -> serve -> hot-reload walkthrough and the protocol
// reference in src/serving/daemon.h.

#include "tools/serve_main.h"

int main(int argc, char** argv) {
  return ocular::RunServeCommand("ocular_served", argc, argv);
}
