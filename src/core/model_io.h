#ifndef OCULAR_CORE_MODEL_IO_H_
#define OCULAR_CORE_MODEL_IO_H_

#include <string>

#include "common/result.h"
#include "core/ocular_trainer.h"

namespace ocular {

/// \file
/// \brief On-disk model persistence, v1 text format.
///
/// The library has two model file formats; this header is the v1 TEXT
/// format, core/model_store.h is the BINARY format ("OCLR" v3). Choose by
/// use:
///
/// - **v1 text** (`SaveModel`/`LoadModel`, this header): portable across
///   endianness, diffable, greppable, hand-editable. Loading PARSES every
///   factor entry (seconds of CPU at production catalog sizes, plus a full
///   in-memory copy), so use it for archival, debugging, and interchange —
///   not for serving. Factors are written "%.17g", which round-trips
///   doubles exactly, so converting between the formats is lossless.
/// - **binary** ("OCLR", `SaveModelBinary`/`ModelStore::Open`): the
///   deployable artifact. Little-endian, 64-byte-aligned, checksummed
///   sections that mmap straight into the serving kernels — no parse,
///   zero copies, page-cache sharing across processes; a verifying open
///   hashes every section once at memory bandwidth. Use it for
///   everything a daemon serves or hot-reloads.
///
/// `ocular_cli convert` translates between the two;
/// docs/MODEL_FORMAT.md holds both byte-level specifications.
///
/// v1 grammar (one header line, one config line, two matrices):
///
///   ocular-model v1
///   k <K> lambda <l> variant <absolute|relative> biases <0|1>
///   users <n_u>
///   <dims numbers per line> ...   (dims = K, or K+2 with biases)
///   items <n_i>
///   <dims numbers per line> ...
///
/// Loaders also accept the older config line without the `biases` field.

/// \brief Writes the model (and the config it was trained with) to `path`
/// in the v1 text format.
Status SaveModel(const OcularModel& model, const OcularConfig& config,
                 const std::string& path);

/// \brief A loaded model plus its training configuration.
struct LoadedModel {
  /// The factor matrices.
  OcularModel model;
  /// The configuration the model was trained with.
  OcularConfig config;
};

/// \brief Reads a model written by SaveModel. Fails with ParseError on any
/// malformed content and IOError on unreadable files. (For binary OCLR files
/// use ModelStore::Open, or LoadModelAuto to sniff the format.)
Result<LoadedModel> LoadModel(const std::string& path);

}  // namespace ocular

#endif  // OCULAR_CORE_MODEL_IO_H_
