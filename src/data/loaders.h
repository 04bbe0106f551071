#ifndef OCULAR_DATA_LOADERS_H_
#define OCULAR_DATA_LOADERS_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "data/dataset.h"

namespace ocular {

/// The loaders read their files in blocks of this many bytes and parse each
/// line where it lies in the block, so a load holds the matrix being built
/// plus one block, never the whole file. A line longer than a block grows
/// the buffer to fit it.
///
/// Raw ids kept as matrix indices (compact_ids = false) must be at most
/// 4294967294; a larger one is a ParseError naming `file:line`.
inline constexpr size_t kLoaderBlockBytes = size_t{64} << 10;

/// Options shared by the rating-file loaders.
struct LoaderOptions {
  /// Ratings >= this value become positive examples; everything else is
  /// dropped (the ">= 3 stars" convention of the paper, Section VII-A).
  double positive_threshold = 3.0;
  /// Remap raw ids to dense [0, n) ids (true for public datasets whose ids
  /// are 1-based and sparse).
  bool compact_ids = true;
};

/// Loads MovieLens-100K format: tab-separated `user \t item \t rating \t ts`.
Result<Dataset> LoadMovieLens100K(const std::string& path,
                                  const LoaderOptions& options = {});

/// Loads MovieLens-1M/10M format: `user::item::rating::timestamp`.
Result<Dataset> LoadMovieLens1M(const std::string& path,
                                const LoaderOptions& options = {});

/// Loads a Netflix-prize per-movie file set. `paths` are files of the form
///   <movie id>:\n
///   <user>,<rating>,<date>\n ...
Result<Dataset> LoadNetflix(const std::vector<std::string>& paths,
                            const LoaderOptions& options = {});

/// Loads a generic delimited file of positive pairs (CiteULike-style
/// `users.dat`: line u lists the item ids of user u) when
/// `line_per_user` is true, or `user <delim> item [<delim> rating]` rows
/// otherwise.
struct CsvOptions {
  char delimiter = ' ';
  bool line_per_user = false;
  /// Column holding the rating; -1 means "every row is a positive".
  int rating_column = -1;
  double positive_threshold = 3.0;
  bool compact_ids = true;
  /// Lines starting with this character are skipped ('\0' disables).
  char comment_char = '#';
};
Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options = {});

/// Writes `dataset` as `user <sep> item` lines (round-trip with LoadCsv).
Status SaveCsv(const Dataset& dataset, const std::string& path,
               char delimiter = '\t');

}  // namespace ocular

#endif  // OCULAR_DATA_LOADERS_H_
