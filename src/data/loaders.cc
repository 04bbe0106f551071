#include "data/loaders.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/strings.h"
#include "sparse/coo.h"

namespace ocular {

namespace {

/// Largest raw id a loader keeps as a matrix index: index UINT32_MAX
/// would need a shape of 2^32, which no uint32 dimension can hold.
constexpr int64_t kMaxRawId = int64_t{UINT32_MAX} - 1;

std::string Where(const std::string& path, size_t lineno) {
  return path + ":" + std::to_string(lineno);
}

Status IdOutOfRange(const std::string& path, size_t lineno, int64_t id) {
  return Status::ParseError(Where(path, lineno) + ": id " +
                            std::to_string(id) +
                            " is past the largest id 4294967294");
}

/// Remaps arbitrary ids to dense [0, n) ids in first-seen order.
class IdMap {
 public:
  uint32_t Get(int64_t raw) {
    auto [it, inserted] = map_.try_emplace(raw, next_);
    if (inserted) ++next_;
    return it->second;
  }

 private:
  std::unordered_map<int64_t, uint32_t> map_;
  uint32_t next_ = 0;
};

/// Reads a file line by line through one buffer of kLoaderBlockBytes (grown
/// only for a line longer than that). A line is a view into the buffer,
/// without its '\n', valid until the next call. The lines are those of
/// std::getline: a final line without '\n' counts, and a trailing '\n'
/// does not start an empty one.
class LineReader {
 public:
  explicit LineReader(std::string path)
      : path_(std::move(path)), buf_(kLoaderBlockBytes) {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  }
  ~LineReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  Status OpenStatus() const {
    if (fd_ < 0) return Status::IOError("cannot open '" + path_ + "'");
    return Status::OK();
  }

  /// Next line; false at end of file or on a read error (see status()).
  bool Next(std::string_view* line) {
    for (;;) {
      const char* base = buf_.data();
      if (const void* nl = std::memchr(base + begin_, '\n', end_ - begin_)) {
        const size_t len = static_cast<const char*>(nl) - (base + begin_);
        *line = std::string_view(base + begin_, len);
        begin_ += len + 1;
        ++lineno_;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        *line = std::string_view(base + begin_, end_ - begin_);
        begin_ = end_;
        ++lineno_;
        return true;
      }
      // Keep the partial line, then refill behind it.
      std::memmove(buf_.data(), base + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
      const ssize_t n = ::read(fd_, buf_.data() + end_, buf_.size() - end_);
      if (n < 0) {
        if (errno == EINTR) continue;
        status_ = Status::IOError("read failure on '" + path_ + "': " +
                                  std::strerror(errno));
        return false;
      }
      if (n == 0) eof_ = true;
      end_ += static_cast<size_t>(n);
    }
  }

  size_t lineno() const { return lineno_; }
  const std::string& path() const { return path_; }
  const Status& status() const { return status_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::vector<char> buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  size_t lineno_ = 0;
  Status status_;
};

/// Walks the fields of one line without allocating: the fields of
/// Split(line, delimiter), or of SplitAny(line, " \t") for delimiter ' '.
class FieldCursor {
 public:
  FieldCursor(std::string_view line, char delimiter)
      : line_(line), delimiter_(delimiter) {}

  bool Next(std::string_view* field) {
    if (delimiter_ == ' ') {
      while (pos_ < line_.size() && IsBlank(line_[pos_])) ++pos_;
      if (pos_ == line_.size()) return false;
      size_t end = pos_;
      while (end < line_.size() && !IsBlank(line_[end])) ++end;
      *field = line_.substr(pos_, end - pos_);
      pos_ = end;
      return true;
    }
    if (done_) return false;
    const size_t end = line_.find(delimiter_, pos_);
    if (end == std::string_view::npos) {
      *field = line_.substr(pos_);
      done_ = true;
    } else {
      *field = line_.substr(pos_, end - pos_);
      pos_ = end + 1;
    }
    return true;
  }

 private:
  static bool IsBlank(char c) { return c == ' ' || c == '\t'; }

  std::string_view line_;
  char delimiter_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Turns parsed (user, item, rating) rows straight into builder entries:
/// drops ratings below the threshold, then remaps ids (compact_ids) or
/// keeps raw ids, rejecting ids no matrix index can hold.
class PositiveSink {
 public:
  PositiveSink(double threshold, bool compact_ids)
      : threshold_(threshold), compact_ids_(compact_ids) {}

  Status Add(int64_t user, int64_t item, double rating,
             const LineReader& lines) {
    if (rating < threshold_) return Status::OK();
    if (compact_ids_) {
      const uint32_t u = users_.Get(user);
      coo_.Add(u, items_.Get(item));
      return Status::OK();
    }
    if (user < 0 || item < 0) {
      // Reported once the whole input has parsed, so a malformed line
      // anywhere still takes precedence, as when every line was parsed
      // before any id was checked.
      negative_id_ = true;
      return Status::OK();
    }
    if (user > kMaxRawId || item > kMaxRawId) {
      return IdOutOfRange(lines.path(), lines.lineno(), std::max(user, item));
    }
    coo_.Add(static_cast<uint32_t>(user), static_cast<uint32_t>(item));
    return Status::OK();
  }

  Result<Dataset> Finish(std::string name) {
    if (negative_id_) {
      return Status::ParseError("negative id with compact_ids=false");
    }
    OCULAR_ASSIGN_OR_RETURN(auto entries, coo_.Finalize());
    return Dataset(std::move(name), CsrMatrix::FromCoo(std::move(entries)));
  }

 private:
  double threshold_;
  bool compact_ids_;
  CooBuilder coo_;
  IdMap users_, items_;
  bool negative_id_ = false;
};

}  // namespace

Result<Dataset> LoadMovieLens100K(const std::string& path,
                                  const LoaderOptions& options) {
  LineReader lines(path);
  OCULAR_RETURN_IF_ERROR(lines.OpenStatus());
  PositiveSink sink(options.positive_threshold, options.compact_ids);
  std::string_view line;
  while (lines.Next(&line)) {
    std::string_view sv = Trim(line);
    if (sv.empty()) continue;
    auto fields = SplitAny(sv, "\t ");
    if (fields.size() < 3) {
      return Status::ParseError(Where(path, lines.lineno()) +
                                ": expected >=3 fields");
    }
    OCULAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(fields[0]));
    OCULAR_ASSIGN_OR_RETURN(int64_t i, ParseInt64(fields[1]));
    OCULAR_ASSIGN_OR_RETURN(double r, ParseDouble(fields[2]));
    OCULAR_RETURN_IF_ERROR(sink.Add(u, i, r, lines));
  }
  OCULAR_RETURN_IF_ERROR(lines.status());
  return sink.Finish("movielens-100k");
}

Result<Dataset> LoadMovieLens1M(const std::string& path,
                                const LoaderOptions& options) {
  LineReader lines(path);
  OCULAR_RETURN_IF_ERROR(lines.OpenStatus());
  PositiveSink sink(options.positive_threshold, options.compact_ids);
  std::string_view line;
  while (lines.Next(&line)) {
    std::string_view sv = Trim(line);
    if (sv.empty()) continue;
    auto fields = SplitSeparator(sv, "::");
    if (fields.size() < 3) {
      return Status::ParseError(Where(path, lines.lineno()) +
                                ": expected user::item::rating");
    }
    OCULAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(fields[0]));
    OCULAR_ASSIGN_OR_RETURN(int64_t i, ParseInt64(fields[1]));
    OCULAR_ASSIGN_OR_RETURN(double r, ParseDouble(fields[2]));
    OCULAR_RETURN_IF_ERROR(sink.Add(u, i, r, lines));
  }
  OCULAR_RETURN_IF_ERROR(lines.status());
  return sink.Finish("movielens-1m");
}

Result<Dataset> LoadNetflix(const std::vector<std::string>& paths,
                            const LoaderOptions& options) {
  PositiveSink sink(options.positive_threshold, options.compact_ids);
  for (const auto& path : paths) {
    LineReader lines(path);
    OCULAR_RETURN_IF_ERROR(lines.OpenStatus());
    int64_t movie = -1;
    std::string_view line;
    while (lines.Next(&line)) {
      std::string_view sv = Trim(line);
      if (sv.empty()) continue;
      if (sv.back() == ':') {
        OCULAR_ASSIGN_OR_RETURN(movie,
                                ParseInt64(sv.substr(0, sv.size() - 1)));
        continue;
      }
      if (movie < 0) {
        return Status::ParseError(Where(path, lines.lineno()) +
                                  ": rating line before movie header");
      }
      auto fields = Split(sv, ',');
      if (fields.size() < 2) {
        return Status::ParseError(Where(path, lines.lineno()) +
                                  ": expected user,rating[,date]");
      }
      OCULAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(fields[0]));
      OCULAR_ASSIGN_OR_RETURN(double r, ParseDouble(fields[1]));
      OCULAR_RETURN_IF_ERROR(sink.Add(u, movie, r, lines));
    }
    OCULAR_RETURN_IF_ERROR(lines.status());
  }
  return sink.Finish("netflix");
}

Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  LineReader lines(path);
  OCULAR_RETURN_IF_ERROR(lines.OpenStatus());
  std::string_view line;

  if (options.line_per_user) {
    // CiteULike users.dat style: line u holds the items of user u. The first
    // token of each line is a count in the original format; we accept both
    // "count item item ..." and plain "item item ..." by treating a first
    // token equal to the remaining token count as a count.
    CooBuilder coo;
    uint32_t user = 0;
    while (lines.Next(&line)) {
      std::string_view sv = Trim(line);
      if (!sv.empty() && options.comment_char != '\0' &&
          sv.front() == options.comment_char) {
        continue;
      }
      auto fields = SplitAny(sv, " \t,");
      size_t start = 0;
      if (fields.size() >= 2) {
        auto head = ParseInt64(fields[0]);
        if (head.ok() && static_cast<size_t>(head.value()) ==
                             fields.size() - 1) {
          start = 1;  // leading count token
        }
      }
      for (size_t f = start; f < fields.size(); ++f) {
        OCULAR_ASSIGN_OR_RETURN(int64_t item, ParseInt64(fields[f]));
        if (item < 0) return Status::ParseError("negative item id");
        if (item > kMaxRawId) return IdOutOfRange(path, lines.lineno(), item);
        coo.Add(user, static_cast<uint32_t>(item));
      }
      ++user;  // empty lines still advance the user index
    }
    OCULAR_RETURN_IF_ERROR(lines.status());
    OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(user, 0));
    return Dataset("csv:" + path, CsrMatrix::FromCoo(std::move(entries)));
  }

  // user <delim> item [<delim> ...] rows, parsed in place: no per-line
  // allocation and no intermediate copy of the rows.
  PositiveSink sink(options.positive_threshold, options.compact_ids);
  while (lines.Next(&line)) {
    std::string_view sv = Trim(line);
    if (sv.empty()) continue;
    if (options.comment_char != '\0' && sv.front() == options.comment_char) {
      continue;
    }
    FieldCursor fields(sv, options.delimiter);
    std::string_view user_field, item_field;
    if (!fields.Next(&user_field) || !fields.Next(&item_field)) {
      return Status::ParseError(Where(path, lines.lineno()) +
                                ": expected at least user, item");
    }
    OCULAR_ASSIGN_OR_RETURN(int64_t u, ParseInt64(user_field));
    OCULAR_ASSIGN_OR_RETURN(int64_t i, ParseInt64(item_field));
    double r = options.positive_threshold;  // default: row is a positive
    if (options.rating_column >= 0) {
      std::string_view rating_field =
          options.rating_column == 0 ? user_field : item_field;
      for (int column = 2; column <= options.rating_column; ++column) {
        if (!fields.Next(&rating_field)) {
          return Status::ParseError(Where(path, lines.lineno()) +
                                    ": rating column out of range");
        }
      }
      OCULAR_ASSIGN_OR_RETURN(r, ParseDouble(rating_field));
    }
    OCULAR_RETURN_IF_ERROR(sink.Add(u, i, r, lines));
  }
  OCULAR_RETURN_IF_ERROR(lines.status());
  return sink.Finish("csv:" + path);
}

Status SaveCsv(const Dataset& dataset, const std::string& path,
               char delimiter) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  const CsrMatrix& m = dataset.interactions();
  for (uint32_t u = 0; u < m.num_rows(); ++u) {
    for (uint32_t i : m.Row(u)) {
      out << u << delimiter << i << '\n';
    }
  }
  if (!out) return Status::IOError("write failure on '" + path + "'");
  return Status::OK();
}

}  // namespace ocular
