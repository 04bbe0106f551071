#include "data/loaders.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
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

/// A ParseError that names its file and line: "path:line: message".
Status LineError(const std::string& path, size_t lineno,
                 const std::string& message) {
  return Status::ParseError(path + ":" + std::to_string(lineno) + ": " +
                            message);
}

Status IdOutOfRange(const std::string& path, size_t lineno, int64_t id) {
  return LineError(path, lineno, "id " + std::to_string(id) +
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

/// Reads a file in blocks of whole lines through one buffer of
/// kLoaderBlockBytes (grown only for a line longer than that). Every block
/// ends in '\n' — a final line without one gets one — so a scanner may
/// run to the next '\n' without a bounds check. The lines are those of
/// std::getline: a final line without '\n' counts, and a trailing '\n'
/// does not start an empty one.
class BlockReader {
 public:
  explicit BlockReader(std::string path)
      : path_(std::move(path)), buf_(kLoaderBlockBytes) {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  }
  ~BlockReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  Status OpenStatus() const {
    if (fd_ < 0) return Status::IOError("cannot open '" + path_ + "'");
    return Status::OK();
  }

  /// Next block, valid until the next call; false at end of file or on a
  /// read error (see status()).
  bool Next(std::string_view* block) {
    // Keep the partial line the last block left out, then refill behind it.
    std::memmove(buf_.data(), buf_.data() + taken_, end_ - taken_);
    end_ -= taken_;
    taken_ = 0;
    for (;;) {
      if (eof_) {
        if (end_ == 0) return false;
        if (buf_[end_ - 1] != '\n') buf_[end_++] = '\n';
        break;
      }
      // One byte stays free for the '\n' a final line may need.
      if (end_ + 1 == buf_.size()) buf_.resize(buf_.size() * 2);
      const ssize_t n =
          ::read(fd_, buf_.data() + end_, buf_.size() - 1 - end_);
      if (n < 0) {
        if (errno == EINTR) continue;
        status_ = Status::IOError("read failure on '" + path_ + "': " +
                                  std::strerror(errno));
        return false;
      }
      if (n == 0) {
        eof_ = true;
        continue;
      }
      const size_t read_from = end_;
      end_ += static_cast<size_t>(n);
      if (const void* nl = ::memrchr(buf_.data() + read_from, '\n',
                                     end_ - read_from)) {
        taken_ = static_cast<const char*>(nl) + 1 - buf_.data();
        *block = std::string_view(buf_.data(), taken_);
        return true;
      }
    }
    taken_ = end_;
    *block = std::string_view(buf_.data(), taken_);
    return true;
  }

  const std::string& path() const { return path_; }
  const Status& status() const { return status_; }

 private:
  std::string path_;
  int fd_ = -1;
  std::vector<char> buf_;
  size_t taken_ = 0;  // bytes handed out by the last Next()
  size_t end_ = 0;
  bool eof_ = false;
  Status status_;
};

/// The lines of a file one at a time, each a view without its '\n', valid
/// until the next call.
class LineReader {
 public:
  explicit LineReader(std::string path) : blocks_(std::move(path)) {}

  Status OpenStatus() const { return blocks_.OpenStatus(); }

  /// Next line; false at end of file or on a read error (see status()).
  bool Next(std::string_view* line) {
    if (rest_.empty() && !blocks_.Next(&rest_)) return false;
    const size_t len = rest_.find('\n');  // every block ends in '\n'
    *line = rest_.substr(0, len);
    rest_.remove_prefix(len + 1);
    ++lineno_;
    return true;
  }

  size_t lineno() const { return lineno_; }
  const std::string& path() const { return blocks_.path(); }
  const Status& status() const { return blocks_.status(); }

 private:
  BlockReader blocks_;
  std::string_view rest_;
  size_t lineno_ = 0;
};

/// A field parser's result (ParseInt64, ParseDouble) with a failure
/// located at the reader's line.
template <typename T>
Result<T> AtLine(Result<T> parsed, const LineReader& lines) {
  if (parsed.ok()) return parsed;
  return LineError(lines.path(), lines.lineno(), parsed.status().message());
}

/// std::from_chars over the trimmed field, which it must consume: what
/// ParseInt64 / ParseDouble accept, without building a Result. On false
/// the caller words the error with those parsers.
template <typename T>
bool ParseField(std::string_view field, T* value) {
  field = Trim(field);
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), last, *value);
  return ec == std::errc() && ptr == last;
}

/// One forward pass over the fields of a line that runs to the next '\n':
/// the fields of Split(Trim(line), delimiter), or of SplitAny(Trim(line),
/// " \t") for delimiter ' '. The caller skips the line's leading
/// whitespace; Trim's trailing half is the rule that a field after a
/// whitespace delimiter exists only if a non-space byte follows it on the
/// line.
class FieldScanner {
 public:
  enum class Field { kNone, kInteger, kNotInteger };

  explicit FieldScanner(char delimiter) : delimiter_(delimiter) {
    for (int c = 0; c < 256; ++c) {
      const char ch = static_cast<char>(c);
      const bool ends = ch == '\n' || ch == delimiter ||
                        (delimiter == ' ' && ch == '\t');
      class_[c] = ends ? kEnds : IsAsciiSpace(ch) ? kPad : 0;
    }
    // from_chars would read such a delimiter as part of a number.
    digit_safe_ = !(delimiter == '-' || (delimiter >= '0' && delimiter <= '9'));
  }

  /// Starts a line at its first non-space byte, in a block ending at
  /// `block_end`.
  void Begin(const char* line, const char* block_end) {
    next_ = line;
    block_end_ = block_end;
  }

  /// The next field's raw bytes (the parsers trim them); false once the
  /// line has no more.
  bool Next(std::string_view* field) {
    if (next_ == nullptr) return false;
    const char* end = next_;
    while (Class(*end) != kEnds) ++end;
    *field = std::string_view(next_, end - next_);
    Advance(end);
    return true;
  }

  /// The next field, parsed where it lies as ParseInt64 parses it. kNone
  /// once the line has no more fields; otherwise `*field` holds its raw
  /// bytes, and kInteger sets `*value`.
  Field NextInt(int64_t* value, std::string_view* field) {
    if (next_ == nullptr) return Field::kNone;
    if (digit_safe_) {
      const char* first = next_;
      while (Class(*first) == kPad) ++first;
      const auto [last, ec] = std::from_chars(first, block_end_, *value);
      const char* end = last;
      while (Class(*end) == kPad) ++end;
      if (ec == std::errc() && Class(*end) == kEnds) {
        *field = std::string_view(next_, end - next_);
        Advance(end);
        return Field::kInteger;
      }
    }
    Next(field);
    return ParseField(*field, value) ? Field::kInteger : Field::kNotInteger;
  }

  /// Where the unread rest of the line starts: its '\n' once the last
  /// field was read.
  const char* rest() const { return rest_; }

 private:
  static constexpr uint8_t kPad = 1;   // whitespace inside a field
  static constexpr uint8_t kEnds = 2;  // '\n' or a delimiter

  uint8_t Class(char c) const { return class_[static_cast<uint8_t>(c)]; }

  /// Steps past the field that ends at `end`.
  void Advance(const char* end) {
    rest_ = end;
    next_ = nullptr;
    if (*end == '\n') return;
    const char* start = end + 1;
    if (delimiter_ == ' ') {
      while (*start == ' ' || *start == '\t') ++start;
    }
    if (IsAsciiSpace(delimiter_)) {
      const char* p = start;
      while (*p != '\n' && IsAsciiSpace(*p)) ++p;
      if (*p == '\n') {
        rest_ = p;
        return;
      }
    }
    next_ = start;
  }

  char delimiter_;
  bool digit_safe_;
  uint8_t class_[256];
  const char* next_ = nullptr;  // the next field; nullptr after the last
  const char* rest_ = nullptr;
  const char* block_end_ = nullptr;
};

/// Turns parsed (user, item, rating) rows straight into builder entries:
/// drops ratings below the threshold, then remaps ids (compact_ids) or
/// keeps raw ids, rejecting ids no matrix index can hold.
class PositiveSink {
 public:
  PositiveSink(double threshold, bool compact_ids)
      : threshold_(threshold), compact_ids_(compact_ids) {}

  Status Add(int64_t user, int64_t item, double rating,
             const std::string& path, size_t lineno) {
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
      if (negative_id_.ok()) {
        negative_id_ = LineError(path, lineno,
                                 "negative id " +
                                     std::to_string(user < 0 ? user : item));
      }
      return Status::OK();
    }
    if (user > kMaxRawId || item > kMaxRawId) {
      return IdOutOfRange(path, lineno, std::max(user, item));
    }
    coo_.Add(static_cast<uint32_t>(user), static_cast<uint32_t>(item));
    return Status::OK();
  }

  Result<Dataset> Finish(std::string name) {
    OCULAR_RETURN_IF_ERROR(negative_id_);
    OCULAR_ASSIGN_OR_RETURN(auto entries, coo_.Finalize());
    return Dataset(std::move(name), CsrMatrix::FromCoo(std::move(entries)));
  }

 private:
  double threshold_;
  bool compact_ids_;
  CooBuilder coo_;
  IdMap users_, items_;
  Status negative_id_;  // the first negative raw id, once seen
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
      return LineError(path, lines.lineno(), "expected >=3 fields");
    }
    OCULAR_ASSIGN_OR_RETURN(int64_t u, AtLine(ParseInt64(fields[0]), lines));
    OCULAR_ASSIGN_OR_RETURN(int64_t i, AtLine(ParseInt64(fields[1]), lines));
    OCULAR_ASSIGN_OR_RETURN(double r, AtLine(ParseDouble(fields[2]), lines));
    OCULAR_RETURN_IF_ERROR(sink.Add(u, i, r, path, lines.lineno()));
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
      return LineError(path, lines.lineno(), "expected user::item::rating");
    }
    OCULAR_ASSIGN_OR_RETURN(int64_t u, AtLine(ParseInt64(fields[0]), lines));
    OCULAR_ASSIGN_OR_RETURN(int64_t i, AtLine(ParseInt64(fields[1]), lines));
    OCULAR_ASSIGN_OR_RETURN(double r, AtLine(ParseDouble(fields[2]), lines));
    OCULAR_RETURN_IF_ERROR(sink.Add(u, i, r, path, lines.lineno()));
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
        OCULAR_ASSIGN_OR_RETURN(
            movie, AtLine(ParseInt64(sv.substr(0, sv.size() - 1)), lines));
        continue;
      }
      if (movie < 0) {
        return LineError(path, lines.lineno(),
                         "rating line before movie header");
      }
      auto fields = Split(sv, ',');
      if (fields.size() < 2) {
        return LineError(path, lines.lineno(), "expected user,rating[,date]");
      }
      OCULAR_ASSIGN_OR_RETURN(int64_t u, AtLine(ParseInt64(fields[0]), lines));
      OCULAR_ASSIGN_OR_RETURN(double r, AtLine(ParseDouble(fields[1]), lines));
      OCULAR_RETURN_IF_ERROR(sink.Add(u, movie, r, path, lines.lineno()));
    }
    OCULAR_RETURN_IF_ERROR(lines.status());
  }
  return sink.Finish("netflix");
}

Result<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  if (options.line_per_user) {
    // CiteULike users.dat style: line u holds the items of user u. The first
    // token of each line is a count in the original format; we accept both
    // "count item item ..." and plain "item item ..." by treating a first
    // token equal to the remaining token count as a count.
    LineReader lines(path);
    OCULAR_RETURN_IF_ERROR(lines.OpenStatus());
    CooBuilder coo;
    uint32_t user = 0;
    std::string_view line;
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
        OCULAR_ASSIGN_OR_RETURN(int64_t item,
                                AtLine(ParseInt64(fields[f]), lines));
        if (item < 0) {
          return LineError(path, lines.lineno(),
                           "negative item id " + std::to_string(item));
        }
        if (item > kMaxRawId) return IdOutOfRange(path, lines.lineno(), item);
        coo.Add(user, static_cast<uint32_t>(item));
      }
      ++user;  // empty lines still advance the user index
    }
    OCULAR_RETURN_IF_ERROR(lines.status());
    OCULAR_ASSIGN_OR_RETURN(auto entries, coo.Finalize(user, 0));
    return Dataset("csv:" + path, CsrMatrix::FromCoo(std::move(entries)));
  }

  // user <delim> item [<delim> ...] rows: one forward pass over each block
  // of whole lines, parsing every field where it lies. No per-line
  // allocation and no intermediate copy of the rows.
  BlockReader blocks(path);
  OCULAR_RETURN_IF_ERROR(blocks.OpenStatus());
  PositiveSink sink(options.positive_threshold, options.compact_ids);
  FieldScanner fields(options.delimiter);
  const char comment = options.comment_char;
  size_t lineno = 0;
  std::string_view block;
  while (blocks.Next(&block)) {
    const char* const end = block.data() + block.size();
    for (const char* p = block.data(); p != end;) {
      ++lineno;
      while (*p != '\n' && IsAsciiSpace(*p)) ++p;  // Trim's leading half
      if (*p == '\n' || (comment != '\0' && *p == comment)) {
        p = static_cast<const char*>(std::memchr(p, '\n', end - p)) + 1;
        continue;  // blank or comment line
      }
      fields.Begin(p, end);
      int64_t u = 0, i = 0;
      std::string_view user_field, item_field;
      const auto user = fields.NextInt(&u, &user_field);
      const auto item = fields.NextInt(&i, &item_field);
      if (item == FieldScanner::Field::kNone) {
        return LineError(path, lineno, "expected at least user, item");
      }
      if (user == FieldScanner::Field::kNotInteger) {
        return LineError(path, lineno,
                         ParseInt64(user_field).status().message());
      }
      if (item == FieldScanner::Field::kNotInteger) {
        return LineError(path, lineno,
                         ParseInt64(item_field).status().message());
      }
      double r = options.positive_threshold;  // default: row is a positive
      if (options.rating_column >= 0) {
        std::string_view rating_field =
            options.rating_column == 0 ? user_field : item_field;
        for (int column = 2; column <= options.rating_column; ++column) {
          if (!fields.Next(&rating_field)) {
            return LineError(path, lineno, "rating column out of range");
          }
        }
        if (!ParseField(rating_field, &r)) {
          return LineError(path, lineno,
                           ParseDouble(rating_field).status().message());
        }
      }
      OCULAR_RETURN_IF_ERROR(sink.Add(u, i, r, path, lineno));
      p = fields.rest();
      if (*p != '\n') {
        p = static_cast<const char*>(std::memchr(p, '\n', end - p));
      }
      ++p;
    }
  }
  OCULAR_RETURN_IF_ERROR(blocks.status());
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
