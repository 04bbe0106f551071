#include "data/loaders.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_pool.h"
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

/// A file loads in ranges of at least this many bytes, some 25,000 lines of
/// ids, whose scan outweighs starting a thread for it many times over.
constexpr uint64_t kMinRangeBytes = uint64_t{256} << 10;

/// CPUs the calling thread may run on: its affinity mask, which taskset
/// and cpusets narrow and std::thread::hardware_concurrency does not see.
/// The mask is sched_getaffinity(0)'s; pthread_getaffinity_np reads it from
/// libc code that the daemon's threads already keep resident, where the
/// sched_getaffinity wrapper faulted in 64 KiB more of libc text.
size_t UsableCpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (::pthread_getaffinity_np(::pthread_self(), sizeof(cpus), &cpus) != 0) {
    return 1;
  }
  return static_cast<size_t>(std::max(CPU_COUNT(&cpus), 1));
}

/// A file opened for reading, closed on destruction.
class InputFile {
 public:
  explicit InputFile(std::string path)
      : path_(std::move(path)),
        fd_(::open(path_.c_str(), O_RDONLY | O_CLOEXEC)) {}
  ~InputFile() {
    if (fd_ >= 0) ::close(fd_);
  }
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;

  Status OpenStatus() const {
    if (fd_ < 0) return Status::IOError("cannot open '" + path_ + "'");
    return Status::OK();
  }

  /// The size of a regular file, which pread(2) reads at any offset;
  /// nullopt for anything else, such as a pipe or FIFO.
  std::optional<uint64_t> RegularSize() const {
    struct stat st;
    if (::fstat(fd_, &st) != 0 || !S_ISREG(st.st_mode)) return std::nullopt;
    return static_cast<uint64_t>(st.st_size);
  }

  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  int fd_;
};

Status ReadError(const std::string& path) {
  return Status::IOError("read failure on '" + path + "': " +
                         std::strerror(errno));
}

/// pread(2) of up to `count` bytes at `offset`, retried on EINTR.
ssize_t ReadAt(const InputFile& file, char* dst, size_t count,
               uint64_t offset) {
  ssize_t n;
  do {
    n = ::pread(file.fd(), dst, count, static_cast<off_t>(offset));
  } while (n < 0 && errno == EINTR);
  return n;
}

/// Reads a file in blocks of whole lines through a caller's buffer, which
/// grows only for a line longer than it. Every block ends in '\n' — a final
/// line without one gets one — so a scanner may run to the next '\n'
/// without a bounds check. The lines are those of std::getline: a final
/// line without '\n' counts, and a trailing '\n' does not start an empty
/// one.
class BlockReader {
 public:
  /// Reads from the file's offset to its end by read(2), which pipes and
  /// FIFOs support too.
  BlockReader(const InputFile& file, std::vector<char>* buffer)
      : BlockReader(file, buffer, 0, kToEnd) {}

  /// Reads bytes [begin, end) of a regular file by pread(2), which leaves
  /// the file offset alone: threads may read ranges of one file at once.
  BlockReader(const InputFile& file, std::vector<char>* buffer,
              uint64_t begin, uint64_t end)
      : file_(file), buf_(*buffer), offset_(begin), limit_(end) {}

  BlockReader(const BlockReader&) = delete;
  BlockReader& operator=(const BlockReader&) = delete;

  /// Next block, valid until the next call; false at end of input or on a
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
      const ssize_t n = Read(buf_.data() + end_, buf_.size() - 1 - end_);
      if (n < 0) {
        status_ = ReadError(file_.path());
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

  const std::string& path() const { return file_.path(); }
  const Status& status() const { return status_; }

 private:
  static constexpr uint64_t kToEnd = UINT64_MAX;

  ssize_t Read(char* dst, size_t count) {
    if (limit_ == kToEnd) {
      ssize_t n;
      do {
        n = ::read(file_.fd(), dst, count);
      } while (n < 0 && errno == EINTR);
      return n;
    }
    const ssize_t n = ReadAt(
        file_, dst, std::min<uint64_t>(count, limit_ - offset_), offset_);
    if (n > 0) offset_ += static_cast<uint64_t>(n);
    return n;
  }

  const InputFile& file_;
  std::vector<char>& buf_;
  uint64_t offset_;  // next byte pread reads
  uint64_t limit_;   // kToEnd: read(2) to end of file
  size_t taken_ = 0;  // bytes handed out by the last Next()
  size_t end_ = 0;
  bool eof_ = false;
  Status status_;
};

/// The lines of a file one at a time, each a view without its '\n', valid
/// until the next call.
class LineReader {
 public:
  explicit LineReader(std::string path)
      : file_(std::move(path)), blocks_(file_, &buf_) {}

  Status OpenStatus() const { return file_.OpenStatus(); }

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
  const std::string& path() const { return file_.path(); }
  const Status& status() const { return blocks_.status(); }

 private:
  InputFile file_;
  std::vector<char> buf_ = std::vector<char>(kLoaderBlockBytes);
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

  /// Room for `rows` rows: Add allocates nothing for them.
  void Reserve(size_t rows) { coo_.Reserve(rows); }

  /// Takes over the entries and the first negative id of `later`, a sink
  /// of raw ids fed the lines after this one's.
  void Append(PositiveSink&& later) {
    if (negative_id_.ok()) negative_id_ = std::move(later.negative_id_);
    coo_.Append(std::move(later.coo_));
  }

  /// The matrix of the entries, sorted on `threads` threads, unless a
  /// negative raw id was seen.
  Result<Dataset> Finish(std::string name, size_t threads = 1) {
    OCULAR_RETURN_IF_ERROR(negative_id_);
    OCULAR_ASSIGN_OR_RETURN(auto entries, coo_.Finalize(0, 0, threads));
    return Dataset(std::move(name), CsrMatrix::FromCoo(std::move(entries)));
  }

 private:
  double threshold_;
  bool compact_ids_;
  CooBuilder coo_;
  IdMap users_, items_;
  Status negative_id_;  // the first negative raw id, once seen
};

/// Scans the `user<delim>item[<delim>...]` rows of `blocks` into `sink`:
/// one forward pass over each block of whole lines, parsing every field
/// where it lies, with no per-line allocation and no intermediate copy of
/// the rows. Lines are numbered on from `lineno`. Returns the first
/// malformed line's error, or a read error.
Status ScanRows(BlockReader* blocks, const CsvOptions& options, size_t lineno,
                PositiveSink* sink) {
  const std::string& path = blocks->path();
  FieldScanner fields(options.delimiter);
  const char comment = options.comment_char;
  std::string_view block;
  while (blocks->Next(&block)) {
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
      OCULAR_RETURN_IF_ERROR(sink->Add(u, i, r, path, lineno));
      p = fields.rest();
      if (*p != '\n') {
        p = static_cast<const char*>(std::memchr(p, '\n', end - p));
      }
      ++p;
    }
  }
  return blocks->status();
}

/// Where the first line that starts at or after `offset` starts, in a
/// regular file of `size` bytes: past the first '\n' at or after
/// offset - 1, or at `size` if there is none.
Result<uint64_t> LineStartFrom(const InputFile& file, uint64_t offset,
                               uint64_t size, std::vector<char>& buffer) {
  if (offset == 0) return uint64_t{0};
  for (uint64_t at = offset - 1; at < size;) {
    const ssize_t n = ReadAt(file, buffer.data(),
                             std::min<uint64_t>(buffer.size(), size - at), at);
    if (n < 0) return ReadError(file.path());
    if (n == 0) break;
    if (const void* nl = std::memchr(buffer.data(), '\n', n)) {
      return at + static_cast<uint64_t>(static_cast<const char*>(nl) -
                                        buffer.data()) + 1;
    }
    at += static_cast<uint64_t>(n);
  }
  return size;
}

/// A range's lines, as BlockReader yields them, and the longest one in
/// bytes with its '\n', found by a first pass so that the caller can size
/// the range's storage before it is scanned.
struct RangeLines {
  size_t lines = 0;
  size_t longest = 0;
  Status status;  // a read error
};

/// Counts the lines of bytes [begin, end) of `file` through `buffer`. A
/// line inside one read is shorter than the buffer, so only a line that
/// spans reads can be longer: its length is measured from where it began.
RangeLines CountLines(const InputFile& file, uint64_t begin, uint64_t end,
                      std::vector<char>& buffer) {
  RangeLines out;
  uint64_t line_start = begin;  // where the line in progress began
  uint64_t offset = begin;
  while (offset < end) {
    const ssize_t n = ReadAt(file, buffer.data(),
                             std::min<uint64_t>(buffer.size(), end - offset),
                             offset);
    if (n < 0) {
      out.status = ReadError(file.path());
      return out;
    }
    if (n == 0) break;  // the file shrank
    const char* const data = buffer.data();
    const char* const last = data + n;
    if (const char* nl =
            static_cast<const char*>(std::memchr(data, '\n', last - data))) {
      out.longest = std::max<size_t>(out.longest, offset + (nl - data) + 1 -
                                                      line_start);
      out.lines += static_cast<size_t>(std::count(nl, last, '\n'));
      line_start = offset + (static_cast<const char*>(
                                 ::memrchr(nl, '\n', last - nl)) -
                             data) + 1;
    }
    offset += static_cast<uint64_t>(n);
  }
  if (line_start < offset) {  // a final line without '\n', which gets one
    ++out.lines;
    out.longest = std::max<size_t>(out.longest, offset - line_start + 1);
  }
  return out;
}

/// Loads the `user<delim>item` rows of `file`, a regular file of `size`
/// bytes, as `ranges` line-aligned byte ranges scanned at once, one thread
/// each (ForkJoin): range k holds the lines that start in the k-th of
/// `ranges` equal shares of the file. A first pass counts each range's
/// lines, so that every buffer and entry store is sized here, on the
/// calling thread, and the range threads allocate nothing: glibc would keep
/// a heap arena for each thread that did. Lines are numbered across ranges,
/// and the outcome is that of one pass over the file: the first error in
/// file order, then the first negative id, then the matrix.
Result<Dataset> LoadRowsInRanges(const InputFile& file, uint64_t size,
                                 size_t ranges, const CsvOptions& options) {
  // One block of read buffer in all, as a one-range load holds: freed heap
  // memory stays resident in a long-lived daemon.
  std::vector<std::vector<char>> buffers(
      ranges, std::vector<char>(kLoaderBlockBytes / ranges));
  // Range k is bytes [starts[k], starts[k + 1]).
  std::vector<uint64_t> starts(ranges + 1, size);
  for (size_t k = 0; k < ranges; ++k) {
    OCULAR_ASSIGN_OR_RETURN(
        starts[k], LineStartFrom(file, size / ranges * k, size, buffers[0]));
  }
  std::vector<RangeLines> counts(ranges);
  ForkJoin(ranges, [&](size_t k) {
    counts[k] = CountLines(file, starts[k], starts[k + 1], buffers[k]);
  });

  std::vector<PositiveSink> sinks;
  sinks.reserve(ranges);
  std::vector<size_t> first_line(ranges);
  size_t lines = 0;
  for (size_t k = 0; k < ranges; ++k) {
    OCULAR_RETURN_IF_ERROR(counts[k].status);
    first_line[k] = lines;
    lines += counts[k].lines;
    if (counts[k].longest >= buffers[k].size()) {
      buffers[k].resize(counts[k].longest + 1);
    }
    sinks.emplace_back(options.positive_threshold, options.compact_ids);
    sinks.back().Reserve(counts[k].lines);
  }
  std::vector<Status> scanned(ranges);
  ForkJoin(ranges, [&](size_t k) {
    BlockReader blocks(file, &buffers[k], starts[k], starts[k + 1]);
    scanned[k] = ScanRows(&blocks, options, first_line[k], &sinks[k]);
  });
  buffers.clear();  // before the sort allocates

  for (size_t k = 0; k < ranges; ++k) {
    OCULAR_RETURN_IF_ERROR(scanned[k]);
    if (k > 0) sinks[0].Append(std::move(sinks[k]));
  }
  return sinks[0].Finish("csv:" + file.path(), ranges);
}

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

  return internal::LoadCsvInRanges(path, options, 0);
}

namespace internal {

Result<Dataset> LoadCsvInRanges(const std::string& path,
                                const CsvOptions& options, size_t ranges) {
  if (options.line_per_user) return LoadCsv(path, options);
  InputFile file(path);
  OCULAR_RETURN_IF_ERROR(file.OpenStatus());
  // Ranges need pread(2), which a pipe or FIFO fails, and raw ids:
  // compact_ids numbers ids in the order one pass over the file meets them.
  const std::optional<uint64_t> size = file.RegularSize();
  if (!size || options.compact_ids) {
    ranges = 1;
  } else if (ranges == 0) {
    ranges = static_cast<size_t>(
        std::clamp<uint64_t>(*size / kMinRangeBytes, 1, UsableCpus()));
  }
  if (ranges > 1) return LoadRowsInRanges(file, *size, ranges, options);
  std::vector<char> buffer(kLoaderBlockBytes);
  BlockReader blocks(file, &buffer);
  PositiveSink sink(options.positive_threshold, options.compact_ids);
  OCULAR_RETURN_IF_ERROR(ScanRows(&blocks, options, 0, &sink));
  return sink.Finish("csv:" + path);
}

}  // namespace internal

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
