#include "common/fs_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fault.h"
#include "common/hash.h"

namespace ocular {
namespace fs {

namespace {

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) {
    const Status st =
        Status::IOError("fsync " + what + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

Status FsyncFile(const std::string& path) {
  if (fault::Maybe("store.fsync")) return fault::InjectedError("store.fsync");
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open for fsync " + path + ": " +
                           std::strerror(errno));
  }
  return FsyncFd(fd, path);
}

Status FsyncParentDir(const std::string& path) {
  if (fault::Maybe("store.dirsync")) {
    return fault::InjectedError("store.dirsync");
  }
  const std::string dir = ParentDir(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open dir for fsync " + dir + ": " +
                           std::strerror(errno));
  }
  return FsyncFd(fd, dir);
}

Status DurableRename(const std::string& from, const std::string& to) {
  if (fault::Maybe("store.rename")) {
    return fault::InjectedError("store.rename");
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to + ": " +
                           std::strerror(errno));
  }
  return FsyncParentDir(to);
}

Result<uint64_t> FileFingerprint(const std::string& path, size_t max_bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  uint64_t h = kFnv1a64Offset;
  size_t total = 0;
  unsigned char chunk[4096];
  while (total < max_bytes) {
    const size_t want =
        max_bytes - total < sizeof(chunk) ? max_bytes - total : sizeof(chunk);
    const ssize_t n = ::read(fd, chunk, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status st =
          Status::IOError("read " + path + ": " + std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    h = Fnv1a64(chunk, static_cast<size_t>(n), h);
    total += static_cast<size_t>(n);
  }
  ::close(fd);
  return h;
}

}  // namespace fs
}  // namespace ocular
