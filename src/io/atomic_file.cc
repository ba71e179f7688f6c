#include "io/atomic_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace gir {

namespace {

/// fsync via a fresh O_RDONLY descriptor: the ofstream API never exposes
/// its fd, and fsync on any descriptor of the file flushes the same inode.
Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for fsync " + path + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed for " + path + ": " +
                           std::strerror(saved));
  }
  return Status::OK();
}

}  // namespace

Status FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed for directory " + dir + ": " +
                           std::strerror(saved));
  }
  return Status::OK();
}

Status AtomicWriteFile(
    const std::string& path,
    const std::function<Status(std::ostream&)>& write_fn) {
  // A unique temp name per call: concurrent writers of one path (the
  // checkpointer and a CLI save, or parallel test processes) never write
  // through, or rename away, each other's half-written file.
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0) {
    return Status::IOError("cannot create temp file for " + path + ": " +
                           std::strerror(errno));
  }
  // mkstemp creates the file 0600; the published file gets the usual 0644.
  const int chmod_rc = ::fchmod(fd, 0644);
  const int chmod_errno = errno;
  ::close(fd);
  if (chmod_rc != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot chmod " + tmp + ": " +
                           std::strerror(chmod_errno));
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open for write: " + tmp + ": " +
                             std::strerror(errno));
    }
    Status written = write_fn(out);
    if (written.ok()) {
      out.flush();
      if (!out) written = Status::IOError("short write: " + tmp);
    }
    if (!written.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return written;
    }
  }
  Status synced = FsyncPath(tmp);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = Status::IOError("cannot rename " + tmp + " to " + path +
                                     ": " + std::strerror(errno));
    std::remove(tmp.c_str());
    return s;
  }
  // The rename is only durable once the directory entry is; without this a
  // crash can resurrect the old file, which is safe but surprising — with
  // it, a returned OK means the new contents are on disk under `path`.
  return FsyncParentDir(path);
}

}  // namespace gir
