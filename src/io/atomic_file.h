#ifndef GIR_IO_ATOMIC_FILE_H_
#define GIR_IO_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>

#include "core/status.h"

namespace gir {

/// Atomically replaces `path` with whatever `write_fn` streams out.
///
/// The contents land in a same-directory temp file first (a unique
/// `path + ".tmp.XXXXXX"` from mkstemp, so concurrent writers of one path
/// never share it; same directory so the final rename never crosses a
/// filesystem), the temp file is fsync'd, renamed over `path`, and the
/// parent directory is fsync'd so the rename itself is durable. A crash
/// or full disk at any point leaves either the old file or the new one —
/// never a truncated hybrid, which is exactly the failure the in-place
/// `std::ios::trunc` writers this replaces could produce.
///
/// `write_fn` receives a binary ostream and returns a Status; a failed
/// stream (short write, ENOSPC) surfaces as IOError even when `write_fn`
/// itself returned OK. On any failure the temp file is removed and the
/// previous `path` contents survive untouched.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream&)>& write_fn);

/// fsyncs the directory containing `path` (a no-op "." when `path` has no
/// separator), making a just-created or just-renamed entry durable. Shared
/// by AtomicWriteFile and the WAL's file creation/rotation.
Status FsyncParentDir(const std::string& path);

}  // namespace gir

#endif  // GIR_IO_ATOMIC_FILE_H_
