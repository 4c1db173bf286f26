// fs_shim: the single choke point for durable file I/O.
//
// Every writer and reader that the harness depends on for correctness —
// the dataset cache's snapshot/meta/homogenized files, the supervisor's
// journal, MappedFile's open/read/mmap — routes its syscalls through the
// wrappers in this namespace. That buys two things:
//
//   1. Typed failures. Raw errno values become IoError (sick disk: EIO,
//      unexpected EOF, failed rename) or ResourceExhaustedError (full
//      disk: ENOSPC/EDQUOT, fd exhaustion), so the supervisor can record
//      Outcome::kResourceExhausted and the dataset pipeline can degrade
//      to uncached generation instead of aborting the sweep.
//
//   2. Deterministic fault injection. Every wrapper first asks
//      fault::on_fs_call (core/fault.hpp) whether an armed `fs` or
//      `fs-short` event fires at this call: ENOSPC at the Nth write, EIO
//      on read, a short write, a failed rename or fsync, an mmap failure
//      that forces MappedFile onto its buffered fallback. Production runs
//      arm nothing and the hook is one atomic load.
//
// The ENOSPC robustness smoke drives the real `epg` binary through the
// same hook by setting EPGS_FAULT to an `fs` event line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <ostream>

namespace epgs::fsx {

// --- Throwing syscall wrappers ----------------------------------------
//
// Each wrapper consults the armed fault events, then performs (or fails)
// the real syscall, and converts errno into the typed hierarchy:
// ENOSPC/EDQUOT/EMFILE/ENFILE/ENOMEM -> ResourceExhaustedError, everything
// else -> IoError. All paths in messages are the caller's, so a failure names the
// file that hurt.

/// open(2) for reading. Returns the fd; throws on failure.
[[nodiscard]] int open_read(const std::filesystem::path& p);

/// read(2) with EINTR retry and read-fault injection. Returns 0 at EOF,
/// the (possibly short) byte count otherwise; throws IoError on error.
[[nodiscard]] std::size_t read_some(int fd, void* buf, std::size_t n,
                                    const std::filesystem::path& p);

/// mmap(2) PROT_READ of `[0, n)` of `fd`. Returns nullptr when the map
/// fails or an armed mmap fault fires — callers fall back to buffered
/// reads, extending the mmap->buffered degradation chain.
[[nodiscard]] void* mmap_read(int fd, std::size_t n,
                              const std::filesystem::path& p);

/// rename(2). Throws on failure (the cache treats a failed publish rename
/// as a resource fault and degrades).
void rename(const std::filesystem::path& from,
            const std::filesystem::path& to);

/// fsync(2) on an open fd; `p` names it for errors.
void fsync_fd(int fd, const std::filesystem::path& p);

/// Durability fix for atomic publishes: fsync the *directory* so the
/// rename (or file creation) itself survives power loss. Opens the
/// directory O_RDONLY and fsyncs that fd.
void fsync_dir(const std::filesystem::path& dir);

/// fsync a closed file by path (used to harden staged cache files whose
/// writers have already closed them).
void fsync_path(const std::filesystem::path& p);

/// statvfs(3): bytes available to unprivileged writers on the filesystem
/// holding `p`. Throws IoError when the path cannot be statted.
[[nodiscard]] std::uint64_t free_disk_bytes(const std::filesystem::path& p);

// --- OutStream ---------------------------------------------------------

/// A std::ostream whose bytes reach the kernel exclusively through the
/// shim's write wrapper. Drop-in for the std::ofstream writers in the
/// homogenizer, snapshot, meta, and journal code: `<<` formatting works
/// unchanged, but an injected (or real) ENOSPC surfaces as a typed
/// exception instead of a silently-ignored badbit, and a short write is
/// retried to completion the way a torn buffered write must be.
class OutStream : public std::ostream {
 public:
  enum class Mode { kTruncate, kAppend };

  /// Open `p` for writing. Throws on open failure.
  explicit OutStream(const std::filesystem::path& p,
                     Mode mode = Mode::kTruncate);
  ~OutStream() override;

  OutStream(const OutStream&) = delete;
  OutStream& operator=(const OutStream&) = delete;

  /// Flush the stream buffer to the fd and fsync(2) it (journal-group and
  /// cache-file durability).
  void sync_now();

  /// Flush and close, throwing on any buffered error the stream would
  /// otherwise swallow. The destructor closes too but must not throw, so
  /// durable writers call close() explicitly.
  void close();

  [[nodiscard]] const std::filesystem::path& path() const;

 private:
  class Buf;
  Buf* buf_;  ///< owned; freed in the destructor after the base detaches
};

}  // namespace epgs::fsx
