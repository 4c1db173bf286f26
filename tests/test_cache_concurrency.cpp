// Cross-process dataset-cache coordination: several forked processes
// race `materialize` on one cache directory and the per-entry flock must
// elect exactly one builder — no torn entries, every process ends with a
// byte-identical snapshot, and the cache validates afterwards.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mapped_file.hpp"
#include "core/parallel.hpp"
#include "graph/cache_lock.hpp"
#include "graph/dataset_cache.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

class ConcurrencyDir : public ::testing::Test {
 protected:
  test::TempDir dir_;
};

TEST_F(ConcurrencyDir, FlockBlocksSecondProcessUntilRelease) {
  const fs::path lock = dir_.path() / "entry.lock";
  CacheLock mine;
  ASSERT_TRUE(mine.acquire(lock, 1.0));
  EXPECT_TRUE(mine.held());
  EXPECT_FALSE(mine.contended());
  EXPECT_EQ(CacheLock::holder_pid(lock), ::getpid());
  EXPECT_TRUE(CacheLock::holder_alive(lock));

  // A second *process* must time out while we hold it (flock is
  // per-open-file-description, so the contender must not share ours).
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CacheLock theirs;
    const bool got = theirs.acquire(lock, 0.3);
    ::_exit(got ? 1 : 0);  // timing out is the expected outcome
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  mine.release();
  CacheLock again;
  EXPECT_TRUE(again.acquire(lock, 1.0));
}

TEST_F(ConcurrencyDir, DeadHolderLockIsStolenImmediately) {
  const fs::path lock = dir_.path() / "entry.lock";
  // The child takes the lock and dies holding it; the kernel's flock
  // auto-release IS the stale-lock steal.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    CacheLock theirs;
    if (!theirs.acquire(lock, 1.0)) ::_exit(1);
    ::_exit(0);  // exit without release(): the kernel drops the flock
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  CacheLock mine;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(mine.acquire(lock, 5.0));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 1.0);  // a steal, not a timeout ride-out
  // The dead holder's pid is still readable for diagnostics until we
  // overwrite it — and must name a process that no longer exists.
  EXPECT_TRUE(CacheLock::holder_alive(lock));  // now it names us
}

TEST_F(ConcurrencyDir, ConcurrentMaterializeElectsExactlyOneBuilder) {
  constexpr int kProcs = 4;
  const fs::path cache_dir = dir_.path() / "cache";
  const std::string fingerprint = "concurrency-stress-v1";

  std::vector<pid_t> pids;
  for (int i = 0; i < kProcs; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid != 0) {
      pids.push_back(pid);
      continue;
    }
    // ---- child ----
    // libgomp's pool does not survive fork(); stay single-threaded.
    ThreadScope scope(1);
    int exit_code = 0;
    bool built = false;
    std::string digest;
    try {
      DatasetCache cache(cache_dir);
      EdgeList el;
      const auto entry = cache.materialize(
          fingerprint, "stress", [&]() -> const EdgeList& {
            built = true;
            // Stretch the build window so the losers genuinely wait on
            // the lock instead of racing a finished publish.
            std::this_thread::sleep_for(std::chrono::milliseconds(150));
            el = test::line_graph(500, true);
            return el;
          });
      const MappedFile snap(entry.snapshot);
      digest = content_hash_hex(snap.view());
      if (entry.num_vertices != 500) exit_code = 2;
    } catch (...) {
      exit_code = 3;
    }
    std::ofstream(dir_.path() / ("result_" + std::to_string(i) + ".txt"))
        << (built ? 1 : 0) << ' '
        << (digest.empty() ? "none" : digest) << '\n';
    ::_exit(exit_code);
  }

  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  int builders = 0;
  std::vector<std::string> digests;
  for (int i = 0; i < kProcs; ++i) {
    std::ifstream in(dir_.path() / ("result_" + std::to_string(i) + ".txt"));
    ASSERT_TRUE(in.good()) << "child " << i << " left no result";
    int built = -1;
    std::string digest;
    in >> built >> digest;
    builders += built;
    digests.push_back(digest);
  }
  EXPECT_EQ(builders, 1) << "the lock must elect exactly one builder";
  for (const auto& d : digests) {
    EXPECT_EQ(d, digests.front());  // everyone saw the same bytes
    EXPECT_NE(d, "none");
  }

  // No torn entries: the parent validates the published entry cold, and
  // no staging directory survived.
  DatasetCache cache(cache_dir);
  const auto entry = cache.lookup(fingerprint);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->num_vertices, 500u);
  EXPECT_EQ(cache.stats().invalidations, 0u);
  for (const auto& e : fs::directory_iterator(cache_dir)) {
    EXPECT_EQ(e.path().filename().string().rfind(".tmp-", 0),
              std::string::npos)
        << "leaked staging dir " << e.path();
  }
}

}  // namespace
}  // namespace epgs
