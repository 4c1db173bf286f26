// The filesystem shim: typed errno surfacing, deterministic fault
// injection through `fs` / `fs-short` fault events (ENOSPC at the Nth
// write, EIO on read, short writes, failed rename/fsync, mmap failure),
// the strict EPGS_FAULT event-line parser, and the OutStream writer every
// durable file in the harness goes through.
#include "core/fs_shim.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "core/fault.hpp"
#include "core/mapped_file.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

using fault::FsOp;

/// An `fs` event failing `op` with `err` on every matching call.
fault::Event fs_fault(FsOp op, int err) {
  return {.kind = fault::Kind::kFs,
          .fires = 1 << 30,
          .fs_op = op,
          .fs_errno = err};
}

class FsShimDir : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }

  [[nodiscard]] fs::path file(const std::string& name) const {
    return dir_.path() / name;
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  test::TempDir dir_;
};

TEST_F(FsShimDir, OutStreamWritesFormattedAndRawBytes) {
  const auto p = file("plain.txt");
  {
    fsx::OutStream out(p);
    out << "hello " << 42 << '\n';
    std::string big(200 * 1024, 'x');  // larger than the 64 KiB buffer
    out.write(big.data(), static_cast<std::streamsize>(big.size()));
    out.close();
  }
  const std::string got = slurp(p);
  EXPECT_EQ(got.substr(0, 9), "hello 42\n");
  EXPECT_EQ(got.size(), 9 + 200 * 1024);
  EXPECT_EQ(got.back(), 'x');
}

TEST_F(FsShimDir, OutStreamAppendMode) {
  const auto p = file("append.txt");
  {
    fsx::OutStream out(p);
    out << "first\n";
    out.close();
  }
  {
    fsx::OutStream out(p, fsx::OutStream::Mode::kAppend);
    out << "second\n";
    out.close();
  }
  EXPECT_EQ(slurp(p), "first\nsecond\n");
}

TEST_F(FsShimDir, EnospcAtNthWriteThrowsTyped) {
  fault::Event e = fs_fault(FsOp::kWrite, ENOSPC);
  e.at = 2;  // first flush succeeds, second hits the wall
  fault::Scoped armed(e);

  const auto p = file("enospc.bin");
  fsx::OutStream out(p);
  std::string chunk(64 * 1024, 'a');  // one full buffer = one write call
  EXPECT_NO_THROW(
      out.write(chunk.data(), static_cast<std::streamsize>(chunk.size())));
  // The exception must be the typed resource error, surfaced at the
  // stream operation that hit it — not a silent badbit.
  EXPECT_THROW(
      {
        out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        out.close();
      },
      ResourceExhaustedError);
  EXPECT_GE(fault::fires(0), 1);
}

TEST_F(FsShimDir, ShortWritesAreRetriedToCompletion) {
  // The first few writes land torn; the loop must finish them.
  fault::Scoped armed(
      fault::Event{.kind = fault::Kind::kFsShort, .fires = 3});

  const auto p = file("short.bin");
  std::string payload;
  for (int i = 0; i < 100000; ++i) payload += std::to_string(i);
  {
    fsx::OutStream out(p);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.close();
  }
  EXPECT_EQ(fault::fires(0), 3);
  EXPECT_EQ(slurp(p), payload);  // no silent truncation
}

TEST_F(FsShimDir, PathFilterScopesFaultsToMatchingFiles) {
  fault::Event e = fs_fault(FsOp::kWrite, ENOSPC);
  e.path_substr = "victim";
  fault::Scoped armed(e);

  {
    fsx::OutStream ok(file("healthy.txt"));
    ok << "fine";
    ok.close();  // does not match: must not fire
  }
  fsx::OutStream bad(file("victim.txt"));
  EXPECT_THROW(
      {
        bad << "doomed";
        bad.close();
      },
      ResourceExhaustedError);
  EXPECT_EQ(slurp(file("healthy.txt")), "fine");
}

TEST_F(FsShimDir, RenameAndFsyncInjection) {
  {
    fault::Scoped armed(fs_fault(FsOp::kRename, ENOSPC));
    std::ofstream(file("a.txt")) << "x";
    EXPECT_THROW(fsx::rename(file("a.txt"), file("b.txt")),
                 ResourceExhaustedError);
    EXPECT_TRUE(fs::exists(file("a.txt")));  // injected before the syscall
  }
  {
    fault::Scoped armed(fs_fault(FsOp::kFsync, EIO));
    fsx::OutStream out(file("c.txt"));
    out << "y";
    EXPECT_THROW(out.sync_now(), IoError);
  }
}

TEST_F(FsShimDir, OpenInjectionAndRealRenameWork) {
  {
    // fd exhaustion is a resource fault.
    fault::Scoped armed(fs_fault(FsOp::kOpen, EMFILE));
    EXPECT_THROW(fsx::OutStream(file("nope.txt")), ResourceExhaustedError);
  }
  std::ofstream(file("from.txt")) << "z";
  fsx::rename(file("from.txt"), file("to.txt"));
  EXPECT_EQ(slurp(file("to.txt")), "z");
  fsx::fsync_path(file("to.txt"));
  fsx::fsync_dir(dir_.path());
  EXPECT_GT(fsx::free_disk_bytes(dir_.path()), 0u);
}

TEST_F(FsShimDir, MmapFaultFallsBackToIdenticalBufferedRead) {
  const auto p = file("mapped.bin");
  std::string payload(100 * 1024, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131);
  }
  std::ofstream(p, std::ios::binary).write(
      payload.data(), static_cast<std::streamsize>(payload.size()));

  std::string mapped_view;
  {
    const MappedFile m(p);
    EXPECT_TRUE(m.is_mapped());
    mapped_view = std::string(m.view());
  }
  {
    fault::Scoped armed(fs_fault(FsOp::kMmap, ENOMEM));
    const MappedFile m(p);
    EXPECT_FALSE(m.is_mapped());  // degraded, not failed
    EXPECT_EQ(m.view(), mapped_view);
  }
}

TEST_F(FsShimDir, ReadEioIsTypedNotMistakenForEof) {
  const auto p = file("sick.bin");
  std::ofstream(p, std::ios::binary) << std::string(4096, 'd');

  fault::Scoped armed(fs_fault(FsOp::kRead, EIO));
  // Force the buffered path so reads actually go through read(2).
  MappedFile::force_buffered(true);
  try {
    const MappedFile m(p);
    FAIL() << "EIO on read must surface as IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("sick.bin"), std::string::npos);
  } catch (const ResourceExhaustedError&) {
    FAIL() << "EIO is a sick disk, not an exhausted resource";
  }
  MappedFile::force_buffered(false);
}

TEST_F(FsShimDir, SpecParserRoundTrip) {
  // EPGS_FAULT text: `;`-separated epgs-chaos-v1 event lines.
  const auto plan = fault::parse_plan(
      "event 0|fs|||3|2|write|28|cache|0;"
      "event 0|fs-short|||1|1|write|28||0;"
      "event 0|fs|||1|1|read|5||0");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].kind, fault::Kind::kFs);
  EXPECT_EQ(plan[0].fs_op, FsOp::kWrite);
  EXPECT_EQ(plan[0].fs_errno, ENOSPC);
  EXPECT_EQ(plan[0].at, 3);
  EXPECT_EQ(plan[0].fires, 2);
  EXPECT_EQ(plan[0].path_substr, "cache");
  EXPECT_EQ(plan[1].kind, fault::Kind::kFsShort);
  EXPECT_EQ(plan[2].fs_op, FsOp::kRead);
  EXPECT_EQ(plan[2].fs_errno, EIO);
  for (const fault::Event& e : plan) {
    EXPECT_FALSE(e.once());
    const std::string line = fault::format_event(0, e);
    EXPECT_EQ(fault::format_event(0, fault::parse_event_line(line).second),
              line);
  }

  fault::arm(plan);
  EXPECT_TRUE(fault::armed());
  fault::disarm();
  EXPECT_FALSE(fault::armed());

  EXPECT_THROW((void)fault::parse_plan("event 0|fs|||1|1|chmod|28||0"),
               EpgsError);
  EXPECT_THROW((void)fault::parse_plan("event 0|fs|||0|1|write|28||0"),
               EpgsError);
  EXPECT_FALSE(fault::armed());
}

TEST_F(FsShimDir, SpecParserRejectsEveryMalformedShape) {
  // $EPGS_FAULT is operator input: each malformed shape must be its own
  // typed rejection, never a silently-misarmed plan.
  const auto expect_reject = [](const char* spec) {
    EXPECT_THROW(fault::arm(fault::parse_plan(spec)), EpgsError) << spec;
    EXPECT_FALSE(fault::armed()) << spec << " left a plan armed";
  };
  expect_reject("");                                     // empty line
  expect_reject("event 0|fs|||1|1|write|28||0;");        // trailing ';'
  expect_reject("event 0|fs|||1|1|write|28||0;;event 0|fs|||1|1|read|5||0");
  expect_reject("0|fs|||1|1|write|28||0");               // no `event `
  expect_reject("event |fs|||1|1|write|28||0");          // empty round
  expect_reject("event 0||||1|1|write|28||0");           // empty kind
  expect_reject("event 0|fs|||1|1||28||0");              // empty op
  expect_reject("event 0|fs|||1|1|write|||0");           // empty errno
  expect_reject("event 0|fs|||1|1|write|28||");          // empty once
  expect_reject("event 0|nuke|||1|1|write|28||0");       // unknown kind
  expect_reject("event 0|bad-alloc|||1|1|write|28||0");  // spelled badalloc
  expect_reject("event 0|fs|||1|1|launder|28||0");       // unknown op
  expect_reject("event 0|fs|||1|1|write|ENOSPC||0");     // errno is numeric
  expect_reject("event 0|fs|||12abc|1|write|28||0");     // trailing junk
  expect_reject("event 0|fs|||1|1x|write|28||0");
  expect_reject("event 0|fs|||1|1|write|28x||0");
  expect_reject("event 0|fs|||0|1|write|28||0");         // at must be >= 1
  expect_reject("event 0|fs|||-1|1|write|28||0");
  expect_reject("event 0|fs|||1|0|write|28||0");         // fires >= 1
  expect_reject("event 0|fs|||1|-2|write|28||0");
  expect_reject("event 0|fs|||1|1|write|0||0");          // errno >= 1
  expect_reject("event 0|fs|||1|1|write|28|");           // 9 fields
  expect_reject("event 0|fs|||1|1|write|28||0|x");       // 11 fields
  expect_reject("event 1|fs|||1|1|write|28||0");         // round must be 0
  expect_reject("event 0|fs|||1|1|write|28||2");         // once is 0 or 1
  expect_reject("event 0|fs|||1|1|write|28||1");         // no marker file
  // Five events exceed the note slots; nothing of the plan may stick.
  expect_reject(
      "event 0|fs|||1|1|write|28||0;event 0|fs|||1|1|write|28||0;"
      "event 0|fs|||1|1|write|28||0;event 0|fs|||1|1|write|28||0;"
      "event 0|fs|||1|1|write|28||0");
}

}  // namespace
}  // namespace epgs
