// Wire-protocol hardening tests: framing round-trips, malformed frames,
// truncated length prefixes, oversized payloads, unknown request shapes —
// every one must surface as a typed ProtocolError (or typed `protocol`
// reply), and a live server fed garbage must keep serving.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "core/rng.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

/// A connected AF_UNIX stream pair: write into one end, parse the other.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  void send_raw(const std::string& bytes) const {
    ASSERT_EQ(::send(a, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  void close_writer() {
    ::close(a);
    a = -1;
  }
};

TEST(ServeProtocol, FrameRoundTrip) {
  SocketPair sp;
  serve::write_frame(sp.a, "run system=GAP algorithm=BFS");
  serve::write_frame(sp.a, "");  // empty payload is a legal frame
  auto first = serve::read_frame(sp.b);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, "run system=GAP algorithm=BFS");
  auto second = serve::read_frame(sp.b);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, "");
  sp.close_writer();
  EXPECT_FALSE(serve::read_frame(sp.b).has_value());  // clean EOF
}

TEST(ServeProtocol, BadMagicIsProtocolError) {
  SocketPair sp;
  sp.send_raw("EPGX00000004ping");
  sp.close_writer();
  EXPECT_THROW((void)serve::read_frame(sp.b), serve::ProtocolError);
}

TEST(ServeProtocol, NonHexLengthIsProtocolError) {
  SocketPair sp;
  sp.send_raw("EPGQzzzzzzzzping");
  sp.close_writer();
  EXPECT_THROW((void)serve::read_frame(sp.b), serve::ProtocolError);
}

TEST(ServeProtocol, UppercaseHexLengthIsRejected) {
  // The length prefix is canonical lowercase hex; a sender emitting
  // "0000000A" framed the request with different code than ours.
  SocketPair sp;
  sp.send_raw("EPGQ0000000Aping012345");
  sp.close_writer();
  EXPECT_THROW((void)serve::read_frame(sp.b), serve::ProtocolError);
}

TEST(ServeProtocol, OversizedLengthIsRejectedBeforeAllocation) {
  SocketPair sp;
  sp.send_raw("EPGQffffffff");
  sp.close_writer();
  EXPECT_THROW((void)serve::read_frame(sp.b), serve::ProtocolError);
}

TEST(ServeProtocol, TruncatedHeaderIsProtocolError) {
  SocketPair sp;
  sp.send_raw("EPGQ0000");  // EOF mid-header
  sp.close_writer();
  EXPECT_THROW((void)serve::read_frame(sp.b), serve::ProtocolError);
}

TEST(ServeProtocol, TruncatedPayloadIsProtocolError) {
  SocketPair sp;
  sp.send_raw("EPGQ0000000aping");  // promises 10 bytes, delivers 4
  sp.close_writer();
  EXPECT_THROW((void)serve::read_frame(sp.b), serve::ProtocolError);
}

TEST(ServeProtocol, EncodeRejectsOversizedPayload) {
  const std::string big(serve::kMaxFrameBytes + 1, 'x');
  EXPECT_THROW((void)serve::encode_frame(big), serve::ProtocolError);
}

TEST(ServeProtocol, RequestParsingRejectsMalformedShapes) {
  EXPECT_THROW((void)serve::parse_request("launch system=GAP"),
               serve::ProtocolError);  // unknown verb
  EXPECT_THROW((void)serve::parse_request("ping now"),
               serve::ProtocolError);  // non-run verb with arguments
  EXPECT_THROW((void)serve::parse_request("run algorithm=BFS"),
               serve::ProtocolError);  // missing system
  EXPECT_THROW((void)serve::parse_request("run system=GAP"),
               serve::ProtocolError);  // missing algorithm
  EXPECT_THROW(
      (void)serve::parse_request("run system=GAP algorithm=BFS bogus=1"),
      serve::ProtocolError);  // unknown key
  EXPECT_THROW(
      (void)serve::parse_request("run system=GAP algorithm=BFS scale=9 "
                                 "scale=9"),
      serve::ProtocolError);  // duplicate key
  EXPECT_THROW(
      (void)serve::parse_request("run system=GAP algorithm=BFS scale=tall"),
      serve::ProtocolError);  // non-numeric value
  EXPECT_THROW(
      (void)serve::parse_request("run system=GAP algorithm=BFS roots=0"),
      serve::ProtocolError);  // roots must be >= 1
  EXPECT_THROW(
      (void)serve::parse_request("run system=GAP algorithm=Quantum"),
      serve::ProtocolError);  // unknown algorithm
  EXPECT_THROW((void)serve::parse_request("run system=GAP algorithm=BFS "
                                          "symmetrize=yes"),
               serve::ProtocolError);  // booleans are strictly 0/1
  EXPECT_THROW((void)serve::parse_request("run system=GAP\nalgorithm=BFS"),
               serve::ProtocolError);  // payload must be one line
  EXPECT_THROW((void)serve::parse_request("run system=GAP =1"),
               serve::ProtocolError);  // empty key
}

TEST(ServeProtocol, RequestRenderParseRoundTrip) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 50; ++i) {
    serve::Request req;
    req.verb = serve::Verb::kRun;
    req.graph.kind = (i % 3 == 0) ? harness::GraphSpec::Kind::kKronecker
                     : (i % 3 == 1)
                         ? harness::GraphSpec::Kind::kPatentsLike
                         : harness::GraphSpec::Kind::kDotaLike;
    req.graph.scale = static_cast<int>(rng.uniform_u64(20)) + 1;
    req.graph.edgefactor = static_cast<int>(rng.uniform_u64(32)) + 1;
    req.graph.fraction = rng.uniform();
    req.graph.seed = rng.next();
    req.graph.symmetrize = rng.next() % 2 == 0;
    req.graph.deduplicate = rng.next() % 2 == 0;
    req.graph.add_weights = rng.next() % 2 == 0;
    req.graph.max_weight = static_cast<std::uint32_t>(rng.uniform_u64(255)) + 1;
    req.system = (i % 2 == 0) ? "GAP" : "Ligra";
    req.algorithm = (i % 2 == 0) ? harness::Algorithm::kBfs
                                 : harness::Algorithm::kPageRank;
    req.roots = static_cast<int>(rng.uniform_u64(16)) + 1;
    req.threads = static_cast<int>(rng.uniform_u64(8));
    req.deadline_ms = static_cast<std::int64_t>(rng.uniform_u64(10000));

    const serve::Request back =
        serve::parse_request(serve::render_request(req));
    EXPECT_EQ(back.graph.kind, req.graph.kind);
    EXPECT_EQ(back.graph.scale, req.graph.scale);
    EXPECT_EQ(back.graph.edgefactor, req.graph.edgefactor);
    EXPECT_EQ(back.graph.fraction, req.graph.fraction);  // precision(17)
    EXPECT_EQ(back.graph.seed, req.graph.seed);
    EXPECT_EQ(back.graph.symmetrize, req.graph.symmetrize);
    EXPECT_EQ(back.graph.deduplicate, req.graph.deduplicate);
    // SSSP implies weights server-side; otherwise faithful round-trip.
    EXPECT_EQ(back.graph.add_weights,
              req.graph.add_weights ||
                  req.algorithm == harness::Algorithm::kSssp);
    EXPECT_EQ(back.graph.max_weight, req.graph.max_weight);
    EXPECT_EQ(back.system, req.system);
    EXPECT_EQ(back.algorithm, req.algorithm);
    EXPECT_EQ(back.roots, req.roots);
    EXPECT_EQ(back.threads, req.threads);
    EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  }
}

TEST(ServeProtocol, ReplyRenderParseRoundTrip) {
  const serve::Reply ok{serve::ReplyKind::kOk, "run", "csv,line\n1,2\n"};
  const serve::Reply back = serve::parse_reply(serve::render_reply(ok));
  EXPECT_EQ(back.kind, serve::ReplyKind::kOk);
  EXPECT_EQ(back.verb, "run");
  EXPECT_EQ(back.body, ok.body);

  const serve::Reply err{serve::ReplyKind::kOverloaded, "run",
                         "queue full (16 batches); retry later"};
  const serve::Reply eback = serve::parse_reply(serve::render_reply(err));
  EXPECT_EQ(eback.kind, serve::ReplyKind::kOverloaded);
  EXPECT_EQ(eback.body, err.body);

  EXPECT_THROW((void)serve::parse_reply("mumble mumble"),
               serve::ProtocolError);
  EXPECT_THROW((void)serve::parse_reply("error sideways broken"),
               serve::ProtocolError);  // unknown kind
}

/// Fuzz a LIVE server with garbage and verify it never stops serving.
class ServeProtocolLive : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ServerOptions opts;
    opts.socket_path = (dir_.path() / "epg.sock").string();
    server_ = std::make_unique<serve::Server>(opts);
  }
  void TearDown() override { server_.reset(); }

  [[nodiscard]] int connect_raw() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    const std::string path = server_->socket_path();
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    return fd;
  }

  test::TempDir dir_;
  std::unique_ptr<serve::Server> server_;
};

TEST_F(ServeProtocolLive, MalformedRequestGetsTypedReplyAndKeepsConnection) {
  const int fd = connect_raw();
  // Well-formed frame, malformed request: typed error, connection stays.
  serve::write_frame(fd, "run system=GAP algorithm=BFS bogus=1");
  auto reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(serve::parse_reply(*reply).kind, serve::ReplyKind::kProtocol);
  // Same connection still serves valid requests afterwards.
  serve::write_frame(fd, "ping");
  reply = serve::read_frame(fd);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(serve::parse_reply(*reply).kind, serve::ReplyKind::kOk);
  ::close(fd);

  EXPECT_GE(server_->snapshot().protocol_errors, 1u);
}

TEST_F(ServeProtocolLive, GarbageBytesNeverKillTheServer) {
  // Seeded fuzz: raw garbage, bad magics, truncated frames, giant length
  // prefixes — across many connections, some abandoned mid-frame.
  Xoshiro256 rng(0xfeedbeef);
  for (int round = 0; round < 30; ++round) {
    const int fd = connect_raw();
    std::string junk;
    const auto len = rng.uniform_u64(64);
    for (std::uint64_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next() & 0xff));
    }
    switch (round % 4) {
      case 0:
        break;  // pure garbage
      case 1:
        junk = "EPGQ" + junk;  // magic then garbage length
        break;
      case 2:
        junk = "EPGQ00001000" + junk;  // promises 4KiB, delivers scraps
        break;
      case 3:
        junk = "EPGQffffff";  // truncated header
        break;
    }
    if (!junk.empty()) {
      (void)::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    }
    ::close(fd);
  }

  // After all of it: a fresh client gets clean service.
  const auto pong = serve::query_server(server_->socket_path(), "ping");
  EXPECT_EQ(pong.kind, serve::ReplyKind::kOk);
  const auto stats = serve::query_server(server_->socket_path(), "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  EXPECT_NE(stats.body.find("protocol_errors "), std::string::npos);
}

}  // namespace
}  // namespace epgs
