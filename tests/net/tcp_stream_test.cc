// Transport-layer regression tests: frame size enforcement on the send
// side, hostname resolution, and deadline semantics (DeadlineExceeded as
// a distinct, retryable code).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "net/tcp_stream.h"
#include "ssp/tcp_service.h"

namespace sharoes::net {
namespace {

/// A listener that accepts connections but never reads or writes — the
/// perfect stuck peer.
class SilentListener {
 public:
  SilentListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    EXPECT_EQ(::listen(fd_, 8), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }
  ~SilentListener() {
    for (int fd : accepted_) ::close(fd);
    ::close(fd_);
  }
  uint16_t port() const { return port_; }
  void AcceptOne() { accepted_.push_back(::accept(fd_, nullptr, nullptr)); }

 private:
  int fd_;
  uint16_t port_;
  std::vector<int> accepted_;
};

TEST(TcpStreamTest, OversizedSendFrameRejected) {
  // Regression: SendFrame used to truncate payload.size() through a u32
  // and emit a frame the peer rejects; now the sender refuses up front
  // without writing anything.
  SilentListener listener;
  auto stream = TcpStream::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(stream.ok()) << stream.status();
  Bytes oversized(static_cast<size_t>(kMaxFrame) + 1);
  Status s = stream->SendFrame(oversized);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  // The stream is still usable: nothing was half-written.
  EXPECT_TRUE(stream->SendFrame(Bytes{1, 2, 3}).ok());
}

TEST(TcpStreamTest, MaxSizedFrameStillAllowed) {
  ssp::SspServer server;
  auto daemon = ssp::TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  auto stream = TcpStream::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(stream.ok());
  // Exactly kMaxFrame must pass the send-side check (the daemon will
  // answer kBadRequest since it isn't a valid request, which is fine —
  // the frame itself round-trips).
  Bytes huge(kMaxFrame);
  EXPECT_TRUE(stream->SendFrame(huge).ok());
  auto reply = stream->RecvFrame();
  EXPECT_TRUE(reply.ok()) << reply.status();
}

TEST(TcpStreamTest, HostnameConnectResolvesNames) {
  // Regression: Connect used to accept only dotted-quad IPv4 literals,
  // so --host localhost died with "bad host address".
  ssp::SspServer server;
  auto daemon = ssp::TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  auto channel = ssp::TcpSspChannel::Connect("localhost", (*daemon)->port());
  ASSERT_TRUE(channel.ok()) << channel.status();
  auto resp = (*channel)->Call(ssp::Request::Put(ssp::ObjectKey::Metadata(1, 0),
                                                 {42}));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok());
}

TEST(TcpStreamTest, UnresolvableHostIsInvalidArgument) {
  auto stream =
      TcpStream::Connect("no-such-host.invalid", 1, {/*connect_ms=*/1000});
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(TcpStreamTest, RecvDeadlineExpiresAsDeadlineExceeded) {
  SilentListener listener;
  TcpTimeouts timeouts;
  timeouts.connect_ms = 2000;
  timeouts.recv_ms = 50;
  auto stream = TcpStream::Connect("127.0.0.1", listener.port(), timeouts);
  ASSERT_TRUE(stream.ok()) << stream.status();
  listener.AcceptOne();
  auto frame = stream->RecvFrame();
  ASSERT_FALSE(frame.ok());
  // The distinct code is the point: callers must be able to tell "slow"
  // (retry) from "broken" (reconnect) from "malicious" (surface).
  EXPECT_TRUE(frame.status().IsDeadlineExceeded()) << frame.status();
  EXPECT_FALSE(frame.status().IsIoError());
}

TEST(TcpStreamTest, DeadlinesRearmable) {
  SilentListener listener;
  auto stream = TcpStream::Connect("127.0.0.1", listener.port());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream->SetTimeouts(/*send_ms=*/0, /*recv_ms=*/50).ok());
  listener.AcceptOne();
  auto frame = stream->RecvFrame();
  ASSERT_FALSE(frame.ok());
  EXPECT_TRUE(frame.status().IsDeadlineExceeded());
}

TEST(TcpStreamTest, RefusedConnectionIsIoErrorNotDeadline) {
  // Grab a port that is definitely closed: bind, look, close.
  uint16_t port;
  {
    SilentListener listener;
    port = listener.port();
  }
  auto stream = TcpStream::Connect("127.0.0.1", port, {/*connect_ms=*/2000});
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsIoError()) << stream.status();
}

TEST(TcpStreamTest, ConnectWithTimeoutServesNormally) {
  // The non-blocking connect path must yield a fully usable blocking
  // stream when the peer is healthy.
  ssp::SspServer server;
  auto daemon = ssp::TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  TcpTimeouts timeouts{/*connect_ms=*/2000, /*send_ms=*/2000,
                       /*recv_ms=*/2000};
  auto channel =
      ssp::TcpSspChannel::Connect("127.0.0.1", (*daemon)->port(), timeouts);
  ASSERT_TRUE(channel.ok()) << channel.status();
  auto resp = (*channel)->Call(ssp::Request::Put(ssp::ObjectKey::Data(3, 0),
                                                 {1, 2, 3}));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok());
  resp = (*channel)->Call(ssp::Request::Get(ssp::ObjectKey::Data(3, 0)));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->payload, (Bytes{1, 2, 3}));
}

}  // namespace
}  // namespace sharoes::net
