// service/net: the loopback TCP plumbing under pghived. The contract under
// test: reads on a closed or moved-from SocketStream surface the same
// NotFound("connection closed") an orderly peer disconnect does — callers
// branch on NotFound to mean "peer went away", so an EBADF IoError from
// recv(-1, ...) would misclassify every post-close read as a hard failure.
// Client connections also disable Nagle: a request goes out as a line and
// then a body, and with Nagle on the body waits out the server's delayed ACK.

#include "service/net.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>

#include "util/status.h"

namespace pghive::service {
namespace {

/// A connected loopback socket pair: client stream + raw server fd.
struct LoopbackPair {
  SocketStream client{-1};
  int server_fd = -1;

  LoopbackPair() {
    auto listen_fd = ListenTcp(0);
    EXPECT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
    auto port = BoundPort(*listen_fd);
    EXPECT_TRUE(port.ok());
    auto client_fd = ConnectTcp(*port);
    EXPECT_TRUE(client_fd.ok()) << client_fd.status().ToString();
    client = SocketStream(*client_fd);
    server_fd = ::accept(*listen_fd, nullptr, nullptr);
    EXPECT_GE(server_fd, 0);
    ::close(*listen_fd);
  }

  ~LoopbackPair() {
    if (server_fd >= 0) ::close(server_fd);
  }
};

TEST(SocketStreamTest, ReadsOnClosedStreamReturnNotFound) {
  SocketStream stream(-1);
  ASSERT_TRUE(stream.closed());

  auto line = stream.ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), util::StatusCode::kNotFound);

  std::string body;
  util::Status read = stream.ReadExact(4, &body);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), util::StatusCode::kNotFound);

  // Writes are a different story: the caller asked to send bytes that can
  // never arrive, which is an IO failure, not a quiet disconnect.
  EXPECT_EQ(stream.WriteAll("ping\n").code(), util::StatusCode::kIoError);
}

TEST(SocketStreamTest, MovedFromStreamReadsReturnNotFound) {
  LoopbackPair pair;
  SocketStream taken = std::move(pair.client);
  ASSERT_TRUE(pair.client.closed());
  ASSERT_FALSE(taken.closed());

  auto line = pair.client.ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), util::StatusCode::kNotFound);

  // The stream the fd moved into still works.
  ASSERT_EQ(::send(pair.server_fd, "pong\n", 5, 0), 5);
  auto live = taken.ReadLine();
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(*live, "pong");
}

TEST(SocketStreamTest, LineAndExactReadsOverLoopback) {
  LoopbackPair pair;
  const std::string wire = "hello\r\nworld\nBODY";
  ASSERT_EQ(::send(pair.server_fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  auto first = pair.client.ReadLine();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, "hello");  // \r stripped with the \n.
  auto second = pair.client.ReadLine();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, "world");

  std::string body;
  ASSERT_TRUE(pair.client.ReadExact(4, &body).ok());
  EXPECT_EQ(body, "BODY");
}

TEST(SocketStreamTest, OrderlyPeerCloseIsNotFoundAfterFinalLine) {
  LoopbackPair pair;
  // Trailing bytes without a newline still count as the last line...
  ASSERT_EQ(::send(pair.server_fd, "tail", 4, 0), 4);
  ::close(pair.server_fd);
  pair.server_fd = -1;

  auto tail = pair.client.ReadLine();
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ(*tail, "tail");

  // ... and the EOF after them is the orderly-disconnect NotFound.
  auto eof = pair.client.ReadLine();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), util::StatusCode::kNotFound);

  // Closing our own side keeps every later read on the NotFound contract.
  pair.client.Close();
  auto closed = pair.client.ReadLine();
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), util::StatusCode::kNotFound);
}

TEST(ConnectTcpTest, DisablesNagle) {
  LoopbackPair pair;
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(pair.client.fd(), IPPROTO_TCP, TCP_NODELAY,
                         &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);
}

}  // namespace
}  // namespace pghive::service
