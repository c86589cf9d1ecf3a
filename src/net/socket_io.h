// Blocking POSIX socket I/O shared by CoverServer and RemoteBackend:
// exact-length reads/writes and whole-frame reassembly on top of the
// wire protocol's codec.
//
// Error taxonomy matters here: a peer that closes between frames is
// normal teardown (NotFound, message "connection closed"), while a
// malformed byte stream — bad magic/version, oversized length prefix,
// mid-frame truncation, checksum mismatch — comes back as the codec's
// InvalidArgument. The server counts only the latter as decode errors.
// A third category: when a socket carries SO_RCVTIMEO/SO_SNDTIMEO
// deadlines (SetIoDeadline below), a peer that stalls — hung mid-frame,
// or a dead reader whose full TCP buffer blocks our send — surfaces as
// typed DeadlineExceeded instead of blocking the calling thread forever.
// The deadline is per recv/send call, not per frame: a peer trickling
// one byte per deadline window can still hold a connection, but never a
// silent, unbounded wedge.

#ifndef CFDPROP_NET_SOCKET_IO_H_
#define CFDPROP_NET_SOCKET_IO_H_

#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "src/base/status.h"
#include "src/net/wire_protocol.h"

namespace cfdprop {
namespace net {

/// Arms per-call send + recv deadlines on `fd` (SO_RCVTIMEO/SO_SNDTIMEO).
/// A non-positive timeout is a no-op: the socket stays fully blocking,
/// which is the historical behavior. Once armed, a recv/send that waits
/// longer than `timeout` fails with EAGAIN/EWOULDBLOCK, which
/// ReadExact/WriteAll translate to Status::DeadlineExceeded.
inline Status SetIoDeadline(int fd, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) return Status::OK();
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::Internal(std::string("setsockopt(SO_RCVTIMEO/SNDTIMEO): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

/// Reads exactly `n` bytes. A clean peer close *before the first byte*
/// is NotFound("connection closed"); a close mid-buffer is
/// InvalidArgument (the stream was truncated inside something).
inline Status ReadExact(int fd, char* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      if (got == 0) return Status::NotFound("connection closed");
      return Status::InvalidArgument(
          "wire frame rejected: connection closed mid-frame after " +
          std::to_string(got) + " of " + std::to_string(n) + " bytes");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "recv deadline exceeded after " + std::to_string(got) + " of " +
            std::to_string(n) + " bytes");
      }
      return Status::NotFound(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Writes all of `data` (MSG_NOSIGNAL: a vanished peer surfaces as a
/// Status, never as SIGPIPE).
inline Status WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "send deadline exceeded after " + std::to_string(sent) + " of " +
            std::to_string(data.size()) + " bytes");
      }
      return Status::NotFound(std::string("send failed: ") +
                              std::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

/// Reads and fully validates one frame; returns its type and payload.
/// The header is decoded (and its length bound enforced) before the
/// payload read is sized, so an oversized length prefix can never drive
/// a giant allocation — it rejects straight off the 13 header bytes.
///
/// With `decode_us` set, the pure decode cost — header parse plus
/// whole-frame checksum verification, explicitly excluding the blocking
/// socket reads — is reported in microseconds (the server's
/// `stage="decode"` histogram).
inline Result<std::pair<FrameType, std::string>> ReadFrame(
    int fd, double* decode_us = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::chrono::nanoseconds decoding{0};
  std::string frame(kFrameHeaderBytes, '\0');
  CFDPROP_RETURN_NOT_OK(ReadExact(fd, frame.data(), kFrameHeaderBytes));
  Clock::time_point t0;
  if (decode_us) t0 = Clock::now();
  auto header = DecodeFrameHeader(frame);
  if (decode_us) decoding += Clock::now() - t0;
  CFDPROP_RETURN_NOT_OK(header.status());
  const size_t rest = header->payload_len + kFrameTrailerBytes;
  frame.resize(kFrameHeaderBytes + rest);
  CFDPROP_RETURN_NOT_OK(ReadExact(fd, frame.data() + kFrameHeaderBytes, rest));
  if (decode_us) t0 = Clock::now();
  auto payload = VerifyFrame(frame);
  if (decode_us) {
    decoding += Clock::now() - t0;
    *decode_us = std::chrono::duration<double, std::micro>(decoding).count();
  }
  CFDPROP_RETURN_NOT_OK(payload.status());
  return std::make_pair(header->type, std::string(*payload));
}

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_SOCKET_IO_H_
