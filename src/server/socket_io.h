// Socket write helper shared by the daemon and its client.
#pragma once

#include <sys/socket.h>

#include <cerrno>
#include <string_view>

namespace jst::server {

// Writes the whole buffer to a connected socket, retrying on EINTR and
// partial writes. Returns false on any hard error: EPIPE when the peer
// vanished is the common one, and EAGAIN when the socket's send timeout
// (SO_SNDTIMEO) expired. MSG_NOSIGNAL keeps a dead peer from raising
// SIGPIPE.
inline bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace jst::server
