#include "snapshot/binio.h"

#include <unistd.h>

#include <cerrno>

namespace oodbsec::snapshot {

bool ReadFull(int fd, void* buf, size_t n) {
  char* out = static_cast<char*>(buf);
  size_t off = 0;
  while (off < n) {
    ssize_t got = ::read(fd, out + off, n - off);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF mid-object
    off += static_cast<size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t n) {
  const char* in = static_cast<const char*>(buf);
  size_t off = 0;
  while (off < n) {
    ssize_t put = ::write(fd, in + off, n - off);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(put);
  }
  return true;
}

}  // namespace oodbsec::snapshot
