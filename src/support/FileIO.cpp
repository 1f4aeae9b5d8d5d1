//===- support/FileIO.cpp -------------------------------------------------===//

#include "support/FileIO.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace metaopt;

namespace {

/// Sets \p Error to "<What> '<Path>': <strerror(Errno)>"; returns false.
bool fail(std::string *Error, const char *What, const std::string &Path,
          int Errno) {
  if (Error)
    *Error = std::string(What) + " '" + Path + "': " + std::strerror(Errno);
  return false;
}

/// Owns a file descriptor; closing it also releases any flock it holds.
class UniqueFd {
public:
  explicit UniqueFd(int Fd) : Fd(Fd) {}
  ~UniqueFd() {
    if (Fd >= 0)
      ::close(Fd);
  }
  UniqueFd(const UniqueFd &) = delete;
  UniqueFd &operator=(const UniqueFd &) = delete;
  int get() const { return Fd; }

private:
  int Fd;
};

/// Reads all of \p Path into \p Out; returns 0 or the errno of the failed
/// open or read.
int readAll(const std::string &Path, std::string &Out) {
  UniqueFd Fd(::open(Path.c_str(), O_RDONLY | O_CLOEXEC));
  if (Fd.get() < 0)
    return errno;
  char Buffer[1 << 16];
  for (;;) {
    ssize_t Read = ::read(Fd.get(), Buffer, sizeof(Buffer));
    if (Read < 0 && errno == EINTR)
      continue;
    if (Read <= 0)
      return Read < 0 ? errno : 0;
    Out.append(Buffer, static_cast<size_t>(Read));
  }
}

/// Writes all of \p Content to \p Fd, retrying short and interrupted
/// writes.
bool writeAll(int Fd, const std::string &Content) {
  const char *Data = Content.data();
  size_t Left = Content.size();
  while (Left > 0) {
    ssize_t Written = ::write(Fd, Data, Left);
    if (Written < 0 && errno == EINTR)
      continue;
    if (Written == 0)
      errno = EIO; // Not expected of a regular file; never report success.
    if (Written <= 0)
      return false;
    Data += Written;
    Left -= static_cast<size_t>(Written);
  }
  return true;
}

/// Opens the directory of \p Path, creating it when missing; -1 (with
/// errno set) on failure.
int openParent(const std::string &Path) {
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (Parent.empty())
    Parent = ".";
  std::error_code Ec;
  std::filesystem::create_directories(Parent, Ec);
  errno = Ec.value();
  return Ec ? -1 : ::open(Parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
}

/// publishFile with the directory of \p Path already open as \p DirFd.
bool publishInto(int DirFd, const std::string &Path,
                 const std::string &Content, std::string *Error) {
  static std::atomic<uint64_t> Sequence{0};
  std::string Tmp =
      Path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(Sequence.fetch_add(1, std::memory_order_relaxed));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (Fd < 0)
    return fail(Error, "cannot publish", Path, errno);
  int Errno = 0;
  if (!writeAll(Fd, Content) || ::fsync(Fd) != 0)
    Errno = errno;
  if (::close(Fd) != 0 && !Errno)
    Errno = errno;
  if (!Errno && ::rename(Tmp.c_str(), Path.c_str()) != 0)
    Errno = errno;
  if (Errno) {
    ::unlink(Tmp.c_str());
    return fail(Error, "cannot publish", Path, Errno);
  }
  return ::fsync(DirFd) == 0 || fail(Error, "cannot publish", Path, errno);
}

} // namespace

std::optional<std::string> metaopt::readFile(const std::string &Path,
                                             std::string *Error) {
  std::string Content;
  if (int Errno = readAll(Path, Content)) {
    fail(Error, "cannot read", Path, Errno);
    return std::nullopt;
  }
  return Content;
}

bool metaopt::publishFile(const std::string &Path, const std::string &Content,
                          std::string *Error) {
  UniqueFd DirFd(openParent(Path));
  if (DirFd.get() < 0)
    return fail(Error, "cannot publish", Path, errno);
  return publishInto(DirFd.get(), Path, Content, Error);
}

bool metaopt::updateFile(
    const std::string &Path,
    const std::function<std::string(const std::string &)> &Merge,
    std::string *Error) {
  UniqueFd DirFd(openParent(Path));
  if (DirFd.get() < 0)
    return fail(Error, "cannot publish", Path, errno);
  // The lock belongs to this open file description, so it excludes every
  // other updater of the directory, threads of this process included;
  // closing the descriptor releases it.
  if (::flock(DirFd.get(), LOCK_EX) != 0)
    return fail(Error, "cannot publish", Path, errno);
  std::string Current;
  int Errno = readAll(Path, Current);
  if (Errno && Errno != ENOENT)
    return fail(Error, "cannot read", Path, Errno);
  return publishInto(DirFd.get(), Path, Merge(Current), Error);
}
