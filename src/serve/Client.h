//===- serve/Client.h - Serving protocol client -----------------*- C++ -*-===//
//
// Part of the metaopt project, a reproduction of "Predicting Unroll Factors
// Using Supervised Classification" (Stephenson & Amarasinghe, CGO 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the serving protocol, shared by
/// metaopt-predict, the gateway's backend connections, and the load
/// generator: connects to a daemon, writes one request line, reads one
/// response line. One instance is one connection and must stay on one
/// thread at a time; concurrent load uses one client per thread (the
/// soak driver in bench/loadgen_serve.cpp).
///
/// Addresses name either transport: a string containing a ':' whose
/// suffix is a port number ("127.0.0.1:7000") connects over TCP;
/// anything else ("/run/metaopt.sock") is a unix-domain socket path.
///
//===----------------------------------------------------------------------===//

#ifndef METAOPT_SERVE_CLIENT_H
#define METAOPT_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include <chrono>
#include <optional>
#include <string>

namespace metaopt {

/// Splits \p Address into TCP host and port. Returns false when it is
/// not of the host:port form (then it names a unix socket path).
bool splitTcpAddress(const std::string &Address, std::string &Host,
                     int &Port);

/// One client connection to a serving daemon (worker or gateway).
class ServeClient {
public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;

  /// Connects to \p Address (unix path or host:port); false (with
  /// \p Error) when the daemon is not there.
  bool connect(const std::string &Address, std::string *Error = nullptr);

  /// Like connect(), but retries until the daemon appears or
  /// \p TimeoutMs elapses — for scripts that just started the daemon.
  bool connectWithRetry(const std::string &Address, int TimeoutMs,
                        std::string *Error = nullptr);

  /// Bounds every subsequent send/recv on this connection (applied to
  /// the open socket and re-applied after reconnects). Zero disables
  /// the bound. The gateway sets this so one stuck worker cannot wedge
  /// a proxied request forever.
  void setIoTimeout(std::chrono::milliseconds Timeout);

  void close();
  bool connected() const { return Fd >= 0; }

  /// The raw socket (for tests and the load generator's slow-reader
  /// clients); -1 when not connected.
  int fd() const { return Fd; }

  /// Writes \p RequestLine (newline appended) and reads one response
  /// line. std::nullopt (with \p Error) on a broken connection.
  std::optional<std::string> roundTrip(const std::string &RequestLine,
                                       std::string *Error = nullptr);

  /// roundTrip() of a rendered WireRequest.
  std::optional<std::string> request(const WireRequest &Request,
                                     std::string *Error = nullptr);

private:
  bool connectUnix(const std::string &SocketPath, std::string *Error);
  bool connectTcp(const std::string &Host, int Port, std::string *Error);
  void applyIoTimeout();

  int Fd = -1;
  std::chrono::milliseconds IoTimeout{0};
  std::string Buffer; ///< Bytes read past the last returned line.
};

} // namespace metaopt

#endif // METAOPT_SERVE_CLIENT_H
