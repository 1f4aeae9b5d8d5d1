//===- perfbench/src/LoadGen.cpp ------------------------------------------===//

#include "LoadGen.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace perfbench;

double PhaseResult::p50Ms() const { return quantile(LatencyMs, 0.50); }

double PhaseResult::p99Ms() const {
  // Each window of 1000 consecutive responses has ten samples beyond its
  // p99; the median over windows keeps one stall of the shared machine
  // from setting the phase's tail.
  constexpr size_t Window = 1000;
  if (LatencyMs.size() < 2 * Window)
    return quantile(LatencyMs, 0.99);
  std::vector<double> WindowP99;
  for (size_t Begin = 0; Begin + Window <= LatencyMs.size(); Begin += Window)
    WindowP99.push_back(quantile(
        std::vector<double>(LatencyMs.begin() + Begin,
                            LatencyMs.begin() + Begin + Window),
        0.99));
  return median(std::move(WindowP99));
}

bool PhaseResult::meetsBudget(double BudgetMs) const {
  return Failed == 0 && Succeeded > 0 && p99Ms() <= BudgetMs &&
         AchievedRps >= 0.97 * OfferedRps;
}

std::string PhaseResult::json() const {
  char Buffer[512];
  std::snprintf(Buffer, sizeof(Buffer),
                "{\"phase\":\"%s\",\"offered_rps\":%.1f,\"sent\":%llu,"
                "\"succeeded\":%llu,\"failed\":%llu,\"achieved_rps\":%.2f,"
                "\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"lag_p99_ms\":%.4f,"
                "\"late_sends\":%zu}",
                Name.c_str(), OfferedRps,
                static_cast<unsigned long long>(Sent),
                static_cast<unsigned long long>(Succeeded),
                static_cast<unsigned long long>(Failed), AchievedRps,
                p50Ms(), p99Ms(), quantile(LagMs, 0.99),
                static_cast<size_t>(std::count_if(
                    LagMs.begin(), LagMs.end(),
                    [](double Lag) { return Lag > 1.0; })));
  return Buffer;
}

namespace {

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

struct InFlight {
  size_t Entry;
  Clock::time_point Due;
};

struct Conn {
  int Fd = -1;
  bool Dead = false;
  std::string Out;
  size_t OutPos = 0;
  std::string In;
  std::deque<InFlight> Fifo;
};

double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

} // namespace

LoadGen::LoadGen(const std::vector<PoolEntry> &Pool, uint64_t Seed)
    : Pool(Pool), Seed(Seed), First(Pool.size()) {}

LoadGen::~LoadGen() { close(); }

bool LoadGen::connect(const std::vector<std::string> &Addresses,
                      unsigned PerAddress, std::string *Error) {
  close();
  this->PerAddress = PerAddress;
  for (const std::string &Address : Addresses) {
    for (unsigned I = 0; I < PerAddress; ++I) {
      int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un Addr{};
      Addr.sun_family = AF_UNIX;
      if (Fd < 0 || Address.size() >= sizeof(Addr.sun_path)) {
        if (Fd >= 0)
          ::close(Fd);
        *Error = "cannot create a socket for " + Address;
        return false;
      }
      std::memcpy(Addr.sun_path, Address.c_str(), Address.size() + 1);
      if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
          0) {
        *Error = "connect " + Address + ": " + std::strerror(errno);
        ::close(Fd);
        return false;
      }
      ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
      Fds.push_back(Fd);
    }
  }
  return true;
}

void LoadGen::close() {
  for (int Fd : Fds)
    ::close(Fd);
  Fds.clear();
}

PhaseResult LoadGen::run(const std::string &Name, double Rate, size_t Count,
                         const std::vector<size_t> *Route) {
  PhaseResult R;
  R.Name = Name;
  R.OfferedRps = Rate;
  R.LatencyMs.reserve(Count);
  R.LagMs.reserve(Count);

  std::vector<Conn> Conns(Fds.size());
  for (size_t I = 0; I < Fds.size(); ++I)
    Conns[I].Fd = Fds[I];
  if (Conns.empty()) {
    R.Failed = Count;
    return R;
  }

  const auto Interval = std::chrono::duration<double>(1.0 / Rate);
  const auto Start = Clock::now() + std::chrono::milliseconds(5);
  auto DueOf = [&](size_t I) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       Interval * static_cast<double>(I));
  };
  const auto HardDeadline = DueOf(Count) + std::chrono::seconds(30);
  size_t Next = 0, Outstanding = 0;
  std::vector<size_t> SentTo(Conns.size() / PerAddress, 0);
  Clock::time_point LastResponse = Start;

  auto FailConn = [&](Conn &C) {
    if (C.Dead)
      return;
    C.Dead = true;
    R.Failed += C.Fifo.size();
    Outstanding -= C.Fifo.size();
    C.Fifo.clear();
  };

  auto Consume = [&](Conn &C, const std::string &Line,
                     Clock::time_point Now) {
    if (C.Fifo.empty()) { // A response nobody asked for.
      ++R.Failed;
      return;
    }
    InFlight Req = C.Fifo.front();
    C.Fifo.pop_front();
    --Outstanding;
    LastResponse = Now;
    const PoolEntry &E = Pool[Req.Entry];
    bool Ok = Line.find(E.Malformed ? "\"status\":\"malformed\""
                                    : "\"status\":\"ok\"") !=
              std::string::npos;
    std::string &Seen = First[Req.Entry];
    if (Ok && Seen.empty())
      Seen = Line;
    else if (Ok && Seen != Line) {
      ++Inconsistent;
      Ok = false;
    }
    if (!Ok) {
      ++R.Failed;
      return;
    }
    ++R.Succeeded;
    R.LatencyMs.push_back(msBetween(Req.Due, Now));
  };

  std::vector<pollfd> Polls(Conns.size());
  char Buffer[1 << 16];
  while (true) {
    auto Now = Clock::now();
    while (Next < Count && DueOf(Next) <= Now) {
      size_t Entry = splitmix(Seed ^ splitmix(Cursor++)) % Pool.size();
      size_t Address = Route ? (*Route)[Entry] : 0;
      Conn &C = Route ? Conns[Address * PerAddress +
                              SentTo[Address]++ % PerAddress]
                      : Conns[Next % Conns.size()];
      auto Due = DueOf(Next);
      ++Next;
      ++R.Sent;
      R.LagMs.push_back(msBetween(Due, Now));
      if (C.Dead) {
        ++R.Failed;
        continue;
      }
      C.Out += Pool[Entry].Line;
      C.Out += '\n';
      C.Fifo.push_back({Entry, Due});
      ++Outstanding;
    }
    for (Conn &C : Conns) {
      while (!C.Dead && C.OutPos < C.Out.size()) {
        ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos,
                           C.Out.size() - C.OutPos, MSG_NOSIGNAL);
        if (N > 0) {
          C.OutPos += static_cast<size_t>(N);
          continue;
        }
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          break;
        FailConn(C);
      }
      if (C.OutPos == C.Out.size()) {
        C.Out.clear();
        C.OutPos = 0;
      }
    }
    if (Next == Count && Outstanding == 0)
      break;
    if (Now > HardDeadline) {
      for (Conn &C : Conns)
        FailConn(C);
      break;
    }

    auto Wait = Next < Count ? DueOf(Next) - Now
                             : Clock::duration(std::chrono::milliseconds(50));
    Wait = std::clamp(Wait, Clock::duration::zero(),
                      Clock::duration(std::chrono::milliseconds(50)));
    auto Nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(Wait);
    timespec Timeout{static_cast<time_t>(Nanos.count() / 1000000000),
                     static_cast<long>(Nanos.count() % 1000000000)};
    for (size_t I = 0; I < Conns.size(); ++I) {
      Polls[I].fd = Conns[I].Dead ? -1 : Conns[I].Fd;
      Polls[I].events = POLLIN;
      if (!Conns[I].Out.empty())
        Polls[I].events |= POLLOUT;
      Polls[I].revents = 0;
    }
    int Ready = ::ppoll(Polls.data(), Polls.size(), &Timeout, nullptr);
    if (Ready <= 0)
      continue;
    for (size_t I = 0; I < Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (C.Dead || !(Polls[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      while (true) {
        ssize_t N = ::recv(C.Fd, Buffer, sizeof(Buffer), 0);
        if (N > 0) {
          C.In.append(Buffer, static_cast<size_t>(N));
          continue;
        }
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          break;
        FailConn(C); // EOF or error: the daemon dropped us.
        break;
      }
      auto Arrived = Clock::now();
      size_t Pos = 0, End;
      while ((End = C.In.find('\n', Pos)) != std::string::npos) {
        Consume(C, C.In.substr(Pos, End - Pos), Arrived);
        Pos = End + 1;
      }
      C.In.erase(0, Pos);
    }
  }

  double Span = std::chrono::duration<double>(LastResponse - Start).count();
  R.AchievedRps = Span > 0 ? static_cast<double>(R.Succeeded) / Span : 0;
  return R;
}
