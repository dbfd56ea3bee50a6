// The deployed daemon must stop on SIGTERM whichever of its threads the
// signal lands on. The kernel may deliver a process-directed signal to
// any thread that does not block it (WAL syncer, acceptor, connection
// workers, scrubber); these tests force the worst case with tgkill to a
// non-main thread and require a clean exit ("shutting down", then the
// final WAL compaction) within a deadline. A daemon that only notices
// signals handled on its main thread hangs here and is killed at the
// deadline.
//
// The daemon binary is the built sharoes_sspd; SHAROES_SSPD overrides
// the path (e.g. to run these tests against another build).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ssp/placement.h"
#include "testing/scratch_dir.h"

namespace sharoes::ssp {
namespace {

using sharoes::testing::ScratchDir;

constexpr auto kExitDeadline = std::chrono::seconds(10);

std::string DaemonPath() {
  const char* env = std::getenv("SHAROES_SSPD");
  return env != nullptr && *env != '\0' ? env : SHAROES_SSPD_PATH;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A port the kernel just handed out (released again, so the daemon can
/// bind it; the window for another process to take it is tiny).
uint16_t FreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return 0;
  }
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// True iff thread `tid` (listed under the /proc task directory `dir`)
/// has SIGTERM in its blocked-signal mask.
bool BlocksSigterm(const std::string& dir, pid_t tid) {
  std::ifstream status(dir + "/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("SigBlk:", 0) == 0) {
      unsigned long long mask = std::strtoull(line.c_str() + 7, nullptr, 16);
      return (mask >> (SIGTERM - 1)) & 1;
    }
  }
  return false;
}

/// One spawned sharoes_sspd with stdout+stderr captured in a file.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& args, const std::string& log)
      : log_(log) {
    pid_ = ::fork();
    if (pid_ == 0) {
      int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      std::string path = DaemonPath();
      std::vector<char*> argv = {const_cast<char*>(path.c_str())};
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(path.c_str(), argv.data());
      ::_exit(127);
    }
  }

  ~Daemon() {
    if (pid_ > 0 && !exited_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }
  std::string output() const { return ReadFile(log_); }

  /// Waits until the daemon prints its serving line; returns the port
  /// (0 if it exited or never got there).
  uint16_t WaitServing() {
    auto deadline = std::chrono::steady_clock::now() + kExitDeadline;
    while (std::chrono::steady_clock::now() < deadline) {
      std::string out = output();
      size_t at = out.find("serving on 127.0.0.1:");
      if (at != std::string::npos) {
        return static_cast<uint16_t>(std::atoi(
            out.c_str() + at + std::string("serving on 127.0.0.1:").size()));
      }
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        exited_ = true;
        return 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return 0;
  }

  /// Thread ids of the daemon, other than its main thread, that do not
  /// block SIGTERM: the threads the kernel may deliver a process-directed
  /// SIGTERM to. (This skips runtime-internal threads that block every
  /// signal, such as a sanitizer's background thread.)
  std::vector<pid_t> OtherThreads() const {
    std::vector<pid_t> tids;
    std::string dir = "/proc/" + std::to_string(pid_) + "/task";
    if (DIR* d = ::opendir(dir.c_str())) {
      while (dirent* e = ::readdir(d)) {
        pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
        if (tid > 0 && tid != pid_ && !BlocksSigterm(dir, tid)) {
          tids.push_back(tid);
        }
      }
      ::closedir(d);
    }
    return tids;
  }

  /// SIGTERM to one thread only (not the process), as the kernel may
  /// pick for a process-directed kill.
  bool TermThread(pid_t tid) {
    return ::syscall(SYS_tgkill, pid_, tid, SIGTERM) == 0;
  }

  /// Waits for exit up to the deadline; SIGKILLs and returns false past
  /// it. `status` receives the wait status on a timely exit.
  bool WaitExit(int* status) {
    auto deadline = std::chrono::steady_clock::now() + kExitDeadline;
    while (std::chrono::steady_clock::now() < deadline) {
      if (::waitpid(pid_, status, WNOHANG) == pid_) {
        exited_ = true;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    exited_ = true;
    return false;
  }

 private:
  std::string log_;
  pid_t pid_ = -1;
  bool exited_ = false;
};

/// An open client connection, so the daemon has a live worker thread.
class Connection {
 public:
  explicit Connection(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Connection() { ::close(fd_); }
  bool connected() const { return connected_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

/// Traffic after the signal, as a live daemon would see: a sanitizer
/// runtime (ThreadSanitizer) defers a signal handler until the thread's
/// current blocking call returns, and a restarted accept() returns only
/// when a client connects. Without a sanitizer the handler has already
/// run by now. A daemon whose main thread never learns of the signal
/// stays up whatever the traffic.
void Poke(uint16_t port) { Connection touch(port); }

TEST(SspdSignalTest, SigtermOnAWorkerThreadStopsTheDaemon) {
  ScratchDir scratch("sspd_signal_single");
  const std::string& dir = scratch.path();
  Daemon daemon({"0", "--wal", dir + "/wal"}, dir + "/log");
  uint16_t port = daemon.WaitServing();
  ASSERT_NE(port, 0) << daemon.output();
  auto conn = std::make_unique<Connection>(port);
  ASSERT_TRUE(conn->connected());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<pid_t> others = daemon.OtherThreads();
  ASSERT_FALSE(others.empty()) << "daemon runs no thread besides main";
  ASSERT_TRUE(daemon.TermThread(others.back()));
  conn.reset();
  Poke(port);

  int status = 0;
  ASSERT_TRUE(daemon.WaitExit(&status))
      << "no exit within the deadline after SIGTERM to thread "
      << others.back() << "\n" << daemon.output();
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  std::string out = daemon.output();
  EXPECT_NE(out.find("shutting down"), std::string::npos) << out;
  EXPECT_NE(out.find("wal compacted at seq"), std::string::npos) << out;
}

TEST(SspdSignalTest, ScrubbingClusterStopsOnSigterm) {
  // Three shards with the anti-entropy scrubber every second: shutdown
  // joins the scrubber (which may be mid-pass, dialing its peers) and
  // compacts each WAL. Every daemon gets SIGTERM on a non-main thread,
  // one after another, so the later ones are still scrubbing against
  // peers that are already gone.
  ScratchDir scratch("sspd_signal_cluster");
  const std::string& dir = scratch.path();
  ClusterConfig config;
  config.replication = 3;
  config.write_quorum = 2;
  config.read_quorum = 2;
  for (uint32_t id = 0; id < 3; ++id) {
    uint16_t port = FreePort();
    ASSERT_NE(port, 0);
    config.nodes.push_back(ClusterNode{id, "127.0.0.1", port});
  }
  std::string conf = dir + "/cluster.conf";
  ASSERT_TRUE(config.SaveToFile(conf).ok());

  std::vector<std::unique_ptr<Daemon>> daemons;
  std::vector<uint16_t> ports;
  for (int id = 0; id < 3; ++id) {
    std::string n = std::to_string(id);
    daemons.push_back(std::make_unique<Daemon>(
        std::vector<std::string>{"--cluster", conf, "--node-id", n, "--wal",
                                 dir + "/wal" + n, "--scrub-interval-s", "1"},
        dir + "/log" + n));
  }
  for (auto& d : daemons) {
    ports.push_back(d->WaitServing());
    ASSERT_NE(ports.back(), 0) << d->output();
  }
  // Let at least one scrub pass run on every node.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));

  for (size_t i = 0; i < daemons.size(); ++i) {
    Daemon& d = *daemons[i];
    std::vector<pid_t> others = d.OtherThreads();
    ASSERT_FALSE(others.empty());
    ASSERT_TRUE(d.TermThread(others.back()));
    Poke(ports[i]);
    int status = 0;
    ASSERT_TRUE(d.WaitExit(&status))
        << "node " << i << " did not exit within the deadline\n"
        << d.output();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
    std::string out = d.output();
    EXPECT_NE(out.find("shutting down"), std::string::npos) << out;
    EXPECT_NE(out.find("wal compacted at seq"), std::string::npos) << out;
  }
}

}  // namespace
}  // namespace sharoes::ssp
