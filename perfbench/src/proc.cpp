#include "proc.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "serve/transport.hpp"

extern char** environ;

namespace perfbench {

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path)
    : log_(log_path) {
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  const int rc =
      posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
}

Child::~Child() { stop(); }

bool Child::running() {
  if (pid_ <= 0 || reaped_) return false;
  const pid_t r = waitpid(pid_, &status_, WNOHANG);
  if (r == pid_) reaped_ = true;
  return !reaped_;
}

int Child::stop(int grace_ms) {
  if (pid_ <= 0) return 0;
  if (running()) {
    kill(pid_, SIGTERM);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
    while (running() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!reaped_) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status_, 0) < 0 && errno == EINTR) {
      }
      reaped_ = true;
    }
  }
  if (WIFEXITED(status_)) return WEXITSTATUS(status_);
  if (WIFSIGNALED(status_)) return 128 + WTERMSIG(status_);
  return 0;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

std::uint16_t free_tcp_port() {
  sparsetrain::serve::Listener l =
      sparsetrain::serve::Listener::listen("127.0.0.1:0");
  return l.endpoint().port;
}

void settle_disk(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  syncfs(fd);
  close(fd);
}

OneCpu::OneCpu() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) last = c;
  }
  if (last < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

OneCpu::~OneCpu() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

unsigned hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench
