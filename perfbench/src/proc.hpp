// Child processes under test, and what the benchmark reads about them.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One spawned program. Its stdout and stderr go to `log_path`, stdin
/// reads /dev/null. The destructor stops it (SIGTERM, then SIGKILL after
/// a grace period) and reaps it, so no child outlives its owner.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& log_path() const { return log_; }

  /// True while the process has not exited (reaps it when it has).
  bool running();

  /// SIGTERM, wait up to `grace_ms`, then SIGKILL; always reaps. Returns
  /// the exit code (128 + signal when killed); idempotent.
  int stop(int grace_ms = 5000);

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  bool reaped_ = false;
  std::string log_;
};

/// Peak resident set (VmHWM) of a live process in MiB, or of this
/// process for pid 0; 0 when /proc does not say.
double peak_rss_mb(pid_t pid);

/// A TCP port on 127.0.0.1 that was free a moment ago (bound to port 0
/// and released).
std::uint16_t free_tcp_port();

/// Flushes the file system holding `dir` (syncfs). The daemons fsync a
/// file per store write; without this, the dirty pages and deletions of
/// set-up or of an earlier run are written back during a timed window.
void settle_disk(const std::string& dir);

/// Hardware threads available to this process.
unsigned hardware_threads();

/// While alive, confines the constructing thread, and every thread and
/// process it starts meanwhile, to one CPU: the last one it may run on.
/// The destructor gives the thread back its former CPU set; what was
/// started meanwhile keeps the one CPU.
class OneCpu {
 public:
  OneCpu();
  ~OneCpu();

  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace perfbench
