// Minimal POSIX child-process supervision for the sharded sweep runtime.
//
// core::shard_runner launches one worker process per shard and needs
// exactly four operations: spawn with extra environment variables,
// non-blocking exit polling, a hard kill for deadline enforcement, and an
// fd that becomes readable when the child exits (so supervision can sleep
// in poll() and still wake the moment a worker finishes).  This wraps
// fork/execv/waitpid and a Linux pidfd behind that surface; on non-POSIX
// builds spawn() reports failure and the coordinator degrades gracefully.
#pragma once

#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/syscall.h>
#endif
#define AXC_HAS_SUBPROCESS 1
#else
#define AXC_HAS_SUBPROCESS 0
#endif

namespace axc::support {

/// Exit status of a finished child: exit code for a normal exit,
/// 128 + signal number when the child was killed (shell convention, so a
/// SIGKILLed worker reports 137).
struct exit_status {
  int code{0};
  bool signalled{false};
  [[nodiscard]] bool success() const { return !signalled && code == 0; }
};

class subprocess {
 public:
  subprocess() = default;
  subprocess(subprocess&& other) noexcept
      : pid_(other.pid_), exit_fd_(other.exit_fd_) {
    other.pid_ = -1;
    other.exit_fd_ = -1;
  }
  subprocess& operator=(subprocess&& other) noexcept {
    if (this != &other) {
      reap_if_running();
      pid_ = other.pid_;
      exit_fd_ = other.exit_fd_;
      other.pid_ = -1;
      other.exit_fd_ = -1;
    }
    return *this;
  }
  subprocess(const subprocess&) = delete;
  subprocess& operator=(const subprocess&) = delete;
  ~subprocess() { reap_if_running(); }

  /// Launches argv[0] with the given arguments; `extra_env` entries
  /// ("KEY=VALUE") are appended to the inherited environment.  Returns
  /// nullopt when the platform has no process support or fork fails; an
  /// unexecutable binary surfaces as exit code 127 from poll().
  [[nodiscard]] static std::optional<subprocess> spawn(
      const std::vector<std::string>& argv,
      const std::vector<std::string>& extra_env = {}) {
#if AXC_HAS_SUBPROCESS
    if (argv.empty()) return std::nullopt;
    const pid_t pid = ::fork();
    if (pid < 0) return std::nullopt;
    if (pid == 0) {
      for (const std::string& kv : extra_env) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) continue;
        ::setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
      }
      std::vector<char*> args;
      args.reserve(argv.size() + 1);
      for (const std::string& a : argv) {
        args.push_back(const_cast<char*>(a.c_str()));
      }
      args.push_back(nullptr);
      ::execv(args[0], args.data());
      ::_exit(127);  // exec failed; never run atexit handlers in the child
    }
    subprocess child;
    child.pid_ = pid;
    // The child cannot be reaped before we do, so the pid still names it
    // here even if it already exited.  pidfds are always close-on-exec.
#if defined(__linux__) && defined(SYS_pidfd_open)
    child.exit_fd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (child.exit_fd_ < 0) child.exit_fd_ = -1;
#endif
    return child;
#else
    (void)argv;
    (void)extra_env;
    return std::nullopt;
#endif
  }

  [[nodiscard]] bool running() const { return pid_ > 0; }

  /// A descriptor that polls readable (POLLIN) once the child has exited
  /// and until it is reaped; -1 when the kernel has no pidfd support or
  /// the child was already reaped.  Owned by this handle: never close it.
  [[nodiscard]] int exit_fd() const { return exit_fd_; }

  /// Non-blocking: nullopt while the child runs; its exit_status once it
  /// finished (the child is reaped; further polls return nullopt).  A
  /// signal-interrupted waitpid is retried, never misread as an exit — a
  /// coordinator taking SIGCHLD/SIGTERM bursts must not abandon a live
  /// child as "exit 127" and leave it to become a zombie.
  [[nodiscard]] std::optional<exit_status> poll() {
#if AXC_HAS_SUBPROCESS
    if (pid_ <= 0) return std::nullopt;
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid_, &status, WNOHANG);
    } while (r < 0 && errno == EINTR);
    if (r == 0) return std::nullopt;
    forget_child();
    if (r < 0) return exit_status{127, false};
    if (WIFSIGNALED(status)) {
      return exit_status{128 + WTERMSIG(status), true};
    }
    return exit_status{WEXITSTATUS(status), false};
#else
    return std::nullopt;
#endif
  }

  /// Blocking: waits for the child to finish and reaps it.  For short
  /// synchronous helpers (checkpoint fetch/push commands), not for workers —
  /// the coordinator supervises those with poll() so deadlines stay live.
  [[nodiscard]] std::optional<exit_status> wait() {
#if AXC_HAS_SUBPROCESS
    if (pid_ <= 0) return std::nullopt;
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    forget_child();
    if (r < 0) return exit_status{127, false};
    if (WIFSIGNALED(status)) {
      return exit_status{128 + WTERMSIG(status), true};
    }
    return exit_status{WEXITSTATUS(status), false};
#else
    return std::nullopt;
#endif
  }

  /// SIGKILL — deadline enforcement, not a polite shutdown.  The child is
  /// reaped by the next poll() (or the destructor).
  void kill_hard() {
#if AXC_HAS_SUBPROCESS
    if (pid_ > 0) ::kill(pid_, SIGKILL);
#endif
  }

  /// SIGTERM — asks for a graceful drain (axc_sweep and axc_serve install
  /// handlers that stop supervision and flush their journals).  Follow
  /// with poll(); escalate to kill_hard() if the child ignores it.
  void terminate() {
#if AXC_HAS_SUBPROCESS
    if (pid_ > 0) ::kill(pid_, SIGTERM);
#endif
  }

 private:
  /// Destructor path: an aborting owner (exception unwind, early return)
  /// must leave neither a running orphan nor a zombie behind, so kill hard
  /// and then *block* until the child is actually reaped, retrying the
  /// interruptible wait.
  void reap_if_running() {
#if AXC_HAS_SUBPROCESS
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    pid_t r;
    do {
      r = ::waitpid(pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    forget_child();
#endif
  }

  /// The child is reaped: its pid may be reused, and its pidfd is done.
  void forget_child() {
#if AXC_HAS_SUBPROCESS
    if (exit_fd_ >= 0) ::close(exit_fd_);
#endif
    exit_fd_ = -1;
    pid_ = -1;
  }

#if AXC_HAS_SUBPROCESS
  pid_t pid_{-1};
#else
  int pid_{-1};
#endif
  int exit_fd_{-1};
};

}  // namespace axc::support
