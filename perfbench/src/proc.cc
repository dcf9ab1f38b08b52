#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

extern char** environ;

namespace perfbench {

namespace {

using pghive::util::Status;
using pghive::util::StatusOr;

// Live children, read by the watchdog's signal handler.
constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void OnDeadline(int /*signum*/) {
  for (auto& slot : g_children) {
    pid_t pid = slot.load();
    if (pid > 0) kill(pid, SIGKILL);
  }
  static const char kMessage[] = "perfbench: deadline reached, giving up\n";
  ssize_t ignored = write(STDERR_FILENO, kMessage, sizeof(kMessage) - 1);
  (void)ignored;
  _exit(3);
}

StatusOr<uint64_t> ProcField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    uint64_t value = 0;
    if (fields >> value) return value;
  }
  return Status::NotFound(key + " missing in " + path);
}

}  // namespace

StatusOr<IoCounters> ReadProcIo(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/io";
  auto wchar = ProcField(path, "wchar:");
  if (!wchar.ok()) return wchar.status();
  auto syscw = ProcField(path, "syscw:");
  if (!syscw.ok()) return syscw.status();
  return IoCounters{*wchar, *syscw};
}

double SelfCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

StatusOr<double> CpuMs(pid_t pid) {
  clockid_t clock;
  timespec now{};
  if (clock_getcpuclockid(pid, &clock) != 0 || clock_gettime(clock, &now) != 0) {
    return Status::NotFound("no CPU-time clock for pid " + std::to_string(pid));
  }
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

StatusOr<uint64_t> ReadVmHwmKib(pid_t pid) {
  return ProcField("/proc/" + std::to_string(pid) + "/status", "VmHWM:");
}

void ResetPeakRss(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/clear_refs";
  std::ofstream out(path);
  out << "5";
  out.close();
  static bool warned = false;
  if (!out && !warned) {
    warned = true;
    std::fprintf(stderr,
                 "perfbench: cannot write %s; peak RSS covers the whole "
                 "process life\n",
                 path.c_str());
  }
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

StatusOr<Child> Child::Spawn(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  int slot = -1;
  for (int i = 0; i < kMaxChildren && slot < 0; ++i) {
    pid_t expected = 0;
    if (g_children[i].compare_exchange_strong(expected, -1)) slot = i;
  }
  if (slot < 0) return Status::Internal("too many live children");

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    g_children[slot].store(0);
    return Status::IoError("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  }
  g_children[slot].store(pid);
  Child child(pid, slot);
  child.start_ = start;
  return child;
}

Child::Child(pid_t pid, int slot) : pid_(pid), slot_(slot) {}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), slot_(other.slot_), start_(other.start_) {
  other.pid_ = 0;
  other.slot_ = -1;
}

Child::~Child() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  g_children[slot_].store(0);
}

void Child::Signal(int signum) const {
  if (pid_ > 0) kill(pid_, signum);
}

ChildExit Child::Wait() {
  ChildExit out;
  if (pid_ <= 0) return out;
  siginfo_t info;
  std::memset(&info, 0, sizeof(info));
  while (waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOWAIT) < 0 &&
         errno == EINTR) {
  }
  out.wall_ms = MsSince(start_);
  auto io = ReadProcIo(pid_);
  if (io.ok()) {
    out.io = *io;
    out.io_ok = true;
  }
  int status = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  while (wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  out.maxrss_kib = static_cast<uint64_t>(usage.ru_maxrss);
  out.cpu_ms = (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1000.0 +
               (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1000.0;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.code = WTERMSIG(status);
  }
  g_children[slot_].store(0);
  pid_ = 0;
  return out;
}

void ArmWatchdog(unsigned seconds) {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnDeadline;
  sigemptyset(&action.sa_mask);
  sigaction(SIGALRM, &action, nullptr);
  alarm(seconds);
}

}  // namespace perfbench
