#pragma once
// Measurement helpers for picobench: steady-clock timing, getrusage deltas,
// median and quartiles, fresh-process repetition (the binary re-executes
// itself with a child flag and reads one JSON line back), and the host block
// stamped into every report.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "tensor/simd/simd.hpp"
#include "util/json.hpp"

#ifndef PICOBENCH_COMMIT
#define PICOBENCH_COMMIT "unknown"
#endif

namespace picobench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process resource counters (all threads of this process).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long minor_faults = 0;
  double peak_rss_mb = 0;  ///< high-water mark since the process started

  static Usage self() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = ru.ru_minflt;
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
    return u;
  }
};

/// Current resident set in bytes, from /proc/self/statm (0 if unreadable).
inline double rss_bytes() {
  std::ifstream in("/proc/self/statm");
  long long size = 0, resident = 0;
  if (!(in >> size >> resident)) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// Median and quartiles with the same interpolation as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the spreads printed here match the ones a reader recomputes from the runs.
struct Summary {
  double median = 0, q1 = 0, q3 = 0;
  size_t n = 0;
  double iqr_frac() const { return median != 0 ? (q3 - q1) / median : 0; }
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  auto cut = [&](long long i) {
    const long long m = static_cast<long long>(n) + 1;
    const long long j =
        std::clamp<long long>(i * m / 4, 1, static_cast<long long>(n) - 1);
    const long long delta = i * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

/// Run this binary again with `args` in a fresh process and return the last
/// line it printed on stdout. The child dies with the parent, and the parent
/// always reaps it. `ok` is false when the child exited non-zero or printed
/// nothing.
struct ChildResult {
  bool ok = false;
  int exit_code = -1;
  std::string line;
};

inline ChildResult run_self(const std::vector<std::string>& args) {
  ChildResult result;
  int fds[2];
  if (pipe(fds) != 0) return result;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return result;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    std::string self = "/proc/self/exe";
    argv.push_back(self.data());
    std::vector<std::string> copy = args;
    for (auto& a : copy) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(self.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  ssize_t got;
  while ((got = read(fds[0], buf, sizeof(buf))) != 0) {
    if (got < 0) {
      if (errno == EINTR) continue;
      break;
    }
    out.append(buf, static_cast<size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  while (!out.empty() && out.back() == '\n') out.pop_back();
  const size_t nl = out.rfind('\n');
  result.line = nl == std::string::npos ? out : out.substr(nl + 1);
  result.ok = result.exit_code == 0 && !result.line.empty();
  return result;
}

/// Host block: where a number was measured.
inline pico::util::Json host_json() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  return pico::util::Json::object({
      {"cpu", cpu},
      {"hardware_threads",
       static_cast<int64_t>(std::thread::hardware_concurrency())},
      {"simd", pico::tensor::simd::active_level_name()},
      {"commit", PICOBENCH_COMMIT},
  });
}

}  // namespace picobench
