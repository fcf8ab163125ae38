#include "perfbench/src/cpu_rotation.h"

#include <sched.h>
#include <sys/types.h>

#include <cstdlib>
#include <filesystem>

namespace perfbench {

namespace {

/// Sets the CPU mask of every thread of the process to {cpu}. A thread
/// started meanwhile inherits its creator's mask, old or new; the next
/// turn catches it. Returns false if no thread could be moved.
bool PinAll(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  bool any = false;
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (tid > 0 && sched_setaffinity(tid, sizeof(set), &set) == 0) any = true;
  }
  return any;
}

}  // namespace

CpuRotation::CpuRotation(std::chrono::milliseconds turn) : turn_(turn) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2 || !PinAll(cpus_[0])) {
    cpus_.clear();
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

CpuRotation::~CpuRotation() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::string CpuRotation::Describe() const {
  if (cpus_.empty()) return "none";
  std::string out;
  for (const int c : cpus_) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out + " every " + std::to_string(turn_.count()) + " ms";
}

void CpuRotation::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (std::size_t next = 1;; ++next) {
    if (cv_.wait_for(lock, turn_, [this] { return stop_; })) return;
    PinAll(cpus_[next % cpus_.size()]);
  }
}

}  // namespace perfbench
