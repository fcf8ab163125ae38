#ifndef PERFBENCH_CPU_ROTATION_H_
#define PERFBENCH_CPU_ROTATION_H_

// Runs the whole process on one CPU at a time, and moves it round-robin
// over the CPUs it may use.
//
// On a few vCPUs of a shared host, two things make a run's speed depend
// on where it ran rather than on the program. A hand-off between threads
// on two CPUs waits for the host to wake an idle vCPU, which costs more,
// and varies more, than the program's own work; on one CPU the hand-off
// is a context switch. And each vCPU runs at its own speed for seconds
// at a time, as its host core is shared: a run left on one vCPU measures
// that vCPU. Visiting every CPU in turn gives each run the same mix.

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  /// Pins every thread of the process to the first allowed CPU and starts
  /// moving them on every `turn`. With a single allowed CPU, or when the
  /// process cannot be pinned, it does nothing.
  explicit CpuRotation(std::chrono::milliseconds turn);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// For the environment stamp: the CPUs visited and the turn, or "none".
  std::string Describe() const;

 private:
  void Loop();

  std::chrono::milliseconds turn_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CPU_ROTATION_H_
