#ifndef PERFBENCH_RAM_DEVICE_VFS_H_
#define PERFBENCH_RAM_DEVICE_VFS_H_

// The storage environment the benchmark hands to TxnManager: the WAL and
// checkpoint are real files under the benchmark's work directory, written
// with the ordinary POSIX calls, but the device behind them is modelled as
// RAM-backed (as tmpfs is): every fsync and directory sync the program
// issues reaches this Vfs and is counted, and completes without a device
// flush. Device fsync latency, which on a shared disk measures the disk
// and its other users rather than the program, is thereby outside the
// benchmark; the number of syncs the program issues is not.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/vfs.h"

namespace perfbench {

class RamDeviceVfs : public txmod::Vfs {
 public:
  RamDeviceVfs() = default;
  RamDeviceVfs(const RamDeviceVfs&) = delete;
  RamDeviceVfs& operator=(const RamDeviceVfs&) = delete;

  txmod::Result<std::unique_ptr<txmod::VfsFile>> OpenAppend(
      const std::string& path) override;
  txmod::Result<std::unique_ptr<txmod::VfsFile>> OpenTrunc(
      const std::string& path) override;
  txmod::Status Rename(const std::string& from,
                       const std::string& to) override;
  txmod::Status Remove(const std::string& path) override;
  txmod::Status SyncParentDirectory(const std::string& path) override;
  int64_t NowMicros() override;
  void SleepMicros(int64_t micros) override;

  /// File and directory syncs issued so far.
  uint64_t syncs() const { return syncs_.load(); }
  /// Bytes written to its files so far.
  uint64_t bytes_written() const { return bytes_written_.load(); }

 private:
  class File;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_RAM_DEVICE_VFS_H_
