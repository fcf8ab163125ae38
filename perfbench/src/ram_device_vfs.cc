#include "perfbench/src/ram_device_vfs.h"

#include <utility>

namespace perfbench {

using txmod::Result;
using txmod::Status;
using txmod::Vfs;
using txmod::VfsFile;

/// Forwards to a POSIX file; Sync is counted and needs no device flush.
class RamDeviceVfs::File : public VfsFile {
 public:
  File(std::unique_ptr<VfsFile> file, std::atomic<uint64_t>* syncs,
       std::atomic<uint64_t>* bytes_written)
      : file_(std::move(file)), syncs_(syncs), bytes_written_(bytes_written) {}

  Result<std::size_t> Write(const char* data, std::size_t n) override {
    Result<std::size_t> written = file_->Write(data, n);
    if (written.ok()) bytes_written_->fetch_add(*written);
    return written;
  }
  Status Sync() override {
    syncs_->fetch_add(1);
    return Status::OK();
  }
  Result<uint64_t> Size() override { return file_->Size(); }
  Status Truncate(uint64_t size) override { return file_->Truncate(size); }

 private:
  std::unique_ptr<VfsFile> file_;
  std::atomic<uint64_t>* syncs_;
  std::atomic<uint64_t>* bytes_written_;
};

Result<std::unique_ptr<VfsFile>> RamDeviceVfs::OpenAppend(
    const std::string& path) {
  TXMOD_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                         Vfs::Default()->OpenAppend(path));
  return std::unique_ptr<VfsFile>(new File(std::move(file), &syncs_, &bytes_written_));
}

Result<std::unique_ptr<VfsFile>> RamDeviceVfs::OpenTrunc(
    const std::string& path) {
  TXMOD_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> file,
                         Vfs::Default()->OpenTrunc(path));
  return std::unique_ptr<VfsFile>(new File(std::move(file), &syncs_, &bytes_written_));
}

Status RamDeviceVfs::Rename(const std::string& from, const std::string& to) {
  return Vfs::Default()->Rename(from, to);
}

Status RamDeviceVfs::Remove(const std::string& path) {
  return Vfs::Default()->Remove(path);
}

Status RamDeviceVfs::SyncParentDirectory(const std::string&) {
  syncs_.fetch_add(1);
  return Status::OK();
}

int64_t RamDeviceVfs::NowMicros() { return Vfs::Default()->NowMicros(); }

void RamDeviceVfs::SleepMicros(int64_t micros) {
  Vfs::Default()->SleepMicros(micros);
}

}  // namespace perfbench
