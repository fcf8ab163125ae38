#include "src/relational/wal.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/str_util.h"
#include "src/relational/persist.h"

namespace txmod {

namespace {

constexpr char kWalHeader[] = "txmod-wal 1";
// Every WAL format this project ever wrote starts with this stem.
constexpr char kWalHeaderStem[] = "txmod-wal ";

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = UINT64_C(14695981039346656037);
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= UINT64_C(1099511628211);
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Serializes the record body (everything the checksum covers).
std::string EncodeRecordBody(const WalRecord& rec) {
  std::string out = StrCat("txn ", rec.version, "\n");
  for (const WalDelta& delta : rec.deltas) {
    out += StrCat("rel ", delta.relation, "\n");
    for (const Tuple& t : delta.plus) {
      out += "+";
      for (const Value& v : t.values()) out += StrCat(" ", EncodeValueText(v));
      out += "\n";
    }
    for (const Tuple& t : delta.minus) {
      out += "-";
      for (const Value& v : t.values()) out += StrCat(" ", EncodeValueText(v));
      out += "\n";
    }
  }
  return out;
}

Result<Tuple> DecodeTupleLine(const std::string& rest) {
  std::vector<Value> values;
  for (const std::string& enc : SplitEncodedValues(rest)) {
    TXMOD_ASSIGN_OR_RETURN(Value v, DecodeValueText(enc));
    values.push_back(std::move(v));
  }
  return Tuple(std::move(values));
}

/// Torn-tail repair: when `path` ends in a torn or corrupt record,
/// rewrites the valid prefix into a temp log and renames it into place.
/// Appending after a tear would make every later record unreachable to
/// recovery, which stops at the first invalid one.
Status RepairIfTorn(const std::string& path, Vfs* vfs) {
  WalReplayStats replay;
  TXMOD_ASSIGN_OR_RETURN(std::vector<WalRecord> valid,
                         ReadWal(path, &replay));
  if (!replay.tail_dropped) return Status::OK();
  const std::string tmp = StrCat(path, ".repair");
  // A crash during a previous repair can leave a stale (possibly itself
  // torn) .repair file; appending to it would corrupt the repaired log
  // or brick startup. Start from nothing.
  TXMOD_RETURN_IF_ERROR(vfs->Remove(tmp));
  {
    TXMOD_ASSIGN_OR_RETURN(std::unique_ptr<WriteAheadLog> fresh,
                           WriteAheadLog::Open(tmp, vfs));
    for (const WalRecord& rec : valid) {
      TXMOD_RETURN_IF_ERROR(fresh->Append(rec).status());
    }
    TXMOD_RETURN_IF_ERROR(fresh->Sync(fresh->appended_lsn()));
  }
  TXMOD_RETURN_IF_ERROR(vfs->Rename(tmp, path));
  return vfs->SyncParentDirectory(path);
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  // Also the format check: ReadWal refuses anything but a v1 log.
  TXMOD_RETURN_IF_ERROR(RepairIfTorn(path, vfs));
  std::unique_ptr<WriteAheadLog> log(new WriteAheadLog(path, vfs));
  TXMOD_ASSIGN_OR_RETURN(log->file_, vfs->OpenAppend(path));
  TXMOD_ASSIGN_OR_RETURN(const uint64_t size, log->file_->Size());
  if (size == 0) {
    TXMOD_RETURN_IF_ERROR(WriteFullyTo(
        log->file_.get(), StrCat(kWalHeader, "\n"), "WAL header"));
    // Make the header durable NOW: a recovered log whose header is still
    // in the page cache reads as not-a-WAL after a crash. This also
    // makes Open a durability probe — reopening onto storage whose
    // fsyncs still fail reports the failure here instead of after the
    // next commit was already accepted.
    TXMOD_RETURN_IF_ERROR(log->file_->Sync());
    // A freshly created file only survives a crash once its directory
    // entry is durable; without this, every fsync'd commit could vanish
    // with the whole file (recovery reads a missing WAL as empty).
    TXMOD_RETURN_IF_ERROR(vfs->SyncParentDirectory(path));
  }
  return log;
}

void WriteAheadLog::MarkBroken(const std::string& cause) {
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (!broken_.load()) broken_cause_guarded_ = cause;
  broken_.store(true);
  sync_cv_.notify_all();
}

Status WriteAheadLog::BrokenStatusLocked() const {
  return Status::Unavailable(StrCat("WAL ", path_,
                                    " is poisoned by an earlier failure: ",
                                    broken_cause_guarded_));
}

bool WriteAheadLog::broken(std::string* cause) const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  if (cause != nullptr) *cause = broken_cause_guarded_;
  return broken_.load();
}

Result<uint64_t> WriteAheadLog::Append(const WalRecord& rec) {
  const std::string body = EncodeRecordBody(rec);
  const std::string full =
      StrCat(body, "commit ", rec.version, " ", HexU64(Fnv1a(body)), "\n");
  std::lock_guard<std::mutex> lock(append_mu_);
  if (broken_.load()) {
    std::lock_guard<std::mutex> sync_lock(sync_mu_);
    return BrokenStatusLocked();
  }
  Result<uint64_t> pre_size = file_->Size();
  if (!pre_size.ok()) return pre_size.status();
  const Status written = WriteFullyTo(file_.get(), full, "WAL");
  if (!written.ok()) {
    // Un-tear: a partial record left at the tail would make every later
    // durable record unreachable to recovery (which stops at the first
    // invalid record). If even the truncate fails, poison the log — no
    // further append may land after a tear.
    if (!file_->Truncate(*pre_size).ok()) {
      MarkBroken(StrCat("un-truncatable torn append (", written.message(),
                        ")"));
    }
    return written;
  }
  return appended_lsn_.fetch_add(1) + 1;
}

Status WriteAheadLog::Sync(uint64_t lsn) {
  sync_requests_.fetch_add(1);
  std::unique_lock<std::mutex> lock(sync_mu_);
  while (durable_lsn_guarded_ < lsn) {
    if (broken_.load()) {
      // A previous fsync failed. The kernel may have dropped the dirty
      // pages while marking them clean (the classic fsync-failure trap),
      // so a retried fsync would "succeed" without making the lost
      // records durable — never report durability after a failure.
      return BrokenStatusLocked();
    }
    if (sync_in_progress_) {
      // Another committer is the fsync leader; its fsync may already
      // cover our record. Wait and re-check.
      sync_cv_.wait(lock);
      continue;
    }
    // Become the leader. Capture the append horizon BEFORE the fsync:
    // everything appended before the fsync call is covered by it, and
    // records appended during the fsync will be claimed by the next
    // leader.
    sync_in_progress_ = true;
    const uint64_t target = appended_lsn_.load();
    lock.unlock();
    const Status synced = file_->Sync();
    lock.lock();
    sync_in_progress_ = false;
    if (!synced.ok()) {
      if (!broken_.load()) broken_cause_guarded_ = synced.message();
      broken_.store(true);
      sync_cv_.notify_all();
      return synced;
    }
    fsync_count_.fetch_add(1);
    if (target > durable_lsn_guarded_) durable_lsn_guarded_ = target;
    sync_cv_.notify_all();
  }
  return Status::OK();
}

Status WriteAheadLog::Truncate() {
  std::lock_guard<std::mutex> append_lock(append_mu_);
  std::unique_lock<std::mutex> sync_lock(sync_mu_);
  if (broken_.load()) return BrokenStatusLocked();
  TXMOD_RETURN_IF_ERROR(file_->Truncate(0));
  // From here on the file is headerless: any failure before the header
  // is back and durable leaves a log recovery cannot even open, so it
  // poisons — writers must not pile records onto a broken prefix.
  auto poison = [&](const Status& why) {
    if (!broken_.load()) broken_cause_guarded_ = why.message();
    broken_.store(true);
    sync_cv_.notify_all();
    return why;
  };
  const Status header =
      WriteFullyTo(file_.get(), StrCat(kWalHeader, "\n"), "WAL header");
  if (!header.ok()) return poison(header);
  const Status synced = file_->Sync();
  if (!synced.ok()) return poison(synced);
  // The truncate rewrote the file in place (same directory entry), but a
  // metadata journal may still order it after a pending rename of the
  // sibling checkpoint — sync the directory so checkpoint + empty log
  // become durable together.
  const Status dir = vfs_->SyncParentDirectory(path_);
  if (!dir.ok()) return poison(dir);
  // LSNs stay monotonic; everything appended so far is durably gone, so
  // the durable horizon catches up to the append horizon.
  durable_lsn_guarded_ = appended_lsn_.load();
  return Status::OK();
}

uint64_t WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(sync_mu_);
  return durable_lsn_guarded_;
}

Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       WalReplayStats* stats) {
  // Earlier builds could split a log into `<path>.shard<k>` streams,
  // created from stream 0 up. Reading only `path` would silently lose
  // their records, so such a log is refused.
  const std::string stream0 = StrCat(path, ".shard0");
  if (std::ifstream(stream0).is_open()) {
    return Status::InvalidArgument(
        StrCat(stream0, " holds a sharded log of an earlier build; this "
               "build reads only single-stream '", kWalHeader, "' logs"));
  }
  std::vector<WalRecord> out;
  std::ifstream in(path);
  if (!in.is_open()) return out;  // no WAL: empty log

  auto drop_tail = [&](const std::string& why) {
    if (stats != nullptr) {
      stats->tail_dropped = true;
      stats->tail_error = why;
    }
  };

  std::string line;
  if (!std::getline(in, line)) return out;  // zero bytes: empty log
  if (line != kWalHeader) {
    // A crash can tear even the header write. A strict prefix of the
    // header with nothing after it is such a torn tail — an empty log;
    // anything else is genuinely not a v1 WAL.
    std::string rest;
    if (std::string(kWalHeader).rfind(line, 0) == 0 &&
        !std::getline(in, rest)) {
      drop_tail("truncated WAL header");
      return out;
    }
    if (line.rfind(kWalHeaderStem, 0) == 0) {
      return Status::InvalidArgument(
          StrCat(path, " declares unsupported WAL format '", line,
                 "'; this build reads only '", kWalHeader, "'"));
    }
    return Status::InvalidArgument(StrCat(path, " is not a txmod WAL"));
  }

  // Scan records. `body` accumulates the exact bytes the checksum covers;
  // any structural surprise, checksum mismatch, or EOF mid-record drops
  // the tail (a torn append) and returns the valid prefix.
  WalRecord current;
  WalDelta* delta = nullptr;
  std::string body;
  bool in_record = false;
  while (std::getline(in, line)) {
    if (!in_record) {
      if (line.empty()) continue;
      if (line.rfind("txn ", 0) != 0) {
        drop_tail(StrCat("expected 'txn', found '", line, "'"));
        return out;
      }
      current = WalRecord{};
      delta = nullptr;
      {
        std::istringstream fields(line);
        std::string kw, extra;
        if (!(fields >> kw >> current.version) || (fields >> extra)) {
          drop_tail(StrCat("bad txn line '", line, "'"));
          return out;
        }
      }
      body = StrCat(line, "\n");
      in_record = true;
      continue;
    }
    if (line.rfind("commit ", 0) == 0) {
      std::istringstream fields(line);
      std::string kw, checksum;
      uint64_t version = 0;
      fields >> kw >> version >> checksum;
      if (version != current.version || checksum != HexU64(Fnv1a(body))) {
        drop_tail(StrCat("bad commit line for version ", current.version));
        return out;
      }
      out.push_back(std::move(current));
      if (stats != nullptr) ++stats->records_read;
      in_record = false;
      continue;
    }
    if (line.rfind("rel ", 0) == 0) {
      current.deltas.push_back(WalDelta{line.substr(4), {}, {}});
      delta = &current.deltas.back();
    } else if ((line.rfind("+ ", 0) == 0 || line == "+" ||
                line.rfind("- ", 0) == 0 || line == "-") &&
               delta != nullptr) {
      const bool plus = line[0] == '+';
      Result<Tuple> tuple =
          DecodeTupleLine(line.size() > 1 ? line.substr(2) : "");
      if (!tuple.ok()) {
        drop_tail(StrCat("bad tuple line: ", tuple.status().message()));
        return out;
      }
      (plus ? delta->plus : delta->minus).push_back(std::move(*tuple));
    } else {
      drop_tail(StrCat("unexpected line '", line, "'"));
      return out;
    }
    body += StrCat(line, "\n");
  }
  if (in_record) drop_tail("record truncated at end of file");
  return out;
}

Status ApplyWalRecord(const WalRecord& rec, Database* db,
                      WalReplayStats* stats) {
  if (rec.version <= db->logical_time()) {
    // Already covered by the checkpoint (a crash between checkpoint
    // rename and WAL truncation leaves such records behind; they are
    // harmless by design).
    if (stats != nullptr) ++stats->records_skipped;
    return Status::OK();
  }
  if (rec.version != db->logical_time() + 1) {
    return Status::InvalidArgument(
        StrCat("WAL record version ", rec.version, " does not follow ",
               "database time ", db->logical_time()));
  }
  for (const WalDelta& delta : rec.deltas) {
    TXMOD_ASSIGN_OR_RETURN(Relation * rel, db->FindMutable(delta.relation));
    for (const Tuple& t : delta.minus) {
      TXMOD_RETURN_IF_ERROR(rel->schema().CheckTuple(t));
      rel->Erase(rel->schema().CoerceTuple(t));
    }
    for (const Tuple& t : delta.plus) {
      TXMOD_RETURN_IF_ERROR(rel->schema().CheckTuple(t));
      rel->Insert(rel->schema().CoerceTuple(t));
    }
  }
  db->AdvanceTime();
  return Status::OK();
}

Result<Database> RecoverDatabase(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 WalReplayStats* stats) {
  TXMOD_ASSIGN_OR_RETURN(Database db,
                         LoadDatabaseFromFile(checkpoint_path));
  WalReplayStats read;
  TXMOD_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                         ReadWal(wal_path, &read));
  // Commit order is decided under the manager's commit lock, but records
  // are appended outside it, so the file may hold versions out of order.
  // Version order is the replay order.
  std::stable_sort(records.begin(), records.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.version < b.version;
                   });
  // Contiguity above the checkpoint: a version gap means a commit's
  // record never made it to the log; nothing above the gap was ackable —
  // commit acknowledgement waits for every earlier version to be durable
  // — so drop it. Records at or below the checkpoint's time are exempt:
  // the checkpoint covers them and replay skips them.
  const uint64_t checkpoint_time = db.logical_time();
  uint64_t prev = checkpoint_time;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].version <= checkpoint_time) continue;
    if (records[i].version != prev + 1) {
      if (!read.tail_dropped) {
        read.tail_dropped = true;
        read.tail_error = StrCat("version gap after ", prev);
      }
      records.resize(i);
      break;
    }
    prev = records[i].version;
  }
  read.records_read = records.size();
  if (stats != nullptr) *stats = read;
  for (const WalRecord& rec : records) {
    TXMOD_RETURN_IF_ERROR(ApplyWalRecord(rec, &db, stats));
  }
  return db;
}

}  // namespace txmod
