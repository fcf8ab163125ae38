#ifndef TXMOD_RELATIONAL_WAL_H_
#define TXMOD_RELATIONAL_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/vfs.h"
#include "src/relational/database.h"

namespace txmod {

/// One committed transaction's net changes to one relation, as logged.
struct WalDelta {
  std::string relation;
  std::vector<Tuple> plus;   // tuples the transaction inserted (net)
  std::vector<Tuple> minus;  // tuples the transaction deleted (net)
};

/// One write-ahead log record: the differential of a single committed
/// transaction, stamped with the logical time it installed. Replaying
/// the records in version order over a checkpoint of time t applies
/// exactly the committed suffix t+1, t+2, .... One transaction is one
/// record, so its atomicity (Definition 2.6's bracket) is the record's
/// checksum.
struct WalRecord {
  uint64_t version = 0;
  std::vector<WalDelta> deltas;
};

/// A differential write-ahead log with group commit.
///
/// PRISMA/DB persisted full-state checkpoints; the WAL closes the gap
/// between checkpoints: the transaction modification machinery already
/// computes per-relation dplus/dminus differentials, and those are
/// precisely what must be durable for a committed transaction — so the
/// log appends one checksummed record of net differentials per commit.
///
/// On-disk format (line-oriented, values via persist.h's codec):
///
///   txmod-wal 1
///   txn <version>
///   rel <name>
///   + <v1> <v2> ...                  (one line per inserted tuple)
///   - <v1> <v2> ...                  (one line per deleted tuple)
///   commit <version> <fnv1a-64 hex of the record body>
///
/// "txmod-wal 1" is the only format. Any other header — including the
/// per-shard stream headers of earlier builds — is refused with
/// InvalidArgument, never migrated.
///
/// A record is valid only when its `commit` line is present, names the
/// same version, and its checksum matches the body ("txn" line through
/// the last delta line, inclusive). ReadWal returns records in file
/// order and stops at the first invalid one — a torn append, a
/// truncated tail, or bit rot — so recovery restores exactly the
/// durable committed prefix.
///
/// Durability and group commit: Append buffers nothing — the record hits
/// the OS with one write() — but it is only *durable* after Sync(lsn)
/// returns. Sync batches concurrent committers: one caller becomes the
/// fsync leader while the others wait; a single fsync covers every
/// record appended before it, so N concurrent commits cost far fewer
/// than N fsyncs (fsync_count() / sync_requests() measures the batching).
///
/// Thread safety: Append and Sync are safe to call concurrently from any
/// number of threads. Concurrent appenders may land records out of
/// version order (the transaction manager appends outside its commit
/// lock); recovery sorts by version.
class WriteAheadLog {
 public:
  /// Opens `path` for appending, creating it (with the header line, made
  /// durable together with its directory entry) when absent or empty.
  /// A torn or corrupt tail is repaired first: the valid prefix is
  /// rewritten into `<path>.repair` and renamed into place, because a
  /// record appended after a tear would be unreachable to recovery.
  /// Refuses files that are not a v1 log. All writes/fsyncs go through
  /// `vfs` (nullptr = the real POSIX environment); reads stay on the
  /// plain filesystem.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     Vfs* vfs = nullptr);

  /// Appends one record (a single write() of the serialized form) and
  /// returns its log sequence number.
  Result<uint64_t> Append(const WalRecord& rec);

  /// Blocks until every record up to `lsn` is durable (fsync'd),
  /// batching with concurrent callers (group commit).
  Status Sync(uint64_t lsn);

  /// Empties the log (checkpoint + truncate): everything logged so far
  /// is covered by the new checkpoint. Re-writes the header. The caller
  /// must ensure no concurrent Append.
  Status Truncate();

  const std::string& path() const { return path_; }
  uint64_t appended_lsn() const { return appended_lsn_.load(); }
  uint64_t durable_lsn() const;
  /// Physical fsync calls issued; with group commit this is <= the
  /// number of Sync requests (often far fewer under concurrency).
  uint64_t fsync_count() const { return fsync_count_.load(); }
  uint64_t sync_requests() const { return sync_requests_.load(); }

  /// True once the log is poisoned (see broken_ below); `cause` (when
  /// non-null) receives the original failure message.
  bool broken(std::string* cause = nullptr) const;

 private:
  WriteAheadLog(std::string path, Vfs* vfs)
      : path_(std::move(path)), vfs_(vfs) {}

  /// Poisons the log, recording the first cause. Must NOT hold sync_mu_.
  void MarkBroken(const std::string& cause);
  /// The canonical poisoned-log error: Unavailable, naming the original
  /// cause. Requires sync_mu_.
  Status BrokenStatusLocked() const;

  std::string path_;
  Vfs* vfs_ = nullptr;
  std::unique_ptr<VfsFile> file_;

  std::mutex append_mu_;  // serializes write() calls
  std::atomic<uint64_t> appended_lsn_{0};

  // Group-commit state.
  mutable std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  uint64_t durable_lsn_guarded_ = 0;
  bool sync_in_progress_ = false;
  std::atomic<uint64_t> fsync_count_{0};
  std::atomic<uint64_t> sync_requests_{0};
  // Poisoned after a failed fsync or an un-truncatable torn append:
  // every later Append/Sync fails with Unavailable instead of reporting
  // durability the kernel can no longer provide. The first failure
  // message is kept (broken_cause_guarded_, under sync_mu_) so every
  // later error names the original cause.
  std::atomic<bool> broken_{false};
  std::string broken_cause_guarded_;
};

/// Outcome details of a WAL read/recovery.
struct WalReplayStats {
  uint64_t records_read = 0;     // valid records returned/applied
  uint64_t records_skipped = 0;  // already covered by the checkpoint
  bool tail_dropped = false;     // a truncated/corrupt tail was discarded
  std::string tail_error;        // what was wrong with it
};

/// Reads every valid record of `path` in file order, stopping cleanly at
/// the first truncated or corrupt record (`stats->tail_dropped`). A
/// missing file reads as an empty log; a file with any header but
/// "txmod-wal 1", or a log whose records sit in the `<path>.shard<k>`
/// streams of an earlier build, is InvalidArgument.
Result<std::vector<WalRecord>> ReadWal(const std::string& path,
                                       WalReplayStats* stats = nullptr);

/// Applies one record to `db`. Records at or below the database's
/// logical time are skipped (already covered by the checkpoint); a
/// record more than one step ahead is a sequencing error. Advances the
/// database's logical time on apply.
Status ApplyWalRecord(const WalRecord& rec, Database* db,
                      WalReplayStats* stats = nullptr);

/// Crash recovery: loads the checkpoint at `checkpoint_path` and replays
/// the valid WAL records on top in version order, restoring exactly the
/// durable committed prefix. Appends run outside the commit lock, so the
/// file may hold versions out of order and, after a failed append, with
/// a gap: above the checkpoint's time the replayed versions must run
/// contiguously from it, and everything past the first gap is dropped
/// (`stats->tail_dropped`) — no commit above a hole was ever
/// acknowledged. Records at or below the checkpoint's time are skipped
/// and never cut. A missing WAL file means the checkpoint alone is the
/// state.
Result<Database> RecoverDatabase(const std::string& checkpoint_path,
                                 const std::string& wal_path,
                                 WalReplayStats* stats = nullptr);

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_WAL_H_
