#ifndef TXMOD_RELATIONAL_PERSIST_H_
#define TXMOD_RELATIONAL_PERSIST_H_

#include <iosfwd>
#include <string>

#include "src/common/result.h"
#include "src/common/vfs.h"
#include "src/relational/database.h"

namespace txmod {

/// Checkpointing for the main-memory store. PRISMA/DB kept all data in
/// memory and persisted via checkpoints; this module provides the same
/// facility with a line-oriented, human-readable text format:
///
///   txmod-checkpoint 1
///   time <logical-time>
///   relation <name> <arity>
///   attr <name> <int|double|string>      (arity times)
///   tuple <v1> <v2> ...                  (one line per tuple)
///   end
///   ...
///
/// Values are rendered as: `null`, `i:<digits>`, `d:<repr>` (hex float,
/// lossless round trip), `s:<quoted>` (C-style escapes). The format is a
/// checkpoint of committed state — transaction-local structures
/// (differentials, temporaries) are never persisted, matching the model:
/// only pre-/post-transaction states exist outside a transaction.
Status SaveDatabase(const Database& db, std::ostream& out);

/// Crash-safe checkpoint: writes to `path`.tmp, flushes to stable storage
/// (fsync), atomically renames over `path`, then fsyncs the parent
/// directory so the rename itself is durable. A crash at any point
/// leaves either the old checkpoint or the new one, never a torn file —
/// the property the WAL recovery path (wal.h) builds on (in particular,
/// checkpoint-then-truncate-WAL must never observe the truncation
/// durable while the rename is not). All writes/fsyncs/renames go
/// through `vfs` (nullptr = the real POSIX environment).
Status CheckpointDatabaseToFile(const Database& db, const std::string& path,
                                Vfs* vfs = nullptr);

/// Restores a checkpoint into a fresh Database (schema included).
Result<Database> LoadDatabase(std::istream& in);
Result<Database> LoadDatabaseFromFile(const std::string& path);

/// The value codec behind the checkpoint format, shared with the
/// write-ahead log (wal.h): `null`, `i:<digits>`, `d:<hex-float>`
/// (lossless), `s:"<escaped>"`. SplitEncodedValues tokenizes one
/// space-separated line of encodings (spaces inside quoted strings are
/// preserved).
std::string EncodeValueText(const Value& v);
Result<Value> DecodeValueText(const std::string& text);
std::vector<std::string> SplitEncodedValues(const std::string& line);

}  // namespace txmod

#endif  // TXMOD_RELATIONAL_PERSIST_H_
