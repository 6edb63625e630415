// The checkpoint (dump) side of the CRIU-model engine.
//
// Follows the algorithm described in Section 3.2 of the paper: freeze every
// thread of the target, walk /proc/$pid/pagemap to find resident memory,
// inject the parasite blob with ptrace, stream page contents through a pipe
// into image files, then cure the parasite and either resume or kill the
// target.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "criu/image.hpp"
#include "os/kernel.hpp"

namespace prebake::criu {

struct DumpOptions {
  // Resume the target after the dump instead of killing it (CRIU -R).
  bool leave_running = false;
  // kDigest stores 8 bytes/page in host memory while accounting the full
  // payload size; kFull stores the raw bytes (tests use this to prove the
  // byte-identical round trip).
  PayloadMode payload_mode = PayloadMode::kDigest;
  // Incremental dump (CRIU --prev-images-dir chains): only pages dirtied
  // (or newly mapped) since the parent links were taken are dumped. A
  // pre-dump chain's links each hold only their round's dirty delta, so
  // skipping against the newest link alone would re-dump everything older
  // links already cover: coverage is the union over every link (oldest
  // first). Empty = a full dump.
  std::span<const ImageDir* const> parent_chain{};
  // Pre-dump: like a dump but leaves the target running and resets the
  // soft-dirty bits so the next dump is incremental.
  bool pre_dump = false;
  std::uint64_t parasite_blob_bytes = 64 * 1024;
  // Capabilities of the criu process. Unprivileged dump works with
  // CAP_CHECKPOINT_RESTORE only (Linux 5.9+, [11] in the paper).
  os::Cap criu_caps = os::Cap::kSysPtrace | os::Cap::kSysAdmin;
  // If non-empty, image files are also registered in the simulated
  // filesystem under this prefix and write bandwidth is charged.
  std::string fs_prefix;
  // Recorded into stats.img (how many warm-up requests preceded the dump).
  std::uint32_t warmup_requests = 0;
  // Layered base+delta split (DESIGN.md §6k): when set, pages whose content
  // the base image already provides at the same (vma, page) position are
  // skipped — by *content*, ignoring soft-dirty bits, so a page the app
  // touched but left byte-identical still dedups — and a layers-1.img
  // manifest naming base and delta is written into the result. Orthogonal to
  // `parent_chain` (write-history incremental vs content layering).
  const ImageDir* split_base = nullptr;
  // Registry identity recorded for the base layer in the manifest.
  std::string split_base_id;
};

struct DumpResult {
  ImageDir images;
  StatsEntry stats;
  sim::Duration duration;
  // Split dumps only: resident pages whose content the base layer already
  // carried at the same position (what the delta did not have to store).
  std::uint64_t shared_with_base = 0;
};

class Dumper {
 public:
  explicit Dumper(os::Kernel& kernel) : kernel_{&kernel} {}

  DumpResult dump(os::Pid pid, const DumpOptions& opts = {});

 private:
  os::Kernel* kernel_;
};

}  // namespace prebake::criu
