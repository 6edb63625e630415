// Simulated filesystem with an explicit page-cache model.
//
// Files either carry real bytes (CRIU image files, rendered outputs) or only
// a nominal size (binaries, class archives) when the content itself is never
// inspected. Reads are charged at disk bandwidth on a cold cache and at
// page-cache bandwidth once cached — the distinction that makes first-restore
// vs repeated-restore costs differ, as on the paper's testbed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "os/cost_model.hpp"
#include "os/faults.hpp"
#include "sim/simulation.hpp"

namespace prebake::os {

// A storage-level read failure (injected transient fault or real model
// error). Distinct from invalid_argument so callers can tell "flaky device"
// from "caller bug" and retry only the former.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FileSystem {
  struct File {
    std::uint64_t size = 0;
    std::optional<std::vector<std::uint8_t>> data;
    bool cached = false;
  };
  // Transparent comparator: require() searches with a (dir, name) key.
  using Files = std::map<std::string, File, std::less<>>;

 public:
  // A resolved file, like an open descriptor: the path is looked up once and
  // every read or cache query through the handle does no string work. A
  // default-constructed handle is null. Stays valid until the file is
  // removed.
  class Handle {
   public:
    Handle() : it_{}, valid_{false} {}
    explicit operator bool() const { return valid_; }
    const std::string& path() const { return it_->first; }
    std::uint64_t size() const { return it_->second.size; }
    bool cached() const { return it_->second.cached; }

   private:
    friend class FileSystem;
    explicit Handle(Files::iterator it) : it_{it}, valid_{true} {}
    Files::iterator it_;
    bool valid_;
  };

  FileSystem(sim::Simulation& sim, const CostModel& costs,
             faults::Injector* injector = nullptr)
      : sim_{&sim}, costs_{&costs}, injector_{injector} {}

  // Create or truncate a file with synthetic (size-only) content.
  void create(const std::string& path, std::uint64_t size_bytes);
  // Create or truncate a file with real bytes.
  void write(const std::string& path, std::vector<std::uint8_t> bytes);
  // Append real bytes (charges disk write bandwidth).
  void append(const std::string& path, const std::uint8_t* data,
              std::size_t len);

  // Resolve `dir + name` (e.g. an image directory prefix and a file name)
  // without building the joined path; throws std::invalid_argument for a
  // missing file, like every path-taking call here. `prev`, when set, is a
  // guess at the file sorting just before: resolving a directory's files in
  // name order then costs one comparison per file instead of a tree search.
  Handle require(std::string_view dir, std::string_view name,
                 Handle prev = {});

  bool exists(const std::string& path) const;
  std::uint64_t size_of(const std::string& path) const;
  // Real bytes, if the file has them (image files do; synthetic ones don't).
  const std::vector<std::uint8_t>* bytes_of(const std::string& path) const;

  // Charge the cost of reading `bytes` of the file sequentially. Marks the
  // range cached. `bytes` == 0 means "the whole file". `contention` models N
  // concurrent streams sharing the device (processor sharing), used by the
  // concurrent-restore ablation. With an enabled fault injector, reads of
  // paths matching the plan's path filter may throw IoError (a transient
  // device error) after charging one seek.
  void charge_read(const std::string& path, std::uint64_t bytes = 0,
                   double contention = 1.0);
  void charge_read(Handle file, std::uint64_t bytes = 0,
                   double contention = 1.0);

  // Truncate an existing file to `bytes` without touching its cache state —
  // the tail of a partial write that never reached the device. Fault-path
  // helper (dump persist / registry materialization under kTruncatedWrite).
  void truncate(const std::string& path, std::uint64_t bytes);

  void remove(const std::string& path);
  // Drop the page cache (echo 3 > /proc/sys/vm/drop_caches equivalent).
  void drop_caches();
  // Mark a file fully cached without charging (e.g. freshly written data).
  void warm(const std::string& path);
  void warm(Handle file) { file.it_->second.cached = true; }
  bool is_cached(const std::string& path) const;

  std::vector<std::string> list(const std::string& prefix) const;

 private:
  File& require(const std::string& path);
  const File& require(const std::string& path) const;

  sim::Simulation* sim_;
  const CostModel* costs_;
  faults::Injector* injector_;
  Files files_;
};

}  // namespace prebake::os
