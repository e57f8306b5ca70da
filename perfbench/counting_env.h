// CountingEnv: an Env (common/env.h) that forwards every call to another Env
// (by default Env::Default()) and counts what reaches storage — bytes
// appended (all files, and WAL files alone), fsyncs, and the wall time spent
// inside Env calls. The benchmark passes it to DurableDb::Open; it is the
// source of write_amp, the fsync counts and the per-commit env time.

#ifndef PERFBENCH_COUNTING_ENV_H_
#define PERFBENCH_COUNTING_ENV_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "common/env.h"
#include "harness.h"

namespace perfbench {

class CountingEnv : public sinew::Env {
 public:
  struct Totals {
    uint64_t bytes_written = 0;
    uint64_t wal_bytes_written = 0;
    uint64_t fsyncs = 0;
    uint64_t sync_ns = 0;  // time inside WritableFile::Sync
    uint64_t io_ns = 0;    // time inside every Env / WritableFile call

    Totals operator-(const Totals& o) const {
      return {bytes_written - o.bytes_written,
              wal_bytes_written - o.wal_bytes_written, fsyncs - o.fsyncs,
              sync_ns - o.sync_ns, io_ns - o.io_ns};
    }
    Totals& operator+=(const Totals& o) {
      bytes_written += o.bytes_written;
      wal_bytes_written += o.wal_bytes_written;
      fsyncs += o.fsyncs;
      sync_ns += o.sync_ns;
      io_ns += o.io_ns;
      return *this;
    }
  };

  explicit CountingEnv(sinew::Env* base = sinew::Env::Default())
      : base_(base) {}
  CountingEnv(const CountingEnv&) = delete;
  CountingEnv& operator=(const CountingEnv&) = delete;

  Totals totals() const {
    return {bytes_.load(), wal_bytes_.load(), fsyncs_.load(), sync_ns_.load(),
            io_ns_.load()};
  }

  sinew::Result<std::unique_ptr<sinew::WritableFile>> NewWritableFile(
      const std::string& path) override {
    Timer t(this);
    auto file = base_->NewWritableFile(path);
    if (!file.ok()) return file.status();
    const size_t slash = path.find_last_of('/');
    const bool wal =
        path.compare(slash == std::string::npos ? 0 : slash + 1, 4, "wal-") ==
        0;
    return std::unique_ptr<sinew::WritableFile>(
        new File(this, std::move(*file), wal));
  }
  sinew::Result<std::string> ReadFileToString(const std::string& path) override {
    Timer t(this);
    return base_->ReadFileToString(path);
  }
  sinew::Status RenameFile(const std::string& from,
                           const std::string& to) override {
    Timer t(this);
    return base_->RenameFile(from, to);
  }
  sinew::Status DeleteFile(const std::string& path) override {
    Timer t(this);
    return base_->DeleteFile(path);
  }
  sinew::Status CreateDirs(const std::string& path) override {
    Timer t(this);
    return base_->CreateDirs(path);
  }
  sinew::Status RemoveAll(const std::string& path) override {
    Timer t(this);
    return base_->RemoveAll(path);
  }
  sinew::Result<std::vector<std::string>> ListDir(
      const std::string& path) override {
    Timer t(this);
    return base_->ListDir(path);
  }
  bool FileExists(const std::string& path) override {
    Timer t(this);
    return base_->FileExists(path);
  }

 private:
  /// Adds the wall time of its scope to io_ns (and optionally sync_ns).
  class Timer {
   public:
    explicit Timer(CountingEnv* env, bool sync = false)
        : env_(env), sync_(sync), start_(NowNs()) {}
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;
    ~Timer() {
      const uint64_t ns = NowNs() - start_;
      env_->io_ns_ += ns;
      if (sync_) env_->sync_ns_ += ns;
    }

   private:
    CountingEnv* env_;
    bool sync_;
    uint64_t start_;
  };

  class File : public sinew::WritableFile {
   public:
    File(CountingEnv* env, std::unique_ptr<sinew::WritableFile> base, bool wal)
        : env_(env), base_(std::move(base)), wal_(wal) {}
    sinew::Status Append(std::string_view data) override {
      Timer t(env_);
      sinew::Status st = base_->Append(data);
      if (st.ok()) {
        env_->bytes_ += data.size();
        if (wal_) env_->wal_bytes_ += data.size();
      }
      return st;
    }
    sinew::Status Sync() override {
      Timer t(env_, /*sync=*/true);
      ++env_->fsyncs_;
      return base_->Sync();
    }
    sinew::Status Close() override {
      Timer t(env_);
      return base_->Close();
    }

   private:
    CountingEnv* env_;
    std::unique_ptr<sinew::WritableFile> base_;
    bool wal_;
  };

  sinew::Env* base_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
  std::atomic<uint64_t> io_ns_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_ENV_H_
