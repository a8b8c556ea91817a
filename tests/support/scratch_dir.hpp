// A per-process scratch directory for tests that write files.
//
// The directory is made fresh (nothing a previous run left is adopted, such
// as a checkpoint chain's "<ck>.gN" generation files) and removed whole
// when the object goes out of scope.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ranycast::test_support {

class ScratchDir {
 public:
  /// `<tmp>/<name>.<pid>`.
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::temp_directory_path() /
              (name + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace ranycast::test_support
