// ScratchDir: a fresh, empty directory under the gtest temp dir, removed
// with everything in it when the object goes out of scope (failed
// assertions included), so repeated test runs leave nothing behind.
//
// The name is "sharoes_<tag>_<pid>": the tag keeps the directories of
// one binary apart, the pid keeps concurrent runs of it apart.

#ifndef SHAROES_TESTS_TESTING_SCRATCH_DIR_H_
#define SHAROES_TESTS_TESTING_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

namespace sharoes::testing {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "sharoes_" + tag + "_" +
              std::to_string(::getpid())) {
    std::string cmd = "rm -rf " + path_ + " && mkdir -p " + path_;
    EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  }
  ~ScratchDir() {
    int rc = std::system(("rm -rf " + path_).c_str());
    (void)rc;
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace sharoes::testing

#endif  // SHAROES_TESTS_TESTING_SCRATCH_DIR_H_
