// The durability layer under adversarial conditions: write_all must survive
// EINTR and short writes, write_file_atomic must never leave a half-written
// destination, and the seeded fault plan must be exactly replayable — the
// same seed over the same operation sequence injects the same faults.
#include "ranycast/vfs/vfs.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "ranycast/vfs/fault.hpp"
#include "support/scratch_dir.hpp"

namespace ranycast::vfs {
namespace {

namespace fs = std::filesystem;

std::string scratch(const std::string& tag) {
  static const test_support::ScratchDir dir("ranycast_vfs_test");
  return dir.file(tag);
}

std::string blob(std::size_t n) {
  std::string out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>('a' + (i * 31) % 26));
  }
  return out;
}

std::string slurp(const std::string& path) {
  auto bytes = read_file(path);
  EXPECT_TRUE(bytes.has_value()) << (bytes ? "" : bytes.error().to_string());
  if (!bytes) return {};
  return std::string(bytes->begin(), bytes->end());
}

TEST(Vfs, WriteFileAtomicRoundTrips) {
  const std::string path = scratch("roundtrip.bin");
  const std::string data = blob(4096);
  auto written = write_file_atomic(path, std::string_view(data));
  ASSERT_TRUE(written.has_value()) << written.error().to_string();
  EXPECT_EQ(slurp(path), data);
  EXPECT_FALSE(exists(path + ".tmp"));  // staging file never survives
}

TEST(Vfs, WriteAllLoopsOverEintrAndShortWrites) {
  const std::string path = scratch("short_writes.bin");
  const std::string data = blob(64 * 1024);
  FaultStats stats;
  {
    FaultPlan plan;
    plan.seed = 42;
    plan.p_eintr = 0.3;
    plan.p_short_write = 0.5;
    ScopedFaultPlan faults(plan);
    auto file = File::create(path);
    ASSERT_TRUE(file.has_value()) << file.error().to_string();
    auto written = file->write_all(std::string_view(data));
    ASSERT_TRUE(written.has_value()) << written.error().to_string();
    ASSERT_TRUE(file->close().has_value());
    stats = faults.stats();
  }
  // The plan must actually have bitten, and the loop must have healed it.
  EXPECT_GT(stats.eintr + stats.short_write, 0u);
  EXPECT_EQ(slurp(path), data);
}

TEST(Vfs, FaultStreamIsDeterministic) {
  const std::string data = blob(32 * 1024);
  auto run_once = [&](std::uint64_t seed, const std::string& tag) {
    const std::string path = scratch(tag);
    ScopedFaultPlan faults(FaultPlan::storm(seed, 0.25));
    const bool ok = write_file_atomic(path, std::string_view(data)).has_value();
    const FaultStats s = faults.stats();
    return std::tuple<bool, std::uint64_t, std::uint64_t>(ok, s.decisions,
                                                          s.injected());
  };
  // Same seed, same op sequence -> byte-for-byte the same fault decisions.
  EXPECT_EQ(run_once(7, "det_a.bin"), run_once(7, "det_b.bin"));
  EXPECT_EQ(run_once(1234, "det_c.bin"), run_once(1234, "det_d.bin"));
}

TEST(Vfs, EnospcBudgetFailsWritesWithPartialFile) {
  const std::string path = scratch("enospc.bin");
  const std::string data = blob(1000);
  FaultPlan plan;
  plan.enospc_after_bytes = 64;  // the "disk" accepts 64 bytes, ever
  ScopedFaultPlan faults(plan);
  auto file = File::create(path);
  ASSERT_TRUE(file.has_value()) << file.error().to_string();
  auto written = file->write_all(std::string_view(data));
  ASSERT_FALSE(written.has_value());
  EXPECT_EQ(written.error().err, ENOSPC);
  EXPECT_TRUE(written.error().injected);
  EXPECT_TRUE(written.error().retryable());  // space can be freed
  (void)file->close();
  // A REAL torn file is left behind: a prefix within the byte budget.
  EXPECT_LE(fs::file_size(path), 64u);
  EXPECT_GT(faults.stats().enospc, 0u);
}

TEST(Vfs, EnospcAbortsAtomicWriteAndCleansUp) {
  const std::string path = scratch("enospc_atomic.bin");
  ASSERT_TRUE(write_file_atomic(path, std::string_view("previous")).has_value());
  {
    FaultPlan plan;
    plan.enospc_after_bytes = 8;
    ScopedFaultPlan faults(plan);
    EXPECT_FALSE(write_file_atomic(path, std::string_view(blob(512))).has_value());
  }
  // Old contents intact, no torn tmp file littering the directory.
  EXPECT_EQ(slurp(path), "previous");
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(Vfs, TornRenameLeavesDetectablePrefix) {
  const std::string path = scratch("torn.bin");
  const std::string data = blob(2048);
  FaultPlan plan;
  plan.p_torn_rename = 1.0;
  ScopedFaultPlan faults(plan);
  // The rename "succeeds" — the crash window tears the destination instead.
  auto written = write_file_atomic(path, std::string_view(data));
  ASSERT_TRUE(written.has_value()) << written.error().to_string();
  EXPECT_LT(fs::file_size(path), data.size());
  EXPECT_GT(faults.stats().torn_rename, 0u);
}

TEST(Vfs, BitflipOnReadIsInjected) {
  const std::string path = scratch("bitflip.bin");
  const std::string data = blob(1024);
  ASSERT_TRUE(write_file_atomic(path, std::string_view(data)).has_value());
  {
    FaultPlan plan;
    plan.p_bitflip_read = 1.0;
    ScopedFaultPlan faults(plan);
    auto bytes = read_file(path);
    ASSERT_TRUE(bytes.has_value()) << bytes.error().to_string();
    EXPECT_NE(std::string(bytes->begin(), bytes->end()), data);
    EXPECT_GT(faults.stats().bitflip_read, 0u);
  }
  // With the plan gone the file itself is undamaged: the flip was in-memory.
  EXPECT_EQ(slurp(path), data);
}

TEST(Vfs, FailedFsyncAbortsAtomicWrite) {
  const std::string path = scratch("fsyncgate.bin");
  ASSERT_TRUE(write_file_atomic(path, std::string_view("durable")).has_value());
  FaultPlan plan;
  plan.p_fsync_fail = 1.0;
  ScopedFaultPlan faults(plan);
  auto written = write_file_atomic(path, std::string_view("lost"));
  ASSERT_FALSE(written.has_value());
  EXPECT_EQ(written.error().op, "fsync");
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(Vfs, CloseFailurePropagates) {
  const std::string path = scratch("close_fail.bin");
  FaultPlan plan;
  plan.p_close_fail = 1.0;
  ScopedFaultPlan faults(plan);
  // A deferred write error surfacing at close() must fail the atomic write:
  // swallowing it is silent data loss (the NFS/quota classic).
  EXPECT_FALSE(write_file_atomic(path, std::string_view("x")).has_value());
  EXPECT_GT(faults.stats().close_fail, 0u);
}

TEST(Vfs, PathFilterScopesInjection) {
  const std::string hit = scratch("filtered_victim.bin");
  const std::string miss = scratch("innocent.bin");
  FaultPlan plan;
  plan.p_write_fail = 1.0;
  plan.path_filter = "filtered_victim";
  ScopedFaultPlan faults(plan);
  EXPECT_TRUE(write_file_atomic(miss, std::string_view("fine")).has_value());
  auto written = write_file_atomic(hit, std::string_view("doomed"));
  ASSERT_FALSE(written.has_value());
  EXPECT_TRUE(written.error().injected);
  EXPECT_NE(written.error().to_string().find("[injected]"), std::string::npos);
}

TEST(Vfs, NoPlanMeansNoFaults) {
  ASSERT_FALSE(faults_active());
  const std::string path = scratch("clean.bin");
  const std::string data = blob(8192);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(write_file_atomic(path, std::string_view(data)).has_value());
  }
  EXPECT_EQ(slurp(path), data);
}

TEST(Vfs, AppendTruncateSemantics) {
  const std::string path = scratch("append.ndjson");
  {
    auto file = File::open_append(path, /*truncate=*/true);
    ASSERT_TRUE(file.has_value());
    ASSERT_TRUE(file->write_all(std::string_view("one\n")).has_value());
  }
  {
    auto file = File::open_append(path, /*truncate=*/false);
    ASSERT_TRUE(file.has_value());
    ASSERT_TRUE(file->write_all(std::string_view("two\n")).has_value());
  }
  EXPECT_EQ(slurp(path), "one\ntwo\n");
  {
    auto file = File::open_append(path, /*truncate=*/true);
    ASSERT_TRUE(file.has_value());
    ASSERT_TRUE(file->write_all(std::string_view("fresh\n")).has_value());
  }
  EXPECT_EQ(slurp(path), "fresh\n");
}

}  // namespace
}  // namespace ranycast::vfs
