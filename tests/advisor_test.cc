// Tests for the write-configuration advisor (§8 recommendations).

#include <gtest/gtest.h>

#include "core/advisor.h"
#include "sim/environment.h"
#include "workload/tpch.h"

namespace autocomp {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.catalog().CreateDatabase("db").ok());
  }

  void MakeTable(const std::string& name) {
    auto table = env_.catalog().CreateTable(
        "db", name, lst::Schema(0, {{1, "d", lst::FieldType::kDate, true}}),
        lst::PartitionSpec(1, {{1, lst::Transform::kMonth, "m"}}));
    ASSERT_TRUE(table.ok());
  }

  void Write(const std::string& table, int64_t logical,
             engine::WriterProfile profile,
             engine::WriteKind kind = engine::WriteKind::kAppend) {
    engine::WriteSpec spec;
    spec.table = table;
    spec.kind = kind;
    spec.logical_bytes = logical;
    spec.partitions = {"m=2024-01"};
    spec.profile = profile;
    ASSERT_TRUE(env_.query_engine().ExecuteWrite(spec, env_.clock().Now()).ok());
    env_.clock().Advance(kMinute);
  }

  std::vector<core::WriteAdvice> Advise() {
    core::WriteConfigAdvisor advisor;
    auto advice = advisor.Analyze(&env_.catalog());
    EXPECT_TRUE(advice.ok());
    return advice.ok() ? *advice : std::vector<core::WriteAdvice>{};
  }

  bool HasAdvice(const std::vector<core::WriteAdvice>& advice,
                 const std::string& table, core::AdviceKind kind) {
    for (const core::WriteAdvice& a : advice) {
      if (a.table == table && a.kind == kind) return true;
    }
    return false;
  }

  sim::SimEnvironment env_;
};

TEST_F(AdvisorTest, WellTunedTableGetsNoAdvice) {
  MakeTable("good");
  for (int i = 0; i < 4; ++i) {
    Write("db.good", 2 * kGiB, engine::TunedPipelineProfile());
  }
  EXPECT_TRUE(Advise().empty());
}

TEST_F(AdvisorTest, UntunedWriterFlagged) {
  MakeTable("spray");
  for (int i = 0; i < 4; ++i) {
    Write("db.spray", 512 * kMiB, engine::UntunedUserJobProfile());
  }
  const auto advice = Advise();
  EXPECT_TRUE(HasAdvice(advice, "db.spray", core::AdviceKind::kUntunedWriter));
  // The message carries the numbers an operator needs.
  for (const core::WriteAdvice& a : advice) {
    if (a.kind == core::AdviceKind::kUntunedWriter) {
      EXPECT_NE(a.message.find("coalescing"), std::string::npos);
    }
  }
}

TEST_F(AdvisorTest, TrickleAppendsFlagged) {
  MakeTable("trickle");
  engine::WriterProfile checkpoint;
  checkpoint.target_file_bytes = 8 * kMiB;
  checkpoint.write_tasks = 2;
  checkpoint.size_jitter_sigma = 0;
  for (int i = 0; i < 6; ++i) {
    Write("db.trickle", 16 * kMiB, checkpoint);
  }
  EXPECT_TRUE(HasAdvice(Advise(), "db.trickle",
                        core::AdviceKind::kTrickleAppends));
}

TEST_F(AdvisorTest, MorBacklogFlagged) {
  MakeTable("mor");
  Write("db.mor", 2 * kGiB, engine::TunedPipelineProfile());
  engine::WriterProfile tiny;
  tiny.target_file_bytes = 4 * kMiB;
  tiny.write_tasks = 2;
  for (int i = 0; i < 10; ++i) {
    Write("db.mor", 4 * kMiB, tiny, engine::WriteKind::kMorDelete);
  }
  EXPECT_TRUE(
      HasAdvice(Advise(), "db.mor", core::AdviceKind::kMorDeltaBacklog));
}

TEST_F(AdvisorTest, ClusteringOpportunityOnHotTables) {
  MakeTable("hot");
  MakeTable("cold");
  Write("db.hot", 4 * kGiB, engine::TunedPipelineProfile());
  Write("db.cold", 4 * kGiB, engine::TunedPipelineProfile());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(env_.query_engine()
                    .ExecuteRead("db.hot", std::nullopt, env_.clock().Now())
                    .ok());
    env_.clock().Advance(kMinute);
  }
  const auto advice = Advise();
  EXPECT_TRUE(HasAdvice(advice, "db.hot",
                        core::AdviceKind::kClusteringOpportunity));
  EXPECT_FALSE(HasAdvice(advice, "db.cold",
                         core::AdviceKind::kClusteringOpportunity));
}

TEST_F(AdvisorTest, OrderedBySeverityAndDeterministic) {
  MakeTable("a_spray");
  MakeTable("b_spray");
  for (int i = 0; i < 4; ++i) {
    Write("db.a_spray", 512 * kMiB, engine::UntunedUserJobProfile());
    Write("db.b_spray", 512 * kMiB, engine::UntunedUserJobProfile());
  }
  const auto first = Advise();
  const auto second = Advise();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].table, second[i].table);
    EXPECT_EQ(first[i].kind, second[i].kind);
    if (i > 0) {
      EXPECT_GE(first[i - 1].severity, first[i].severity);
    }
  }
}

TEST_F(AdvisorTest, FewCommitsNoJudgement) {
  MakeTable("young");
  Write("db.young", 32 * kMiB, engine::UntunedUserJobProfile());
  // Only one commit: below min_commits, no writer advice yet.
  EXPECT_FALSE(
      HasAdvice(Advise(), "db.young", core::AdviceKind::kUntunedWriter));
}

TEST_F(AdvisorTest, KindNames) {
  EXPECT_STREQ(core::AdviceKindName(core::AdviceKind::kUntunedWriter),
               "untuned-writer");
  EXPECT_STREQ(core::AdviceKindName(core::AdviceKind::kMorDeltaBacklog),
               "mor-delta-backlog");
}

}  // namespace
}  // namespace autocomp
