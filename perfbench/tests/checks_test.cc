// Each output check of the benchmark must pass a right result and
// reject a wrong one; the span recorder must split self time exactly.

#include <gtest/gtest.h>

#include "checks.h"
#include "measure.h"
#include "spans.h"

namespace perfbench {
namespace {

InstanceRecord Committed(int class_index, int64_t number) {
  InstanceRecord r;
  r.class_index = class_index;
  r.number = number;
  r.num_steps = 3;
  r.input = 1234;
  r.changed_input = 4321;
  r.state = WorkflowState::kCommitted;
  r.archived = ExpectedArchive(r);
  return r;
}

TEST(MatchesOracle, PassesWhenStatesAgree) {
  std::vector<InstanceRecord> records = {Committed(0, 1)};
  EXPECT_TRUE(CheckMatchesOracle(records, {{{0, 1}, WorkflowState::kCommitted}})
                  .empty());
}

TEST(MatchesOracle, RejectsADifferentTerminalState) {
  std::vector<InstanceRecord> records = {Committed(0, 1)};
  EXPECT_EQ(CheckMatchesOracle(records, {{{0, 1}, WorkflowState::kAborted}})
                .size(),
            1u);
}

TEST(MatchesOracle, RejectsAnInstanceTheOracleDoesNotKnow) {
  std::vector<InstanceRecord> records = {Committed(0, 1)};
  EXPECT_EQ(CheckMatchesOracle(records, {}).size(), 1u);
}

TEST(MatchesOracle, IgnoresInstancesThatNeverTerminated) {
  InstanceRecord stuck = Committed(0, 1);
  stuck.state = WorkflowState::kExecuting;
  EXPECT_TRUE(
      CheckMatchesOracle({stuck}, {{{0, 1}, WorkflowState::kCommitted}})
          .empty());
}

TEST(AbortsInAbortSet, RejectsAnAbortOutsideTheSet) {
  InstanceRecord r = Committed(2, 7);
  r.state = WorkflowState::kAborted;
  EXPECT_EQ(CheckAbortsInAbortSet({r}).size(), 1u);
  r.abort = true;
  EXPECT_TRUE(CheckAbortsInAbortSet({r}).empty());
}

TEST(ArchivedData, ExpectedArchiveFollowsTheInputsSent) {
  InstanceRecord r = Committed(0, 1);
  std::map<std::string, Value> data = ExpectedArchive(r);
  EXPECT_EQ(data.at("WF.I1"), Value(int64_t{1234}));
  EXPECT_EQ(data.count("WF.FAIL1"), 0u);
  EXPECT_EQ(data.at("S3.O1"), Value(int64_t{1}));
  EXPECT_EQ(data.size(), 4u);
  r.change = true;
  r.fail = true;
  data = ExpectedArchive(r);
  EXPECT_EQ(data.at("WF.I1"), Value(int64_t{4321}));
  EXPECT_EQ(data.at("WF.FAIL1"), Value(true));
}

TEST(ArchivedData, PassesTheDerivedData) {
  EXPECT_TRUE(CheckArchivedData({Committed(0, 1), Committed(1, 2)}).empty());
}

TEST(ArchivedData, RejectsAWrongInputValue) {
  InstanceRecord r = Committed(0, 1);
  r.archived["WF.I1"] = Value(int64_t{1235});
  EXPECT_EQ(CheckArchivedData({r}).size(), 1u);
}

TEST(ArchivedData, RejectsAMissingStepOutput) {
  InstanceRecord r = Committed(0, 1);
  r.archived.erase("S2.O1");
  EXPECT_EQ(CheckArchivedData({r}).size(), 1u);
}

TEST(ArchivedData, RejectsTheOriginalInputAfterAnInputChange) {
  InstanceRecord r = Committed(0, 1);
  r.change = true;  // archived still holds the value sent at start
  EXPECT_EQ(CheckArchivedData({r}).size(), 1u);
}

TEST(AllCommitted, PassesWhenEveryWorkflowCommittedWithItsInput) {
  EXPECT_TRUE(CheckAllCommitted({5, 6},
                                {WorkflowState::kCommitted,
                                 WorkflowState::kCommitted},
                                {{{"WF.I1", Value(int64_t{5})}},
                                 {{"WF.I1", Value(int64_t{6})}}})
                  .empty());
}

TEST(AllCommitted, RejectsAnUnfinishedWorkflow) {
  EXPECT_EQ(CheckAllCommitted({5, 6},
                              {WorkflowState::kCommitted,
                               WorkflowState::kExecuting},
                              {{{"WF.I1", Value(int64_t{5})}},
                               {{"WF.I1", Value(int64_t{6})}}})
                .size(),
            1u);
}

TEST(AllCommitted, RejectsAWrongArchivedInput) {
  EXPECT_EQ(CheckAllCommitted({5, 6},
                              {WorkflowState::kCommitted,
                               WorkflowState::kCommitted},
                              {{{"WF.I1", Value(int64_t{6})}},
                               {{"WF.I1", Value(int64_t{6})}}})
                .size(),
            1u);
}

TEST(AllCommitted, RejectsMissingResults) {
  EXPECT_EQ(CheckAllCommitted({5, 6}, {WorkflowState::kCommitted}, {{}})
                .size(),
            1u);
}

TEST(MessagesPerWorkflow, PassesOnlyTheExactCount) {
  EXPECT_TRUE(CheckMessagesPerWorkflow("m", 16 * 100, 100, 16).empty());
  EXPECT_EQ(CheckMessagesPerWorkflow("m", 16 * 100 + 1, 100, 16).size(), 1u);
  EXPECT_EQ(CheckMessagesPerWorkflow("m", 16 * 100 - 1, 100, 16).size(), 1u);
  EXPECT_EQ(CheckMessagesPerWorkflow("m", 0, 0, 16).size(), 1u);
}

TEST(Spans, SelfTimeExcludesChildSpans) {
  std::vector<LayerTotals> before = Spans::Totals();
  Spans::SetEnabled(true);
  {
    ScopedSpan outer(Layer::kSimRun);
    ScopedSpan inner(Layer::kDistAgent, 7);
  }
  Spans::SetEnabled(false);
  std::vector<LayerTotals> delta = LayerDelta(Spans::Totals(), before);
  const LayerTotals& outer = delta[static_cast<int>(Layer::kSimRun)];
  const LayerTotals& inner = delta[static_cast<int>(Layer::kDistAgent)];
  EXPECT_EQ(outer.count, 1);
  EXPECT_EQ(inner.count, 1);
  EXPECT_EQ(inner.self_ns, inner.total_ns);
  EXPECT_EQ(outer.self_ns + inner.total_ns, outer.total_ns);
  std::vector<Span> stored = Spans::Stored();
  ASSERT_GE(stored.size(), 2u);
  const Span& child = stored.back();
  EXPECT_EQ(child.layer, Layer::kDistAgent);
  EXPECT_EQ(child.wf, 7);
  EXPECT_EQ(child.parent, stored[stored.size() - 2].id);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  std::vector<LayerTotals> before = Spans::Totals();
  { ScopedSpan span(Layer::kNetRoute); }
  std::vector<LayerTotals> delta = LayerDelta(Spans::Totals(), before);
  EXPECT_EQ(delta[static_cast<int>(Layer::kNetRoute)].count, 0);
}

}  // namespace
}  // namespace perfbench
