// Fixture self-test for tools/bmr_check (docs/GUIDE.md §12): feeds
// known-bad snippets through Analyze() and asserts each check fires —
// and, just as important, that the clean twin of every fixture stays
// silent.  Fixtures use the same "src/<dir>/<name>" paths as the repo
// because paths decide layering rules and header-vs-TU roles.
#include "analyzer.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace bmr_check {
namespace {

std::vector<Finding> RunCheck(const std::vector<FileContent>& files,
                         const std::string& check) {
  Options options;
  if (!check.empty()) options.checks.insert(check);
  return Analyze(files, options);
}

std::vector<Finding> Of(const std::vector<Finding>& all,
                        const std::string& check) {
  std::vector<Finding> out;
  for (const Finding& f : all)
    if (f.check == check) out.push_back(f);
  return out;
}

bool AnyContains(const std::vector<Finding>& fs, const std::string& needle) {
  return std::any_of(fs.begin(), fs.end(), [&](const Finding& f) {
    return f.message.find(needle) != std::string::npos;
  });
}

// ---- lock-order ----------------------------------------------------

TEST(LockOrder, AnnotatedCycleIsReported) {
  std::vector<FileContent> files = {{"src/mr/locks.h", R"cc(
#pragma once
namespace bmr::mr {
class A {
  BMR_ACQUIRED_AFTER("lock.b")
  OrderedMutex mu_{"lock.a"};
};
class B {
  BMR_ACQUIRED_AFTER("lock.a")
  OrderedMutex mu_{"lock.b"};
};
}  // namespace bmr::mr
)cc"}};
  auto fs = Of(RunCheck(files, "lock-order"), "lock-order");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(fs[0].message.find("lock.a"), std::string::npos);
  EXPECT_NE(fs[0].message.find("annotated"), std::string::npos);
}

TEST(LockOrder, NestedAcquisitionCycleAcrossFunctions) {
  std::vector<FileContent> files = {{"src/mr/locks.cc", R"cc(
OrderedMutex g_a{"g.a"};
OrderedMutex g_b{"g.b"};
void Forward() {
  MutexLock la(g_a);
  MutexLock lb(g_b);
}
void Backward() {
  MutexLock lb(g_b);
  MutexLock la(g_a);
}
)cc"}};
  auto fs = Of(RunCheck(files, "lock-order"), "lock-order");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(fs[0].message.find("nested"), std::string::npos);
}

TEST(LockOrder, ConsistentNestingIsClean) {
  std::vector<FileContent> files = {{"src/mr/locks.cc", R"cc(
OrderedMutex g_a{"g.a"};
OrderedMutex g_b{"g.b"};
void Forward() {
  MutexLock la(g_a);
  MutexLock lb(g_b);
}
void AlsoForward() {
  MutexLock la(g_a);
  MutexLock lb(g_b);
}
)cc"}};
  EXPECT_TRUE(Of(RunCheck(files, "lock-order"), "lock-order").empty());
}

TEST(LockOrder, RecursiveAcquisitionIsReported) {
  std::vector<FileContent> files = {{"src/mr/locks.cc", R"cc(
OrderedMutex g_a{"g.a"};
void Twice() {
  MutexLock outer(g_a);
  MutexLock inner(g_a);
}
)cc"}};
  auto fs = Of(RunCheck(files, "lock-order"), "lock-order");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("recursive"), std::string::npos);
}

TEST(LockOrder, SameMemberNameResolvesByClass) {
  // Two classes both call their mutex mu_ (the repo's dfs.h does this);
  // nesting B's lock under A's must produce an edge between the right
  // two lock names, not a self-edge on an ambiguous mu_.
  std::vector<FileContent> files = {{"src/mr/two.h", R"cc(
#pragma once
namespace bmr::mr {
class A {
 public:
  void Poke(class B* b);
 private:
  OrderedMutex mu_{"two.a"};
};
class B {
 public:
  void Use() { MutexLock l(mu_); }
 private:
  OrderedMutex mu_{"two.b"};
};
inline void A::Poke(B* b) {
  MutexLock l(mu_);
  MutexLock m(b->mu_);
}
}  // namespace bmr::mr
)cc"}};
  // Edge two.a -> two.b only: acyclic, no findings.
  EXPECT_TRUE(Of(RunCheck(files, "lock-order"), "lock-order").empty());
}

// ---- layering ------------------------------------------------------

TEST(Layering, DirectionViolationIsReported) {
  std::vector<FileContent> files = {{"src/common/bad.h", R"cc(
#pragma once
#include "mr/engine.h"
)cc"}};
  auto fs = Of(RunCheck(files, "layering"), "layering");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("mr/engine.h"), std::string::npos);
  EXPECT_EQ(fs[0].file, "src/common/bad.h");
}

TEST(Layering, IncludeCycleIsReported) {
  std::vector<FileContent> files = {
      {"src/mr/p.h", "#pragma once\n#include \"mr/q.h\"\nusing P = int;\n"},
      {"src/mr/q.h", "#pragma once\n#include \"mr/p.h\"\nusing Q = P;\n"},
  };
  auto fs = Of(RunCheck(files, "layering"), "layering");
  ASSERT_TRUE(AnyContains(fs, "include cycle")) << FormatFindings(fs);
}

TEST(Layering, UnusedIncludeIsReported) {
  std::vector<FileContent> files = {
      {"src/mr/widget.h",
       "#pragma once\nnamespace bmr::mr {\nclass Widget {};\n}\n"},
      {"src/mr/used.h",
       "#pragma once\nnamespace bmr::mr {\nclass Gear {};\n}\n"},
      {"src/mr/user.cc", R"cc(
#include "mr/widget.h"
#include "mr/used.h"
namespace bmr::mr {
int Spin(Gear* g) { return g ? 1 : 0; }
}  // namespace bmr::mr
)cc"},
  };
  auto fs = Of(RunCheck(files, "layering"), "layering");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("mr/widget.h"), std::string::npos);
  EXPECT_NE(fs[0].message.find("stale include"), std::string::npos);
}

TEST(Layering, PairedHeaderIsNeverStale) {
  std::vector<FileContent> files = {
      {"src/mr/thing.h",
       "#pragma once\nnamespace bmr::mr {\nclass Thing {};\n}\n"},
      // thing.cc references nothing from thing.h — still exempt.
      {"src/mr/thing.cc", "#include \"mr/thing.h\"\nint x = 0;\n"},
  };
  EXPECT_TRUE(Of(RunCheck(files, "layering"), "layering").empty());
}

// ---- status-discard ------------------------------------------------

TEST(StatusDiscard, BareCallInCcIsReported) {
  std::vector<FileContent> files = {{"src/mr/use.cc", R"cc(
Status DoThing();
void F() {
  DoThing();
}
)cc"}};
  auto fs = Of(RunCheck(files, "status-discard"), "status-discard");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("DoThing"), std::string::npos);
}

TEST(StatusDiscard, ConsumedAndPropagatedAreClean) {
  std::vector<FileContent> files = {{"src/mr/use.cc", R"cc(
Status DoThing();
Status G() {
  Status s = DoThing();
  if (!s.ok()) return s;
  return DoThing();
}
)cc"}};
  EXPECT_TRUE(Of(RunCheck(files, "status-discard"), "status-discard").empty());
}

TEST(StatusDiscard, VoidCastNeedsReasonComment) {
  std::vector<FileContent> files = {{"src/mr/use.cc", R"cc(
Status DoThing();
void F() {
  (void)DoThing();
}
void G() {
  (void)DoThing();  // best-effort cleanup; failure already logged
}
)cc"}};
  auto fs = Of(RunCheck(files, "status-discard"), "status-discard");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_NE(fs[0].message.find("reason"), std::string::npos);
}

TEST(StatusDiscard, AmbiguousNameIsSkipped) {
  // Append returns Status in one class and void in another (the repo
  // has exactly this); without type resolution the check must stay
  // quiet rather than guess.
  std::vector<FileContent> files = {
      {"src/mr/a.h", R"cc(
#pragma once
class W { public: [[nodiscard]] Status Append(); };
class B { public: void Append(); };
)cc"},
      {"src/mr/use.cc", R"cc(
#include "mr/a.h"
void F(B* b) {
  b->Append();
}
)cc"}};
  EXPECT_TRUE(Of(RunCheck(files, "status-discard"), "status-discard").empty());
}

// ---- nodiscard -----------------------------------------------------

TEST(Nodiscard, HeaderDeclWithoutAttributeIsReported) {
  std::vector<FileContent> files = {{"src/mr/api.h", R"cc(
#pragma once
namespace bmr::mr {
class C {
 public:
  Status Flush();
};
}  // namespace bmr::mr
)cc"}};
  auto fs = Of(RunCheck(files, "nodiscard"), "nodiscard");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("Flush"), std::string::npos);
}

TEST(Nodiscard, MultiLineDeclarationIsCaught) {
  // Return type and name on different lines — the shape the old awk
  // scan (lint.sh check 2) could not see.  Regression fixture.
  std::vector<FileContent> files = {{"src/mr/api.h", R"cc(
#pragma once
namespace bmr::mr {
class C {
 public:
  StatusOr<std::unique_ptr<Writer>>
  OpenWriter(const std::string& path,
             int flags);
};
}  // namespace bmr::mr
)cc"}};
  auto fs = Of(RunCheck(files, "nodiscard"), "nodiscard");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("OpenWriter"), std::string::npos);
}

TEST(Nodiscard, AnnotatedDeclIsClean) {
  std::vector<FileContent> files = {{"src/mr/api.h", R"cc(
#pragma once
namespace bmr::mr {
class C {
 public:
  [[nodiscard]] Status Flush();
  [[nodiscard]] StatusOr<int>
  Count() const;
};
Status C::Flush() { return Status(); }
}  // namespace bmr::mr
)cc"}};
  EXPECT_TRUE(Of(RunCheck(files, "nodiscard"), "nodiscard").empty());
}

// ---- metric-registry -----------------------------------------------

TEST(MetricRegistry, DeadConstantIsReported) {
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h", R"cc(
#pragma once
inline constexpr const char* kHUsedUs = "bmr_job_used_us";
inline constexpr const char* kHDeadUs = "bmr_job_dead_us";
)cc"},
      {"src/mr/rec.cc", "void F(M* m) { m->RecordLatency(kHUsedUs, 1); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("kHDeadUs"), std::string::npos);
  EXPECT_NE(fs[0].message.find("dead series"), std::string::npos);
}

TEST(MetricRegistry, UnregisteredConstantAtSiteIsReported) {
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h",
       "#pragma once\ninline constexpr const char* kHUsedUs = \"u\";\n"},
      {"src/mr/rec.cc",
       "void F(M* m) { m->RecordLatency(kHUsedUs, 1);\n"
       "  m->AddCounter(kHTypoUs, 1); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("kHTypoUs"), std::string::npos);
}

TEST(MetricRegistry, StringLiteralAtSiteIsReported) {
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h",
       "#pragma once\ninline constexpr const char* kHUsedUs = \"u\";\n"},
      {"src/mr/rec.cc",
       "void F(M* m, T* t) { m->RecordLatency(kHUsedUs, 1);\n"
       "  LatencyTimer timer(t, \"bmr_raw_us\"); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("string-literal"), std::string::npos);
}

TEST(MetricRegistry, UnknownSubsystemInNameIsReported) {
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h",
       "#pragma once\n"
       "inline constexpr const char* kHBadUs = \"bmr_warpdrive_spin_us\";\n"},
      {"src/mr/rec.cc", "void F(M* m) { m->RecordLatency(kHBadUs, 1); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("unknown subsystem 'warpdrive'"),
            std::string::npos);
}

TEST(MetricRegistry, MissingUnitSuffixIsReported) {
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h",
       "#pragma once\n"
       "inline constexpr const char* kHBad = \"bmr_codec_blocks\";\n"},
      {"src/mr/rec.cc", "void F(M* m) { m->AddCounter(kHBad, 1); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("unit suffix"), std::string::npos);
}

TEST(MetricRegistry, ArenaCodecFamiliesAndLabeledNamesAreValid) {
  // The PR 8 families pass the taxonomy, a {label} suffix is stripped
  // before validation, and a trailing-underscore prefix constant is
  // exempt (it names a family, not a series).
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h", R"cc(
#pragma once
inline constexpr const char* kPromArenaCachedBytes = "bmr_arena_cached_bytes";
inline constexpr const char* kHCodecEncodeUs = "bmr_codec_encode_us";
inline constexpr const char* kHRpcInproc =
    "bmr_rpc_call_us{transport=\"inproc\"}";
inline constexpr const char* kPromJobCounterPrefix = "bmr_job_";
)cc"},
      {"src/mr/rec.cc",
       "void F(M* m, T* t) { m->AddCounter(kPromArenaCachedBytes, 1);\n"
       "  LatencyTimer a(t, kHCodecEncodeUs);\n"
       "  LatencyTimer b(t, kHRpcInproc);\n"
       "  Use(kPromJobCounterPrefix); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  EXPECT_TRUE(fs.empty()) << FormatFindings(fs);
}

TEST(MetricRegistry, ObsSelfMetricFamilyIsValid) {
  // The §15 observability self-metrics ride the obs subsystem.
  std::vector<FileContent> files = {
      {"src/obs/metric_names.h",
       "#pragma once\n"
       "inline constexpr const char* kPromObsSpansDropped =\n"
       "    \"bmr_obs_spans_dropped_total\";\n"},
      {"src/mr/rec.cc",
       "void F(M* m) { m->AddCounter(kPromObsSpansDropped, 1); }\n"},
  };
  auto fs = Of(RunCheck(files, "metric-registry"), "metric-registry");
  EXPECT_TRUE(fs.empty()) << FormatFindings(fs);
}

TEST(Layering, ObsMayUseConcurrencyButNotNet) {
  // §15 added obs -> concurrency (the introspection server's loop
  // thread).  The reverse direction net -> obs was already legal; obs
  // reaching into net stays a violation.
  std::vector<FileContent> files = {{"src/obs/ok.h", R"cc(
#pragma once
#include "concurrency/thread_pool.h"
namespace bmr::obs {
class Loop { ThreadPool pool_{1}; };
}  // namespace bmr::obs
)cc"}};
  EXPECT_TRUE(Of(RunCheck(files, "layering"), "layering").empty());

  std::vector<FileContent> bad = {{"src/obs/bad.h", R"cc(
#pragma once
#include "net/transport.h"
)cc"}};
  auto fs = Of(RunCheck(bad, "layering"), "layering");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("net/transport.h"), std::string::npos);
}

TEST(Layering, FaultsInternalHeaderIsPrivateToFaults) {
  std::vector<FileContent> bad = {{"src/mr/bad.cc", R"cc(
#include "faults/internal.h"
)cc"}};
  auto fs = Of(RunCheck(bad, "layering"), "layering");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("faults/internal.h"), std::string::npos);
  EXPECT_NE(fs[0].message.find("faults/fault_injector.h"), std::string::npos);

  std::vector<FileContent> ok = {
      {"src/mr/ok.cc", "#include \"faults/fault_injector.h\"\n"},
      {"src/faults/fault_injector.cc", "#include \"faults/internal.h\"\n"},
  };
  auto clean = Of(RunCheck(ok, "layering"), "layering");
  EXPECT_TRUE(clean.empty()) << FormatFindings(clean);
}

TEST(Layering, OnlyTheTransportInterfaceLeavesNet) {
  std::vector<FileContent> bad = {{"src/service/bad.cc", R"cc(
#include "net/tcp_transport.h"
)cc"}};
  auto fs = Of(RunCheck(bad, "layering"), "layering");
  ASSERT_EQ(fs.size(), 1u) << FormatFindings(fs);
  EXPECT_NE(fs[0].message.find("net/tcp_transport.h"), std::string::npos);
  EXPECT_NE(fs[0].message.find("net/transport.h"), std::string::npos);

  std::vector<FileContent> ok = {
      {"src/mr/ok.cc", "#include \"net/transport.h\"\n"},
      {"src/net/transport.cc", "#include \"net/tcp_transport.h\"\n"},
  };
  auto clean = Of(RunCheck(ok, "layering"), "layering");
  EXPECT_TRUE(clean.empty()) << FormatFindings(clean);
}

// ---- suppression ---------------------------------------------------

TEST(Suppression, AllowWithReasonSilencesFinding) {
  std::vector<FileContent> files = {{"src/common/bad.h", R"cc(
#pragma once
// bmr_check:allow(layering) exercising the suppression path in tests
#include "mr/engine.h"
)cc"}};
  EXPECT_TRUE(Of(RunCheck(files, "layering"), "layering").empty());
}

TEST(Suppression, AllowWithoutReasonIsItselfAFinding) {
  std::vector<FileContent> files = {{"src/common/bad.h", R"cc(
#pragma once
// bmr_check:allow(layering)
#include "mr/engine.h"
)cc"}};
  auto all = RunCheck(files, "layering");
  // The reasonless allow() does not suppress, and is flagged itself.
  EXPECT_EQ(Of(all, "layering").size(), 1u) << FormatFindings(all);
  EXPECT_EQ(Of(all, "allow").size(), 1u) << FormatFindings(all);
}

TEST(Suppression, WrongCheckIdDoesNotSuppress) {
  std::vector<FileContent> files = {{"src/common/bad.h", R"cc(
#pragma once
// bmr_check:allow(lock-order) wrong id on purpose
#include "mr/engine.h"
)cc"}};
  EXPECT_EQ(Of(RunCheck(files, "layering"), "layering").size(), 1u);
}

// ---- harness plumbing ----------------------------------------------

TEST(Plumbing, CheckSelectionRunsOnlyRequestedChecks) {
  // One fixture violating two checks; selecting one yields only it.
  std::vector<FileContent> files = {{"src/common/bad.h", R"cc(
#pragma once
#include "mr/engine.h"
namespace bmr {
class C { public: Status Flush(); };
}
)cc"}};
  auto layering_only = RunCheck(files, "layering");
  EXPECT_EQ(Of(layering_only, "nodiscard").size(), 0u);
  EXPECT_EQ(Of(layering_only, "layering").size(), 1u);
  auto both = RunCheck(files, "");
  EXPECT_EQ(Of(both, "nodiscard").size(), 1u);
  EXPECT_EQ(Of(both, "layering").size(), 1u);
}

TEST(Plumbing, FormatFindingsIsSortedAndStable) {
  std::vector<Finding> fs = {
      {"layering", "src/b.h", 2, "two"},
      {"layering", "src/a.h", 9, "one"},
  };
  std::string text = FormatFindings(fs);
  EXPECT_LT(text.find("src/a.h"), text.find("src/b.h"));
  EXPECT_NE(text.find("[layering]"), std::string::npos);
}

TEST(Plumbing, LoadTreeOnMissingRootIsEmpty) {
  EXPECT_TRUE(LoadTree("/nonexistent/definitely/missing").empty());
}

}  // namespace
}  // namespace bmr_check
