// Multi-tenant job service: pool-tree policy units, admission control
// fast-fail, fair-share scheduling across tenants, preemption at the
// service queue bound, shutdown cancellation, and the per-pool
// bmr_service_* metric families through the Prometheus exposition.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "concurrency/thread_pool.h"
#include "obs/metric_names.h"
#include "obs/validate.h"
#include "service/job_service.h"
#include "service/pool_tree.h"
#include "test_util.h"
#include "workload/generators.h"

namespace bmr {
namespace {

using service::JobOutcome;
using service::JobService;
using service::JobTicket;
using service::PoolConfig;
using service::PoolTree;
using testutil::MakeTestCluster;

PoolConfig MakePool(const std::string& name, double weight,
                    const std::string& parent = "root") {
  PoolConfig config;
  config.name = name;
  config.parent = parent;
  config.weight = weight;
  return config;
}

// ---- PoolTree policy units -------------------------------------------

TEST(PoolTreeTest, AddPoolValidatesConfigs) {
  PoolTree tree;
  ASSERT_TRUE(tree.AddPool(MakePool("a", 1.0)).ok());
  EXPECT_EQ(tree.AddPool(MakePool("a", 1.0)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.AddPool(MakePool("", 1.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.AddPool(MakePool("b", -1.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.AddPool(MakePool("c", 1.0, "nope")).code(),
            StatusCode::kNotFound);
  // A pool holding queued jobs must stay a leaf.
  ASSERT_TRUE(tree.Enqueue("a", 1).ok());
  EXPECT_EQ(tree.AddPool(MakePool("child", 1.0, "a")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PoolTreeTest, EnqueueFastFailsOnBoundsAndShape) {
  PoolTree tree;
  PoolConfig tiny = MakePool("tiny", 1.0);
  tiny.queue_limit = 2;
  ASSERT_TRUE(tree.AddPool(tiny).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("leaf", 1.0, "tiny")).ok());

  EXPECT_EQ(tree.Enqueue("nope", 1).code(), StatusCode::kNotFound);
  // "tiny" has a child now: not a leaf.
  EXPECT_EQ(tree.Enqueue("tiny", 1).code(), StatusCode::kFailedPrecondition);
  PoolConfig bounded = MakePool("bounded", 1.0);
  bounded.queue_limit = 2;
  ASSERT_TRUE(tree.AddPool(bounded).ok());
  ASSERT_TRUE(tree.Enqueue("bounded", 1).ok());
  ASSERT_TRUE(tree.Enqueue("bounded", 2).ok());
  EXPECT_EQ(tree.Enqueue("bounded", 3).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(tree.queued("bounded"), 2u);
}

TEST(PoolTreeTest, EqualWeightPoolsRoundRobinOnOneSlot) {
  PoolTree tree;
  ASSERT_TRUE(tree.AddPool(MakePool("a", 1.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("b", 1.0)).ok());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(tree.Enqueue("a", 10 + i).ok());
    ASSERT_TRUE(tree.Enqueue("b", 20 + i).ok());
  }
  // Serial slot: start, finish, start... must alternate pools (the
  // started/weight history tie-break; without it "a" would win every
  // running/weight tie and drain first).
  std::vector<std::string> order;
  std::string pool;
  uint64_t job = 0;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(tree.StartNext(&pool, &job));
    order.push_back(pool);
    tree.FinishJob(pool);
  }
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

TEST(PoolTreeTest, WeightsSkewTheShare) {
  PoolTree tree;
  ASSERT_TRUE(tree.AddPool(MakePool("heavy", 3.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("light", 1.0)).ok());
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(tree.Enqueue("heavy", 100 + i).ok());
    ASSERT_TRUE(tree.Enqueue("light", 200 + i).ok());
  }
  // Fill 4 concurrent slots: the 3:1 weights should hold 3 heavy + 1
  // light.
  std::string pool;
  uint64_t job = 0;
  int heavy = 0, light = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.StartNext(&pool, &job));
    (pool == "heavy" ? heavy : light)++;
  }
  EXPECT_EQ(heavy, 3);
  EXPECT_EQ(light, 1);
}

TEST(PoolTreeTest, MinShareDeficitBeatsFairShare) {
  PoolTree tree;
  PoolConfig guaranteed = MakePool("guaranteed", 0.5);
  guaranteed.min_share_slots = 2;
  ASSERT_TRUE(tree.AddPool(guaranteed).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("besteffort", 10.0)).ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Enqueue("guaranteed", i).ok());
    ASSERT_TRUE(tree.Enqueue("besteffort", 10 + i).ok());
  }
  // Despite the 20x weight disadvantage, "guaranteed" takes the first
  // two slots: min_share is a guarantee, not a preference.
  std::string pool;
  uint64_t job = 0;
  ASSERT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "guaranteed");
  ASSERT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "guaranteed");
  // Guarantee met: weight order takes over.
  ASSERT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "besteffort");
}

TEST(PoolTreeTest, MaxShareCapsAPoolEvenWithDemand) {
  PoolTree tree;
  PoolConfig capped = MakePool("capped", 100.0);
  capped.max_share_slots = 1;
  ASSERT_TRUE(tree.AddPool(capped).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("other", 1.0)).ok());
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(tree.Enqueue("capped", i).ok());
    ASSERT_TRUE(tree.Enqueue("other", 10 + i).ok());
  }
  std::string pool;
  uint64_t job = 0;
  ASSERT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "capped");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tree.StartNext(&pool, &job));
    EXPECT_EQ(pool, "other") << "capped pool exceeded max_share";
  }
  // Only capped demand remains, and it is at its cap: nothing starts.
  EXPECT_FALSE(tree.StartNext(&pool, &job));
  tree.FinishJob("capped");
  EXPECT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "capped");
}

TEST(PoolTreeTest, ZeroWeightPoolOnlyGetsLeftovers) {
  PoolTree tree;
  ASSERT_TRUE(tree.AddPool(MakePool("free", 0.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("paid", 1.0)).ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Enqueue("free", i).ok());
  }
  ASSERT_TRUE(tree.Enqueue("paid", 100).ok());
  std::string pool;
  uint64_t job = 0;
  // The flood of zero-weight demand never outranks the paid pool.
  ASSERT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "paid");
  EXPECT_EQ(job, 100u);
  // With no positive-weight demand left, leftovers flow to "free".
  ASSERT_TRUE(tree.StartNext(&pool, &job));
  EXPECT_EQ(pool, "free");
}

TEST(PoolTreeTest, HierarchySharesAtEveryLevel) {
  PoolTree tree;
  ASSERT_TRUE(tree.AddPool(MakePool("org-a", 1.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("org-b", 1.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("a-batch", 1.0, "org-a")).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("a-adhoc", 1.0, "org-a")).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("b-batch", 1.0, "org-b")).ok());
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.Enqueue("a-batch", i).ok());
    ASSERT_TRUE(tree.Enqueue("a-adhoc", 10 + i).ok());
    ASSERT_TRUE(tree.Enqueue("b-batch", 20 + i).ok());
  }
  // Four slots: orgs split 2/2 (not 3/1 by leaf count — fairness is
  // hierarchical), and org-a's two slots split across its leaves.
  std::string pool;
  uint64_t job = 0;
  int org_a = 0, org_b = 0;
  bool a_batch = false, a_adhoc = false;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(tree.StartNext(&pool, &job));
    if (pool == "b-batch") {
      ++org_b;
    } else {
      ++org_a;
      (pool == "a-batch" ? a_batch : a_adhoc) = true;
    }
  }
  EXPECT_EQ(org_a, 2);
  EXPECT_EQ(org_b, 2);
  EXPECT_TRUE(a_batch);
  EXPECT_TRUE(a_adhoc);
}

TEST(PoolTreeTest, PreemptionEvictsNewestOfMostOverSharePool) {
  PoolTree tree;
  ASSERT_TRUE(tree.AddPool(MakePool("hog", 1.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("modest", 1.0)).ok());
  ASSERT_TRUE(tree.AddPool(MakePool("starved", 1.0)).ok());
  for (uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(tree.Enqueue("hog", i).ok());
  ASSERT_TRUE(tree.Enqueue("modest", 100).ok());

  std::string victim_pool;
  uint64_t victim_job = 0;
  // starved would hold 1 job (share 1); hog holds 5 (share 5): evict
  // hog's NEWEST admission (LIFO within the victim pool).
  ASSERT_TRUE(tree.PickPreemptionVictim("starved", &victim_pool,
                                        &victim_job));
  EXPECT_EQ(victim_pool, "hog");
  EXPECT_EQ(victim_job, 4u);
  EXPECT_EQ(tree.queued("hog"), 4u);

  // Equal-share peers never preempt each other: modest (1 queued) vs
  // another pool that would also hold 1.
  PoolTree flat;
  ASSERT_TRUE(flat.AddPool(MakePool("x", 1.0)).ok());
  ASSERT_TRUE(flat.AddPool(MakePool("y", 1.0)).ok());
  ASSERT_TRUE(flat.Enqueue("x", 1).ok());
  EXPECT_FALSE(flat.PickPreemptionVictim("y", &victim_pool, &victim_job));
}

// ---- JobService integration ------------------------------------------

/// A mapper that parks every Map call on a shared latch: the test owns
/// when the job's map phase is allowed to proceed, which holds the
/// service's runner slot (and therefore its queues) steady while the
/// test asserts admission behaviour.
class GateMapper final : public mr::Mapper {
 public:
  explicit GateMapper(CountdownLatch* gate) : gate_(gate) {}
  void Map(Slice key, Slice value, mr::MapContext* ctx) override {
    (void)key;
    gate_->Wait();
    ctx->Emit(value, "1");
  }

 private:
  CountdownLatch* gate_;
};

class IdentityReducer final : public mr::Reducer {
 public:
  void Reduce(Slice key, mr::ValuesIterator* values,
              mr::ReduceContext* ctx) override {
    Slice value;
    while (values->Next(&value)) ctx->Emit(key, value);
  }
};

struct ServiceFixture {
  std::unique_ptr<mr::ClusterContext> cluster;
  std::vector<std::string> input_files;

  ServiceFixture() {
    cluster = MakeTestCluster(2);
    workload::TextGenOptions gen;
    gen.total_bytes = 2 << 10;
    gen.num_files = 1;
    gen.vocabulary = 50;
    gen.seed = 7;
    auto files = workload::GenerateZipfText(cluster.get(), "/in", gen);
    EXPECT_TRUE(files.ok()) << files.status();
    if (files.ok()) input_files = *files;
  }

  /// Tiny wordcount job; `tag` keeps output paths distinct.
  mr::JobSpec WordCount(const std::string& tag) const {
    apps::AppOptions options;
    options.input_files = input_files;
    options.num_reducers = 1;
    options.output_path = "/out/" + tag;
    return apps::MakeWordCountJob(options);
  }

  /// Job whose map phase blocks until `gate` counts down.
  mr::JobSpec GateJob(CountdownLatch* gate, const std::string& tag) const {
    mr::JobSpec spec;
    spec.name = "gate-" + tag;
    spec.input_files = input_files;
    spec.num_reducers = 1;
    spec.output_path = "/out/" + tag;
    spec.mapper = [gate] { return std::make_unique<GateMapper>(gate); };
    spec.reducer = [] { return std::make_unique<IdentityReducer>(); };
    return spec;
  }
};

TEST(JobServiceTest, RunsJobsAndReportsOutcomes) {
  ServiceFixture fx;
  JobService svc(fx.cluster.get());
  ASSERT_TRUE(svc.AddPool(MakePool("etl", 1.0)).ok());

  auto ticket = svc.Submit("etl", fx.WordCount("basic"));
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  JobOutcome outcome = svc.Wait(*ticket);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status;
  EXPECT_TRUE(outcome.result.ok());
  EXPECT_GT(outcome.result.counters.Get(mr::kCtrMapInputRecords), 0u);
  EXPECT_GT(outcome.latency_seconds, 0.0);

  EXPECT_EQ(svc.Submit("nope", fx.WordCount("x")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(svc.CompletionOrder(),
            (std::vector<std::string>{"etl"}));
}

TEST(JobServiceTest, AdmissionRejectsInsteadOfHangingWhenPoolQueueFull) {
  ServiceFixture fx;
  JobService::Options options;
  options.max_running_jobs = 1;
  JobService svc(fx.cluster.get(), options);
  PoolConfig bounded = MakePool("bounded", 1.0);
  bounded.queue_limit = 2;
  ASSERT_TRUE(svc.AddPool(MakePool("gate", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(bounded).ok());

  CountdownLatch gate(1);
  auto gate_ticket = svc.Submit("gate", fx.GateJob(&gate, "gate-adm"));
  ASSERT_TRUE(gate_ticket.ok()) << gate_ticket.status();

  // The runner slot is held by the gate job: these queue...
  auto q1 = svc.Submit("bounded", fx.WordCount("adm-1"));
  auto q2 = svc.Submit("bounded", fx.WordCount("adm-2"));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  // ...and the queue bound fast-fails the third (Submit returns — the
  // whole point is that a saturated service answers instead of
  // blocking the submitter).
  auto q3 = svc.Submit("bounded", fx.WordCount("adm-3"));
  ASSERT_FALSE(q3.ok());
  EXPECT_EQ(q3.status().code(), StatusCode::kResourceExhausted);

  gate.CountDown();
  EXPECT_TRUE(svc.Wait(*gate_ticket).status.ok());
  EXPECT_TRUE(svc.Wait(*q1).status.ok());
  EXPECT_TRUE(svc.Wait(*q2).status.ok());

  obs::MetricsSnapshot snap = svc.Metrics();
  EXPECT_EQ(snap.counters.at(
                "bmr_service_jobs_rejected_total{pool=\"bounded\"}"),
            1u);
  EXPECT_EQ(snap.counters.at(
                "bmr_service_jobs_completed_total{pool=\"bounded\"}"),
            2u);
}

TEST(JobServiceTest, EqualWeightTenantsSplitThroughputUnderSaturation) {
  ServiceFixture fx;
  JobService::Options options;
  options.max_running_jobs = 1;  // serial: completion order == dispatch order
  JobService svc(fx.cluster.get(), options);
  ASSERT_TRUE(svc.AddPool(MakePool("gate", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("tenant-a", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("tenant-b", 1.0)).ok());

  // Saturate while the gate job holds the slot, so every fairness
  // decision happens with both tenants' queues full.
  CountdownLatch gate(1);
  auto gate_ticket = svc.Submit("gate", fx.GateJob(&gate, "gate-fair"));
  ASSERT_TRUE(gate_ticket.ok()) << gate_ticket.status();
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto a = svc.Submit("tenant-a", fx.WordCount("fair-a" + std::to_string(i)));
    ASSERT_TRUE(a.ok()) << a.status();
    tickets.push_back(*a);
  }
  for (int i = 0; i < 4; ++i) {
    auto b = svc.Submit("tenant-b", fx.WordCount("fair-b" + std::to_string(i)));
    ASSERT_TRUE(b.ok()) << b.status();
    tickets.push_back(*b);
  }
  gate.CountDown();
  EXPECT_TRUE(svc.Wait(*gate_ticket).status.ok());
  for (const JobTicket& t : tickets) {
    EXPECT_TRUE(svc.Wait(t).status.ok());
  }

  // Every prefix of the completion stream is balanced: each tenant
  // gets 50% of completed-job throughput (the acceptance bar is
  // 50%±10%; the serial schedule meets it exactly).
  std::vector<std::string> order = svc.CompletionOrder();
  ASSERT_EQ(order.size(), 9u);
  EXPECT_EQ(order[0], "gate");
  int a_done = 0, b_done = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    (order[i] == "tenant-a" ? a_done : b_done)++;
    EXPECT_LE(std::abs(a_done - b_done), 1)
        << "unfair completion prefix at " << i;
  }
  EXPECT_EQ(a_done, 4);
  EXPECT_EQ(b_done, 4);
}

TEST(JobServiceTest, ZeroWeightTenantCannotStarvePaidPools) {
  ServiceFixture fx;
  JobService::Options options;
  options.max_running_jobs = 1;
  JobService svc(fx.cluster.get(), options);
  ASSERT_TRUE(svc.AddPool(MakePool("gate", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("free", 0.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("paid", 1.0)).ok());

  CountdownLatch gate(1);
  auto gate_ticket = svc.Submit("gate", fx.GateJob(&gate, "gate-zero"));
  ASSERT_TRUE(gate_ticket.ok()) << gate_ticket.status();
  // The zero-weight tenant floods FIRST; the paid tenant arrives last.
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = svc.Submit("free", fx.WordCount("zero-f" + std::to_string(i)));
    ASSERT_TRUE(t.ok()) << t.status();
    tickets.push_back(*t);
  }
  for (int i = 0; i < 2; ++i) {
    auto t = svc.Submit("paid", fx.WordCount("zero-p" + std::to_string(i)));
    ASSERT_TRUE(t.ok()) << t.status();
    tickets.push_back(*t);
  }
  gate.CountDown();
  for (const JobTicket& t : tickets) {
    EXPECT_TRUE(svc.Wait(t).status.ok());
  }

  // All paid work completes before ANY of the earlier-submitted
  // zero-weight flood...
  std::vector<std::string> order = svc.CompletionOrder();
  ASSERT_EQ(order.size(), 7u);
  EXPECT_EQ(order[1], "paid");
  EXPECT_EQ(order[2], "paid");
  // ...and the flood still runs to completion on leftover capacity
  // (leftover-only, not denial of service).
  for (size_t i = 3; i < order.size(); ++i) EXPECT_EQ(order[i], "free");
}

TEST(JobServiceTest, PreemptionEvictsOverShareQueuedWorkAtServiceBound) {
  ServiceFixture fx;
  JobService::Options options;
  options.max_running_jobs = 1;
  options.max_queued_jobs = 4;
  JobService svc(fx.cluster.get(), options);
  ASSERT_TRUE(svc.AddPool(MakePool("gate", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("hog", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("starved", 1.0)).ok());

  CountdownLatch gate(1);
  auto gate_ticket = svc.Submit("gate", fx.GateJob(&gate, "gate-pre"));
  ASSERT_TRUE(gate_ticket.ok()) << gate_ticket.status();

  // The hog fills the whole service queue.
  std::vector<JobTicket> hog_tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = svc.Submit("hog", fx.WordCount("pre-h" + std::to_string(i)));
    ASSERT_TRUE(t.ok()) << t.status();
    hog_tickets.push_back(*t);
  }

  // The starved pool's submission is admitted anyway: the hog's NEWEST
  // queued job is preempted to make room.
  auto starved = svc.Submit("starved", fx.WordCount("pre-s"));
  ASSERT_TRUE(starved.ok()) << starved.status();
  JobOutcome evicted = svc.Wait(hog_tickets.back());
  EXPECT_EQ(evicted.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(evicted.status.message().find("preempted"), std::string::npos);

  // Preemption continues while the hog stays strictly over-share: the
  // second starved submission (would hold 2) still outranks the hog's
  // 3 queued, so another hog job is evicted.  The third sees hog at 2
  // vs its own prospective 3 — no longer a victim — and is rejected
  // (never hangs).
  auto starved2 = svc.Submit("starved", fx.WordCount("pre-s2"));
  ASSERT_TRUE(starved2.ok()) << starved2.status();
  JobOutcome evicted2 = svc.Wait(hog_tickets[2]);
  EXPECT_EQ(evicted2.status.code(), StatusCode::kResourceExhausted);
  auto starved3 = svc.Submit("starved", fx.WordCount("pre-s3"));
  ASSERT_FALSE(starved3.ok());
  EXPECT_EQ(starved3.status().code(), StatusCode::kResourceExhausted);

  gate.CountDown();
  EXPECT_TRUE(svc.Wait(*gate_ticket).status.ok());
  EXPECT_TRUE(svc.Wait(*starved).status.ok());
  EXPECT_TRUE(svc.Wait(*starved2).status.ok());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(svc.Wait(hog_tickets[i]).status.ok());
  }

  obs::MetricsSnapshot snap = svc.Metrics();
  EXPECT_EQ(
      snap.counters.at("bmr_service_jobs_preempted_total{pool=\"hog\"}"),
      2u);
  EXPECT_EQ(snap.counters.at(
                "bmr_service_jobs_rejected_total{pool=\"starved\"}"),
            1u);
}

TEST(JobServiceTest, ShutdownCancelsQueuedJobsAndDrainsRunningOnes) {
  ServiceFixture fx;
  JobService::Options options;
  options.max_running_jobs = 1;
  JobService svc(fx.cluster.get(), options);
  ASSERT_TRUE(svc.AddPool(MakePool("gate", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("work", 1.0)).ok());

  CountdownLatch gate(1);
  auto gate_ticket = svc.Submit("gate", fx.GateJob(&gate, "gate-shut"));
  ASSERT_TRUE(gate_ticket.ok()) << gate_ticket.status();
  auto queued1 = svc.Submit("work", fx.WordCount("shut-1"));
  auto queued2 = svc.Submit("work", fx.WordCount("shut-2"));
  ASSERT_TRUE(queued1.ok());
  ASSERT_TRUE(queued2.ok());

  // Shutdown blocks on the running gate job, so it runs on a side
  // thread; the queued jobs must turn terminal (Cancelled) while the
  // gate job is STILL running — cancellation must not wait for drain.
  std::thread shutdown_thread([&svc] { svc.Shutdown(); });
  EXPECT_EQ(svc.Wait(*queued1).status.code(), StatusCode::kCancelled);
  EXPECT_EQ(svc.Wait(*queued2).status.code(), StatusCode::kCancelled);
  gate.CountDown();
  shutdown_thread.join();
  EXPECT_TRUE(svc.Wait(*gate_ticket).status.ok());

  // Admission after shutdown fast-fails.
  EXPECT_EQ(svc.Submit("work", fx.WordCount("shut-3")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(JobServiceTest, PrometheusExportCarriesPerPoolSeries) {
  ServiceFixture fx;
  JobService svc(fx.cluster.get());
  ASSERT_TRUE(svc.AddPool(MakePool("alpha", 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("beta", 1.0)).ok());

  std::vector<JobTicket> tickets;
  for (int i = 0; i < 2; ++i) {
    auto a = svc.Submit("alpha", fx.WordCount("prom-a" + std::to_string(i)));
    ASSERT_TRUE(a.ok()) << a.status();
    tickets.push_back(*a);
  }
  auto b = svc.Submit("beta", fx.WordCount("prom-b"));
  ASSERT_TRUE(b.ok()) << b.status();
  tickets.push_back(*b);
  for (const JobTicket& t : tickets) {
    ASSERT_TRUE(svc.Wait(t).status.ok());
  }

  std::string text = svc.PrometheusMetrics();
  Status valid = obs::ValidatePrometheusText(text);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << text;
  EXPECT_NE(
      text.find("bmr_service_jobs_completed_total{pool=\"alpha\"} 2"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("bmr_service_jobs_completed_total{pool=\"beta\"} 1"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("bmr_service_job_latency_us_bucket{pool=\"alpha\","),
            std::string::npos)
      << text;
  // One TYPE line per family, bare family name (no labels).
  EXPECT_NE(text.find("# TYPE bmr_service_jobs_completed_total counter"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE bmr_service_jobs_completed_total{"),
            std::string::npos)
      << text;
}

// /jobs renders pool names through the shared JSON escaper: quotes,
// backslashes and control characters cannot break the document.
TEST(JobServiceTest, JobsJsonEscapesPoolNames) {
  ServiceFixture fx;
  JobService svc(fx.cluster.get());
  const std::string parent = "team \"a\\b\"";
  ASSERT_TRUE(svc.AddPool(MakePool(parent, 1.0)).ok());
  ASSERT_TRUE(svc.AddPool(MakePool("tab\there\x01", 1.0, parent)).ok());

  const std::string json = svc.JobsJson();
  Status valid = obs::ValidateJsonText(json);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << json;
  EXPECT_NE(json.find("\"team \\\"a\\\\b\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos) << json;
}

}  // namespace
}  // namespace bmr
