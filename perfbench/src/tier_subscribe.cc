// Standing subscriptions over the corpus's vocabulary (a fixed set, see
// inputs.cc), served by serve::SubscriptionServer (two shards plus the
// feeding thread) with notifications delivered by callback. Each round
// also runs the same subscriptions through one single-thread
// filter::FilterEngine, the baseline of the same job.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/multi_query.h"
#include "filter/filter_engine.h"
#include "serve/server.h"
#include "tiers.h"

namespace perfbench {
namespace {

using twigm::Status;

constexpr size_t kSampled = 8;
// Sampled subscriptions have at most this many results: the sample's ids
// are kept four times over, and some subscriptions match over 100,000
// elements, which would make peak_rss_mb follow the seed. On Protein every
// non-empty subscription has at least one result per entry (about 4,600).
constexpr uint64_t kMaxSampledResults = 10000;
constexpr int kShards = 2;

double Value(const twigm::obs::MetricsSnapshot& snapshot,
             const std::string& name) {
  for (const twigm::obs::MetricValue& m : snapshot) {
    if (m.name == name) return m.value;
  }
  return 0;
}

// Per-shard counter `field`, one value per shard.
std::vector<double> PerShard(const twigm::obs::MetricsSnapshot& snapshot,
                             const char* field) {
  std::vector<double> out;
  for (int s = 0; s < kShards; ++s) {
    out.push_back(
        Value(snapshot, "serve.shard" + std::to_string(s) + "." + field));
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

// Notifications as the server delivers them, on the shard threads: a
// total, plus the ids of the sampled subscriptions.
class SubscribeTier::Collector {
 public:
  // slot[id] is the sample slot of subscription `id`, or -1.
  void SetSlots(std::vector<int> slot) {
    slot_ = std::move(slot);
    ids_.assign(kSampled, {});
  }

  void OnBatch(std::vector<twigm::serve::Notification>&& batch) {
    total_.fetch_add(batch.size(), std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    for (const twigm::serve::Notification& n : batch) {
      if (n.subscription >= slot_.size() || slot_[n.subscription] < 0) {
        continue;
      }
      if (!lock.owns_lock()) lock.lock();
      ids_[slot_[n.subscription]].push_back(n.match.id);
    }
  }

  // The ids delivered since the last Take, per sample slot. Only call
  // after a document barrier, when no batch is in flight.
  std::vector<Ids> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Ids> out(kSampled);
    out.swap(ids_);
    return out;
  }
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  std::vector<int> slot_;
  std::atomic<uint64_t> total_{0};
  std::mutex mu_;
  std::vector<Ids> ids_;
};

// FilterEngine results: a total, plus the sampled queries' ids, plus
// (while `CountPerQuery` is set) each query's result count.
class SubscribeTier::FilterSink : public twigm::core::MultiQueryResultSink {
 public:
  explicit FilterSink(const std::vector<int>* slot) : slot_(slot) {}
  void OnResult(size_t query, const twigm::core::MatchInfo& match) override {
    ++total_;
    if ((*slot_)[query] >= 0) ids_[(*slot_)[query]].push_back(match.id);
    if (counts_ != nullptr) ++(*counts_)[query];
  }
  void CountPerQuery(std::vector<uint64_t>* counts) { counts_ = counts; }
  void Clear() {
    total_ = 0;
    for (Ids& ids : ids_) ids.clear();
  }
  uint64_t total() const { return total_; }
  const std::vector<Ids>& ids() const { return ids_; }

 private:
  const std::vector<int>* slot_;
  std::vector<uint64_t>* counts_ = nullptr;
  uint64_t total_ = 0;
  std::vector<Ids> ids_ = std::vector<Ids>(kSampled);
};

SubscribeTier::SubscribeTier(const Env* env, std::vector<std::string> queries)
    : env_(env),
      queries_(std::move(queries)),
      collector_(std::make_unique<Collector>()),
      slot_(queries_.size(), -1) {}

SubscribeTier::~SubscribeTier() {
  stream_.reset();
  server_.reset();
}

std::string SubscribeTier::Setup() {
  twigm::serve::SubscriptionServer::Options options;
  options.num_shards = kShards;
  Collector* collector = collector_.get();
  options.on_batch =
      [collector](std::vector<twigm::serve::Notification>&& batch) {
        collector->OnBatch(std::move(batch));
      };
  auto created = twigm::serve::SubscriptionServer::Create(options);
  if (!created.ok()) return created.status().ToString();
  server_ = std::move(created).value();
  std::string error;
  for (const std::string& q : queries_) {
    auto id = server_->Subscribe(q);
    if (!id.ok()) {
      Join(&error, q + ": " + id.status().ToString());
      ids_.push_back(0);
    } else {
      ids_.push_back(id.value());
    }
  }
  stream_ = server_->OpenStream();
  const Status s = stream_->FeedDocument("<fold/>");
  if (!s.ok()) Join(&error, s.ToString());
  return error;
}

bool SubscribeTier::PickSample(uint64_t seed) {
  OpLog* ops = env_->ops;
  filter_sink_ = std::make_unique<FilterSink>(&slot_);
  auto created = twigm::filter::FilterEngine::Create(queries_,
                                                     filter_sink_.get());
  if (!created.ok()) {
    ops->Record("filter create", created.status().ToString());
    return false;
  }
  filter_ = std::move(created).value();

  // The seeded sample whose notifications are checked id by id, drawn
  // from the subscriptions that the single-thread engine finds non-empty
  // (and not larger than kMaxSampledResults), so that every sampled check
  // compares real results.
  std::vector<uint64_t> counts(queries_.size(), 0);
  filter_sink_->CountPerQuery(&counts);
  const Status s = Feed(filter_.get(), env_->chunks);
  filter_sink_->CountPerQuery(nullptr);
  ops->Record("sample counts", s.ok() ? "" : s.ToString());
  std::vector<size_t> candidates;
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (counts[q] > 0 && counts[q] <= kMaxSampledResults) {
      candidates.push_back(q);
    }
  }
  twigm::Rng rng(DeriveSeed(seed, 6));
  while (sampled_.size() < kSampled && !candidates.empty()) {
    const size_t pick = rng.Below(candidates.size());
    const size_t q = candidates[pick];
    candidates[pick] = candidates.back();
    candidates.pop_back();
    slot_[q] = static_cast<int>(sampled_.size());
    sampled_.push_back(q);
  }
  ops->Record("sample size", CheckCount("sampled subscriptions", kSampled,
                                        sampled_.size()));
  if (sampled_.size() != kSampled) return false;

  std::vector<int> id_slot;
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (ids_[q] >= id_slot.size()) id_slot.resize(ids_[q] + 1, -1);
    id_slot[ids_[q]] = slot_[q];
  }
  collector_->SetSlots(std::move(id_slot));
  return true;
}

std::vector<std::string> SubscribeTier::SampleTexts() const {
  std::vector<std::string> out;
  for (size_t q : sampled_) out.push_back(queries_[q]);
  return out;
}

void SubscribeTier::Round(int r) {
  Recorder* rec = env_->rec;
  Samples* samples = env_->samples;
  OpLog* ops = env_->ops;
  twigm::obs::MetricsRegistry registry;
  if (r == 0) {
    server_->ExportMetrics(&registry);
    before_round0_ = registry.Snapshot();
  }

  // The single-thread baseline.
  filter_->Reset();
  filter_sink_->Clear();
  const uint64_t pushes_before = filter_->runtime_stats().trie_pushes;
  Status s;
  samples->Add("filter", rec->Time("filter", [&] {
    s = Feed(filter_.get(), env_->chunks);
  }));
  std::string error = s.ok() ? "" : s.ToString();
  if (r == 0) {
    filter_reference_ = filter_sink_->ids();
    filter_trie_pushes_ = filter_->runtime_stats().trie_pushes - pushes_before;
  } else {
    for (size_t k = 0; k < kSampled && error.empty(); ++k) {
      error = CheckSameIds(filter_reference_[k], filter_sink_->ids()[k]);
    }
  }
  ops->Record("filter", error);

  // The server: every chunk, then the last-chunk barrier.
  const uint64_t total_before = collector_->total();
  s = Status();
  samples->Add("serve feed", rec->Time("serve feed", [&] {
    for (std::string_view c : env_->chunks) {
      s = stream_->Consume({c, false});
      if (!s.ok()) return;
    }
    samples->Add("serve drain", rec->Time("serve drain", [&] {
      s = stream_->Consume({{}, true});
    }));
  }));
  std::vector<Ids> got = collector_->Take();
  error = s.ok() ? CheckCount("notifications", filter_sink_->total(),
                              collector_->total() - total_before)
                 : s.ToString();
  if (r == 0) {
    reference_ = std::move(got);
    server_->ExportMetrics(&registry);
    after_round0_ = registry.Snapshot();
  } else {
    for (size_t k = 0; k < kSampled && error.empty(); ++k) {
      error = CheckSameIds(reference_[k], got[k]);
    }
  }
  ops->Record("serve feed", error);
}

void SubscribeTier::Check(const std::vector<Ids>& want) {
  for (size_t k = 0; k < kSampled; ++k) {
    checked_ids_ += want[k].size();
    const std::string& what = queries_[sampled_[k]];
    env_->ops->Record("DOM check server " + what,
                      CheckSameIds(want[k], reference_[k]));
    env_->ops->Record("DOM check filter " + what,
                      CheckSameIds(want[k], filter_reference_[k]));
  }
}

void SubscribeTier::Report(RunResult* result) const {
  result->Add("subscribe_mb_s",
              static_cast<double>(env_->corpus->bytes.size()) /
                  env_->samples->Fastest("serve feed") / 1e6,
              "MB/s");
}

void SubscribeTier::ReportLayers(RunResult* result) const {
  const Samples& samples = *env_->samples;
  const twigm::filter::FilterIndexStats& index = filter_->index().stats();
  std::vector<double> events = PerShard(after_round0_, "events");
  const std::vector<double> events_before = PerShard(before_round0_, "events");
  for (int s = 0; s < kShards; ++s) events[s] -= events_before[s];
  result->Add("filter.mb_s",
              static_cast<double>(env_->corpus->bytes.size()) /
                  samples.Fastest("filter") / 1e6,
              "MB/s");
  result->Add("filter.trie_nodes", static_cast<double>(index.trie_node_count),
              "count");
  result->Add("filter.total_steps", static_cast<double>(index.total_steps),
              "count");
  result->Add("filter.trie_pushes", static_cast<double>(filter_trie_pushes_),
              "count");
  result->Add("serve.overhead_ms",
              (samples.Fastest("serve feed") - samples.Fastest("filter")) * 1e3,
              "ms");
  result->Add("serve.drain_ms", samples.Fastest("serve drain") * 1e3, "ms");
  result->Add("serve.notifications",
              Sum(PerShard(after_round0_, "matches")) -
                  Sum(PerShard(before_round0_, "matches")),
              "count");
  result->Add("serve.batches",
              Sum(PerShard(after_round0_, "batches")) -
                  Sum(PerShard(before_round0_, "batches")),
              "count");
  const std::vector<double> depth = PerShard(after_round0_, "ring_depth_peak");
  result->Add("serve.ring_depth_peak",
              *std::max_element(depth.begin(), depth.end()), "count");
  result->Add("serve.shard_events_max",
              *std::max_element(events.begin(), events.end()), "count");
  result->Add("serve.shard_events_mean", Sum(events) / kShards, "count");
}

}  // namespace perfbench
