// The tiers a workload drives over its one corpus. Every round runs each
// tier once, in the same order:
//
//   XmlTier        the layers under everything: scan, SAX parse, EventDriver
//   StreamTier     the paper's experiment: each Fig. 6 query in its own
//                  XPathStreamProcessor, plain and observed
//   SubscribeTier  standing subscriptions in serve::SubscriptionServer, and
//                  the same subscriptions in one single-thread FilterEngine
//   StoredTier     the structural index: build, open, warm queries
//
// Each tier records its calls as operations, keeps round 0's results as
// references that later rounds must reproduce, checks those references
// against the DOM oracle at the end, and adds its metrics to the result:
// end-to-end ones for an untraced run, per-layer ones for a traced run.

#ifndef PERFBENCH_TIERS_H_
#define PERFBENCH_TIERS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "checks.h"
#include "common/status.h"
#include "core/result_sink.h"
#include "harness.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "xml/structural_scan.h"

namespace twigm::filter {
class FilterEngine;
}  // namespace twigm::filter
namespace twigm::index {
class IndexReader;
}  // namespace twigm::index
namespace twigm::serve {
class ServerStream;
class SubscriptionServer;
}  // namespace twigm::serve

namespace perfbench {

// What every tier shares: the run's recorder, samples and operation log,
// and the corpus with its chunks and independent start-tag count.
struct Env {
  Recorder* rec = nullptr;
  Samples* samples = nullptr;
  OpLog* ops = nullptr;
  const Corpus* corpus = nullptr;
  std::vector<std::string_view> chunks;
  uint64_t start_tags = 0;
};

// Feeds every chunk, then the closing empty last chunk, to anything with a
// Consume(InputChunk) entry point. Stops at the first error.
template <typename Consumer>
twigm::Status Feed(Consumer* consumer,
                   const std::vector<std::string_view>& chunks) {
  for (std::string_view c : chunks) {
    twigm::Status s = consumer->Consume({c, false});
    if (!s.ok()) return s;
  }
  return consumer->Consume({{}, true});
}

// Collects result ids; capacity survives Clear so later rounds do not
// allocate inside the timed call.
class IdSink : public twigm::core::MatchObserver {
 public:
  void OnResult(const twigm::core::MatchInfo& match) override {
    ids_.push_back(match.id);
  }
  void Clear() { ids_.clear(); }
  const Ids& ids() const { return ids_; }

 private:
  Ids ids_;
};

class XmlTier {
 public:
  explicit XmlTier(const Env* env) : env_(env) {}

  void Round();
  // Fastest parse + EventDriver pass, the floor under every stream pass.
  double DriveSeconds() const;
  // Per-layer: xml.scan_mb_s, xml.parse_mb_s, xml.drive_mb_s.
  void Report(RunResult* result) const;

 private:
  const Env* env_;
  // One scan output for every round, so only one counts in peak_rss_mb.
  twigm::xml::StructuralIndex scan_index_;
};

class StreamTier {
 public:
  explicit StreamTier(const Env* env);
  ~StreamTier();

  // Cold set-up: XPathStreamProcessor::Create for every query.
  std::string Setup();
  void Round(int r);
  // `want[i]` is the DOM result of the corpus's query i.
  void Check(const std::vector<Ids>& want);
  // End-to-end: stream_mb_s, stream_observed_mb_s, engine_state_kb.
  void Report(RunResult* result) const;
  // Per-layer: xpath.*, core.*, obs.*; `drive_s` from XmlTier.
  void ReportLayers(double drive_s, RunResult* result) const;
  // The engine each query ran on, for the log.
  std::string Engines() const;

 private:
  struct Pass;
  const Env* env_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

class SubscribeTier {
 public:
  SubscribeTier(const Env* env, std::vector<std::string> queries);
  ~SubscribeTier();

  // Cold set-up: create the server, Subscribe every query, and feed a
  // one-element document so each shard folds its subscriptions into its
  // engine.
  std::string Setup();
  // Creates the single-thread FilterEngine and draws the seeded sample of
  // subscriptions whose notifications are checked id by id. False when
  // the run cannot go on.
  bool PickSample(uint64_t seed);
  std::vector<std::string> SampleTexts() const;
  void Round(int r);
  // `want[k]` is the DOM result of sampled subscription k.
  void Check(const std::vector<Ids>& want);
  // End-to-end: subscribe_mb_s.
  void Report(RunResult* result) const;
  // Per-layer: filter.*, serve.*.
  void ReportLayers(RunResult* result) const;
  // Ids of the sampled subscriptions that were checked against the DOM.
  size_t checked_ids() const { return checked_ids_; }

 private:
  class Collector;
  class FilterSink;
  const Env* env_;
  std::vector<std::string> queries_;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<twigm::serve::SubscriptionServer> server_;
  std::unique_ptr<twigm::serve::ServerStream> stream_;
  std::vector<uint64_t> ids_;  // server SubscriptionId of each query
  std::vector<int> slot_;      // sample slot of each query, or -1
  std::vector<size_t> sampled_;
  std::unique_ptr<FilterSink> filter_sink_;
  std::unique_ptr<twigm::filter::FilterEngine> filter_;
  std::vector<Ids> reference_;         // round 0's server ids per slot
  std::vector<Ids> filter_reference_;  // round 0's filter ids per slot
  uint64_t filter_trie_pushes_ = 0;    // round 0
  twigm::obs::MetricsSnapshot before_round0_, after_round0_;
  size_t checked_ids_ = 0;
};

class StoredTier {
 public:
  explicit StoredTier(const Env* env);
  ~StoredTier();

  // The image the set-up opens: one build, not part of the set-up.
  std::string BuildFirst();
  // Cold set-up: IndexReader::OpenBytes of that image, full validation.
  std::string Setup();
  void Round(int r);
  // `want[i]` is the DOM result of the corpus's query i.
  void Check(const std::vector<Ids>& want);
  // End-to-end: build_mb_s, query_ms, index_mb.
  void Report(RunResult* result) const;
  // Per-layer: index.*.
  void ReportLayers(RunResult* result) const;

 private:
  struct StoredQuery;
  std::string Build(std::string* image);
  std::string Open(std::string image,
                   std::unique_ptr<twigm::index::IndexReader>* reader);

  const Env* env_;
  std::string first_image_;
  // The first build's size, and a hash every later build must reproduce.
  size_t image_bytes_ = 0;
  size_t image_hash_ = 0;
  std::unique_ptr<twigm::index::IndexReader> reader_;
  std::vector<std::unique_ptr<StoredQuery>> queries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIERS_H_
