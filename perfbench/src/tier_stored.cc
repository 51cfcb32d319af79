// The structural index of the corpus: each round builds it (writes),
// opens and validates the image, and answers the corpus's ten Fig. 6
// queries warm from the reader the set-up opened (reads).

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "index/index_builder.h"
#include "index/index_reader.h"
#include "index/indexed_evaluator.h"
#include "tiers.h"

namespace perfbench {

using twigm::Status;
using twigm::index::IndexBuilder;
using twigm::index::IndexedEvaluator;
using twigm::index::IndexReader;

struct StoredTier::StoredQuery {
  const Query* query = nullptr;
  std::string span, plan_key, join_key;
  IdSink sink;
  Ids reference;                  // round 0's result, checked against the DOM
  IndexedEvaluator::Stats stats;  // round 0
};

namespace {

size_t Hash(std::string_view bytes) {
  return std::hash<std::string_view>()(bytes);
}

}  // namespace

StoredTier::StoredTier(const Env* env) : env_(env) {
  for (const Query& q : env->corpus->queries) {
    auto sq = std::make_unique<StoredQuery>();
    sq->query = &q;
    sq->span = "query " + q.name;
    sq->plan_key = "plan " + q.name;
    sq->join_key = "join " + q.name;
    queries_.push_back(std::move(sq));
  }
}

StoredTier::~StoredTier() = default;

// Builds the corpus's image: every chunk, the last chunk, then Serialize.
// The label (Consume) and serialize parts are timed as children.
std::string StoredTier::Build(std::string* image) {
  Recorder* rec = env_->rec;
  Samples* samples = env_->samples;
  Status status;
  samples->Add("build", rec->Time("build", [&] {
    IndexBuilder builder;
    samples->Add("label", rec->Time("label", [&] {
      status = Feed(&builder, env_->chunks);
    }));
    if (!status.ok()) return;
    samples->Add("serialize", rec->Time("serialize", [&] {
      status = builder.Serialize(image);
    }));
  }));
  return status.ok() ? "" : status.ToString();
}

// Opens `image` (full validation; the reader takes the bytes over) and
// checks its element count against the start tags in the corpus bytes.
std::string StoredTier::Open(std::string image,
                             std::unique_ptr<IndexReader>* reader) {
  twigm::Result<std::unique_ptr<IndexReader>> opened =
      Status::Internal("not opened");
  env_->samples->Add("open", env_->rec->Time("open", [&] {
    opened = IndexReader::OpenBytes(std::move(image));
  }));
  if (!opened.ok()) return opened.status().ToString();
  *reader = std::move(opened).value();
  return CheckCount("index element_count", env_->start_tags,
                    (*reader)->element_count());
}

std::string StoredTier::BuildFirst() {
  std::string error = Build(&first_image_);
  image_bytes_ = first_image_.size();
  image_hash_ = Hash(first_image_);
  return error;
}

std::string StoredTier::Setup() {
  // The image is moved in, not copied, so the clock holds only the open.
  return Open(std::move(first_image_), &reader_);
}

void StoredTier::Round(int r) {
  OpLog* ops = env_->ops;
  std::string image;
  std::string error = Build(&image);
  if (error.empty() &&
      (image.size() != image_bytes_ || Hash(image) != image_hash_)) {
    error = "image differs from the first build's";
  }
  ops->Record("build", error);
  if (error.empty()) {
    std::unique_ptr<IndexReader> reader;
    ops->Record("open", Open(std::move(image), &reader));
  }

  Recorder* rec = env_->rec;
  Samples* samples = env_->samples;
  for (const auto& q : queries_) {
    error.clear();
    q->sink.Clear();
    std::unique_ptr<IndexedEvaluator> evaluator;
    samples->Add(q->span, rec->Time(q->span.c_str(), [&] {
      twigm::Result<std::unique_ptr<IndexedEvaluator>> created =
          Status::Internal("not created");
      samples->Add(q->plan_key, rec->Time("plan", [&] {
        created = IndexedEvaluator::Create(q->query->text, reader_.get());
      }));
      if (!created.ok()) {
        error = created.status().ToString();
        return;
      }
      evaluator = std::move(created).value();
      Status status;
      samples->Add(q->join_key, rec->Time("join", [&] {
        status = evaluator->Evaluate(&q->sink);
      }));
      if (!status.ok()) error = status.ToString();
    }));
    if (error.empty()) error = CheckDocumentOrder(q->sink.ids());
    if (error.empty()) {
      if (r == 0) {
        q->reference = q->sink.ids();
        q->stats = evaluator->stats();
      } else {
        error = CheckSameIds(q->reference, q->sink.ids());
      }
    }
    ops->Record(q->span, error);
  }
}

void StoredTier::Check(const std::vector<Ids>& want) {
  for (size_t i = 0; i < queries_.size(); ++i) {
    env_->ops->Record("DOM check " + queries_[i]->span,
                      CheckSameIds(want[i], queries_[i]->reference));
  }
}

void StoredTier::Report(RunResult* result) const {
  const Samples& samples = *env_->samples;
  double query_s = 0;
  for (const auto& q : queries_) query_s += samples.Fastest(q->span);
  result->Add("build_mb_s",
              static_cast<double>(env_->corpus->bytes.size()) /
                  samples.Fastest("build") / 1e6,
              "MB/s");
  result->Add("query_ms", query_s * 1e3, "ms");
  result->Add("index_mb", static_cast<double>(image_bytes_) / 1e6, "MB");
}

void StoredTier::ReportLayers(RunResult* result) const {
  const Samples& samples = *env_->samples;
  double plan_s = 0, join_s = 0;
  uint64_t postings = 0, join_steps = 0;
  for (const auto& q : queries_) {
    plan_s += samples.Fastest(q->plan_key);
    join_s += samples.Fastest(q->join_key);
    postings += q->stats.postings_touched;
    join_steps += q->stats.join_steps;
  }
  result->Add("index.label_mb_s",
              static_cast<double>(env_->corpus->bytes.size()) /
                  samples.Fastest("label") / 1e6,
              "MB/s");
  result->Add("index.serialize_ms", samples.Fastest("serialize") * 1e3, "ms");
  result->Add("index.open_ms", samples.Fastest("open") * 1e3, "ms");
  result->Add("index.plan_us", plan_s * 1e6, "us");
  result->Add("index.join_ms", join_s * 1e3, "ms");
  result->Add("index.postings_touched", static_cast<double>(postings),
              "count");
  result->Add("index.join_steps", static_cast<double>(join_steps), "count");
}

}  // namespace perfbench
