#include "inputs.h"

#include <cstdio>
#include <cstdlib>

#include "common/random.h"
#include "data/book.h"
#include "data/datasets.h"
#include "data/protein.h"
#include "data/xmark.h"

namespace perfbench {
namespace {

std::string OrDie(twigm::Result<std::string> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: generating %s failed: %s\n", what,
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

std::vector<Query> ToQueries(const std::vector<twigm::data::QuerySpec>& specs) {
  std::vector<Query> out;
  for (const twigm::data::QuerySpec& s : specs) {
    out.push_back(Query{"Q" + std::to_string(out.size() + 1), s.text});
  }
  return out;
}

std::string Book(uint64_t seed, size_t bytes) {
  twigm::data::BookOptions options;
  options.seed = seed;
  options.number_levels = 20;
  options.max_repeats = 6;
  options.min_bytes = bytes;
  return OrDie(twigm::data::GenerateBook(options), "book");
}

void AddSubscriptions(const Corpus& corpus, size_t count, twigm::Rng* rng,
                      std::vector<std::string>* out) {
  const std::vector<std::string>& tags = corpus.tags;
  const std::vector<std::string>& attrs = corpus.attrs;
  for (size_t i = 0; i < count; ++i) {
    const int steps = 3 + static_cast<int>(rng->Below(3));
    std::string q;
    for (int s = 0; s < steps; ++s) {
      q += (s == 0 || rng->Below(100) < 35) ? "//" : "/";
      if (s > 0 && rng->Below(100) < 10) {
        q += "*";
      } else {
        q += tags[rng->Below(tags.size())];
      }
    }
    if (rng->Below(100) >= 90) {
      if (rng->Below(2) == 0) {
        q += "[@" + attrs[rng->Below(attrs.size())] + "]";
      } else {
        q += "[" + tags[rng->Below(tags.size())] + "]";
      }
    }
    out->push_back(std::move(q));
  }
}

// The subscription set is the same on every run: its cost is heavy-tailed
// (a few '//' and '*' queries carry most notifications), so a seeded set
// moved subscribe_mb_s by 2x from seed to seed. The seed picks the
// documents and the checked sample instead.
constexpr uint64_t kSubscriptionSeed = 2006;

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  twigm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

bool MakeCorpus(const std::string& workload, uint64_t seed, size_t bytes,
                Corpus* out) {
  out->name = workload;
  if (workload == "book") {
    out->bytes = Book(DeriveSeed(seed, 1), bytes);
    out->queries = ToQueries(twigm::data::BookQueries());
    out->tags = {"collection", "book",   "title", "author",
                 "section",    "p",      "figure", "image"};
    out->attrs = {"id", "short", "difficulty"};
  } else if (workload == "protein") {
    twigm::data::ProteinOptions protein;
    protein.seed = DeriveSeed(seed, 2);
    protein.min_bytes = bytes;
    out->bytes = OrDie(twigm::data::GenerateProtein(protein), "protein");
    out->queries = ToQueries(twigm::data::ProteinQueries());
    out->tags = {"ProteinDatabase", "ProteinEntry", "header",   "uid",
                 "accession",       "created",      "protein",  "name",
                 "classification",  "superfamily",  "organism", "source",
                 "common",          "reference",    "refinfo",  "authors",
                 "author",          "citation",     "journal",  "year",
                 "sequence"};
    out->attrs = {"id", "refid", "type"};
  } else if (workload == "auction") {
    twigm::data::XmarkOptions auction;
    auction.seed = DeriveSeed(seed, 3);
    auction.min_bytes = bytes;
    out->bytes = OrDie(twigm::data::GenerateXmark(auction), "auction");
    out->queries = ToQueries(twigm::data::AuctionQueries());
    out->tags = {"site",        "regions",       "item",         "description",
                 "parlist",     "listitem",      "text",         "people",
                 "person",      "name",          "open_auctions", "open_auction",
                 "bidder",      "increase",      "seller",       "price",
                 "category"};
    out->attrs = {"id", "category"};
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> MakeSubscriptions(const Corpus& corpus,
                                           size_t count) {
  twigm::Rng rng(DeriveSeed(kSubscriptionSeed, 5));
  std::vector<std::string> out;
  out.reserve(count);
  AddSubscriptions(corpus, count, &rng, &out);
  return out;
}

std::vector<std::string_view> Chunks(std::string_view doc) {
  std::vector<std::string_view> out;
  for (size_t at = 0; at < doc.size(); at += kChunkBytes) {
    out.push_back(doc.substr(at, kChunkBytes));
  }
  return out;
}

}  // namespace perfbench
