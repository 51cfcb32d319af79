// Seeded inputs: a workload's corpus, its Fig. 6 queries and its standing
// subscriptions. Everything derives from the run's --seed through the
// repository's own generators; the program under test sees only the bytes
// and the query texts.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Bytes each chunked call receives (the last chunk may be shorter).
inline constexpr size_t kChunkBytes = 64 * 1024;

// The workloads, one per corpus.
inline constexpr const char* kWorkloads[] = {"book", "protein", "auction"};

struct Query {
  std::string name;  // "Q1".."Q10", by position in the corpus's Fig. 6 set
  std::string text;
};

struct Corpus {
  std::string name;  // the workload: "book", "protein" or "auction"
  std::string bytes;
  std::vector<Query> queries;  // the corpus's ten Fig. 6 queries
  std::vector<std::string> tags;   // element names the generator emits
  std::vector<std::string> attrs;  // attribute names the generator emits
};

// An independent generator seed for input `stream` of run seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// The corpus of `workload` (one of kWorkloads), about `bytes` long.
// Book stacks many small books generated from the Book DTD at
// NumberLevels 20, MaxRepeats 6 (see README.md). Returns false for an
// unknown workload.
bool MakeCorpus(const std::string& workload, uint64_t seed, size_t bytes,
                Corpus* out);

// `count` standing subscriptions over `corpus`'s vocabulary: an anchored
// named first step, 3-5 steps with 35% '//' and 10% '*' after the first,
// and a predicate on 10% of them. The set does not depend on the run's
// seed (see inputs.cc).
std::vector<std::string> MakeSubscriptions(const Corpus& corpus,
                                           size_t count);

// Splits `doc` into kChunkBytes views.
std::vector<std::string_view> Chunks(std::string_view doc);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
