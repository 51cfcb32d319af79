// The benchmark's own tests: every output check must accept a right
// result and refuse the same result with one id dropped and one id added.
// Run with `perfbench --selftest`; exits 1 if any check lets a corrupted
// result through.

#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// `ids` with its second id dropped and `added` appended.
Ids Corrupt(Ids ids, twigm::xml::NodeId added) {
  ids.erase(ids.begin() + 1);
  ids.push_back(added);
  return ids;
}

}  // namespace

int RunSelfTest() {
  // Streaming and stored results against the DOM oracle (emission order
  // may differ from document order).
  const Ids want = {3, 7, 9, 12, 40};
  const Ids streamed = {7, 3, 12, 9, 40};
  Expect(CheckSameIds(want, streamed).empty(), "same ids in another order");
  Expect(!CheckSameIds(want, Corrupt(streamed, 41)).empty(),
         "stream result with one id dropped and one added");
  Expect(!CheckSameIds(want, {3, 7, 7, 9, 12, 40}).empty(),
         "an id reported twice");
  Expect(!CheckSameIds(want, Corrupt(want, 2)).empty(),
         "index result with one id dropped and one added");

  // Index results arrive in document order, each id once.
  Expect(CheckDocumentOrder(want).empty(), "document order");
  Expect(!CheckDocumentOrder(Corrupt(want, 2)).empty(),
         "document order with one id dropped and one added out of order");
  Expect(!CheckDocumentOrder({3, 7, 7, 9}).empty(),
         "document order with a repeated id");

  // Sampled subscriptions: notification ids against the DOM result.
  const Ids notified = {12, 40, 3, 9, 7};
  Expect(CheckSameIds(want, notified).empty(), "notifications in any order");
  Expect(!CheckSameIds(want, Corrupt(notified, 100)).empty(),
         "notifications with one id dropped and one added");

  // Notification totals against the single-thread engine's, and the index
  // element count against the start tags in the bytes. A list with one id
  // dropped and one added keeps its length, so these counts are corrupted
  // by one, the smallest change they can see.
  Expect(CheckCount("notifications", 5, notified.size()).empty(),
         "equal notification totals");
  Expect(!CheckCount("notifications", 5, notified.size() + 1).empty(),
         "notification total off by one");
  const std::string xml =
      "<?xml version=\"1.0\"?>\n<a x=\"1\"><b/><c>t &lt; u</c><!-- n --></a>";
  Expect(CountStartTags(xml) == 3, "three start tags counted");
  Expect(!CheckCount("element_count", CountStartTags(xml), 4).empty(),
         "element count off by one");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
