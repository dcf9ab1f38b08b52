// Byte identity of the graph-text writer and reader on every zoo dataset.
// For each dataset generated at scale 1.0 with seed 7, one digest pins the
// SaveGraphText bytes and one pins what LoadGraphText rebuilds from them: its
// re-saved bytes plus its label and key names in id order, so the reader's
// intern order is pinned along with its content. On a mismatch the failure
// prints the actual digest.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include "datasets/generator.h"
#include "datasets/zoo.h"
#include "pg/graph_io.h"

namespace pghive {
namespace {

struct Golden {
  const char* dataset;
  uint64_t saved;
  uint64_t loaded;
};

constexpr Golden kGolden[] = {
    {"POLE", 0xd86b1274da0e9272, 0xdb483cd4f860d244},
    {"MB6", 0xf450bc4cec1b9afe, 0xd6e67bd122e59933},
    {"HET.IO", 0x0b7e120094be2cca, 0x61e9cdfdde63128a},
    {"FIB25", 0xff39183e1a37d7e3, 0x32d3e6af80868e92},
    {"ICIJ", 0x21d32f13dacd8ffa, 0x7c20e91c47bec001},
    {"CORD19", 0x9ebaee80775559f2, 0x5abe7a88199b1d69},
    {"LDBC", 0x6bf017f057e3a3d5, 0xf7c5c567eed329fe},
    {"IYP", 0xba9b774646331e53, 0xb83f790e3b92a66b},
};

/// FNV-1a 64 over length-prefixed strings, so no two splits collide.
class Fnv1a {
 public:
  void String(const std::string& s) {
    uint64_t size = s.size();
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<unsigned char>(size >> (8 * i)));
    }
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) { hash_ = (hash_ ^ b) * 0x100000001b3; }
  uint64_t hash_ = 0xcbf29ce484222325;
};

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

TEST(GraphIoTest, ZooBytesAndLoadedGraphsArePinned) {
  ASSERT_EQ(std::size(kGolden), datasets::Zoo().size());
  for (const Golden& golden : kGolden) {
    auto spec = datasets::ZooDataset(golden.dataset);
    ASSERT_TRUE(spec.ok()) << golden.dataset;
    datasets::Dataset dataset = datasets::Generate(*spec, 1.0, 7);
    const std::string text = pg::SaveGraphText(dataset.graph);
    Fnv1a saved;
    saved.String(text);
    EXPECT_EQ(Hex(saved.value()), Hex(golden.saved))
        << golden.dataset << ": SaveGraphText digest";

    auto loaded = pg::LoadGraphText(text);
    ASSERT_TRUE(loaded.ok()) << golden.dataset << ": "
                             << loaded.status().ToString();
    Fnv1a reloaded;
    reloaded.String(pg::SaveGraphText(*loaded));
    const pg::Vocabulary& vocab = loaded->vocab();
    for (pg::LabelId l = 0; l < vocab.num_labels(); ++l) {
      reloaded.String(vocab.LabelName(l));
    }
    for (pg::PropKeyId k = 0; k < vocab.num_keys(); ++k) {
      reloaded.String(vocab.KeyName(k));
    }
    EXPECT_EQ(Hex(reloaded.value()), Hex(golden.loaded))
        << golden.dataset << ": LoadGraphText digest";
  }
}

}  // namespace
}  // namespace pghive
