#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/key_blocking.h"
#include "blocking/qgram_blocking.h"
#include "blocking/suffix_blocking.h"
#include "blocking/token_blocking.h"
#include "test_support.h"

namespace gsmb {
namespace {

using testing::MakeTinyCleanClean;
using testing::TinyCleanClean;

const Block* FindBlock(const BlockCollection& bc, const std::string& key) {
  for (const Block& b : bc.blocks()) {
    if (b.key == key) return &b;
  }
  return nullptr;
}

TEST(TokenBlocking, CleanCleanKeepsSharedKeysOnly) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = TokenBlocking().Build(t.e1, t.e2);
  EXPECT_TRUE(bc.clean_clean());
  EXPECT_EQ(bc.num_left_entities(), 3u);
  EXPECT_EQ(bc.num_right_entities(), 3u);
  // Shared tokens: alpha (a0, a2 | b0), beta (a0 | b0), gamma (a1 | b1).
  EXPECT_NE(FindBlock(bc, "alpha"), nullptr);
  EXPECT_NE(FindBlock(bc, "beta"), nullptr);
  EXPECT_NE(FindBlock(bc, "gamma"), nullptr);
  // Single-source tokens are dropped.
  EXPECT_EQ(FindBlock(bc, "delta"), nullptr);
  EXPECT_EQ(FindBlock(bc, "unique1"), nullptr);
  EXPECT_EQ(FindBlock(bc, "zeta"), nullptr);
  EXPECT_EQ(bc.size(), 3u);
}

TEST(TokenBlocking, BlockMembersAreCorrect) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = TokenBlocking().Build(t.e1, t.e2);
  const Block* alpha = FindBlock(bc, "alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->left, (std::vector<EntityId>{0, 2}));
  EXPECT_EQ(alpha->right, (std::vector<EntityId>{0}));
  EXPECT_EQ(alpha->Size(), 3u);
  EXPECT_DOUBLE_EQ(alpha->Comparisons(true), 2.0);
}

TEST(TokenBlocking, BlocksInLexicographicKeyOrder) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = TokenBlocking().Build(t.e1, t.e2);
  std::vector<std::string> keys;
  for (const Block& b : bc.blocks()) keys.push_back(b.key);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(TokenBlocking, DirtyRequiresTwoMembers) {
  EntityCollection c;
  EntityProfile p1("1");
  p1.AddAttribute("t", "shared only1");
  EntityProfile p2("2");
  p2.AddAttribute("t", "shared only2");
  c.Add(std::move(p1));
  c.Add(std::move(p2));
  BlockCollection bc = TokenBlocking().Build(c);
  EXPECT_FALSE(bc.clean_clean());
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "shared");
  EXPECT_EQ(bc[0].left, (std::vector<EntityId>{0, 1}));
  EXPECT_DOUBLE_EQ(bc[0].Comparisons(false), 1.0);
}

TEST(TokenBlocking, MinTokenLengthFilters) {
  EntityCollection c1;
  EntityProfile p("1");
  p.AddAttribute("t", "ab abcd");
  c1.Add(std::move(p));
  EntityCollection c2;
  EntityProfile q("2");
  q.AddAttribute("t", "ab abcd");
  c2.Add(std::move(q));
  BlockCollection bc = TokenBlocking(/*min_token_length=*/3).Build(c1, c2);
  EXPECT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "abcd");
}

TEST(TokenBlocking, PaperExampleReproduced) {
  // The Figure 1 profiles, as a Dirty collection.
  EntityCollection c;
  auto add = [&](const char* id, const char* text) {
    EntityProfile p(id);
    p.AddAttribute("text", text);
    c.Add(std::move(p));
  };
  add("e1", "Apple iPhone X Smartphone");
  add("e2", "Samsung S20 smartphone");
  add("e3", "iPhone 10 smartphone Apple");
  add("e4", "Samsung 20 smartphone");
  add("e5", "Huawei Mate 20 smartphone");
  add("e6", "Samsung Fold foldable phone");
  add("e7", "Samsung foldable Your perfect mate phone, today 20 % discount");

  BlockCollection bc = TokenBlocking().Build(c);
  const Block* samsung = FindBlock(bc, "samsung");
  ASSERT_NE(samsung, nullptr);
  EXPECT_EQ(samsung->left, (std::vector<EntityId>{1, 3, 5, 6}));
  const Block* smartphone = FindBlock(bc, "smartphone");
  ASSERT_NE(smartphone, nullptr);
  EXPECT_EQ(smartphone->left, (std::vector<EntityId>{0, 1, 2, 3, 4}));
  const Block* apple = FindBlock(bc, "apple");
  ASSERT_NE(apple, nullptr);
  EXPECT_EQ(apple->left, (std::vector<EntityId>{0, 2}));
}

TEST(QGramBlocking, ProducesGramBlocks) {
  TinyCleanClean t = MakeTinyCleanClean();
  BlockCollection bc = QGramBlocking(3).Build(t.e1, t.e2);
  // "alpha" trigrams: alp, lph, pha — present in both sources via a0/b0.
  EXPECT_NE(FindBlock(bc, "alp"), nullptr);
  EXPECT_NE(FindBlock(bc, "pha"), nullptr);
}

TEST(QGramBlocking, MoreRobustThanTokensToTypos) {
  EntityCollection c1;
  EntityProfile p("1");
  p.AddAttribute("t", "smartphone");
  c1.Add(std::move(p));
  EntityCollection c2;
  EntityProfile q("2");
  q.AddAttribute("t", "smartphome");  // typo
  c2.Add(std::move(q));
  // Token blocking yields no block; 3-gram blocking still links them.
  EXPECT_EQ(TokenBlocking().Build(c1, c2).size(), 0u);
  EXPECT_GT(QGramBlocking(3).Build(c1, c2).size(), 0u);
}

TEST(SuffixBlocking, EmitsSuffixKeys) {
  EntityCollection c1;
  EntityProfile p("1");
  p.AddAttribute("t", "phone");
  c1.Add(std::move(p));
  EntityCollection c2;
  EntityProfile q("2");
  q.AddAttribute("t", "iphone");
  c2.Add(std::move(q));
  BlockCollection bc = SuffixBlocking(/*min_length=*/4).Build(c1, c2);
  // Shared suffixes of length >= 4: "hone", "phone".
  EXPECT_NE(FindBlock(bc, "hone"), nullptr);
  EXPECT_NE(FindBlock(bc, "phone"), nullptr);
}

TEST(SuffixBlocking, CapsBlockSize) {
  // 10 entities per source sharing the same token: block size 20 > cap 8.
  EntityCollection c1;
  EntityCollection c2;
  for (int i = 0; i < 10; ++i) {
    // std::string{} + avoids the operator+(const char*, string&&) overload,
    // which trips a GCC 12 -Wrestrict false positive at -O3 (GCC PR105651).
    EntityProfile p(std::string{"a"} + std::to_string(i));
    p.AddAttribute("t", "common");
    c1.Add(std::move(p));
    EntityProfile q(std::string{"b"} + std::to_string(i));
    q.AddAttribute("t", "common");
    c2.Add(std::move(q));
  }
  BlockCollection bc =
      SuffixBlocking(/*min_length=*/4, /*max_block_size=*/8).Build(c1, c2);
  EXPECT_EQ(bc.size(), 0u);
}

TEST(SuffixBlocking, CapCountsBothSources) {
  // 5 + 5 members: within a cap of 8 per source, but 10 members in total,
  // and the cap counts both sources together.
  EntityCollection c1;
  EntityCollection c2;
  for (int i = 0; i < 5; ++i) {
    EntityProfile p(std::string{"a"} + std::to_string(i));
    p.AddAttribute("t", "common");
    c1.Add(std::move(p));
    EntityProfile q(std::string{"b"} + std::to_string(i));
    q.AddAttribute("t", "common");
    c2.Add(std::move(q));
  }
  EXPECT_EQ(
      SuffixBlocking(/*min_length=*/4, /*max_block_size=*/8).Build(c1, c2)
          .size(),
      0u);
  EXPECT_EQ(
      SuffixBlocking(/*min_length=*/4, /*max_block_size=*/10).Build(c1, c2)
          .size(),
      3u);  // common, ommon, mmon
}

// ---------------------------------------------------------------------------
// Key functions, seen through the blocks: a Dirty collection of two copies
// of one profile turns every key of the profile into one block.
// ---------------------------------------------------------------------------

namespace {

EntityCollection TwoCopies(const std::string& value) {
  EntityCollection c;
  for (const char* id : {"x", "y"}) {
    EntityProfile p(id);
    p.AddAttribute("t", value);
    c.Add(std::move(p));
  }
  return c;
}

std::vector<std::string> KeysOf(const BlockCollection& bc) {
  std::vector<std::string> keys;
  for (const Block& b : bc.blocks()) keys.push_back(b.key);
  return keys;
}

std::vector<std::string> QGramKeysOf(const std::string& value, size_t q) {
  return KeysOf(QGramBlocking(q).Build(TwoCopies(value)));
}

std::vector<std::string> SuffixKeysOf(const std::string& value,
                                      size_t min_length) {
  return KeysOf(SuffixBlocking(min_length).Build(TwoCopies(value)));
}

}  // namespace

TEST(QGrams, BasicTrigrams) {
  EXPECT_EQ(QGramKeysOf("apple", 3),
            (std::vector<std::string>{"app", "ple", "ppl"}));
}

TEST(QGrams, ShortStringYieldsWhole) {
  EXPECT_EQ(QGramKeysOf("ab", 3), (std::vector<std::string>{"ab"}));
  EXPECT_EQ(QGramKeysOf("abc", 3), (std::vector<std::string>{"abc"}));
}

TEST(QGrams, LowercasesInput) {
  EXPECT_EQ(QGramKeysOf("AbCd", 2),
            (std::vector<std::string>{"ab", "bc", "cd"}));
}

TEST(QGrams, EmptyAndZeroQ) {
  EXPECT_TRUE(QGramKeysOf("", 3).empty());
  EXPECT_TRUE(QGramKeysOf("-- ,", 3).empty());
  EXPECT_TRUE(QGramKeysOf("abc", 0).empty());
}

TEST(QGrams, RepeatedGramsAndTokensKeyOnce) {
  // "aaaa" has the gram "aa" three times and appears twice; the members
  // are still the two profiles, once each.
  const BlockCollection bc = QGramBlocking(2).Build(TwoCopies("aaaa AAAA"));
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "aa");
  EXPECT_EQ(bc[0].left, (std::vector<EntityId>{0, 1}));
}

TEST(Suffixes, BasicSuffixes) {
  EXPECT_EQ(SuffixKeysOf("apple", 3),
            (std::vector<std::string>{"apple", "ple", "pple"}));
}

TEST(Suffixes, ShortStringYieldsWhole) {
  EXPECT_EQ(SuffixKeysOf("ab", 4), (std::vector<std::string>{"ab"}));
  EXPECT_EQ(SuffixKeysOf("Abcd", 4), (std::vector<std::string>{"abcd"}));
}

TEST(Suffixes, Empty) {
  EXPECT_TRUE(SuffixKeysOf("", 2).empty());
  EXPECT_TRUE(SuffixKeysOf("!!", 2).empty());
}

TEST(BlockCollection, DropEmptyBlocks) {
  BlockCollection bc(/*clean_clean=*/true, 2, 2);
  Block with_pairs;
  with_pairs.key = "good";
  with_pairs.left = {0};
  with_pairs.right = {0};
  bc.Add(with_pairs);
  Block one_sided;
  one_sided.key = "bad";
  one_sided.left = {0, 1};
  bc.Add(one_sided);
  EXPECT_EQ(bc.DropEmptyBlocks(), 1u);
  ASSERT_EQ(bc.size(), 1u);
  EXPECT_EQ(bc[0].key, "good");
}

TEST(BlockCollection, Totals) {
  BlockCollection bc = testing::PaperExampleBlocks();
  // Sizes: 2+2+4+3+5+2+2+2 = 22; comparisons: 1+1+6+3+10+1+1+1 = 24.
  EXPECT_EQ(bc.TotalEntityOccurrences(), 22u);
  EXPECT_DOUBLE_EQ(bc.TotalComparisons(), 24.0);
}


// ---------------------------------------------------------------------------
// The sort-merge builder against a naive reference: one std::map from key
// to member sets, filled profile by profile. Every Build must equal it
// block for block, for any thread count.
// ---------------------------------------------------------------------------

namespace {

using PlainKeys = std::function<std::vector<std::string>(const EntityProfile&)>;

void ExpectSameCollections(const BlockCollection& a,
                           const BlockCollection& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.clean_clean(), b.clean_clean());
  ASSERT_EQ(a.num_left_entities(), b.num_left_entities());
  ASSERT_EQ(a.num_right_entities(), b.num_right_entities());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].left, b[i].left);
    EXPECT_EQ(a[i].right, b[i].right);
  }
}

/// The reference builder. `e2` == nullptr builds a Dirty collection.
BlockCollection ReferenceBlocks(const EntityCollection& e1,
                                const EntityCollection* e2,
                                const PlainKeys& keys1,
                                const PlainKeys& keys2) {
  std::map<std::string, std::pair<std::set<EntityId>, std::set<EntityId>>>
      table;
  for (EntityId id = 0; id < e1.size(); ++id) {
    for (const std::string& key : keys1(e1[id])) table[key].first.insert(id);
  }
  if (e2 != nullptr) {
    for (EntityId id = 0; id < e2->size(); ++id) {
      for (const std::string& key : keys2((*e2)[id])) {
        table[key].second.insert(id);
      }
    }
  }
  BlockCollection out(e2 != nullptr, e1.size(),
                      e2 != nullptr ? e2->size() : 0);
  for (const auto& [key, members] : table) {
    const bool keep = e2 != nullptr
                          ? !members.first.empty() && !members.second.empty()
                          : members.first.size() >= 2;
    if (!keep) continue;
    Block block;
    block.key = key;
    block.left.assign(members.first.begin(), members.first.end());
    block.right.assign(members.second.begin(), members.second.end());
    out.Add(std::move(block));
  }
  return out;
}

/// Each space-separated word of attribute "k" twice, plus every proper
/// prefix of it: keys repeat within a profile and are prefixes of one
/// another. `tag` is prepended to every key.
PlainKeys WordKeys(std::string tag) {
  return [tag](const EntityProfile& p) {
    std::vector<std::string> keys;
    std::string words = p.GetAttribute("k");
    size_t begin = 0;
    while (begin < words.size()) {
      size_t end = words.find(' ', begin);
      if (end == std::string::npos) end = words.size();
      const std::string word = words.substr(begin, end - begin);
      keys.push_back(tag + word);
      keys.push_back(tag + word);
      for (size_t length = 1; length < word.size(); ++length) {
        keys.push_back(tag + word.substr(0, length));
      }
      begin = end + 1;
    }
    return keys;
  };
}

/// Emits `plain`'s keys through the sink three ways: copied, as a view of
/// a stored copy, and as a view into the middle of a longer stored string.
KeyFunction ThroughSink(PlainKeys plain) {
  return [plain](const EntityProfile& p, KeySink* sink) {
    const std::vector<std::string> keys = plain(p);
    for (size_t j = 0; j < keys.size(); ++j) {
      const std::string& key = keys[j];
      if (j % 3 == 0) {
        sink->Add(key);
      } else if (j % 3 == 1) {
        sink->Emit(sink->Append(key), key.size());
      } else {
        sink->Emit(sink->Append("<" + key + ">") + 1, key.size());
      }
    }
  };
}

/// `count` profiles of one source. Every fifth has no attribute (no keys);
/// "w*" and "abcd*" words occur in both sources, "<side>*" words in one,
/// and the UTF-8 words order above ASCII as unsigned bytes.
EntityCollection WordProfiles(const std::string& side, size_t count) {
  EntityCollection collection;
  for (size_t i = 0; i < count; ++i) {
    EntityProfile p(side + std::to_string(i));
    if (i % 5 != 4) {
      p.AddAttribute("k", "w" + std::to_string(i % 7) + " " + side +
                              std::to_string(i % 4) + " abcd" +
                              std::to_string(i % 11) + "zz \xc3\xa9t" +
                              std::to_string(i % 3));
    }
    collection.Add(std::move(p));
  }
  return collection;
}

const std::vector<size_t>& EntityCounts() {
  static const std::vector<size_t> counts{
      0, 1, kKeyChunkGrain - 1, kKeyChunkGrain, kKeyChunkGrain + 1,
      4 * kKeyChunkGrain + 37};
  return counts;
}

}  // namespace

TEST(KeyBlockingReference, CleanCleanOneKeyFunction) {
  const PlainKeys plain = WordKeys("");
  for (size_t n1 : EntityCounts()) {
    for (size_t n2 : EntityCounts()) {
      const EntityCollection e1 = WordProfiles("left", n1);
      const EntityCollection e2 = WordProfiles("right", n2);
      const BlockCollection reference =
          ReferenceBlocks(e1, &e2, plain, plain);
      for (size_t threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(::testing::Message() << n1 << " x " << n2 << " entities, "
                                        << threads << " threads");
        ExpectSameCollections(
            reference,
            BuildKeyBlocksCleanClean(e1, e2, ThroughSink(plain), threads));
      }
    }
  }
}

TEST(KeyBlockingReference, CleanCleanKeyFunctionPerSource) {
  // Source 2 tags half of its keys' words differently, so only some keys
  // still meet across the sources.
  const PlainKeys plain1 = WordKeys("");
  const PlainKeys plain2 = [](const EntityProfile& p) {
    std::vector<std::string> keys = WordKeys("")(p);
    for (size_t j = 0; j < keys.size(); j += 2) keys[j] = "t" + keys[j];
    return keys;
  };
  for (size_t n : EntityCounts()) {
    const EntityCollection e1 = WordProfiles("left", n);
    const EntityCollection e2 = WordProfiles("right", n + 3);
    const BlockCollection reference = ReferenceBlocks(e1, &e2, plain1, plain2);
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message() << n << " entities, " << threads
                                      << " threads");
      ExpectSameCollections(
          reference, BuildKeyBlocksCleanClean(e1, e2, ThroughSink(plain1),
                                              ThroughSink(plain2), threads));
    }
  }
}

TEST(KeyBlockingReference, Dirty) {
  const PlainKeys plain = WordKeys("");
  for (size_t n : EntityCounts()) {
    const EntityCollection e = WordProfiles("left", n);
    const BlockCollection reference = ReferenceBlocks(e, nullptr, plain, plain);
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(::testing::Message() << n << " entities, " << threads
                                      << " threads");
      ExpectSameCollections(reference,
                            BuildKeyBlocksDirty(e, ThroughSink(plain), threads));
    }
  }
}

TEST(KeyBlockingReference, KeyOutsideTheArenaThrows) {
  const EntityCollection e = WordProfiles("left", 3);
  const KeyFunction bad = [](const EntityProfile&, KeySink* sink) {
    sink->Emit(sink->Append("ab"), 3);
  };
  EXPECT_THROW(BuildKeyBlocksDirty(e, bad, 2), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Token, Q-Grams and Suffix blocking: the reference with plain-string key
// functions, and bit-identical output for any thread count.
// ---------------------------------------------------------------------------

namespace {

EntityCollection NoisyProfiles(const char* prefix, size_t count,
                               uint64_t salt) {
  EntityCollection collection;
  for (size_t i = 0; i < count; ++i) {
    EntityProfile p(prefix + std::to_string(i));
    p.AddAttribute("name", std::string{"entity shard"} +
                               std::to_string((i * salt) % 97) + " token" +
                               std::to_string(i % 13));
    p.AddAttribute("desc", std::string{"common word"} +
                               std::to_string((i + salt) % 29));
    collection.Add(std::move(p));
  }
  return collection;
}

std::vector<std::string> PlainTokenKeys(const EntityProfile& p) {
  return p.DistinctValueTokens();
}

std::vector<std::string> PlainQGramKeys(const EntityProfile& p) {
  constexpr size_t kQ = 3;  // QGramBlocking's default
  std::vector<std::string> keys;
  for (const std::string& token : p.DistinctValueTokens()) {
    if (token.size() <= kQ) {
      keys.push_back(token);
      continue;
    }
    for (size_t i = 0; i + kQ <= token.size(); ++i) {
      keys.push_back(token.substr(i, kQ));
    }
  }
  return keys;
}

std::vector<std::string> PlainSuffixKeys(const EntityProfile& p) {
  constexpr size_t kMinLength = 4;  // SuffixBlocking's default
  std::vector<std::string> keys;
  for (const std::string& token : p.DistinctValueTokens()) {
    if (token.size() <= kMinLength) {
      keys.push_back(token);
      continue;
    }
    for (size_t i = 0; i + kMinLength <= token.size(); ++i) {
      keys.push_back(token.substr(i));
    }
  }
  return keys;
}

/// SuffixBlocking's default cap: blocks of more than 64 members go.
BlockCollection CapAt64(BlockCollection bc) {
  BlockCollection out(bc.clean_clean(), bc.num_left_entities(),
                      bc.num_right_entities());
  for (Block& block : bc.mutable_blocks()) {
    if (block.Size() <= 64) out.Add(std::move(block));
  }
  return out;
}

}  // namespace

TEST(ParallelKeyExtraction, TokenBlockingDeterministicAcrossThreadCounts) {
  const EntityCollection e1 = NoisyProfiles("a", 700, 3);
  const EntityCollection e2 = NoisyProfiles("b", 650, 7);
  const BlockCollection serial = TokenBlocking().Build(e1, e2, 1);
  ExpectSameCollections(
      ReferenceBlocks(e1, &e2, PlainTokenKeys, PlainTokenKeys), serial);
  for (size_t threads : {2u, 5u, 8u}) {
    ExpectSameCollections(serial, TokenBlocking().Build(e1, e2, threads));
  }
  const BlockCollection dirty_serial = TokenBlocking().Build(e1, 1);
  ExpectSameCollections(
      ReferenceBlocks(e1, nullptr, PlainTokenKeys, PlainTokenKeys),
      dirty_serial);
  ExpectSameCollections(dirty_serial, TokenBlocking().Build(e1, 8));
}

TEST(ParallelKeyExtraction, QGramBlockingDeterministicAcrossThreadCounts) {
  const EntityCollection e1 = NoisyProfiles("a", 400, 5);
  const EntityCollection e2 = NoisyProfiles("b", 380, 11);
  const BlockCollection serial = QGramBlocking().Build(e1, e2, 1);
  ExpectSameCollections(
      ReferenceBlocks(e1, &e2, PlainQGramKeys, PlainQGramKeys), serial);
  ExpectSameCollections(serial, QGramBlocking().Build(e1, e2, 8));
  const BlockCollection dirty_serial = QGramBlocking().Build(e1, 1);
  ExpectSameCollections(
      ReferenceBlocks(e1, nullptr, PlainQGramKeys, PlainQGramKeys),
      dirty_serial);
  ExpectSameCollections(dirty_serial, QGramBlocking().Build(e1, 6));
}

TEST(ParallelKeyExtraction, SuffixBlockingDeterministicAcrossThreadCounts) {
  const EntityCollection e1 = NoisyProfiles("a", 400, 13);
  const EntityCollection e2 = NoisyProfiles("b", 420, 17);
  const BlockCollection serial = SuffixBlocking().Build(e1, e2, 1);
  ExpectSameCollections(
      CapAt64(ReferenceBlocks(e1, &e2, PlainSuffixKeys, PlainSuffixKeys)),
      serial);
  ExpectSameCollections(serial, SuffixBlocking().Build(e1, e2, 8));
  const BlockCollection dirty_serial = SuffixBlocking().Build(e1, 1);
  ExpectSameCollections(
      CapAt64(ReferenceBlocks(e1, nullptr, PlainSuffixKeys, PlainSuffixKeys)),
      dirty_serial);
  ExpectSameCollections(dirty_serial, SuffixBlocking().Build(e1, 3));
}

}  // namespace
}  // namespace gsmb
