// Artifact damage resilience: every truncation point and every single-bit
// flip of an .rsf must produce a typed artifact_error — never a crash, hang,
// giant allocation, or silently-wrong forest. The sanitizer suite
// (scripts/check.sh --sanitize) runs these under ASan+UBSan, which is what
// turns "no crash observed" into "no UB executed".
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "rainshine/serve/artifact.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::serve {
namespace {

using table::Column;
using table::Table;

/// A small but representative artifact: mixed numeric/categorical splits,
/// class counts, several trees.
const std::string& artifact_bytes() {
  static const std::string bytes = [] {
    util::Rng rng(21);
    const std::size_t n = 160;
    std::vector<double> x(n);
    std::vector<std::string> dc(n);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(0.0, 4.0);
      dc[i] = rng.bernoulli(0.5) ? "DC1" : "DC2";
      y[i] = x[i] * (dc[i] == "DC1" ? 2.0 : -1.0) + rng.uniform(-0.2, 0.2);
    }
    Table t;
    t.add_column("x", Column::continuous(std::move(x)));
    t.add_column("dc", Column::nominal(dc));
    t.add_column("y", Column::continuous(std::move(y)));
    const cart::Dataset data(t, "y", {"x", "dc"}, cart::Task::kRegression);
    cart::ForestConfig cfg;
    cfg.num_trees = 4;
    cfg.tree.cp = 0.001;
    std::stringstream buf;
    save_forest(cart::grow_forest(data, cfg), {.name = "victim"}, buf);
    return buf.str();
  }();
  return bytes;
}

ArtifactError load_expecting_error(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  try {
    (void)load_forest(in);
  } catch (const artifact_error& e) {
    return e.reason();
  }
  ADD_FAILURE() << "load accepted a damaged artifact (" << bytes.size()
                << " bytes)";
  return ArtifactError::kIoError;
}

TEST(ArtifactCorruption, EveryTruncationLengthIsTypedError) {
  const std::string& good = artifact_bytes();
  ASSERT_GT(good.size(), kHeaderBytes);
  // Every prefix of the file, covering each section boundary (mid-magic,
  // mid-header, metadata, node block) and every byte in between.
  for (std::size_t len = 0; len < good.size(); ++len) {
    const ArtifactError reason = load_expecting_error(good.substr(0, len));
    if (len < kMagic.size()) {
      EXPECT_EQ(reason, ArtifactError::kBadMagic) << "len " << len;
    } else {
      EXPECT_EQ(reason, ArtifactError::kTruncated) << "len " << len;
    }
  }
  // The untouched bytes still load, proving the fixture is not self-damaged.
  std::istringstream in(good, std::ios::binary);
  EXPECT_NO_THROW((void)load_forest(in));
}

TEST(ArtifactCorruption, EverySingleBitFlipIsTypedError) {
  const std::string& good = artifact_bytes();
  // Flip one bit per byte position (rotating which bit, so all eight lanes
  // get coverage across the file). CRC32 detects every single-bit error, so
  // payload flips must all land on kChecksumMismatch; header flips must land
  // on their section's reason. No flip may crash or load successfully.
  for (std::size_t pos = 0; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(static_cast<unsigned char>(bad[pos]) ^
                                 (1u << (pos % 8)));
    const ArtifactError reason = load_expecting_error(bad);
    if (pos < kMagic.size()) {
      EXPECT_EQ(reason, ArtifactError::kBadMagic) << "pos " << pos;
    } else if (pos < 8) {
      EXPECT_EQ(reason, ArtifactError::kUnsupportedVersion) << "pos " << pos;
    } else if (pos < 16) {
      // Payload-size field: smaller -> trailing bytes, larger -> truncated.
      EXPECT_TRUE(reason == ArtifactError::kTruncated ||
                  reason == ArtifactError::kTrailingBytes)
          << "pos " << pos << " got " << to_string(reason);
    } else if (pos < kHeaderBytes) {
      EXPECT_EQ(reason, ArtifactError::kChecksumMismatch) << "pos " << pos;
    } else {
      EXPECT_EQ(reason, ArtifactError::kChecksumMismatch) << "pos " << pos;
    }
  }
}

TEST(ArtifactCorruption, ForgedCrcStillCannotSmuggleStructuralDamage) {
  // An attacker (or a disk) that fixes up the CRC after damaging the payload
  // must still be stopped by the structural validators. Rewrite the payload
  // size of the node block's first child index to an out-of-range value and
  // recompute the checksum.
  const std::string& good = artifact_bytes();
  std::string bad = good;
  // Zero out the last 64 payload bytes (tail of the node block), then forge.
  for (std::size_t i = bad.size() - 64; i < bad.size(); ++i) bad[i] = '\x7f';
  const std::span<const unsigned char> payload(
      reinterpret_cast<const unsigned char*>(bad.data()) + kHeaderBytes,
      bad.size() - kHeaderBytes);
  const std::uint32_t forged = crc32(payload);
  for (int i = 0; i < 4; ++i) {
    bad[16 + static_cast<std::size_t>(i)] =
        static_cast<char>((forged >> (8 * i)) & 0xFFu);
  }
  const ArtifactError reason = load_expecting_error(bad);
  EXPECT_TRUE(reason == ArtifactError::kMalformedForest ||
              reason == ArtifactError::kMalformedMetadata)
      << to_string(reason);
}

TEST(ArtifactCorruption, TrailingBytesRejected) {
  std::string bad = artifact_bytes() + "extra";
  EXPECT_EQ(load_expecting_error(bad), ArtifactError::kTrailingBytes);
}

TEST(ArtifactCorruption, WrongMagicAndVersion) {
  std::string bad = artifact_bytes();
  bad[0] = 'X';
  EXPECT_EQ(load_expecting_error(bad), ArtifactError::kBadMagic);

  // A version-2 file (trees plus a stored flat layout, no longer written or
  // read) is the stale artifact an operator is most likely to meet.
  std::string skewed = artifact_bytes();
  skewed[4] = '\x02';
  EXPECT_EQ(load_expecting_error(skewed), ArtifactError::kUnsupportedVersion);
  // The version-skew message must name both the file's version and the one
  // this build reads, so an operator knows which side is stale.
  std::istringstream in(skewed, std::ios::binary);
  try {
    (void)load_forest(in);
    FAIL() << "version 2 artifact loaded";
  } catch (const artifact_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    EXPECT_NE(what.find("reads version 1"), std::string::npos) << what;
  }
}

/// A regression forest of one hand-built tree over a single numeric feature.
cart::Forest hand_built_forest(std::vector<cart::Node> nodes) {
  std::vector<cart::Tree> trees;
  trees.emplace_back(cart::Task::kRegression,
                     std::vector<cart::FeatureInfo>{{.name = "x"}},
                     std::move(nodes), std::vector<std::string>{});
  return cart::Forest(cart::Task::kRegression, std::move(trees), 0.0);
}

cart::Node split_node(std::int32_t left, std::int32_t right) {
  cart::Node node;
  node.left = left;
  node.right = right;
  node.threshold = 0.5;
  return node;
}

/// Sets each child's parent link to the node that links to it (the last such
/// node, where a DAG has several), as grown trees have them.
std::vector<cart::Node> with_parent_links(std::vector<cart::Node> nodes) {
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    for (const std::int32_t child : {nodes[id].left, nodes[id].right}) {
      if (child != cart::kNoChild) {
        nodes[static_cast<std::size_t>(child)].parent = static_cast<std::int32_t>(id);
      }
    }
  }
  return nodes;
}

ArtifactError save_and_load(const cart::Forest& forest) {
  std::stringstream buf;
  save_forest(forest, {.name = "dag"}, buf);
  return load_expecting_error(buf.str());
}

TEST(ArtifactCorruption, DagShapedTreeIsMalformedForest) {
  // Child indices that all lie in (id, num_nodes) still need not form a
  // tree. A chain whose nodes point both children at the next node is a
  // DAG with 2^depth root-to-leaf paths; compiling it copies the shared
  // subtree once per path, so ~30 such levels would exhaust memory on load.
  constexpr std::int32_t kLevels = 4;
  std::vector<cart::Node> chain;
  for (std::int32_t i = 0; i < kLevels; ++i) chain.push_back(split_node(i + 1, i + 1));
  chain.emplace_back();  // the one leaf
  EXPECT_EQ(save_and_load(hand_built_forest(with_parent_links(std::move(chain)))),
            ArtifactError::kMalformedForest);

  // A diamond: two distinct parents share node 3.
  std::vector<cart::Node> diamond{split_node(1, 2), split_node(3, 4),
                                  split_node(3, 4), {}, {}};
  EXPECT_EQ(save_and_load(hand_built_forest(with_parent_links(std::move(diamond)))),
            ArtifactError::kMalformedForest);

  // An orphan: node 3 is reachable from no parent.
  std::vector<cart::Node> orphan{split_node(1, 2), {}, {}, {}};
  EXPECT_EQ(save_and_load(hand_built_forest(with_parent_links(std::move(orphan)))),
            ArtifactError::kMalformedForest);
}

TEST(ArtifactCorruption, BrokenParentLinkIsMalformedForest) {
  // The child links form a tree, but the parent links Tree::path_to walks
  // up do not: one out of range would be read out of bounds, and one that
  // points at its own node would never reach the root.
  const std::vector<cart::Node> tree =
      with_parent_links({split_node(1, 2), {}, {}});
  {
    std::stringstream buf;
    save_forest(hand_built_forest(tree), {.name = "linked"}, buf);
    const ModelArtifact loaded = load_forest(buf);
    EXPECT_EQ(loaded.forest->trees().front().path_to(2), "x >= 0.500");
  }

  std::vector<cart::Node> far = tree;
  far[2].parent = 1000000;
  EXPECT_EQ(save_and_load(hand_built_forest(std::move(far))),
            ArtifactError::kMalformedForest);

  std::vector<cart::Node> self_loop = tree;
  self_loop[2].parent = 2;
  EXPECT_EQ(save_and_load(hand_built_forest(std::move(self_loop))),
            ArtifactError::kMalformedForest);

  std::vector<cart::Node> root_loop = tree;
  root_loop[0].parent = 0;
  EXPECT_EQ(save_and_load(hand_built_forest(std::move(root_loop))),
            ArtifactError::kMalformedForest);
}

TEST(ArtifactCorruption, GiantDeclaredSizeDoesNotAllocate) {
  // Payload size field of 2^62: the loader must fail with kTruncated after
  // reading what exists, not try to reserve 4 exabytes.
  std::string bad = artifact_bytes();
  bad[14] = '\x40';  // highest size byte (offset 8..15, little-endian)
  const ArtifactError reason = load_expecting_error(bad);
  EXPECT_EQ(reason, ArtifactError::kTruncated);
}

TEST(ArtifactCorruption, EmptyStreamIsBadMagic) {
  EXPECT_EQ(load_expecting_error(""), ArtifactError::kBadMagic);
}

}  // namespace
}  // namespace rainshine::serve
