#include "rainshine/serve/artifact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>

#include "rainshine/util/check.hpp"

namespace rainshine::serve {

namespace {

// ---- little-endian encoding -----------------------------------------------
//
// Integers are assembled a byte at a time, least-significant first, so the
// on-disk layout is identical on big- and little-endian hosts. Doubles travel
// as the LE bytes of their IEEE-754 bit pattern (bit_cast both ways), which
// also round-trips NaN payloads exactly — oob_error can legitimately be NaN.

void put_u8(std::vector<unsigned char>& out, std::uint8_t v) { out.push_back(v); }

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_i32(std::vector<unsigned char>& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<unsigned char>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::vector<unsigned char>& out, std::string_view s) {
  put_u64(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void put_bytes(std::vector<unsigned char>& out, std::span<const std::uint8_t> b) {
  put_u64(out, b.size());
  out.insert(out.end(), b.begin(), b.end());
}

// ---- bounds-checked decoding ----------------------------------------------

/// Cursor over the payload. Every accessor checks the remaining byte count
/// and throws a typed artifact_error on overrun, so a truncated or
/// length-corrupted payload can never read out of bounds. `section` selects
/// which malformed-* reason an overrun reports.
class Reader {
 public:
  Reader(std::span<const unsigned char> data, ArtifactError section)
      : data_(data), section_(section) {}

  void set_section(ArtifactError section) noexcept { section_ = section; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }

  [[noreturn]] void fail(const std::string& what) const {
    throw artifact_error(section_, what + " at payload offset " +
                                       std::to_string(pos_));
  }

  [[nodiscard]] std::uint8_t get_u8() {
    need(1, "u8");
    return data_[pos_++];
  }

  [[nodiscard]] std::uint32_t get_u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t get_u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int32_t get_i32() {
    return static_cast<std::int32_t>(get_u32());
  }

  [[nodiscard]] double get_f64() { return std::bit_cast<double>(get_u64()); }

  /// Count prefix for a sequence whose elements occupy at least
  /// `min_element_bytes` each. Capping against the bytes that remain turns a
  /// length-field corruption into a typed error instead of a giant alloc.
  [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes,
                                      const char* what) {
    const std::uint64_t n = get_u64();
    if (n > remaining() / std::max<std::size_t>(min_element_bytes, 1)) {
      fail(std::string(what) + " count " + std::to_string(n) +
           " exceeds remaining payload");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::string get_string() {
    const std::size_t n = get_count(1, "string");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] std::vector<std::uint8_t> get_bytes() {
    const std::size_t n = get_count(1, "byte-vector");
    std::vector<std::uint8_t> b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return b;
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) fail(std::string("payload ends inside ") + what);
  }

  std::span<const unsigned char> data_;
  std::size_t pos_ = 0;
  ArtifactError section_;
};

// ---- payload schema --------------------------------------------------------

void encode_config(std::vector<unsigned char>& out, const cart::ForestConfig& c) {
  put_u64(out, c.num_trees);
  put_u64(out, c.tree.min_samples_split);
  put_u64(out, c.tree.min_samples_leaf);
  put_u64(out, c.tree.max_depth);
  put_f64(out, c.tree.cp);
  put_bytes(out, c.tree.allowed_features);
  put_f64(out, c.sample_fraction);
  put_u64(out, c.features_per_tree);
  put_u64(out, c.seed);
}

cart::ForestConfig decode_config(Reader& r) {
  cart::ForestConfig c;
  c.num_trees = static_cast<std::size_t>(r.get_u64());
  c.tree.min_samples_split = static_cast<std::size_t>(r.get_u64());
  c.tree.min_samples_leaf = static_cast<std::size_t>(r.get_u64());
  c.tree.max_depth = static_cast<std::size_t>(r.get_u64());
  c.tree.cp = r.get_f64();
  c.tree.allowed_features = r.get_bytes();
  c.sample_fraction = r.get_f64();
  c.features_per_tree = static_cast<std::size_t>(r.get_u64());
  c.seed = r.get_u64();
  return c;
}

void encode_metadata(std::vector<unsigned char>& out, const ModelMetadata& m) {
  put_string(out, m.name);
  put_u32(out, m.version);
  put_u8(out, static_cast<std::uint8_t>(m.task));
  put_f64(out, m.oob_error);
  encode_config(out, m.config);
  put_u64(out, m.schema.size());
  for (const cart::FeatureInfo& f : m.schema) {
    put_string(out, f.name);
    put_u8(out, f.categorical ? 1 : 0);
    put_u64(out, f.labels.size());
    for (const std::string& label : f.labels) put_string(out, label);
  }
  put_u64(out, m.class_labels.size());
  for (const std::string& label : m.class_labels) put_string(out, label);
}

ModelMetadata decode_metadata(Reader& r) {
  ModelMetadata m;
  m.name = r.get_string();
  m.version = r.get_u32();
  const std::uint8_t task = r.get_u8();
  if (task > static_cast<std::uint8_t>(cart::Task::kClassification)) {
    r.fail("unknown task code " + std::to_string(task));
  }
  m.task = static_cast<cart::Task>(task);
  m.oob_error = r.get_f64();
  m.config = decode_config(r);
  const std::size_t num_features = r.get_count(10, "feature-schema");
  m.schema.reserve(num_features);
  for (std::size_t f = 0; f < num_features; ++f) {
    cart::FeatureInfo info;
    info.name = r.get_string();
    info.categorical = r.get_u8() != 0;
    const std::size_t num_labels = r.get_count(8, "feature-label");
    info.labels.reserve(num_labels);
    for (std::size_t l = 0; l < num_labels; ++l) {
      info.labels.push_back(r.get_string());
    }
    m.schema.push_back(std::move(info));
  }
  const std::size_t num_classes = r.get_count(8, "class-label");
  m.class_labels.reserve(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    m.class_labels.push_back(r.get_string());
  }
  if (m.schema.empty()) r.fail("feature schema is empty");
  if (m.task == cart::Task::kClassification && m.class_labels.size() < 2) {
    r.fail("classification artifact needs at least two class labels");
  }
  return m;
}

void encode_node(std::vector<unsigned char>& out, const cart::Node& n) {
  put_i32(out, n.left);
  put_i32(out, n.right);
  put_i32(out, n.parent);
  put_u32(out, n.depth);
  put_u64(out, n.feature);
  put_u8(out, n.categorical ? 1 : 0);
  put_u8(out, n.missing_goes_left ? 1 : 0);
  put_f64(out, n.threshold);
  put_bytes(out, n.go_left);
  put_u64(out, n.n);
  put_f64(out, n.prediction);
  put_f64(out, n.impurity);
  put_f64(out, n.improve);
  put_u64(out, n.class_counts.size());
  for (const double c : n.class_counts) put_f64(out, c);
}

cart::Node decode_node(Reader& r) {
  cart::Node n;
  n.left = r.get_i32();
  n.right = r.get_i32();
  n.parent = r.get_i32();
  n.depth = r.get_u32();
  n.feature = static_cast<std::size_t>(r.get_u64());
  n.categorical = r.get_u8() != 0;
  n.missing_goes_left = r.get_u8() != 0;
  n.threshold = r.get_f64();
  n.go_left = r.get_bytes();
  n.n = static_cast<std::size_t>(r.get_u64());
  n.prediction = r.get_f64();
  n.impurity = r.get_f64();
  n.improve = r.get_f64();
  const std::size_t num_counts = r.get_count(8, "class-count");
  n.class_counts.reserve(num_counts);
  for (std::size_t c = 0; c < num_counts; ++c) {
    n.class_counts.push_back(r.get_f64());
  }
  return n;
}

/// Structural invariants prediction relies on (tree.cpp walks children
/// unchecked, FlatForest::compile copies every subtree it reaches, Forest
/// sizes its vote tally from leaf predictions), re-proved here so a
/// forged-CRC artifact still cannot cause UB:
///   * children both absent (leaf) or both present, in (id, num_nodes) —
///     strictly increasing indices guarantee the walk terminates;
///   * every node but the root is the child of exactly one node, so the
///     nodes form a tree, not a DAG whose shared subtrees the compile
///     would copy once per path (exponential in depth);
///   * each child's parent link names the node that links to it and the
///     root has none, so Tree::path_to's upward walk stays in range and
///     ends at the root;
///   * split features name a schema column;
///   * classification leaf predictions are integral class codes.
void validate_tree(const std::vector<cart::Node>& nodes,
                   const ModelMetadata& meta, Reader& r) {
  const auto n = static_cast<std::int32_t>(nodes.size());
  std::vector<std::uint8_t> has_parent(nodes.size(), 0);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    const cart::Node& node = nodes[id];
    const bool left_leaf = node.left == cart::kNoChild;
    const bool right_leaf = node.right == cart::kNoChild;
    if (left_leaf != right_leaf) {
      r.fail("node " + std::to_string(id) + " has exactly one child");
    }
    if (!left_leaf) {
      const auto sid = static_cast<std::int32_t>(id);
      if (node.left <= sid || node.left >= n || node.right <= sid ||
          node.right >= n) {
        r.fail("node " + std::to_string(id) + " child indices out of range");
      }
      for (const std::int32_t child : {node.left, node.right}) {
        std::uint8_t& seen = has_parent[static_cast<std::size_t>(child)];
        if (seen != 0) {
          r.fail("node " + std::to_string(child) + " has two parents");
        }
        seen = 1;
        if (nodes[static_cast<std::size_t>(child)].parent != sid) {
          r.fail("node " + std::to_string(child) +
                 " parent link does not name the node that links to it");
        }
      }
      if (node.feature >= meta.schema.size()) {
        r.fail("node " + std::to_string(id) + " split feature out of schema");
      }
    } else if (meta.task == cart::Task::kClassification) {
      const double p = node.prediction;
      if (!(p >= 0.0) || p >= static_cast<double>(meta.class_labels.size()) ||
          p != std::floor(p)) {
        r.fail("node " + std::to_string(id) + " leaf class code invalid");
      }
    }
  }
  for (std::size_t id = 1; id < nodes.size(); ++id) {
    if (has_parent[id] == 0) r.fail("node " + std::to_string(id) + " has no parent");
  }
  if (nodes[0].parent != cart::kNoChild) r.fail("root node has a parent link");
}

void write_bytes(std::ostream& out, const unsigned char* data, std::size_t n) {
  out.write(reinterpret_cast<const char*>(data), static_cast<std::streamsize>(n));
}

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> bytes) noexcept {
  // Table-driven IEEE CRC32 (reflected polynomial 0xEDB88320), built once.
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const unsigned char b : bytes) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void save_forest(const cart::Forest& forest, const ModelMetadata& meta,
                 std::ostream& out) {
  util::require(forest.size() > 0, "cannot save an empty forest");
  const cart::Tree& first = forest.trees().front();
  for (const cart::Tree& tree : forest.trees()) {
    util::require(tree.features() == first.features() &&
                      tree.class_labels() == first.class_labels(),
                  "forest trees disagree on feature schema; cannot save");
  }

  ModelMetadata full = meta;
  full.task = forest.task();
  full.schema = first.features();
  full.class_labels = first.class_labels();
  full.oob_error = forest.oob_error();

  std::vector<unsigned char> payload;
  encode_metadata(payload, full);
  put_u64(payload, forest.size());
  for (const cart::Tree& tree : forest.trees()) {
    put_u64(payload, tree.nodes().size());
    for (const cart::Node& node : tree.nodes()) encode_node(payload, node);
  }

  std::vector<unsigned char> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic.begin(), kMagic.end());
  put_u32(header, kFormatVersion);
  put_u64(header, payload.size());
  put_u32(header, crc32(payload));

  write_bytes(out, header.data(), header.size());
  write_bytes(out, payload.data(), payload.size());
  util::require(out.good(), "I/O error writing model artifact");
}

void save_forest_file(const cart::Forest& forest, const ModelMetadata& meta,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  util::require(out.good(), "cannot open artifact for writing: " + path);
  save_forest(forest, meta, out);
  out.close();
  util::require(out.good(), "I/O error closing artifact: " + path);
}

ModelArtifact load_forest(std::istream& in) {
  if (!in.good()) {
    throw artifact_error(ArtifactError::kIoError, "stream not readable");
  }

  std::array<unsigned char, kHeaderBytes> header{};
  in.read(reinterpret_cast<char*>(header.data()), kHeaderBytes);
  const auto header_read = static_cast<std::size_t>(in.gcount());
  if (header_read < kMagic.size() ||
      !std::equal(kMagic.begin(), kMagic.end(), header.begin())) {
    throw artifact_error(ArtifactError::kBadMagic,
                         "not an .rsf artifact (magic mismatch)");
  }
  if (header_read < kHeaderBytes) {
    throw artifact_error(ArtifactError::kTruncated,
                         "file ends inside the 20-byte header");
  }
  const std::span<const unsigned char> header_span(header);
  Reader h(header_span.subspan(kMagic.size()), ArtifactError::kTruncated);
  const std::uint32_t version = h.get_u32();
  if (version != kFormatVersion) {
    throw artifact_error(ArtifactError::kUnsupportedVersion,
                         "format version " + std::to_string(version) +
                             " (this build reads version " +
                             std::to_string(kFormatVersion) + ")");
  }
  const std::uint64_t payload_size = h.get_u64();
  const std::uint32_t expected_crc = h.get_u32();

  // Read the payload in bounded chunks: a corrupted size field must produce
  // a typed error, not a size_t-max allocation.
  std::vector<unsigned char> payload;
  payload.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(payload_size, 1u << 20)));
  constexpr std::size_t kChunk = 1u << 20;
  while (payload.size() < payload_size && in.good()) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, payload_size - payload.size()));
    const std::size_t base = payload.size();
    payload.resize(base + want);
    in.read(reinterpret_cast<char*>(payload.data() + base),
            static_cast<std::streamsize>(want));
    payload.resize(base + static_cast<std::size_t>(in.gcount()));
    if (static_cast<std::size_t>(in.gcount()) < want) break;
  }
  if (payload.size() < payload_size) {
    throw artifact_error(
        ArtifactError::kTruncated,
        "payload ends after " + std::to_string(payload.size()) + " of " +
            std::to_string(payload_size) + " declared bytes");
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    throw artifact_error(ArtifactError::kTrailingBytes,
                         "bytes follow the declared payload");
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != expected_crc) {
    throw artifact_error(ArtifactError::kChecksumMismatch,
                         "payload CRC32 mismatch");
  }

  Reader r(payload, ArtifactError::kMalformedMetadata);
  ModelArtifact artifact;
  artifact.meta = decode_metadata(r);

  r.set_section(ArtifactError::kMalformedForest);
  const std::size_t num_trees = r.get_count(8, "tree");
  if (num_trees == 0) r.fail("forest has no trees");
  std::vector<cart::Tree> trees;
  trees.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::size_t num_nodes = r.get_count(8, "node");
    if (num_nodes == 0) r.fail("tree " + std::to_string(t) + " has no nodes");
    std::vector<cart::Node> nodes;
    nodes.reserve(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i) nodes.push_back(decode_node(r));
    validate_tree(nodes, artifact.meta, r);
    trees.emplace_back(artifact.meta.task, artifact.meta.schema,
                       std::move(nodes), artifact.meta.class_labels);
  }

  if (!r.exhausted()) {
    r.fail(std::to_string(r.remaining()) + " undeclared bytes after the forest");
  }
  // The Forest constructor compiles the flat scoring layout from the trees.
  artifact.forest = std::make_shared<const cart::Forest>(
      artifact.meta.task, std::move(trees), artifact.meta.oob_error);
  return artifact;
}

ModelArtifact load_forest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw artifact_error(ArtifactError::kIoError,
                         "cannot open artifact: " + path);
  }
  return load_forest(in);
}

}  // namespace rainshine::serve
