// Byte-stream abstraction under the wire layer.
//
// The HTTP front-end never talks to a file descriptor directly: every byte
// moves through a `Stream`, so the same parser/server code runs over a real
// TCP socket (socket.hpp), an in-memory buffer (MemoryStream — the fuzz
// suite's substrate) or a fault-injecting wrapper (fault.hpp) that turns a
// healthy peer into the misbehaving clients Meza et al. catalogue in real
// datacenters. Robustness code that is only exercised against well-behaved
// kernels is robustness code that has never run; the Stream seam is what
// lets the chaos suite run it on every commit.
//
// Error model: read_some/write_some report orderly EOF as a 0 return and
// everything else as a typed `io_error` (reset / timeout / closed / other).
// Partial progress is normal — both calls may move fewer bytes than asked —
// and callers must loop (write_all does). This mirrors POSIX semantics so a
// FaultySocket injecting partial I/O is indistinguishable from a busy NIC.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rainshine::net {

/// Why an I/O call failed.
enum class IoStatus : std::uint8_t {
  kReset = 0,  ///< connection aborted by the peer (ECONNRESET / RST)
  kTimeout,    ///< SO_RCVTIMEO / SO_SNDTIMEO expired (slow peer)
  kClosed,     ///< this endpoint already closed/aborted the stream
  kError,      ///< any other socket-level failure (errno in the message)
};

[[nodiscard]] constexpr std::string_view to_string(IoStatus s) noexcept {
  switch (s) {
    case IoStatus::kReset: return "reset";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kClosed: return "closed";
    case IoStatus::kError: return "io-error";
  }
  return "?";
}

/// Thrown by Stream operations on anything other than success or orderly
/// EOF. Catch this (or inspect `status()`) instead of matching messages.
class io_error : public std::runtime_error {
 public:
  io_error(IoStatus status, const std::string& message)
      : std::runtime_error(std::string(to_string(status)) + ": " + message),
        status_(status) {}

  [[nodiscard]] IoStatus status() const noexcept { return status_; }

 private:
  IoStatus status_;
};

class Stream {
 public:
  virtual ~Stream() = default;

  /// Reads 1..buf.size() bytes into `buf`; returns the count, or 0 on
  /// orderly EOF. Throws io_error on reset/timeout/failure.
  [[nodiscard]] virtual std::size_t read_some(std::span<char> buf) = 0;

  /// Writes 1..buf.size() bytes from `buf`; returns the count actually
  /// written (may be short). Throws io_error on reset/timeout/failure.
  [[nodiscard]] virtual std::size_t write_some(std::span<const char> buf) = 0;

  /// Abandons the stream abruptly (RST for TCP). Idempotent, never throws —
  /// this is the "give up on a hopeless peer" path.
  virtual void abort() noexcept = 0;

  /// Loops write_some until every byte of `data` is on the wire.
  void write_all(std::string_view data) {
    std::span<const char> rest(data.data(), data.size());
    while (!rest.empty()) {
      rest = rest.subspan(write_some(rest));
    }
  }
};

/// In-memory Stream: reads come from a scripted input (optionally doled out
/// in bounded chunks, to exercise incremental parsing), writes accumulate in
/// a string. The fuzz and fault-injection unit tests run on this.
class MemoryStream final : public Stream {
 public:
  explicit MemoryStream(std::string input, std::size_t max_chunk = SIZE_MAX)
      : input_(std::move(input)), max_chunk_(max_chunk == 0 ? 1 : max_chunk) {}

  std::size_t read_some(std::span<char> buf) override {
    if (aborted_) throw io_error(IoStatus::kClosed, "MemoryStream aborted");
    if (pos_ >= input_.size()) return 0;  // orderly EOF
    const std::size_t n =
        std::min({buf.size(), input_.size() - pos_, max_chunk_});
    input_.copy(buf.data(), n, pos_);
    pos_ += n;
    return n;
  }

  std::size_t write_some(std::span<const char> buf) override {
    if (aborted_) throw io_error(IoStatus::kClosed, "MemoryStream aborted");
    const std::size_t n = std::min(buf.size(), max_chunk_);
    written_.append(buf.data(), n);
    return n;
  }

  void abort() noexcept override { aborted_ = true; }

  [[nodiscard]] const std::string& written() const noexcept { return written_; }
  [[nodiscard]] bool aborted() const noexcept { return aborted_; }

 private:
  std::string input_;
  std::size_t pos_ = 0;
  std::size_t max_chunk_;
  std::string written_;
  bool aborted_ = false;
};

}  // namespace rainshine::net
